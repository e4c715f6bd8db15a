import functools
import random

import pytest

from djem.errors import ParityError, TruncationError, ValidationError
from djem.linalg import SparseMatrix
from djem.sl2 import (IndexPoly, LadderInfo, ModuleMap, WeightModule, _bracket_by_matrices,
                      _ladder_identity_holds, bgg_morphism, check_bracket_relations,
                      default_truncation, dual_verma, n_finite_dual, simple, verma)


def entry(m, mu, op):
    return m.op_block(mu, op).entry(0, 0)


# -- raising/lowering ladders -------------------------------------------------


def test_verma_lowering_matches_closed_form():
    k = 4
    m = verma(-k, 10)
    for i in range(1, 11):
        assert entry(m, -k + 2 * i, "y") == i * (k - (i - 1))
    for i in range(10):
        assert entry(m, -k + 2 * i, "x") == 1


def test_verma_generating_vector():
    m = verma(6, 8)
    assert m.y_block(6).rows == 0  # Y kills e_0
    assert m.dims[6] == 1 and m.basis_labels[6] == ("e_0",)


def test_verma_coefficient_root_and_bracket_by_matrices():
    m = verma(-2, 8)
    assert entry(m, -2 + 2 * 3, "y") == 0  # -3(-2+2) = 0
    mu = 2
    xy = m.x_block(mu - 2) * m.y_block(mu)
    yx = m.y_block(mu + 2) * m.x_block(mu)
    assert xy - yx == SparseMatrix.scalar(1, mu)


def test_verma_rejects_odd_weight():
    with pytest.raises(ParityError):
        verma(3, 5)
    with pytest.raises(ParityError):
        dual_verma(-1, 5)


def test_dual_verma_actions():
    k = 4
    m = dual_verma(-k, 12)
    for i in range(1, 13):
        assert entry(m, -k + 2 * i, "y") == 1
    for i in range(12):
        assert entry(m, -k + 2 * i, "x") == (i + 1) * (k - i)
    assert entry(m, k, "x") == 0  # the finite submodule closes off at e_k


def test_dual_verma_bracket_at_second_rung():
    lam = -6
    m = dual_verma(lam, 9)
    mu = lam + 2
    xy = m.x_block(mu - 2) * m.y_block(mu)
    yx = m.y_block(mu + 2) * m.x_block(mu)
    assert xy - yx == SparseMatrix.scalar(1, mu)


def test_simple_trivial_module():
    s = simple(0)
    assert s.weights == (0,)
    assert s.x_block(0).rows == 0 and s.y_block(0).rows == 0


def test_simple_three_dimensional():
    s = simple(-2)
    assert s.weights == (-2, 0, 2)
    assert s.total_dim() == 3
    # the quotient is well defined: in the covering ladder Y e_3 = 3(2-2) e_2 = 0
    big = verma(-2, 8)
    assert entry(big, -2 + 2 * 3, "y") == 0


def test_simple_weight_multiset():
    for k in (0, 2, 4, 8):
        s = simple(-k)
        assert s.weights == tuple(range(-k, k + 1, 2))
        assert all(s.dims[w] == 1 for w in s.weights)


def test_simple_rejects_positive_argument():
    with pytest.raises(ValidationError):
        simple(2)


def test_quotient_map_onto_simple_is_equivariant():
    k = 4
    big = verma(-k, 12)
    small = simple(-k)
    qmap = ModuleMap(big, small, {w: SparseMatrix.identity(1) for w in small.weights})
    assert qmap.is_equivariant()


# -- duals --------------------------------------------------------------------


def test_dual_of_verma_actions():
    k = 4
    d = n_finite_dual(verma(-k, 12))
    assert d.basis_labels[k] == ("ê_0",)  # ê_i has weight k - 2i
    for i in range(1, 13):
        assert entry(d, k - 2 * i, "x") == -1
    for i in range(12):
        assert entry(d, k - 2 * i, "y") == -(i + 1) * (k - i)


def test_dual_of_dual_verma_actions():
    k = 4
    d = n_finite_dual(dual_verma(-k, 12))
    for i in range(12):
        assert entry(d, k - 2 * i, "y") == -1
    # X ê_i = i(-k+(i-1)) ê_{i-1}: magnitude from the pairing, sign forced by [X,Y] = H
    for i in range(1, 13):
        assert entry(d, k - 2 * i, "x") == i * (-k + i - 1)
    assert check_bracket_relations(d)


def test_double_dual_restores_all_matrices():
    for mk in (0, -2, -6):
        s = simple(mk)
        dd = n_finite_dual(n_finite_dual(s))
        assert dd.weights == s.weights
        assert dd.family == s.family
        for mu in s.weights:
            assert dd.x_block(mu) == s.x_block(mu)
            assert dd.y_block(mu) == s.y_block(mu)
        assert dd.basis_labels == s.basis_labels


def test_bracket_relations_hold_for_all_constructors():
    rng = random.Random(99)
    for _ in range(30):
        lam = 2 * rng.randint(-6, 6)
        t = rng.randint(0, 12)
        for ctor in (verma, dual_verma):
            m = ctor(lam, t)
            assert check_bracket_relations(m)
            assert check_bracket_relations(n_finite_dual(m))


def test_bracket_detects_corruption():
    m = verma(-4, 8)
    blocks = m.stored_y_blocks()
    mu = -4 + 2 * 2
    blocks[mu] = blocks[mu] + SparseMatrix.from_rows([[1]])
    corrupted = WeightModule("generic", m.lowest_label_weight, m.weights, m.dims,
                             m.stored_x_blocks(), blocks, m.bottom_exact, m.top_exact,
                             m.truncation, m.basis_labels)
    assert not check_bracket_relations(corrupted)


def _variant(m, ladder, x_blocks, y_blocks, bottom_exact, top_exact):
    return WeightModule(m.family, m.lowest_label_weight, m.weights, m.dims, x_blocks, y_blocks,
                        bottom_exact, top_exact, m.truncation, m.basis_labels, ladder)


def _blocks_from(m, ladder):
    """Stored X and Y blocks of m's window read off the ladder polynomials."""
    n, s = len(m.weights), 2 // ladder.step
    xs, ys = {}, {}
    for i in range(n):
        mu = m.lowest_label_weight + ladder.step * i
        if 0 <= i + s < n:
            xs[mu] = SparseMatrix.from_rows([[ladder.coeff_x(i)]])
        if 0 <= i - s < n:
            ys[mu] = SparseMatrix.from_rows([[ladder.coeff_y(i)]])
    return xs, ys


@functools.cache
def _full_window(ctor, lam, dual):
    m = simple(-abs(lam)) if ctor is simple else ctor(lam, 40)
    return n_finite_dual(m) if dual else m


def _window(m, trunc):
    """The truncated module m cut to ladder indices 0..trunc: what its
    constructor builds with that truncation, sharing m's blocks."""
    keep = {m.lowest_label_weight + m.ladder.step * i for i in range(trunc + 1)}
    xs = {mu: b for mu, b in m.stored_x_blocks().items() if {mu, mu + 2} <= keep}
    ys = {mu: b for mu, b in m.stored_y_blocks().items() if {mu, mu - 2} <= keep}
    return WeightModule(m.family, m.lowest_label_weight, keep, {mu: 1 for mu in keep}, xs, ys,
                        m.bottom_exact, m.top_exact, trunc,
                        {mu: m.basis_labels[mu] for mu in keep}, m.ladder)


def test_window_is_the_truncated_constructor():
    for ctor, lam, trunc, dual in ((verma, -6, 0, False), (verma, 4, 13, True),
                                   (dual_verma, -40, 40, False), (dual_verma, 8, 7, True)):
        built = ctor(lam, trunc)
        built = n_finite_dual(built) if dual else built
        cut = _window(_full_window(ctor, lam, dual), trunc)
        for attr in ("family", "weights", "basis_labels", "bottom_exact", "top_exact",
                     "truncation", "ladder"):
            assert getattr(cut, attr) == getattr(built, attr), attr
        assert cut.stored_x_blocks() == built.stored_x_blocks()
        assert cut.stored_y_blocks() == built.stored_y_blocks()


def _random_module(rng):
    """A family module or its dual, as built or altered in one of four ways."""
    lam, trunc = 2 * rng.randint(-20, 20), rng.randint(0, 40)
    ctor = rng.choice((verma, dual_verma, simple))
    m = _full_window(ctor, lam, rng.random() < 0.5)
    if ctor is not simple:
        m = _window(m, trunc)
    xs, ys = m.stored_x_blocks(), m.stored_y_blocks()
    edges = (m.bottom_exact, m.top_exact)
    how = rng.choice(("as-built",) * 3 + ("edges",) * 3 + ("corrupt-block", "generic",
                                                           "wrong-ladder"))
    if how == "edges":
        edges = (rng.random() < 0.5, rng.random() < 0.5)
    elif how == "corrupt-block" and len(m.weights) > 1:
        blocks = rng.choice([b for b in (xs, ys) if b])
        mu = rng.choice(sorted(blocks))
        blocks[mu] = blocks[mu] + SparseMatrix.from_rows([[rng.choice((-2, -1, 1, 3))]])
    elif how == "corrupt-block":
        how = "as-built"  # a one-weight window stores no block
    elif how == "wrong-ladder":
        coeffs = list(m.ladder.coeff_y.coeffs) + [0, 0]
        coeffs[0] += rng.randint(-3, 3)
        coeffs[1] += rng.randint(-1, 1)
        ladder = LadderInfo(m.ladder.step, m.ladder.coeff_x, IndexPoly(coeffs))
        return how, _variant(m, ladder, *_blocks_from(m, ladder), *edges)
    return how, _variant(m, None if how == "generic" else m.ladder, xs, ys, *edges)


def test_ladder_bracket_agrees_with_matrix_check():
    rng = random.Random(20260411)
    seen = {}
    for _ in range(2000):
        how, m = _random_module(rng)
        verdict = check_bracket_relations(m)
        assert verdict == _bracket_by_matrices(m), (how, m)
        fast = _ladder_identity_holds(m)
        seen[how, fast, verdict] = seen.get((how, fast, verdict), 0) + 1
    # Both verdicts, and both paths, are exercised where they can occur.
    for key in (("as-built", True, True), ("edges", True, True), ("edges", True, False),
                ("corrupt-block", False, False), ("generic", False, True),
                ("wrong-ladder", False, False)):
        assert seen.get(key, 0) >= 20, (key, seen)
    assert not any(fast for (how, fast, _) in seen if how in ("corrupt-block", "generic"))


def test_weight_module_rejects_other_than_one_dimensional_weight_spaces():
    for d in (2, 0):
        with pytest.raises(ValidationError, match="one-dimensional"):
            WeightModule("generic", 0, (0, 2), {0: 1, 2: d}, {}, {}, True, True, None,
                         {0: ("e_0",), 2: ("e_1",) * d})


def test_bracket_on_empty_module():
    empty = WeightModule("generic", 0, (), {}, {}, {}, True, True, None, {})
    assert check_bracket_relations(empty)


def test_lowering_coefficient_roots_scan():
    k = 6
    m = verma(-k, 20)
    zero_indices = [0] + [i for i in range(1, 21) if entry(m, -k + 2 * i, "y") == 0]
    assert zero_indices == [0, k + 1]


def test_truncation_coherence():
    for ctor in (verma, dual_verma):
        small, big = ctor(-4, 6), ctor(-4, 14)
        for mu in small.weights:
            assert big.y_block(mu) == small.y_block(mu)
            sx = small.x_block(mu)
            if sx is not None:
                assert big.x_block(mu) == sx


# -- the ladder embedding -----------------------------------------------------


def test_embedding_equivariance_and_seam():
    k = 4
    em = bgg_morphism(k, 20)
    assert em.is_equivariant()
    # the seam closes because Y vanishes at index k+1 of the target
    assert entry(em.target, -k + 2 * (k + 1), "y") == 0


def test_embedding_smallest_case():
    em = bgg_morphism(0, 16)
    assert em.source.lowest_label_weight == 2
    assert em.block(2) == SparseMatrix.identity(1)  # e'_0 -> e_1


def test_embedding_cokernel_equals_simple():
    for k in (0, 2, 6):
        em = bgg_morphism(k)
        expected = simple(-k)
        cok = em.cokernel_dims()
        for mu in em.target.weights:
            assert cok.get(mu, 0) == expected.dim_at(mu)


def test_embedding_truncation_too_small():
    with pytest.raises(TruncationError):
        bgg_morphism(4, 5)


def test_default_truncation_margin():
    assert default_truncation(-4) == 20
    assert default_truncation(0) == 16


# -- index polynomials ---------------------------------------------------------


def test_index_poly_eval_shift_roots():
    p = IndexPoly((0, 5, -1))  # -i(i - 5)
    assert [p(i) for i in range(7)] == [0, 4, 6, 6, 4, 0, -6]
    assert p.integer_roots() == (0, 5)
    q = p.shifted(1)
    assert [q(i) for i in range(6)] == [p(i + 1) for i in range(6)]
    assert (-p)(3) == -6


def test_index_poly_no_integer_roots():
    assert IndexPoly((2, 0, 1)).integer_roots() == ()   # i^2 + 2
    assert IndexPoly((1, 2)).integer_roots() == ()      # 2i + 1
    assert IndexPoly((7,)).integer_roots() == ()


def test_index_poly_text():
    assert IndexPoly((-4, -3, 1)).text() == "i^2-3*i-4"
    assert IndexPoly((1,)).text() == "1"
    assert IndexPoly(()).text() == "0"
