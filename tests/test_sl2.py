import functools
import random
import re
from fractions import Fraction
from itertools import zip_longest

import pytest

import rref_oracle as oracle
from djem.characters import SmoothCharacter, TorusCharacter
from djem.cohomology import kostant_check
from djem.errors import ParityError, TruncationError, ValidationError
from djem.extbound import classify_ext
from djem.jacquet import OrlikStrauchSpec, assemble_les, build_module, les_consistency_check
from djem.sl2 import (IndexPoly, ModuleMap, WeightModule, bgg_morphism,
                      check_bracket_relations, default_truncation, dual_verma, n_finite_dual,
                      simple, verma)
from ladder_blocks import block, value
from test_cohomology import _hand_made_ladder, _times


def entry(m, mu, op):
    return value(block(m, mu, op))


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
    assert block(m, 6, "y") == ([], 1)  # Y kills e_0
    assert m.dim_at(6) == 1 and m.labels_at(6) == ("e_0",)


def test_verma_coefficient_root_and_bracket_by_matrices():
    m = verma(-2, 8)
    assert entry(m, -2 + 2 * 3, "y") == 0  # -3(-2+2) = 0
    mu = 2
    xy = entry(m, mu - 2, "x") * entry(m, mu, "y")
    yx = entry(m, mu + 2, "y") * entry(m, mu, "x")
    assert xy - yx == mu


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
    xy = entry(m, mu - 2, "x") * entry(m, mu, "y")
    yx = entry(m, mu + 2, "y") * entry(m, mu, "x")
    assert xy - yx == mu


def test_simple_trivial_module():
    s = simple(0)
    assert tuple(s.weights) == (0,)
    assert block(s, 0, "x") == block(s, 0, "y") == ([], 1)


def test_simple_three_dimensional():
    s = simple(-2)
    assert tuple(s.weights) == (-2, 0, 2)
    assert s.length == 3
    # the quotient is well defined: in the covering ladder Y e_3 = 3(2-2) e_2 = 0
    big = verma(-2, 8)
    assert entry(big, -2 + 2 * 3, "y") == 0


def test_simple_weight_multiset():
    for k in (0, 2, 4, 8):
        s = simple(-k)
        assert tuple(s.weights) == tuple(range(-k, k + 1, 2))
        assert all(s.dim_at(w) == 1 for w in s.weights)


def test_simple_rejects_positive_argument():
    with pytest.raises(ValidationError):
        simple(2)


def test_quotient_map_onto_simple_is_equivariant():
    k = 4
    big = verma(-k, 12)
    small = simple(-k)
    qmap = ModuleMap(big, small, 0)
    assert qmap.is_equivariant()


# -- duals --------------------------------------------------------------------


def test_dual_of_verma_actions():
    k = 4
    d = n_finite_dual(verma(-k, 12))
    assert d.labels_at(k) == ("ê_0",)  # ê_i has weight k - 2i
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
        # duality is the hatted flag alone; the repr names the dual's family
        assert repr(n_finite_dual(s)) == ("WeightModule(n-finite-dual(simple), "
                                          f"weights [{mk}, {-mk}], dim {1 - mk})")
        assert repr(dd) == repr(s)
        for mu in s.weights:
            assert block(dd, mu, "x") == block(s, mu, "x")
            assert block(dd, mu, "y") == block(s, mu, "y")
        assert [dd.labels_at(mu) for mu in dd.weights] == [s.labels_at(mu) for mu in s.weights]


def test_bracket_relations_hold_for_all_constructors():
    rng = random.Random(99)
    for _ in range(30):
        lam = 2 * rng.randint(-6, 6)
        t = rng.randint(0, 12)
        for ctor in (verma, dual_verma):
            m = ctor(lam, t)
            assert check_bracket_relations(m)
            assert check_bracket_relations(n_finite_dual(m))


def _variant(m, coeff_y=None, edges=None):
    """m on the same window with another Y polynomial (a ladder that is wrong
    for the window) or other edge exactness."""
    bottom_exact, top_exact = edges or (m.bottom_exact, m.top_exact)
    return WeightModule(m.family, m.step, m.coeff_x, coeff_y or m.coeff_y,
                        m.lowest_label_weight, m.length, bottom_exact, top_exact, m.hatted)


def test_bracket_detects_corruption():
    m = verma(-4, 8)
    # Every Y coefficient is off by one, e.g. Y e_2 = 2(4 - 1) + 1 = 7.
    coeffs = list(m.coeff_y.coeffs)
    corrupted = _variant(m, IndexPoly([coeffs[0] + 1] + coeffs[1:]))
    assert entry(corrupted, -4 + 2 * 2, "y") == 7
    assert not check_bracket_relations(corrupted)


def _bracket_by_matrices(m):
    """The bracket weight by weight, multiplying the entries of the blocks."""
    def holds(mu):
        x_mu, y_mu = block(m, mu, "x"), block(m, mu, "y")
        if x_mu is None or y_mu is None:
            return True
        xy = entry(m, mu - 2, "x") * value(y_mu) if y_mu[0] else 0
        yx = entry(m, mu + 2, "y") * value(x_mu) if x_mu[0] else 0
        return xy - yx == mu
    return all(holds(mu) for mu in m.weights)


@functools.cache
def _full_window(ctor, lam, dual):
    m = simple(-abs(lam)) if ctor is simple else ctor(lam, 40)
    return n_finite_dual(m) if dual else m


def _window(m, trunc):
    """The truncated module m cut to ladder indices 0..trunc: what its
    constructor builds with that truncation."""
    return WeightModule(m.family, m.step, m.coeff_x, m.coeff_y, m.lowest_label_weight,
                        trunc + 1, m.bottom_exact, m.top_exact, m.hatted)


def _views(m):
    return [(mu, block(m, mu, "x"), block(m, mu, "y")) for mu in m.weights]


def test_window_is_the_truncated_constructor():
    for ctor, lam, trunc, dual in ((verma, -6, 0, False), (verma, 4, 13, True),
                                   (dual_verma, -40, 40, False), (dual_verma, 8, 7, True)):
        built = ctor(lam, trunc)
        built = n_finite_dual(built) if dual else built
        cut = _window(_full_window(ctor, lam, dual), trunc)
        for attr in ("family", "weights", "length", "bottom_exact", "top_exact",
                     "truncation", "step", "coeff_x", "coeff_y"):
            assert getattr(cut, attr) == getattr(built, attr), attr
        assert [cut.labels_at(mu) for mu in cut.weights] == [
            built.labels_at(mu) for mu in built.weights]
        assert _views(cut) == _views(built)


def _random_module(rng):
    """A family module or its dual, as built, with other edges, or with a
    perturbed Y polynomial."""
    lam, trunc = 2 * rng.randint(-20, 20), rng.randint(0, 40)
    ctor = rng.choice((verma, dual_verma, simple))
    m = _full_window(ctor, lam, rng.random() < 0.5)
    if ctor is not simple:
        m = _window(m, trunc)
    how = rng.choice(("as-built",) * 3 + ("edges",) * 3 + ("wrong-ladder",))
    if how == "edges":
        return how, _variant(m, edges=(rng.random() < 0.5, rng.random() < 0.5))
    if how == "wrong-ladder":
        # The linear coefficient moves, so the polynomial stays nonzero of
        # degree at most 2 and differs from the one the ladder was built with.
        coeffs = list(m.coeff_y.coeffs) + [0, 0]
        coeffs[0] += rng.randint(-3, 3)
        coeffs[1] += rng.choice((1, -1))
        return how, _variant(m, IndexPoly(coeffs))
    return how, m


def _edge_windows(m):
    """The ladder of m on two 40-index windows, one starting at m's first
    ladder index and one ending at its last, each keeping m's edge kind at
    that end and cut at the other: each reads the identity at 38 interior
    indices and decides the edge it keeps with both neighbours known."""
    step, cx, cy = m.step, m.coeff_x, m.coeff_y
    first_exact, last_exact = ((m.bottom_exact, m.top_exact) if step > 0
                               else (m.top_exact, m.bottom_exact))
    for first, exact_ends in ((0, (first_exact, False)), (m.length - 40, (False, last_exact))):
        low, high = exact_ends if step > 0 else exact_ends[::-1]
        yield WeightModule(m.family, step, cx.shifted(first), cy.shifted(first),
                           m.lowest_label_weight + step * first, 40, low, high, m.hatted)


def test_ladder_bracket_agrees_with_matrix_check():
    # The bracket is an identity in the ladder index, a polynomial of degree
    # far below 38.  The matrices of the module as given decide its exact
    # edges only where the window holds the other neighbour; a window of one
    # weight cut on one side cannot, so each edge is also read on a 40-index
    # window of the same ladder that ends there.
    rng = random.Random(20260411)
    seen = {}
    for _ in range(2000):
        how, m = _random_module(rng)
        verdict = check_bracket_relations(m)
        reference = all(map(_bracket_by_matrices, (m, *_edge_windows(m))))
        assert verdict == reference, (how, m)
        seen[how, verdict] = seen.get((how, verdict), 0) + 1
    # Both verdicts are exercised where they can occur.
    for key in (("as-built", True), ("edges", True), ("edges", False), ("wrong-ladder", False)):
        assert seen.get(key, 0) >= 20, (key, seen)


def _bracket_identity(m):
    """The bracket as one polynomial identity, products multiplied out:
    cx(i - s) cy(i) - cy(i + s) cx(i) - (w0 + step i) is the zero polynomial,
    and at each exact edge the product through the missing line is 0."""
    step, cx, cy = m.step, m.coeff_x, m.coeff_y
    s = 2 // step
    terms = (_times(cx.shifted(-s).coeffs, cy.coeffs),
             [-c for c in _times(cy.shifted(s).coeffs, cx.coeffs)],
             (-m.lowest_label_weight, -step))
    lo, hi = (0, m.length - 1) if step > 0 else (m.length - 1, 0)
    return (not any(map(sum, zip_longest(*terms, fillvalue=0)))
            and not (m.bottom_exact and cx(lo - s) * cy(lo))
            and not (m.top_exact and cy(hi + s) * cx(hi)))


def test_bracket_check_is_the_polynomial_identity():
    # Seeded ladders of step 2 and -2, most built to satisfy the identity,
    # a third of them with one of the three lowest coefficients of X or Y
    # then moved by one.  A move that leaves the zero polynomial is refused
    # when the coefficient is made, and counted as such.
    rng = random.Random(20261025)
    verdicts = {}
    for _ in range(10000):
        m = _hand_made_ladder(rng)
        if rng.random() < 0.3:
            which = rng.choice(("coeff_x", "coeff_y"))
            coeffs = (list(getattr(m, which).coeffs) + [0, 0])[:3]
            coeffs[rng.randrange(3)] += rng.choice((1, -1))
            if not any(coeffs):
                with pytest.raises(ValidationError, match="nonzero polynomial"):
                    IndexPoly(coeffs)
                verdicts["refused"] = verdicts.get("refused", 0) + 1
                continue
            polys = {"coeff_x": m.coeff_x, "coeff_y": m.coeff_y, which: IndexPoly(coeffs)}
            m = WeightModule(m.family, m.step, polys["coeff_x"], polys["coeff_y"],
                             m.lowest_label_weight, m.length, m.bottom_exact, m.top_exact,
                             m.hatted)
        verdict = check_bracket_relations(m)
        assert verdict == _bracket_identity(m), m
        verdicts[m.step, verdict] = verdicts.get((m.step, verdict), 0) + 1
    for key in ((2, True), (2, False), (-2, True), (-2, False)):
        assert verdicts.get(key, 0) >= 200, verdicts
    assert verdicts.get("refused", 0) >= 20, verdicts


def test_bracket_failing_only_above_the_lowest_interior_weight():
    # verma(0) with (i-1)(i-2) added to Y: Y e_i = (2 - 2i) e_{i-1}.  On an
    # interior weight the bracket reads 2 - 2i = 2i, true at i = 1 only, and
    # it holds at the exact bottom end; the identity fails at every other index.
    m = verma(0, 40)
    bent = _variant(m, IndexPoly([2, -2]))
    for edges in ((True, False), (True, True)):
        assert not check_bracket_relations(_variant(bent, edges=edges)), edges


def test_weight_module_rejects_other_than_one_dimensional_weight_spaces():
    # A ladder of step 0 puts every basis vector at one weight (a space of
    # dimension 2 or more); a step of 4 leaves the weights between rungs at
    # dimension 0.  Only steps 2 and -2 give one dimension at each weight; a
    # float 2.0 would make every ladder index a float.
    cx, cy = verma(0, 4).coeff_x, verma(0, 4).coeff_y
    for bad in ((None, cx, cy), (0, cx, cy), (4, cx, cy), (2.0, cx, cy), (2, None, cy),
                (2, cx, (1,))):
        with pytest.raises(ValidationError, match="step of 2 or -2 and IndexPoly coefficients"):
            WeightModule("generic", *bad, 0, 3, True, True)
    m = WeightModule("generic", 2, cx, cy, 0, 3, True, True)
    assert tuple(m.weights) == (0, 2, 4)
    assert [m.dim_at(mu) for mu in range(-2, 7)] == [0, 0, 1, 0, 1, 0, 1, 0, 0]


def test_bracket_on_empty_module():
    # The empty module is refused at construction, so the bracket check is
    # never asked of it; the smallest module it can be asked of has one weight.
    cx, cy = verma(0, 4).coeff_x, verma(0, 4).coeff_y
    for length in (0, -1):
        with pytest.raises(ValidationError, match="at least one weight"):
            WeightModule("generic", 2, cx, cy, 0, length, True, True)
    single = WeightModule("generic", 2, cx, cy, 0, 1, True, True)
    assert tuple(single.weights) == (0,)
    assert check_bracket_relations(single)


def test_lowering_coefficient_roots_scan():
    k = 6
    m = verma(-k, 20)
    zero_indices = [0] + [i for i in range(1, 21) if entry(m, -k + 2 * i, "y") == 0]
    assert zero_indices == [0, k + 1]


def test_truncation_coherence():
    for ctor in (verma, dual_verma):
        small, big = ctor(-4, 6), ctor(-4, 14)
        for mu in small.weights:
            assert block(big, mu, "y") == block(small, mu, "y")
            sx = block(small, mu, "x")
            if sx is not None:
                assert block(big, mu, "x") == sx


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
    assert em.offset == 1  # e'_0 -> e_1
    assert em.source.labels_at(2) == ("e_0",) and em.target.labels_at(2) == ("e_1",)


def test_embedding_cokernel_equals_simple():
    for k in (0, 2, 6):
        em = bgg_morphism(k)
        expected = simple(-k)
        cok = em.cokernel_dims()
        for mu in em.target.weights:
            assert cok.get(mu, 0) == expected.dim_at(mu)


def _block_product(a, b):
    (da, ca), (db, cb) = a, b
    return [[sum(da[r][j] * db[j][c] for j in range(ca)) for c in range(cb)]
            for r in range(len(da))], cb


def _zero(rows, cols):
    return [[0] * cols for _ in range(rows)], cols


def _per_weight_map(qmap):
    """(is_equivariant, cokernel_dims) of a ladder shift from its per-weight
    blocks: the 1x1 identity wherever source and target share a weight,
    multiplied with the operator blocks at every source weight."""
    s, t = qmap.source, qmap.target

    def map_block(mu):
        if s.dim_at(mu) and t.dim_at(mu):
            return [[1]], 1
        return _zero(t.dim_at(mu), s.dim_at(mu))

    def commutes(mu, op, delta):
        s_op = block(s, mu, op)
        t_op = block(t, mu, op) if t.dim_at(mu) else _zero(t.dim_at(mu + delta), 0)
        if s_op is None or t_op is None:
            return True
        return _block_product(t_op, map_block(mu)) == _block_product(map_block(mu + delta), s_op)

    equivariant = all(commutes(mu, op, delta) for mu in s.weights
                      for op, delta in (("x", 2), ("y", -2)))
    cokernel = {mu: t.dim_at(mu) - oracle.rank(*map_block(mu)) for mu in t.weights}
    return equivariant, {mu: dim for mu, dim in cokernel.items() if dim}


def _shifted_ladders(rng):
    """A random ladder shift: the target's polynomials are the source's moved
    by the offset, or are perturbed; windows and edges are random.  Every
    leading coefficient is at least 2 in size, and shifting keeps it, so
    moving one of the three lowest coefficients by one leaves a nonzero
    polynomial of degree at most 2."""
    step, offset = rng.choice((2, -2)), rng.randint(-6, 6)
    poly = lambda: IndexPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
                             + [rng.choice((-3, -2, 2, 3))])
    cx, cy = poly(), poly()
    source = WeightModule("generic", step, cx, cy, 2 * rng.randint(-10, 10),
                          rng.randint(1, 12), rng.random() < 0.5, rng.random() < 0.5)
    tx, ty = cx.shifted(-offset), cy.shifted(-offset)
    if rng.random() < 0.3:
        coeffs = (list((tx if rng.random() < 0.5 else ty).coeffs) + [0, 0])[:3]
        coeffs[rng.randrange(3)] += rng.choice((1, -1))
        tx, ty = (IndexPoly(coeffs), ty) if rng.random() < 0.5 else (tx, IndexPoly(coeffs))
    target = WeightModule("generic", step, tx, ty,
                          source.lowest_label_weight - step * offset, rng.randint(1, 12),
                          rng.random() < 0.5, rng.random() < 0.5)
    return ModuleMap(source, target, offset)


def test_ladder_shift_agrees_with_per_weight_blocks():
    rng = random.Random(20261019)
    maps = [bgg_morphism(k, trunc) for k in range(0, 41, 2)
            for trunc in {k + 2, k + 3, 2 * k + 5, default_truncation(k), k + 40}]
    maps += [ModuleMap(verma(-k, trunc), simple(-k), 0) for k in range(0, 41, 2)
             for trunc in (0, k // 2, k, k + 1, k + 7)]
    maps += [_shifted_ladders(rng) for _ in range(1500)]
    verdicts = {}
    for qmap in maps:
        equivariant, cokernel = _per_weight_map(qmap)
        assert qmap.is_equivariant() == equivariant, (qmap.source, qmap.target, qmap.offset)
        assert qmap.cokernel_dims() == cokernel
        verdicts[equivariant] = verdicts.get(equivariant, 0) + 1
    assert verdicts.get(True, 0) >= 200 and verdicts.get(False, 0) >= 200, verdicts


def test_cokernel_ranges_are_the_missed_target_weights():
    rng = random.Random(20261022)
    maps = [_shifted_ladders(rng) for _ in range(500)]
    maps += [bgg_morphism(k, trunc) for k in range(0, 41, 2) for trunc in (k + 2, 3 * k + 7)]
    for qmap in maps:
        below, above = qmap.cokernel_ranges()
        assert [*below, *above] == sorted(_per_weight_map(qmap)[1])
        s = qmap.source
        assert all(mu < s.min_weight for mu in below) and all(mu > s.max_weight for mu in above)
    # The embedding misses exactly the window of simple(-k), below its source.
    for k in range(0, 41, 2):
        for trunc in (k + 2, default_truncation(k), 3 * k + 7):
            assert bgg_morphism(k, trunc).cokernel_ranges() == (simple(-k).weights, range(0))
    # A source inside the target leaves a cokernel on both sides.
    below, above = ModuleMap(verma(4, 2), verma(-2, 10), 3).cokernel_ranges()
    assert (tuple(below), tuple(above)) == ((-2, 0, 2), (10, 12, 14, 16, 18))


def _generic(cx, cy, lowest, length, bottom_exact, top_exact):
    return WeightModule("generic", 2, cx, cy, lowest, length, bottom_exact, top_exact)


def test_shift_differing_past_the_lowest_shared_weights():
    # The source (indices j = 0..9, weights 0..18) sits inside the target
    # (offset 2, weights -4..22) with both its edges cut, so its two ends
    # check only the X identity at j = 0 and the Y identity at j = 9.  The
    # moved target X polynomial differs from the source's by 3 j (j - 1),
    # zero at the two lowest shared indices; d = 2.
    cx, cy = IndexPoly([1]), IndexPoly([0, 1, -1])
    source = _generic(cx, cy, 0, 10, False, False)
    tx = IndexPoly([1, -3, 3]).shifted(-2)  # 1 + 3 j (j - 1) at j = index - 2
    target = _generic(tx, cy.shifted(-2), -4, 14, True, True)
    qmap = ModuleMap(source, target, 2)
    assert all(qmap._commutes_at(mu) for mu in (0, 2, 18))
    assert not qmap._commutes_at(4)
    assert not qmap.is_equivariant()
    assert _per_weight_map(qmap)[0] is False


def test_shift_whose_y_differs_past_the_lowest_shared_weights():
    # The source (j = 0..15, weights 0..30) runs past the target (offset 1,
    # weights -2..18) by more than one weight, and its Y polynomial j - 10
    # vanishes at weight 20, so the seam just above the target commutes.  The
    # moved target Y polynomial j^2 - 2j - 8 differs from the source's by
    # (j - 1)(j - 2), zero at the second and third shared weights.  Y is an
    # identity only where the weight below is shared, so with d = 2 the
    # fourth shared weight decides.
    cx, cy = IndexPoly([1]), IndexPoly([-10, 1])
    source = _generic(cx, cy, 0, 16, False, False)
    target = _generic(cx, IndexPoly([-8, -2, 1]).shifted(-1), -2, 11, True, True)
    qmap = ModuleMap(source, target, 1)
    assert all(qmap._commutes_at(mu) for mu in (0, 2, 4, 20, 30))
    assert not qmap._commutes_at(6)
    assert not qmap.is_equivariant()
    assert _per_weight_map(qmap)[0] is False


def test_ladder_shift_must_preserve_weights():
    with pytest.raises(ValidationError, match="preserve weights"):
        ModuleMap(verma(2, 4), verma(0, 4), 0)
    with pytest.raises(ValidationError, match="preserve weights"):
        ModuleMap(n_finite_dual(verma(0, 4)), verma(0, 4), 0)


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


def _horner(coeffs, i):
    out = 0
    for c in reversed(coeffs):
        out = out * i + c
    return out


def _horner_shift(coeffs, s):
    """Coefficients of p(i + s) by Horner in (i + s), trailing zeros kept."""
    out = [0]
    for c in reversed(coeffs):
        nxt = [0] * (len(out) + 1)
        for j, a in enumerate(out):
            nxt[j + 1] += a
            nxt[j] += a * s
        nxt[0] += c
        out = nxt
    return out


def test_index_poly_closed_forms_match_horner():
    # Every degree an IndexPoly can have, against Horner's rule.
    rng = random.Random(20261019)
    for degree in range(3):
        for _ in range(40):
            coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-3, -1, 1, 2))]
            p = IndexPoly(coeffs)
            assert p.degree == degree
            for i in range(-6, 7):
                assert p(i) == _horner(coeffs, i), (coeffs, i)
            for s in range(-3, 4):
                q = p.shifted(s)
                assert q == IndexPoly(_horner_shift(coeffs, s)), (coeffs, s)
                assert q.degree == degree and q.coeffs[-1] == coeffs[-1]
                assert (-q) == IndexPoly([-c for c in q.coeffs])


def test_index_poly_refuses_what_no_ladder_has():
    # A ladder coefficient is a nonzero polynomial of degree at most 2;
    # trailing zeros are stripped before the degree is read.
    for coeffs in ((), (0, 0), (1, 2, 3, 4), (0, 0, 0, 0, -1)):
        with pytest.raises(ValidationError, match="nonzero polynomial of degree at most 2"):
            IndexPoly(coeffs)
    p = IndexPoly((1, 2, 3, 0))
    assert p.coeffs == (1, 2, 3) and p.degree == 2


def test_index_poly_no_integer_roots():
    assert IndexPoly((2, 0, 1)).integer_roots() == ()   # i^2 + 2
    assert IndexPoly((1, 2)).integer_roots() == ()      # 2i + 1
    assert IndexPoly((7,)).integer_roots() == ()


def test_index_poly_text():
    assert IndexPoly((-4, -3, 1)).text() == "i^2-3*i-4"
    assert IndexPoly((1,)).text() == "1"
    assert IndexPoly((0, -1)).text() == "-i"


def _bgg_ends():
    morphism = bgg_morphism(4)
    return morphism.source, morphism.target


# Every integer parameter of the public API, as (its name, a call that passes
# the value under test there and valid values everywhere else).
_INTEGER_PARAMETERS = {
    "default_truncation-lam": ("lam", default_truncation),
    "verma-lam": ("lam", lambda v: verma(v, 3)),
    "verma-trunc": ("trunc", lambda v: verma(-4, v)),
    "dual_verma-lam": ("lam", lambda v: dual_verma(v, 3)),
    "dual_verma-trunc": ("trunc", lambda v: dual_verma(-4, v)),
    "simple-minus_k": ("minus_k", simple),
    "WeightModule-lowest_label_weight": ("lowest_label_weight", lambda v: WeightModule(
        "verma", 2, IndexPoly((1,)), IndexPoly((0, 1, -1)), v, 3, True, False)),
    "WeightModule-length": ("length", lambda v: WeightModule(
        "verma", 2, IndexPoly((1,)), IndexPoly((0, 1, -1)), 0, v, True, False)),
    "ModuleMap-offset": ("offset", lambda v: ModuleMap(*_bgg_ends(), v)),
    "IndexPoly-coeffs": ("coefficient", lambda v: IndexPoly((1, v))),
    "bgg_morphism-k": ("k", bgg_morphism),
    "bgg_morphism-trunc": ("trunc", lambda v: bgg_morphism(4, v)),
    "kostant_check-k": ("k", kostant_check),
    "OrlikStrauchSpec-k": ("k", lambda v: OrlikStrauchSpec("verma", v)),
    "les_consistency_check-k": ("k", les_consistency_check),
    "les_consistency_check-trunc": ("trunc", lambda v: les_consistency_check(2, trunc=v)),
    # The simple family builds no truncated ladder, so only assemble_les can refuse.
    "assemble_les-trunc": ("trunc", lambda v: assemble_les(OrlikStrauchSpec("simple", 2), v)),
    "build_module-trunc": ("trunc", lambda v: build_module(OrlikStrauchSpec("simple", 2), v)),
    "classify_ext-k": ("k", lambda v: classify_ext(v, 2, SmoothCharacter("a", 1),
                                                   SmoothCharacter("b", 0))),
    "classify_ext-ell": ("ell", lambda v: classify_ext(-4, v, SmoothCharacter("a", 1),
                                                       SmoothCharacter("b", 0))),
    "classify_ext-trunc": ("trunc", lambda v: classify_ext(-4, 2, SmoothCharacter("a", 1),
                                                           SmoothCharacter("b", 0), trunc=v)),
    # k != -(ell+2) is answered "trivial" without a report, so trunc is read at entry.
    "classify_ext-trunc-trivial": ("trunc", lambda v: classify_ext(
        -4, 6, SmoothCharacter("a", 1), SmoothCharacter("b", 0), trunc=v)),
    "TorusCharacter-weight": ("weight", TorusCharacter),
    "TorusCharacter-psi_exp": ("psi_exp", lambda v: TorusCharacter(2, v)),
    "TorusCharacter-psiw_exp": ("psiw_exp", lambda v: TorusCharacter(2, 0, v)),
    "TorusCharacter-delta_exp": ("delta_exp", lambda v: TorusCharacter(2, 0, 0, v)),
    "SmoothCharacter-z_valuation": ("z_valuation", lambda v: SmoothCharacter("a", v)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, "4", True, Fraction(4)], ids=repr)
@pytest.mark.parametrize("parameter", sorted(_INTEGER_PARAMETERS))
def test_integer_parameters_are_refused_not_truncated(parameter, value):
    # Only an int names an input: a value int() would truncate or convert is
    # refused with ValidationError (exit 2), never a TruncationError, never an
    # answer to the question the truncated value asks.
    name, call = _INTEGER_PARAMETERS[parameter]
    refusal = rf"^{name} must be an int, got {re.escape(repr(value))}$"
    with pytest.raises(ValidationError, match=refusal):
        call(value)


def test_negative_trunc_is_a_validation_error():
    # A negative trunc breaks the rule "a truncation is a non-negative
    # integer" (exit 2), not a window too small for the construction (exit 3).
    for call in (lambda: bgg_morphism(4, -1), lambda: verma(-4, -1),
                 lambda: build_module(OrlikStrauchSpec("simple", 2), -1),
                 lambda: classify_ext(-4, 6, SmoothCharacter("a", 1), SmoothCharacter("b", 0),
                                      trunc=-1)):
        with pytest.raises(ValidationError, match=r"^trunc must satisfy trunc >= 0, got -1$"):
            call()
