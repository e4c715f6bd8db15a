import random
from itertools import zip_longest

import pytest

import rref_oracle as oracle
from djem.cohomology import (CohomologyResult, WeightLines, cohomology, kostant_check,
                             stabilization_certificate)
from djem.errors import CertificateError, UnsupportedFamilyError, ValidationError
from djem.sl2 import (IndexPoly, LadderInfo, WeightModule, check_bracket_relations, dual_verma,
                      n_finite_dual, simple, verma)
from ladder_blocks import SHIFT, coefficient, line_answer, window_blocks


def test_dual_of_verma_lowering_direction():
    k = 4
    d = n_finite_dual(verma(-k, 20))
    res = cohomology(d, "nbar")
    assert res.h0_dims() == {-k: 1}
    assert [line.labels for line in res.h0] == [("ê_4",)]
    assert res.h1_dims() == {k + 2: 1, -k: 1}
    assert [line.labels for line in res.h1] == [("ê_0",), ("ê_5",)]
    assert res.weight_shift_applied == 2
    assert res.certified


def test_dual_of_verma_raising_direction_is_surjective():
    for k in (-6, 0, 4):
        d = n_finite_dual(verma(-k, 20))
        res = cohomology(d, "n")
        assert res.h0_dims() == {k: 1}
        assert res.h1_dims() == {}


def test_trivial_module_cohomology_is_shift_only():
    s = simple(0)
    for direction, shift in (("n", -2), ("nbar", 2)):
        res = cohomology(s, direction)
        assert res.h0_dims() == {0: 1}
        assert res.h1_dims() == {shift: 1}


def test_dual_of_dual_verma_raising_direction():
    k = 4
    d = n_finite_dual(dual_verma(-k, 20))
    res = cohomology(d, "n")
    assert res.h0_dims() == {k: 1, -(k + 2): 1}
    assert res.h1_dims() == {-(k + 2): 1}
    assert [line.labels for line in res.h1] == [("ê_4",)]


def test_dual_of_dual_verma_lowering_direction():
    k = 4
    d = n_finite_dual(dual_verma(-k, 20))
    res = cohomology(d, "nbar")
    assert res.h0_dims() == {}
    assert res.h1_dims() == {k + 2: 1}
    assert [line.labels for line in res.h1] == [("ê_0",)]


# -- certificates ---------------------------------------------------------------


def test_certificate_for_dual_of_verma():
    d4 = n_finite_dual(verma(-4, 20))
    cert_y = stabilization_certificate(d4, "nbar")
    assert cert_y.coefficient.coeffs == (-4, -3, 1)  # (i+1)(i-4)
    assert cert_y.roots == (-1, 4)
    assert cert_y.bound == 5
    cert_x = stabilization_certificate(d4, "n")
    assert cert_x.coefficient.coeffs == (-1,)
    assert cert_x.roots == ()
    assert cert_x.bound == 0


def test_certificate_finite_module_is_empty():
    cert = stabilization_certificate(simple(-4), "n")
    assert cert.finite
    assert cert.coefficient is None and cert.roots == () and cert.bound == 0


def test_certificate_scan_at_four_times_bound():
    k = 4
    for direction in ("n", "nbar"):
        cert = stabilization_certificate(n_finite_dual(verma(-k, 20)), direction)
        wide = n_finite_dual(verma(-k, max(4 * max(cert.bound, 1), 20)))
        res = cohomology(wide, direction)
        for line in res.h0:
            assert wide.index_of_weight(line.weight) <= cert.bound
        for line in res.h1:
            pre_shift = line.weight - res.weight_shift_applied
            assert wide.index_of_weight(pre_shift) <= cert.bound


def test_uncertifiable_truncation_refuses_by_default():
    d = n_finite_dual(verma(-30, 3))
    with pytest.raises(CertificateError, match="increase truncation"):
        cohomology(d, "nbar")
    res = cohomology(d, "nbar", allow_uncertified=True)
    assert not res.certified


def test_unrecognized_family_refuses_by_default():
    # A hand-made ladder whose X coefficient vanishes identically: its
    # one-weight window passes the bracket check, but nothing certifies the cut.
    stripped = WeightModule("generic", LadderInfo(2, IndexPoly(()), IndexPoly((1,))), 0, 1,
                            bottom_exact=True, top_exact=False, truncation=0)
    with pytest.raises(UnsupportedFamilyError, match="vanishes identically"):
        cohomology(stripped, "n")
    res = cohomology(stripped, "n", allow_uncertified=True)
    assert not res.certified
    # window-only answers keep the cut artifact at the top weight
    assert res.h0_dims() == {stripped.max_weight: 1}


def test_bracket_precondition_enforced():
    m = verma(-2, 6)
    # A wrong Y polynomial: Y e_1 = 7 where verma(-2) has Y e_1 = 1(2 - 0) = 2.
    bad_y = IndexPoly((7,))
    bad = WeightModule("verma", LadderInfo(2, m.ladder.coeff_x, bad_y), m.lowest_label_weight,
                       m.length, m.bottom_exact, m.top_exact, m.truncation)
    with pytest.raises(ValidationError, match="bracket"):
        cohomology(bad, "n")


def test_invalid_direction():
    with pytest.raises(ValidationError):
        cohomology(simple(0), "sideways")


# -- identities -----------------------------------------------------------------


def _family_zoo():
    mods = []
    for lam in (-6, 0, 4):
        for ctor in (verma, dual_verma):
            m = ctor(lam, 10)
            mods += [m, n_finite_dual(m)]
    for mk in (0, -4):
        s = simple(mk)
        mods += [s, n_finite_dual(s)]
    return mods


def test_per_weight_rank_nullity_both_directions():
    for m in _family_zoo():
        for blk in window_blocks(m):
            ker, cok = line_answer(blk)
            assert (ker, cok) == (oracle.kernel(*blk).dim, oracle.cokernel_basis(*blk).dim)
            assert ker - cok == blk[1] - len(blk[0])


def test_results_stable_under_truncation_doubling():
    for ctor, lam in ((verma, -6), (dual_verma, -6), (verma, 4)):
        for direction in ("n", "nbar"):
            a = cohomology(n_finite_dual(ctor(lam, 16)), direction)
            b = cohomology(n_finite_dual(ctor(lam, 32)), direction)
            assert a.h0_dims() == b.h0_dims()
            assert a.h1_dims() == b.h1_dims()


def test_finite_euler_characteristic_vanishes():
    for mk in (0, -2, -8):
        d = n_finite_dual(simple(mk))
        for direction in ("n", "nbar"):
            res = cohomology(d, direction)
            assert sum(res.h0_dims().values()) == sum(res.h1_dims().values())


# -- the two-line pattern for simple duals ----------------------------------------


def _global_operator(m, op):
    """The matrix of op on a module exact at both ends, in the basis of its
    weight lines (lowest weight first), built from the ladder coefficients."""
    pos = {mu: j for j, mu in enumerate(m.weights)}
    dense = [[0] * len(pos) for _ in pos]
    for mu, j in pos.items():
        if mu + SHIFT[op] in pos:
            dense[pos[mu + SHIFT[op]]][j] = coefficient(m, mu, op)
    return dense, len(pos)


def _basis_weights(m, space):
    """The weight of each basis vector of a space of m's weight lines, each
    checked to lie in a single weight space."""
    weights = []
    for v in space.basis:
        (j,) = [j for j, x in enumerate(v) if x != 0]
        weights.append(m.weights[j])
    return sorted(weights)


def test_two_line_pattern_small_cases():
    assert kostant_check(0)
    res2 = cohomology(n_finite_dual(simple(-2)), "n")
    assert res2.h0_dims() == {2: 1} and res2.h1_dims() == {-4: 1}
    res6 = cohomology(n_finite_dual(simple(-6)), "n")
    assert res6.h0_dims() == {6: 1} and res6.h1_dims() == {-8: 1}


def _exact_at_both_ends():
    """simple(-k) and its dual for even k <= 40, then the seeded hand-made
    ladders of test_root_candidates_agree_with_every_weight that are exact at
    both ends and pass the bracket check."""
    for k in range(0, 41, 2):
        yield simple(-k)
        yield n_finite_dual(simple(-k))
    rng = random.Random(20261018)
    for m in [_hand_made_ladder(rng) for _ in range(1200)]:
        if m.bottom_exact and m.top_exact and check_bracket_relations(m):
            yield m


def test_two_line_pattern_against_global_matrix():
    for k in (0, 2, 6):
        d = n_finite_dual(simple(-k))
        gx = _global_operator(d, "x")
        assert oracle.kernel(*gx).dim == 1
        assert oracle.cokernel_basis(*gx).dim == 1
        res = cohomology(d, "n")
        assert sum(res.h0_dims().values()) == 1
        assert sum(res.h1_dims().values()) == 1
        assert res.h0[0].weight == k
        assert res.h1[0].weight == -(k + 2)
    # Weight by weight: the oracle's kernel and cokernel of the whole
    # operator sit at the H^0 and H^1 weights, before the report shift.  A
    # refusal (a truncated module whose X coefficient has degree 3 cannot
    # be certified) leaves no answer to compare.
    compared = 0
    for m in _exact_at_both_ends():
        for direction, op in (("n", "x"), ("nbar", "y")):
            res = _outcome(cohomology, m, direction, True)
            if not isinstance(res, CohomologyResult):
                continue
            g = _global_operator(m, op)
            assert _basis_weights(m, oracle.kernel(*g)) == sorted(
                line.weight for line in res.h0), (m, direction)
            assert _basis_weights(m, oracle.cokernel_basis(*g)) == sorted(
                line.weight - res.weight_shift_applied for line in res.h1), (m, direction)
            compared += 1
    assert compared >= 200, compared


def test_kostant_check_rejects_bad_input():
    with pytest.raises(ValidationError):
        kostant_check(-2)
    with pytest.raises(ValidationError):
        kostant_check(3)


# -- root candidates against every weight ------------------------------------------


def _per_weight_cohomology(m, direction, allow_uncertified=False):
    """cohomology() weight by weight, read straight off the ladder: after
    the same checks and certificate, a kernel line sits at every window
    weight whose coefficient vanishes, and a cokernel line at every weight
    such a coefficient maps to; at a window end, where the operator leaves
    or enters the window, a line sits when that edge is exact, or when the
    answer is not certified."""
    if direction not in ("n", "nbar"):
        raise ValidationError(direction)
    if not check_bracket_relations(m):
        raise ValidationError("bracket")
    op_shift, report_shift = {"n": (2, -2), "nbar": (-2, 2)}[direction]
    certificate, certified = None, True
    try:
        certificate = stabilization_certificate(m, direction)
    except UnsupportedFamilyError:
        if not allow_uncertified:
            raise
        certified = False
    if certificate is not None and not certificate.finite and m.truncation < certificate.bound:
        if not allow_uncertified:
            raise CertificateError("bound")
        certified = False
    if direction == "n":
        coeff, leaves, enters = m.ladder.coeff_x, m.top_exact, m.bottom_exact
    else:
        coeff, leaves, enters = m.ladder.coeff_y, m.bottom_exact, m.top_exact

    def zero_block(src, edge_exact):
        """Whether the operator's block from src to src + op_shift is zero;
        past a window end, whether that edge is exact or the answer is not
        certified."""
        if m.dim_at(src) and m.dim_at(src + op_shift):
            return coeff(m.index_of_weight(src)) == 0
        return edge_exact or not certified

    h0 = tuple(WeightLines(mu, m.labels_at(mu)) for mu in reversed(m.weights)
               if zero_block(mu, leaves))
    h1 = tuple(WeightLines(nu + report_shift, m.labels_at(nu))
               for nu in reversed(m.weights) if zero_block(nu - op_shift, enters))
    return CohomologyResult(direction, h0, h1, report_shift, certificate, certified)


def _outcome(compute, m, direction, allow):
    try:
        return compute(m, direction, allow)
    except (ValidationError, UnsupportedFamilyError, CertificateError, ValueError) as err:
        return type(err)


def _family_grid():
    for lam in range(-40, 41, 2):
        for trunc in (0, 1, 3, 7, 20, 40, None):
            yield verma(lam, trunc)
            yield dual_verma(lam, trunc)
    for k in range(0, 41, 2):
        yield simple(-k)


def _times(p, q):
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IndexPoly(out)


def _hand_made_ladder(rng):
    """A random ladder of step 2 or -2 on a random window.

    Mostly one whose bracket identity holds: with a + b = w0 + 1, any
    integer split cx(i) cy(i+1) = -(i+a)(i+b) satisfies it and puts the
    roots of cx and cy anywhere.  An exact edge passes the bracket check
    only at a root of that product, so edges are mostly made exact there.
    Otherwise arbitrary polynomials of degree up to 3, zero included, on a
    window of at most three weights near weight 0, where the bracket holds
    for few of them."""
    w0 = 2 * rng.randint(-20, 20)
    if rng.random() < 0.8:
        a = rng.choice((1, rng.randint(-30, 30)))
        b = w0 + 1 - a
        sign, chosen = rng.choice((1, -1)), rng.sample(range(2), rng.randint(0, 2))
        cx, rest = IndexPoly((sign,)), IndexPoly((-sign,))
        for n, f in enumerate((IndexPoly((a, 1)), IndexPoly((b, 1)))):
            if n in chosen:
                cx = _times(cx, f)
            else:
                rest = _times(rest, f)
        ladder = LadderInfo(2, cx, rest.shifted(-1))  # cy(i+1) = rest(i)
        ends = [n for n in (1 - a, 1 - b) if 1 <= n <= 40]
        top_exact = bool(ends) and rng.random() < 0.5
        length = rng.choice(ends) if top_exact else rng.randint(1, 30)
        bottom_exact = 1 in (a, b) or rng.random() < 0.2
        if 3 <= length <= 8 and rng.random() < 0.3:
            # Add a polynomial that vanishes on the window: the same module
            # with an X coefficient of degree > 2, whose roots go unlisted.
            vanishing = IndexPoly((1,))
            for j in range(length):
                vanishing = _times(vanishing, IndexPoly((-j, 1)))
            cx = [c + d for c, d in zip_longest(cx.coeffs, vanishing.coeffs, fillvalue=0)]
            ladder = LadderInfo(2, IndexPoly(cx), ladder.coeff_y)
        m = WeightModule("hand-made", ladder, w0, length, bottom_exact,
                         top_exact != (rng.random() < 0.1),
                         rng.choice((None, rng.randint(0, 40))))
        return n_finite_dual(m) if rng.random() < 0.5 else m
    poly = lambda: IndexPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
    return WeightModule("hand-made", LadderInfo(rng.choice((2, -2)), poly(), poly()),
                        rng.choice((-2, 0, 2, w0)), rng.randint(1, 3), rng.random() < 0.5,
                        rng.random() < 0.5, rng.choice((None, rng.randint(0, 5))))


def test_root_candidates_agree_with_every_weight():
    rng = random.Random(20261018)
    family = [m for base in _family_grid() for m in (base, n_finite_dual(base))]
    modules = family + [_hand_made_ladder(rng) for _ in range(1200)]
    kinds = {}
    for m in modules:
        for direction in ("n", "nbar"):
            want = None
            for allow in (False, True):
                # allow_uncertified changes only what would otherwise be refused
                if not isinstance(want, CohomologyResult):
                    want = _outcome(_per_weight_cohomology, m, direction, allow)
                assert _outcome(cohomology, m, direction, allow) == want, (m, direction, allow)
                kind = want.__name__ if isinstance(want, type) else (
                    "certified" if want.certified else "window-only")
                kinds[kind] = kinds.get(kind, 0) + 1
    # Answers of both kinds and every refusal are exercised.
    for kind in ("certified", "window-only", "ValidationError", "CertificateError",
                 "UnsupportedFamilyError", "ValueError"):
        assert kinds.get(kind, 0) >= 20, kinds
