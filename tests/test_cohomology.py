import pytest

import rref_oracle as oracle
from djem.cohomology import cohomology, kostant_check, stabilization_certificate
from djem.errors import CertificateError, UnsupportedFamilyError, ValidationError
from djem.linalg import SparseMatrix, cokernel_basis, kernel
from djem.sl2 import (IndexPoly, LadderInfo, WeightModule, dual_verma, n_finite_dual, simple,
                      verma)


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
        for op in ("x", "y"):
            for mu in m.weights:
                blk = m.op_block(mu, op)
                if blk is None:
                    continue
                assert kernel(blk).dim - cokernel_basis(blk).dim == m.dims[mu] - blk.rows


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
    order = [(mu, j) for mu in m.weights for j in range(m.dims[mu])]
    pos = {key: idx for idx, key in enumerate(order)}
    entries = {}
    for mu in m.weights:
        blk = m.op_block(mu, op)
        if blk is None or blk.rows == 0:
            continue
        target = mu + 2 if op == "x" else mu - 2
        for (r, c), v in blk.items():
            entries[(pos[(target, r)], pos[(mu, c)])] = v
    n = len(order)
    return SparseMatrix(n, n, entries)


def test_two_line_pattern_small_cases():
    assert kostant_check(0)
    res2 = cohomology(n_finite_dual(simple(-2)), "n")
    assert res2.h0_dims() == {2: 1} and res2.h1_dims() == {-4: 1}
    res6 = cohomology(n_finite_dual(simple(-6)), "n")
    assert res6.h0_dims() == {6: 1} and res6.h1_dims() == {-8: 1}


def test_two_line_pattern_against_global_matrix():
    for k in (0, 2, 6):
        d = n_finite_dual(simple(-k))
        gx = _global_operator(d, "x")
        assert oracle.kernel(gx).dim == 1
        assert oracle.cokernel_basis(gx).dim == 1
        res = cohomology(d, "n")
        assert sum(res.h0_dims().values()) == 1
        assert sum(res.h1_dims().values()) == 1
        assert res.h0[0].weight == k
        assert res.h1[0].weight == -(k + 2)


def test_kostant_check_rejects_bad_input():
    with pytest.raises(ValidationError):
        kostant_check(-2)
    with pytest.raises(ValidationError):
        kostant_check(3)
