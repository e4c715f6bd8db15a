"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact; the only tolerances are the stated
wall-clock budgets.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction

import rref_oracle as oracle
from djem.characters import SmoothCharacter, TorusCharacter
from djem.cli import corpus_manifest, fixture_document, main
from djem.cohomology import kostant_check
from djem.extbound import RelationDeclarations, classify_ext
from djem.jacquet import (OrlikStrauchSpec, assemble_les, build_module, hecke_eigenvalue,
                          les_consistency_check, stalk_cohomology_characters)
from djem.reporting import jacquet_result_json
from djem.sl2 import (bgg_morphism, check_bracket_relations, dual_verma,
                      n_finite_dual, simple, verma)
from ladder_blocks import line_answer, window_blocks

TRIVIAL = SmoothCharacter("trivial", 0, Fraction(1), w_selfdual=True)


def sec(w):
    return TorusCharacter(w, psi_exp=1, delta_exp=1)


def stk(w):
    return TorusCharacter(w, psiw_exp=1)


def w_twist(chi):
    """Conjugation by w: negates the algebraic weight, swaps psi with psi^w
    and inverts the modulus twist.  An involution."""
    return TorusCharacter(-chi.weight, chi.psiw_exp, chi.psi_exp, -chi.delta_exp)


def report(family, k, trunc=None):
    return assemble_les(OrlikStrauchSpec(family, k, TRIVIAL), trunc)


def test_criterion_1_principal_series_table():
    start = time.perf_counter()
    for k in range(-8, 9, 2):
        r = report("verma", k)
        if k >= 0:
            assert r.extension_kind(0) == "ext-class-undetermined"
            assert r.section[0] == (sec(k),)
            assert r.stalk[0] == (stk(k),)
            assert r.extension_kind(1) == "direct-sum-determined"
            assert r.jh_factors(1) == (stk(-(k + 2)), stk(k))
        else:
            assert r.extension_kind(0) == "direct-sum-determined"
            assert r.jh_factors(0) == (sec(k),)
            assert r.extension_kind(1) == "direct-sum-determined"
            assert r.jh_factors(1) == (stk(-(k + 2)),)
        # the same four-case table through the command-line path, byte-exactly
        argv = ["jacquet", "--family", "verma", "--k", str(k), "--json"]
        doc = json.loads(fixture_document(argv))
        deg = doc["result"]["degrees"]
        if k >= 0:
            assert deg["0"]["extension"]["kind"] == "ext-class-undetermined"
            assert [c["text"] for c in deg["0"]["extension"]["sub"]] == [
                f"chi_{{{k}}} psi delta_P"]
            assert [c["text"] for c in deg["0"]["extension"]["quot"]] == [
                f"chi_{{{k}}} psi^w"]
            assert [c["text"] for c in deg["1"]["jh_factors"]] == [
                f"chi_{{{-(k + 2)}}} psi^w", f"chi_{{{k}}} psi^w"]
        else:
            assert [c["text"] for c in deg["0"]["jh_factors"]] == [
                f"chi_{{{k}}} psi delta_P"]
            assert [c["text"] for c in deg["1"]["jh_factors"]] == [
                f"chi_{{{-(k + 2)}}} psi^w"]
        assert fixture_document(argv) == fixture_document(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 (principal-series table, even k in [-8, 8], {elapsed:.3f}s): PASS")


def test_criterion_2_dual_family_reports():
    start = time.perf_counter()
    for k in (0, 2, 4, 6, 8):
        r = report("dualverma", k)
        assert r.extension_kind(0) == "direct-sum-determined"
        assert r.jh_factors(0) == (sec(k), sec(-(k + 2)))
        assert r.extension_kind(1) == "ext-class-undetermined"
        assert r.section[1] == (sec(-(k + 2)),)
        assert r.stalk[1] == (stk(-(k + 2)),)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    for k in (0, 8):
        argv = ["jacquet", "--family", "dualverma", "--k", str(k), "--json"]
        assert fixture_document(argv) == fixture_document(argv)
    print(f"ACCEPTANCE 2 (dual family reports, k in 0..8, {elapsed:.3f}s): PASS")


def test_criterion_3_locally_algebraic_reports():
    for k in (0, 2, 4, 6):
        r = report("simple", k)
        assert r.extension_kind(0) == "ext-class-undetermined"
        assert r.section[0] == (sec(k),)
        assert r.stalk[0] == (stk(k),)
        assert Counter(r.jh_factors(1)) == Counter([sec(-(k + 2)), stk(-(k + 2))])
        # degree 0 must serialize byte-identically to the principal-series row
        mine = json.dumps(jacquet_result_json(r)["degrees"]["0"], sort_keys=True)
        other = json.dumps(jacquet_result_json(report("verma", k))["degrees"]["0"],
                           sort_keys=True)
        assert mine == other
    print("ACCEPTANCE 3 (locally algebraic reports, k in 0..6): PASS")


def test_criterion_4_two_line_cohomology_suite():
    start = time.perf_counter()
    for k in range(0, 13, 2):
        assert kostant_check(k)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 4 (two-line cohomology of simple duals, k in 0..12, {elapsed:.3f}s): PASS")


def test_criterion_5_embedding_suite():
    for k in range(0, 13, 2):
        em = bgg_morphism(k)
        assert em.is_equivariant()
        expected = simple(-k)
        cok = em.cokernel_dims()
        for mu in em.target.weights:
            assert cok.get(mu, 0) == expected.dim_at(mu)
    print("ACCEPTANCE 5 (equivariant embedding with simple cokernel, k in 0..12): PASS")


def test_criterion_6_euler_consistency():
    for k in (0, 2, 4, 6):
        assert les_consistency_check(k, TRIVIAL)
    print("ACCEPTANCE 6 (character cancellation across the sequence, k in 0..6): PASS")


def test_criterion_7_property_suites():
    rng = random.Random(987654321)

    # (a) bracket identity on 200 randomized truncations across all families
    for _ in range(200):
        lam = 2 * rng.randint(-8, 8)
        t = rng.randint(0, 24)
        choice = rng.randrange(6)
        if choice == 0:
            m = verma(lam, t)
        elif choice == 1:
            m = n_finite_dual(verma(lam, t))
        elif choice == 2:
            m = dual_verma(lam, t)
        elif choice == 3:
            m = n_finite_dual(dual_verma(lam, t))
        elif choice == 4:
            m = simple(-abs(lam))
        else:
            m = n_finite_dual(simple(-abs(lam)))
        assert check_bracket_relations(m)

    # (b) per-weight rank-nullity for both directions on all families: each
    # block, built here as a dense 1x1, 0x1 or 1x0 matrix from the ladder,
    # gets the same kernel and cokernel from djem's line maps as from RREF
    zoo = []
    for lam in (-6, 0, 4):
        for ctor in (verma, dual_verma):
            zoo += [ctor(lam, 12), n_finite_dual(ctor(lam, 12))]
    for mk in (0, -6):
        zoo += [simple(mk), n_finite_dual(simple(mk))]
    shapes = set()
    for m in zoo:
        for dense, cols in window_blocks(m):
            ker, cok = line_answer((dense, cols))
            assert (ker, cok) == (oracle.kernel(dense, cols).dim,
                                  oracle.cokernel_basis(dense, cols).dim)
            assert ker - cok == cols - len(dense)
            shapes.add((len(dense), cols))
    assert shapes == {(1, 1), (0, 1), (1, 0)}

    # (c) the dual construction is an exact involution on finite modules:
    # the double dual has the same ladder polynomials, window and edges
    for mk in (0, -2, -8):
        s = simple(mk)
        dd = n_finite_dual(n_finite_dual(s))
        for attr in ("step", "coeff_x", "coeff_y", "weights", "length", "bottom_exact",
                     "top_exact", "truncation", "hatted"):
            assert getattr(dd, attr) == getattr(s, attr), (mk, attr)
        assert [dd.labels_at(mu) for mu in dd.weights] == [s.labels_at(mu) for mu in s.weights]

    # (d) truncation doubling leaves every certified report byte-identical
    for fam, k in (("verma", 4), ("verma", -6), ("dualverma", 4), ("simple", 6)):
        a = json.dumps(jacquet_result_json(report(fam, k, 20)), sort_keys=True)
        b = json.dumps(jacquet_result_json(report(fam, k, 40)), sort_keys=True)
        assert a == b

    # (e) Hecke eigenvalues are nonzero and exponents add up
    psi = SmoothCharacter("a", 3, Fraction(5, 4))
    for k in range(-8, 9, 2):
        v, u = hecke_eigenvalue(sec(k), psi)
        assert u != 0
        assert (v, u) == (k + psi.z_valuation - 2, psi.z_unit)
    whole = hecke_eigenvalue(sec(4), psi)
    parts = [hecke_eigenvalue(TorusCharacter(4), psi),
             hecke_eigenvalue(TorusCharacter(0, psi_exp=1), psi),
             hecke_eigenvalue(TorusCharacter(0, delta_exp=1), psi)]
    assert whole[0] == sum(v for v, _ in parts)
    prod = Fraction(1)
    for _, u in parts:
        prod *= u
    assert whole[1] == prod
    for p in (2, 3):  # coset count behind the -2 exponent of the modulus twist
        assert len({x % (p * p) for x in range(p ** 4)}) == p * p
    assert hecke_eigenvalue(TorusCharacter(0, delta_exp=1)) == (-2, 1)

    # (f) the w-twist is an involution on character lists, and it inverts
    # each z-eigenvalue, because w z w^{-1} = z^{-1}
    for fam, k in (("verma", 4), ("verma", -6), ("dualverma", 2)):
        out = stalk_cohomology_characters(
            n_finite_dual(build_module(OrlikStrauchSpec(fam, k, TRIVIAL))))
        for deg in (0, 1):
            assert tuple(w_twist(w_twist(c)) for c in out[deg]) == out[deg]
            for c in out[deg]:
                for base in (TRIVIAL, psi):
                    e, u = c.z_eigenvalue(base)
                    assert w_twist(c).z_eigenvalue(base) == (-e, 1 / u), (fam, k, c, base)

    print("ACCEPTANCE 7 (property suites a-f): PASS")


def test_criterion_8_ext_classifier_grid():
    trivial = TRIVIAL
    a21 = SmoothCharacter("a", 2, 1)
    b01 = SmoothCharacter("b", 0, 1)
    c11 = SmoothCharacter("c", 1, 1)
    d11 = SmoothCharacter("d", 1, 1)
    R = RelationDeclarations
    grid = [
        (-4, 4, trivial, trivial, R(), "trivial", ()),
        (-2, 2, trivial, trivial, R(), "trivial", ()),
        (-6, 0, trivial, trivial, R(), "trivial", ()),
        (-8, -2, trivial, trivial, R(), "trivial", ()),
        (-4, -6, trivial, trivial, R(), "trivial", ()),
        (-2, -8, a21, b01, R(), "trivial", ()),
        (-6, 2, a21, b01, R(), "trivial", ()),
        (-8, 4, c11, d11, R(psi_eq_phi=False, psi_delta_eq_phi_w=False,
                            phi_delta_eq_phi_w=False), "trivial", ()),
        (-2, 0, trivial, trivial, R(), "one-dimensional", (1,)),
        (-4, 2, trivial, trivial, R(), "one-dimensional", (1,)),
        (-6, 4, trivial, trivial, R(), "one-dimensional", (1,)),
        (-8, 6, trivial, trivial, R(), "one-dimensional", (1,)),
        (-10, 8, trivial, trivial, R(), "one-dimensional", (1,)),
        (-4, 2, a21, b01, R(psi_delta_eq_phi_w=True), "at-most-one-dimensional", (2, 4)),
        (-6, 4, a21, b01, R(psi_delta_eq_phi_w=True), "at-most-one-dimensional", (2, 4)),
        (-4, 2, a21, b01, R(psi_delta_eq_phi_w=False), "trivial", ()),
        (-4, 2, c11, c11, R(phi_delta_eq_phi_w=True, psi_delta_eq_phi_w=False),
         "one-or-two-dimensional", (3,)),
        (-6, 4, c11, c11, R(phi_delta_eq_phi_w=True, psi_delta_eq_phi_w=False),
         "one-or-two-dimensional", (3,)),
        (-4, 2, c11, c11, R(phi_delta_eq_phi_w=True, psi_delta_eq_phi_w=True),
         "one-or-two-dimensional", (3, 4)),
        (-4, 2, c11, d11, R(psi_eq_phi=False, psi_delta_eq_phi_w=True,
                            phi_delta_eq_phi_w=True), "at-most-one-dimensional", (4,)),
        (-6, 4, c11, d11, R(psi_eq_phi=False, psi_delta_eq_phi_w=True,
                            phi_delta_eq_phi_w=True), "at-most-one-dimensional", (4,)),
    ]
    assert len(grid) >= 20
    for k, ell, psi, phi, rel, verdict, bullets in grid:
        case = classify_ext(k, ell, psi, phi, rel)
        assert case.verdict == verdict, (k, ell, verdict, case.verdict)
        assert case.fired_bullets == bullets, (k, ell)
    print(f"ACCEPTANCE 8 (extension classifier, {len(grid)}-case grid): PASS")


def test_criterion_9_corpus_determinism(capsys):
    assert main(["corpus", "run"]) == 0
    first = capsys.readouterr().out
    assert main(["corpus", "run"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["corpus", "run", "--parallel", "4"]) == 0
    parallel = capsys.readouterr().out
    assert first == parallel
    for _, argv in corpus_manifest()[:6]:
        assert fixture_document(argv) == fixture_document(argv)
    with capsys.disabled():
        print("ACCEPTANCE 9 (corpus byte-determinism, sequential == parallel): PASS")
