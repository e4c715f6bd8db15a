from collections import Counter
from fractions import Fraction

import pytest

from djem.characters import SmoothCharacter, TorusCharacter, TRIVIAL_PSI
from djem.cli import corpus_manifest, fixture_document
from djem.cohomology import cohomology
from djem.errors import ParityError, ValidationError
from djem.jacquet import (OrlikStrauchSpec, assemble_les, build_module, default_truncation,
                          hecke_eigenvalue, les_consistency_check, section_cohomology_characters,
                          stalk_cohomology_characters)
from djem.reporting import eigenvalue_json, jacquet_result_json
from djem.sl2 import n_finite_dual


def sec(w):
    return TorusCharacter(w, psi_exp=1, delta_exp=1)


def stk(w):
    return TorusCharacter(w, psiw_exp=1)


# -- section and stalk character lists ----------------------------------------


def dual(family, k):
    """The n-finite dual of the family's ladder at the default truncation."""
    return n_finite_dual(build_module(OrlikStrauchSpec(family, k)))


def test_section_characters_principal_series():
    for k in (-6, 0, 4):
        out = section_cohomology_characters(dual("verma", k))
        assert out[0] == (sec(k),)
        assert out[1] == ()


def test_section_characters_dual_family():
    k = 4
    out = section_cohomology_characters(dual("dualverma", k))
    assert out[0] == (sec(k), sec(-(k + 2)))
    assert out[1] == (sec(-(k + 2)),)


def test_section_characters_smallest_locally_algebraic():
    out = section_cohomology_characters(dual("simple", 0))
    assert out[0] == (sec(0),)
    assert out[1] == (sec(-2),)


def test_stalk_characters_principal_series_nonnegative():
    k = 4
    out = stalk_cohomology_characters(dual("verma", k))
    assert out[0] == (stk(k),)
    assert out[1] == (stk(-(k + 2)), stk(k))


def test_stalk_characters_principal_series_negative():
    k = -4
    out = stalk_cohomology_characters(dual("verma", k))
    assert out[0] == ()
    assert out[1] == (stk(-(k + 2)),)


def test_stalk_characters_dual_family():
    k = 4
    out = stalk_cohomology_characters(dual("dualverma", k))
    assert out[0] == ()
    assert out[1] == (stk(-(k + 2)),)


# -- spliced reports ------------------------------------------------------------


def test_report_principal_series_nonnegative():
    k = 4
    r = assemble_les(OrlikStrauchSpec("verma", k))
    assert jacquet_result_json(r)["connecting_map_forced_zero"] is True
    d0, d1 = r.degrees[0], r.degrees[1]
    assert d0.extension.kind == "ext-class-undetermined"
    assert d0.extension.sub == (sec(k),)
    assert d0.extension.quot == (stk(k),)
    assert d0.jh_factors == (sec(k), stk(k))
    assert d1.extension.kind == "direct-sum-determined"
    assert d1.jh_factors == (stk(-(k + 2)), stk(k))


def test_report_principal_series_negative():
    k = -4
    r = assemble_les(OrlikStrauchSpec("verma", k))
    assert r.degrees[0].extension.kind == "direct-sum-determined"
    assert r.degrees[0].jh_factors == (sec(k),)
    assert r.degrees[1].extension.kind == "direct-sum-determined"
    assert r.degrees[1].jh_factors == (stk(-(k + 2)),)


def test_report_dual_family():
    k = 4
    r = assemble_les(OrlikStrauchSpec("dualverma", k))
    d0, d1 = r.degrees[0], r.degrees[1]
    assert d0.extension.kind == "direct-sum-determined"
    assert d0.jh_factors == (sec(k), sec(-(k + 2)))
    assert d1.extension.kind == "ext-class-undetermined"
    assert d1.extension.sub == (sec(-(k + 2)),)
    assert d1.extension.quot == (stk(-(k + 2)),)


def test_report_locally_algebraic():
    k = 4
    r = assemble_les(OrlikStrauchSpec("simple", k))
    d0, d1 = r.degrees[0], r.degrees[1]
    assert d0.extension.kind == "ext-class-undetermined"
    assert d0.extension.sub == (sec(k),)
    assert d0.extension.quot == (stk(k),)
    assert Counter(d1.jh_factors) == Counter([sec(-(k + 2)), stk(-(k + 2))])
    assert d1.extension.kind == "ext-class-undetermined"


def test_degree_zero_agreement_between_families():
    for k in (0, 2, 6):
        a = assemble_les(OrlikStrauchSpec("simple", k)).degrees[0]
        b = assemble_les(OrlikStrauchSpec("verma", k)).degrees[0]
        assert a == b


def test_zero_degree_flag():
    # negative-weight principal series have empty stalk degree 0 but a
    # non-empty section; construct an actually empty degree via the stalk
    k = -4
    r = assemble_les(OrlikStrauchSpec("verma", k))
    assert r.stalk[0] == ()
    assert r.degrees[0].extension.kind == "direct-sum-determined"


def test_connecting_map_zero_on_matching_eigenvalues():
    # psi(z) = p^{k+2} makes the stalk degree-0 line and the section degree-1
    # line share a z-eigenvalue; their weights k and -(k+2) still differ, so
    # the map between them is zero and both degrees are spliced
    k = 2
    psi = SmoothCharacter("steep", k + 2, 1)
    r = assemble_les(OrlikStrauchSpec("simple", k, psi))
    assert r.eigenvalues[stk(k)] == r.eigenvalues[sec(-(k + 2))]
    assert r.degrees[0].extension.sub == (sec(k),)
    assert r.degrees[0].extension.quot == (stk(k),)
    assert r.degrees[0].jh_factors == (sec(k), stk(k))
    assert r.degrees[1].jh_factors == (sec(-(k + 2)), stk(-(k + 2)))
    for i in (0, 1):
        assert r.degrees[i].extension.kind == "ext-class-undetermined"
    assert jacquet_result_json(r)["connecting_map_forced_zero"] is True


def test_every_psi_splices_section_then_stalk():
    # Only simple has both a stalk H^0 line, stk(k), and a section H^1 line,
    # sec(-(k+2)).  Their z-eigenvalues p^(k - v) u^-1 and p^(v - k - 4) u
    # agree iff v = k + 2 and u = +-1; every report, those included, is
    # spliced, and every Hecke list is its factors' z-eigenvalues.
    matching = []
    for family in ("verma", "dualverma", "simple"):
        for k in range(0, 9, 2):
            for val in range(-12, 13):
                for unit in (Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)):
                    psi = SmoothCharacter("chi", val, unit)
                    r = assemble_les(OrlikStrauchSpec(family, k, psi))
                    out = jacquet_result_json(r)
                    assert out["connecting_map_forced_zero"] is True
                    assert out["finite_slope_complete"] is True
                    for i in (0, 1):
                        deg = r.degrees[i]
                        assert deg.jh_factors == r.section[i] + r.stalk[i]
                        if r.section[i] and r.stalk[i]:
                            assert deg.extension.kind == "ext-class-undetermined"
                            assert (deg.extension.sub, deg.extension.quot) == (r.section[i],
                                                                               r.stalk[i])
                        assert out["degrees"][str(i)]["hecke_eigenvalues"] == [
                            eigenvalue_json(c.z_eigenvalue(psi)) for c in deg.jh_factors]
                    s1 = {r.eigenvalues[c] for c in r.section[1]}
                    if any(r.eigenvalues[c] in s1 for c in r.stalk[0]):
                        matching.append((family, k, val, unit))
    assert matching == [("simple", k, k + 2, u) for k in range(0, 9, 2)
                        for u in (Fraction(1), Fraction(-1))]


def test_hecke_eigenvalues_and_finite_slope():
    psi = SmoothCharacter("a", 1, Fraction(2, 3))
    r = assemble_les(OrlikStrauchSpec("verma", -4, psi))
    out = jacquet_result_json(r)
    assert out["finite_slope_complete"] is True
    assert all(d["finite_slope_complete"] is True for d in out["degrees"].values())
    ((v0, u0),) = [r.eigenvalues[c] for c in r.degrees[0].jh_factors]
    assert (v0, u0) == (-4 + 1 - 2, Fraction(2, 3))
    ((v1, u1),) = [r.eigenvalues[c] for c in r.degrees[1].jh_factors]
    assert (v1, u1) == (2 - 1, Fraction(3, 2))


def test_hecke_eigenvalue_component_cases():
    assert hecke_eigenvalue(TorusCharacter(0)) == (0, 1)
    assert hecke_eigenvalue(TorusCharacter(0, delta_exp=1)) == (-2, 1)
    assert hecke_eigenvalue(sec(4)) == (4 - 2, 1)


def test_euler_consistency_small():
    assert les_consistency_check(0)
    assert les_consistency_check(2)


def _bgg_psis(k):
    """The trivial psi; psi(z) = p^v * unit for v in -2..3 and four units;
    psi(z) = +-p^(+-(k+2)), where eigenvalues of the three reports can meet;
    and one w-self-dual psi."""
    psis = [TRIVIAL_PSI]
    psis += [SmoothCharacter(f"v{v}u{unit}", v, unit)
             for v in range(-2, 4) for unit in (Fraction(1), Fraction(3, 2), Fraction(-1),
                                                Fraction(2, 5))]
    psis += [SmoothCharacter(f"edge{sign}{v}", v, sign)
             for v in (k + 2, -(k + 2)) for sign in (1, -1)]
    psis.append(SmoothCharacter("selfdual", 0, Fraction(-1), w_selfdual=True))
    return psis


def test_bgg_sequence_is_exact_degree_by_degree():
    # 0 -> A0 -> B0 -> C0 -> A1 -> B1 -> C1 -> 0 is exact for the reports A, B
    # and C of sub = simple(k), mid = verma(k) and quot = verma(-(k+2)).  B0
    # and C0 share no character, so B0 -> C0 is zero: A0 -> B0 is onto and C0
    # embeds in A1.  B1 maps onto C1.
    cases = 0
    for k in range(0, 41, 2):
        trunc = default_truncation(k + 2)
        for psi in _bgg_psis(k):
            reports = (assemble_les(OrlikStrauchSpec(fam, kk, psi), trunc)
                       for fam, kk in (("simple", k), ("verma", k), ("verma", -(k + 2))))
            a, b, c = ([Counter(r.degrees[i].jh_factors) for i in (0, 1)] for r in reports)
            assert a[0] == b[0], (k, psi)
            assert not c[1] - b[1], (k, psi)
            assert not c[0] - a[1], (k, psi)
            assert not b[0] & c[0], (k, psi)
            cases += 1
    assert cases == 630


def test_euler_consistency_detects_dropped_factor():
    k = 2
    sub = assemble_les(OrlikStrauchSpec("simple", k))
    mid = assemble_les(OrlikStrauchSpec("verma", k))
    quot = assemble_les(OrlikStrauchSpec("verma", -(k + 2)))
    lhs = (list(sub.degrees[0].jh_factors) + list(quot.degrees[0].jh_factors)
           + list(mid.degrees[1].jh_factors))
    rhs = (list(mid.degrees[0].jh_factors) + list(sub.degrees[1].jh_factors)
           + list(quot.degrees[1].jh_factors))
    norm = lambda cs: Counter(c.normalized(TRIVIAL_PSI) for c in cs)
    assert norm(lhs) == norm(rhs)
    assert norm(lhs[1:]) != norm(rhs)


def test_resolved_reports_conserve_section_and_stalk_multisets():
    for fam, k in (("verma", 6), ("verma", -8), ("dualverma", 2), ("simple", 4)):
        r = assemble_les(OrlikStrauchSpec(fam, k))
        assert jacquet_result_json(r)["connecting_map_forced_zero"] is True
        for i in (0, 1):
            assert Counter(r.degrees[i].jh_factors) == Counter(r.section[i]) + Counter(r.stalk[i])


def test_descriptor_validation():
    with pytest.raises(ValidationError):
        OrlikStrauchSpec("simple", -2)
    with pytest.raises(ValidationError):
        OrlikStrauchSpec("dualverma", -2)
    with pytest.raises(ParityError):
        OrlikStrauchSpec("verma", 3)
    with pytest.raises(ValidationError):
        OrlikStrauchSpec("weird", 2)


def test_reports_invariant_under_truncation_doubling():
    for fam, k in (("verma", 4), ("verma", -6), ("dualverma", 2), ("simple", 6)):
        a = assemble_les(OrlikStrauchSpec(fam, k), 20)
        b = assemble_les(OrlikStrauchSpec(fam, k), 40)
        assert a.section == b.section
        assert a.stalk == b.stalk
        assert a.degrees == b.degrees


def test_degree_reports_are_values():
    a = assemble_les(OrlikStrauchSpec("verma", 4), 20).degrees
    b = assemble_les(OrlikStrauchSpec("verma", 4), 40).degrees
    for i in (0, 1):
        assert a[i] == b[i] and a[i] is not b[i]
        assert hash(a[i]) == hash(b[i])
    assert a[0] != a[1]
    assert len({a[0], b[0], a[1], b[1]}) == 2
    other = assemble_les(OrlikStrauchSpec("verma", 6)).degrees
    assert a[0] != other[0]
    assert OrlikStrauchSpec("verma", 4) == OrlikStrauchSpec("verma", 4, TRIVIAL_PSI)


# -- each piece of work once -------------------------------------------------


def test_stalk_characters_are_the_w_twist_of_the_untwisted_lines():
    # The stalk's line at weight w is built at chi_{-w} psi^w directly; it
    # must be the w-twist of chi_w psi, the line before the interpolation.
    for family in ("verma", "dualverma", "simple"):
        for k in range(-12, 13, 2):
            if k < 0 and family != "verma":
                continue
            d = dual(family, k)
            res = cohomology(d, "nbar")
            stalk = stalk_cohomology_characters(d)
            for degree, lines in ((0, res.h0), (1, res.h1)):
                untwisted = tuple(TorusCharacter(line.weight, psi_exp=1) for line in lines)
                assert stalk[degree] == tuple(c.w_twist() for c in untwisted), (family, k)


def test_les_check_agrees_with_normalizing_every_factor():
    # The check compares raw multisets; normalizing every factor gives the
    # same answer, including at psi(z) = +-p^{k+2}, where a stalk H^0 line
    # and a section H^1 line share a z-eigenvalue.
    psis = (TRIVIAL_PSI, SmoothCharacter("a", 0, -1, w_selfdual=True), SmoothCharacter("b", 2, 3),
            SmoothCharacter("c", 6, 1, w_selfdual=True), SmoothCharacter("d", 6, -1))
    outcomes = Counter()
    for psi in psis:
        for k in range(0, 21, 2):
            sub, mid, quot = (assemble_les(OrlikStrauchSpec(fam, kk, psi), k + 18)
                              for fam, kk in (("simple", k), ("verma", k), ("verma", -(k + 2))))
            norm = lambda *parts: Counter(c.normalized(psi) for r, i in parts
                                          for c in r.degrees[i].jh_factors)
            expected = norm((sub, 0), (quot, 0), (mid, 1)) == norm((mid, 0), (sub, 1), (quot, 1))
            assert les_consistency_check(k, psi, k + 18) == expected, (psi, k)
            outcomes[expected] += 1
    assert outcomes == {True: len(psis) * 11}


def test_a_corpus_report_takes_each_eigenvalue_once(monkeypatch):
    calls = []
    original = TorusCharacter.z_eigenvalue

    def counted(chi, psi):
        calls.append(chi)
        return original(chi, psi)

    monkeypatch.setattr(TorusCharacter, "z_eigenvalue", counted)
    jobs = [(name, argv) for name, argv in corpus_manifest() if argv[0] == "jacquet"]
    assert len(jobs) == 18
    for name, argv in jobs:
        calls.clear()
        fixture_document(argv)
        taken = list(calls)
        report = assemble_les(OrlikStrauchSpec(argv[2], int(argv[4])), int(argv[8]))
        assert sorted(taken, key=repr) == sorted(report.eigenvalues, key=repr), name
    calls.clear()
    fixture_document(dict(corpus_manifest())["jacquet-verma-k+04"])
    assert len(calls) == 3


def test_rendered_hecke_lists_are_the_degree_eigenvalues():
    # The renderer reads each eigenvalue through the report's table; every
    # Hecke list must render its degree's eigenvalues from that table, with
    # and without a concrete prime.
    for psi in (TRIVIAL_PSI, SmoothCharacter("b", 2, Fraction(-3, 7)),
                SmoothCharacter("c", 6, 1, w_selfdual=True), SmoothCharacter("d", 6, -1)):
        for family, k in (("verma", 4), ("verma", -6), ("dualverma", 2), ("simple", 0),
                          ("simple", 4)):
            report = assemble_les(OrlikStrauchSpec(family, k, psi))
            for p in (None, 5):
                out = jacquet_result_json(report, p)
                for i in (0, 1):
                    deg = report.degrees[i]
                    assert out["degrees"][str(i)]["hecke_eigenvalues"] == [
                        eigenvalue_json(report.eigenvalues[c], p) for c in deg.jh_factors]
                    for c, rendered in zip(deg.jh_factors, out["degrees"][str(i)]["jh_factors"]):
                        assert rendered["eigenvalue"] == eigenvalue_json(c.z_eigenvalue(psi), p)
