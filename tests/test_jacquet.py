from collections import Counter
from fractions import Fraction

import pytest

from djem.characters import SmoothCharacter, TorusCharacter, TRIVIAL_PSI
from djem.cli import corpus_manifest, fixture_document
from djem.cohomology import (DIRECTIONS, CohomologyResult, WeightLines, cohomology,
                             stabilization_certificate)
from djem.errors import ParityError, TruncationError, ValidationError
from djem.jacquet import (FAMILIES, OrlikStrauchSpec, _characters, _les_is_exact, assemble_les,
                          build_module, hecke_eigenvalue, les_consistency_check,
                          section_cohomology_characters, stalk_cohomology_characters)
from djem.extbound import classify_ext
from djem.reporting import eigenvalue_json, ext_case_json, jacquet_result_json, jacquet_text
from djem.sl2 import (WeightModule, bgg_morphism, default_truncation, dual_verma, n_finite_dual,
                      simple)


def sec(w):
    return TorusCharacter(w, psi_exp=1, delta_exp=1)


def stk(w):
    return TorusCharacter(w, psiw_exp=1)


def w_twist(chi):
    """Conjugation by w: negates the algebraic weight, swaps psi with psi^w
    and inverts the modulus twist.  An involution."""
    return TorusCharacter(-chi.weight, chi.psiw_exp, chi.psi_exp, -chi.delta_exp)


def normalized(chi, psi):
    """chi with psi^w folded into psi when psi declares psi^w = psi."""
    if psi.w_selfdual and chi.psiw_exp:
        return TorusCharacter(chi.weight, chi.psi_exp + chi.psiw_exp, 0, chi.delta_exp)
    return chi


def exact(terms):
    """Whether 0 -> terms[0] -> ... -> terms[-1] -> 0, each term a Counter of
    characters and every map M-equivariant, admits ranks: for each character
    the running rank r_i = d_i - r_(i-1), from r_0 = 0, stays >= 0 and ends at 0."""
    for chi in set().union(*terms):
        rank = 0
        for term in terms:
            rank = term[chi] - rank
            if rank < 0:
                return False
        if rank:
            return False
    return True


def degree(report, i):
    """Degree i of a report as a value: its factors and its extension kind."""
    return (report.jh_factors(i), report.extension_kind(i))


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
    assert r.extension_kind(0) == "ext-class-undetermined"
    assert r.section[0] == (sec(k),)
    assert r.stalk[0] == (stk(k),)
    assert r.jh_factors(0) == (sec(k), stk(k))
    assert r.extension_kind(1) == "direct-sum-determined"
    assert r.jh_factors(1) == (stk(-(k + 2)), stk(k))


def test_report_principal_series_negative():
    k = -4
    r = assemble_les(OrlikStrauchSpec("verma", k))
    assert r.extension_kind(0) == "direct-sum-determined"
    assert r.jh_factors(0) == (sec(k),)
    assert r.extension_kind(1) == "direct-sum-determined"
    assert r.jh_factors(1) == (stk(-(k + 2)),)


def test_report_dual_family():
    k = 4
    r = assemble_les(OrlikStrauchSpec("dualverma", k))
    assert r.extension_kind(0) == "direct-sum-determined"
    assert r.jh_factors(0) == (sec(k), sec(-(k + 2)))
    assert r.extension_kind(1) == "ext-class-undetermined"
    assert r.section[1] == (sec(-(k + 2)),)
    assert r.stalk[1] == (stk(-(k + 2)),)


def test_report_locally_algebraic():
    k = 4
    r = assemble_les(OrlikStrauchSpec("simple", k))
    assert r.extension_kind(0) == "ext-class-undetermined"
    assert r.section[0] == (sec(k),)
    assert r.stalk[0] == (stk(k),)
    assert Counter(r.jh_factors(1)) == Counter([sec(-(k + 2)), stk(-(k + 2))])
    assert r.extension_kind(1) == "ext-class-undetermined"


def test_degree_zero_agreement_between_families():
    for k in (0, 2, 6):
        a = degree(assemble_les(OrlikStrauchSpec("simple", k)), 0)
        b = degree(assemble_les(OrlikStrauchSpec("verma", k)), 0)
        assert a == b


def test_zero_degree_flag():
    # negative-weight principal series have empty stalk degree 0 but a
    # non-empty section; construct an actually empty degree via the stalk
    k = -4
    r = assemble_les(OrlikStrauchSpec("verma", k))
    assert r.stalk[0] == ()
    assert r.extension_kind(0) == "direct-sum-determined"


def test_connecting_map_zero_on_matching_eigenvalues():
    # psi(z) = p^{k+2} makes the stalk degree-0 line and the section degree-1
    # line share a z-eigenvalue; their weights k and -(k+2) still differ, so
    # the map between them is zero and both degrees are spliced
    k = 2
    psi = SmoothCharacter("steep", k + 2, 1)
    r = assemble_les(OrlikStrauchSpec("simple", k, psi))
    assert r.eigenvalues[stk(k)] == r.eigenvalues[sec(-(k + 2))]
    assert r.section[0] == (sec(k),)
    assert r.stalk[0] == (stk(k),)
    assert r.jh_factors(0) == (sec(k), stk(k))
    assert r.jh_factors(1) == (sec(-(k + 2)), stk(-(k + 2)))
    for i in (0, 1):
        assert r.extension_kind(i) == "ext-class-undetermined"
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
                        deg = out["degrees"][str(i)]
                        assert r.jh_factors(i) == r.section[i] + r.stalk[i]
                        if r.section[i] and r.stalk[i]:
                            assert r.extension_kind(i) == "ext-class-undetermined"
                            assert (deg["extension"]["sub"], deg["extension"]["quot"]) == (
                                out["section"][str(i)], out["stalk"][str(i)])
                        assert deg["hecke_eigenvalues"] == [
                            eigenvalue_json(c.z_eigenvalue(psi)) for c in r.jh_factors(i)]
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
    ((v0, u0),) = [r.eigenvalues[c] for c in r.jh_factors(0)]
    assert (v0, u0) == (-4 + 1 - 2, Fraction(2, 3))
    ((v1, u1),) = [r.eigenvalues[c] for c in r.jh_factors(1)]
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
            a, b, c = ([Counter(r.jh_factors(i)) for i in (0, 1)] for r in reports)
            assert a[0] == b[0], (k, psi)
            assert not c[1] - b[1], (k, psi)
            assert not c[0] - a[1], (k, psi)
            assert not b[0] & c[0], (k, psi)
            cases += 1
    assert cases == 630


def test_dual_sequence_is_exact_degree_by_degree():
    # 0 -> simple(-k) -> dual_verma(-k) -> dual_verma(k+2) -> 0 is exact on
    # ladders, the finite submodule being spanned by e_0..e_k.  The reports A
    # of dual_verma(k+2), B of dualverma at k and C of simple at k then give
    # 0 -> A0 -> B0 -> C0 -> A1 -> B1 -> C1 -> 0.  The spec refuses dualverma
    # at k < 0, so A is read off the n-finite dual directly.  Characters are
    # formal in psi, so one psi stands for all.  _les_is_exact also checks the
    # ladder sequence's own long exact sequence on its maps; the multiplicity
    # rule stays as an independent check.
    def parts(section, stalk):
        return {"section": section, "stalk": stalk,
                "all": {i: section[i] + stalk[i] for i in (0, 1)}}

    cases = 0
    for k in range(0, 41, 2):
        for trunc in (default_truncation(k + 2), default_truncation(k + 2) + 9):
            d = n_finite_dual(dual_verma(k + 2, trunc))
            a = parts(section_cohomology_characters(d), stalk_cohomology_characters(d))
            b, c = (parts(r.section, r.stalk)
                    for r in (assemble_les(OrlikStrauchSpec(fam, k), trunc)
                              for fam in ("dualverma", "simple")))
            jh = lambda x, i, part="all": Counter(x[part][i])
            assert exact([jh(x, i) for i in (0, 1) for x in (a, b, c)]), (k, trunc)
            for part in ("section", "stalk"):
                assert (jh(a, 0, part) + jh(c, 0, part) + jh(b, 1, part)
                        == jh(b, 0, part) + jh(a, 1, part) + jh(c, 1, part)), (k, trunc, part)
            ladders = (simple(-k), dual_verma(-k, trunc), dual_verma(k + 2, trunc))
            assert _les_is_exact(*ladders), (k, trunc)
            cases += 1
    assert cases == 42


def test_euler_consistency_detects_dropped_factor():
    k = 2
    sub = assemble_les(OrlikStrauchSpec("simple", k))
    mid = assemble_les(OrlikStrauchSpec("verma", k))
    quot = assemble_les(OrlikStrauchSpec("verma", -(k + 2)))
    lhs = list(sub.jh_factors(0) + quot.jh_factors(0) + mid.jh_factors(1))
    rhs = list(mid.jh_factors(0) + sub.jh_factors(1) + quot.jh_factors(1))
    norm = lambda cs: Counter(normalized(c, TRIVIAL_PSI) for c in cs)
    assert norm(lhs) == norm(rhs)
    assert norm(lhs[1:]) != norm(rhs)


def _les_ladders(k):
    """The n-finite duals of sub = simple(-k), mid = verma(-k) and quot =
    verma(k + 2), the last two bgg_morphism(k)'s target and source at its
    default window, in the order les-check builds them."""
    embedding = bgg_morphism(k)
    return [n_finite_dual(m) for m in (simple(-k), embedding.target, embedding.source)]


def _replay_les_check(monkeypatch, k, ladders, results):
    """les_consistency_check(k) with its three ladders and its six cohomology
    results (sub, mid and quot, each in direction n and then nbar) replayed."""
    duals, calls = iter(ladders), iter(results)

    def patched(module, direction):
        res = next(calls)
        assert res.direction == direction
        return res

    monkeypatch.setattr("djem.jacquet.n_finite_dual", lambda module: next(duals))
    monkeypatch.setattr("djem.jacquet.cohomology", patched)
    return les_consistency_check(k)


def _edited(results, i, h0, h1):
    """results with the lines of result i replaced by h0 and h1."""
    res = results[i]
    edited = CohomologyResult(res.direction, h0, h1, res.weight_shift_applied,
                              res.certificate, res.certified)
    return results[:i] + [edited] + results[i + 1:]


def _les_euler_factors(results):
    """Both sides of H0(sub) + H0(quot) + H1(mid) = H0(mid) + H1(sub) + H1(quot)
    on the section (n) and stalk (nbar) characters of the six results."""
    chars = [_characters(res, *((1, 1, 0, 1) if res.direction == "n" else (-1, 0, 1, 0)))
             for res in results]
    jh = lambda *parts: Counter(c for m, i in parts for d in (0, 1) for c in chars[2 * m + d][i])
    return jh((0, 0), (2, 0), (1, 1)), jh((1, 0), (0, 1), (2, 1))


def test_les_check_requires_exactness_at_both_ends(monkeypatch):
    # Each edit moves one line within one side of the Euler sum, so the sum
    # still holds, but leaves H^0(sub) or H^1(quot) with a line that the same
    # degree of mid lacks: H^0(sub) -> H^0(mid) would not be injective, or
    # H^1(mid) -> H^1(quot) not onto.
    k = 4
    ladders = _les_ladders(k)
    results = [cohomology(m, d) for m in ladders for d in DIRECTIONS]
    sub_n, mid_nbar, quot_n, quot_nbar = results[0], results[3], results[4], results[5]
    assert quot_n.h0 == (WeightLines(-(k + 2), ladders[2].labels_at(-(k + 2))),)
    assert [line.weight for line in mid_nbar.h1] == [k + 2, -k] and not quot_nbar.h0
    edits = {
        "quot's H^0 line into sub's H^0": _edited(
            _edited(results, 0, sub_n.h0 + quot_n.h0, sub_n.h1), 4, (), quot_n.h1),
        "mid's H^1 line at -k, the factor chi_k psi^w, into quot's H^0": _edited(
            _edited(results, 3, mid_nbar.h0, mid_nbar.h1[:1]), 5, mid_nbar.h1[1:],
            quot_nbar.h1),
    }
    assert _replay_les_check(monkeypatch, k, ladders, results)
    for name, edited in edits.items():
        lhs, rhs = _les_euler_factors(edited)
        assert lhs == rhs, name
        assert not _replay_les_check(monkeypatch, k, ladders, edited), name


def test_les_check_refuses_a_character_only_in_mid(monkeypatch):
    # chi in H^0(mid) and H^1(mid) only: the Euler sum and both end conditions
    # hold, but B0 -> C0 must embed chi in C0, which lacks it (running ranks
    # 0, 1, -1), so the sequence cannot be exact.
    k = 4
    ladders = _les_ladders(k)
    results = [cohomology(m, d) for m in ladders for d in DIRECTIONS]
    chi = WeightLines(100, ("chi",))
    assert all(chi.weight not in {line.weight for line in res.h0 + res.h1} for res in results)
    mid_n = results[2]
    edited = _edited(results, 2, mid_n.h0 + (chi,), mid_n.h1 + (chi,))
    lhs, rhs = _les_euler_factors(edited)
    assert lhs == rhs
    assert _replay_les_check(monkeypatch, k, ladders, results)
    assert not _replay_les_check(monkeypatch, k, ladders, edited)


def test_les_check_fails_on_every_mutant_of_its_six_results(monkeypatch):
    # Replaying les-check's six cohomology results passes; every mutant
    # fails: one line dropped from one degree of one result; a line added to
    # both degrees of mid at a weight no result has (then H^0(mid) ->
    # H^0(quot) must embed it in H^0(quot), which lacks it); or mid's
    # operator made zero at a weight where H^0(quot) and H^1(sub) both have a
    # line, so that the connecting map between them is zero.
    replay = lambda results: _replay_les_check(monkeypatch, k, ladders, results)
    mutant = lambda i, h0, h1: _edited(results, i, h0, h1)

    weights = lambda lines: {line.weight for line in lines}
    coefficient = WeightModule.line_coefficient
    dropped = added = zeroed = 0
    for k in (0, 4, 10):
        ladders = _les_ladders(k)
        mid = ladders[1]
        results = [cohomology(m, d) for m in ladders for d in DIRECTIONS]
        assert replay(results), k
        for i, res in enumerate(results):
            for n in range(len(res.h0)):
                assert not replay(mutant(i, res.h0[:n] + res.h0[n + 1:], res.h1)), (k, i, 0)
            for n in range(len(res.h1)):
                assert not replay(mutant(i, res.h0, res.h1[:n] + res.h1[n + 1:])), (k, i, 1)
            dropped += len(res.h0) + len(res.h1)
        for d in (0, 1):
            mu = min(set(mid.weights) - set().union(*(weights(res.h0) | weights(res.h1)
                                                      for res in results[d::2])))
            line = WeightLines(mu, mid.labels_at(mu))
            res = results[2 + d]
            assert not replay(mutant(2 + d, res.h0 + (line,), res.h1 + (line,))), (k, d)
            added += 1
        for d, (op, _) in enumerate(DIRECTIONS.values()):
            for mu in weights(results[4 + d].h0) & weights(results[d].h1):
                assert mid.line_coefficient(op, mu) != 0, (k, op, mu)
                monkeypatch.setattr(WeightModule, "line_coefficient",
                                    lambda m, o, src, cut=(op, mu):
                                    0 if m is mid and (o, src) == cut else coefficient(m, o, src))
                assert not replay(results), (k, op, mu)
                monkeypatch.setattr(WeightModule, "line_coefficient", coefficient)
                zeroed += 1
    assert (dropped, added, zeroed) == (30, 6, 3)


def test_les_check_refuses_a_non_character_psi():
    with pytest.raises(ValidationError, match="psi must be a SmoothCharacter"):
        les_consistency_check(2, "a")


def test_les_check_answers_from_the_least_certified_window_up():
    # bgg_morphism refuses a window below k + 1, which cannot hold its source;
    # that is also the largest certificate bound of the three ladders, so the
    # refusal is the embedding's TruncationError, never a CertificateError.
    # From k + 1 up, and at the default, the answer is True.
    for k in (0, 2, 4, 10):
        least = max(stabilization_certificate(m, d).bound
                    for m in _les_ladders(k) for d in DIRECTIONS)
        assert least == k + 1, k
        for t in range(k + 1):
            with pytest.raises(TruncationError, match=rf"need at least {k + 1}$") as refused:
                les_consistency_check(k, trunc=t)
            assert type(refused.value) is TruncationError, (k, t)
        for t in (*range(k + 1, k + 25), None):
            assert les_consistency_check(k, trunc=t) is True, (k, t)


def test_resolved_reports_conserve_section_and_stalk_multisets():
    for fam, k in (("verma", 6), ("verma", -8), ("dualverma", 2), ("simple", 4)):
        r = assemble_les(OrlikStrauchSpec(fam, k))
        assert jacquet_result_json(r)["connecting_map_forced_zero"] is True
        for i in (0, 1):
            assert Counter(r.jh_factors(i)) == Counter(r.section[i]) + Counter(r.stalk[i])


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
        assert [degree(a, i) for i in (0, 1)] == [degree(b, i) for i in (0, 1)]


def test_a_certified_report_does_not_depend_on_its_window():
    # H^*J_P is a functor of the representation, not of the window it is
    # computed in: at every certified window t, from the least one (the larger
    # of the n and nbar certificate bounds) up, the report and both cohomology
    # results are equal records to those at the default window.
    declared = SmoothCharacter("a", 1, Fraction(3, 2))
    specs = [OrlikStrauchSpec(family, k, psi)
             for family in ("verma", "dualverma", "simple")
             for k in range(-40 if family == "verma" else 0, 41, 2)
             for psi in (TRIVIAL_PSI, declared)]
    compared = 0
    for spec in specs:
        default_dual = n_finite_dual(build_module(spec))
        least = max(stabilization_certificate(default_dual, d).bound for d in DIRECTIONS)
        report = assemble_les(spec)
        results = [cohomology(default_dual, d) for d in DIRECTIONS]
        default = default_truncation(spec.k)
        for t in (least, default, default + 1, 2 * default):
            assert assemble_les(spec, t) == report, (spec, t)
            dual = n_finite_dual(build_module(spec, t))
            assert [cohomology(dual, d) for d in DIRECTIONS] == results, (spec, t)
            compared += 1
    assert compared == 664


def test_degree_reports_are_values():
    ra = assemble_les(OrlikStrauchSpec("verma", 4), 20)
    rb = assemble_les(OrlikStrauchSpec("verma", 4), 40)
    a = [degree(ra, i) for i in (0, 1)]
    b = [degree(rb, i) for i in (0, 1)]
    for i in (0, 1):
        assert a[i] == b[i] and a[i] is not b[i]
        assert hash(a[i]) == hash(b[i])
    assert a[0] != a[1]
    assert len({a[0], b[0], a[1], b[1]}) == 2
    other = [degree(assemble_les(OrlikStrauchSpec("verma", 6)), i) for i in (0, 1)]
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
                assert stalk[degree] == tuple(w_twist(c) for c in untwisted), (family, k)


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
            norm = lambda *parts: Counter(normalized(c, psi) for r, i in parts
                                          for c in r.jh_factors(i))
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


def test_undetermined_corpus_degrees_have_distinct_eigenvalues():
    # M is abelian, so an extension of characters with different
    # z-eigenvalues splits.  Every undetermined degree of the corpus has sub
    # and quot eigenvalues that share no value.
    undetermined = 0
    for name, argv in corpus_manifest():
        if argv[0] != "jacquet":
            continue
        assert argv[5:7] == ("--psi", "trivial"), name
        r = assemble_les(OrlikStrauchSpec(argv[2], int(argv[4])), int(argv[8]))
        for i in (0, 1):
            if r.extension_kind(i) == "ext-class-undetermined":
                sub = {r.eigenvalues[c] for c in r.section[i]}
                quot = {r.eigenvalues[c] for c in r.stalk[i]}
                assert not sub & quot, (name, i)
                undetermined += 1
    assert undetermined == 18



def test_undetermined_degrees_are_psi_delta_over_psi_w():
    # Every ext-class-undetermined degree is one line chi_w psi delta_P under one
    # line chi_w psi^w, with w = k in degree 0 and w = -(k+2) in degree 1, so its
    # two factors are one character exactly when psi delta_P = psi^w.  Their
    # z-values p^(w-2) psi(z) and p^w / psi(z) agree exactly when psi(z) = +-p.
    psis = [TRIVIAL_PSI] + [SmoothCharacter("a", val, unit, w_selfdual=selfdual)
                            for val in (-3, -1, 0, 1, 2, 3)
                            for unit in (1, -1, 2, Fraction(1, 3))
                            for selfdual in (False, True)]
    undetermined = agreeing = 0
    for family in FAMILIES:
        for k in range(-40 if family == "verma" else 0, 41, 2):  # only verma takes k < 0
            for psi in psis:
                r = assemble_les(OrlikStrauchSpec(family, k, psi))
                for i, w in ((0, k), (1, -(k + 2))):
                    if r.extension_kind(i) != "ext-class-undetermined":
                        continue
                    assert r.section[i] == (sec(w),), (family, k, psi, i)
                    assert r.stalk[i] == (stk(w),), (family, k, psi, i)
                    agree = r.eigenvalues[sec(w)] == r.eigenvalues[stk(w)]
                    at_plus_minus_p = psi.z_valuation == 1 and abs(psi.z_unit) == 1
                    assert agree == at_plus_minus_p, (family, k, psi, i)
                    undetermined += 1
                    agreeing += agree
    assert (undetermined, agreeing) == (4116, 336)

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
                    jh = report.jh_factors(i)
                    assert out["degrees"][str(i)]["hecke_eigenvalues"] == [
                        eigenvalue_json(report.eigenvalues[c], p) for c in jh]
                    for c, rendered in zip(jh, out["degrees"][str(i)]["jh_factors"]):
                        assert rendered["eigenvalue"] == eigenvalue_json(c.z_eigenvalue(psi), p)


@pytest.mark.parametrize("p, fragment", [
    (0, "p must be prime, got 0"), (-5, "p must be prime, got -5"), (4, "p must be prime, got 4"),
    (2.5, "p must be an int, got 2.5"), (True, "p must be an int, got True"),
])
def test_the_renderers_refuse_a_p_that_is_not_a_prime_int(p, fragment):
    report = assemble_les(OrlikStrauchSpec("verma", -4))
    case = classify_ext(-4, 2, TRIVIAL_PSI, TRIVIAL_PSI)
    for render, result in ((jacquet_result_json, report), (jacquet_text, report),
                           (ext_case_json, case)):
        with pytest.raises(ValidationError, match=fragment):
            render(result, p)
    with pytest.raises(ValidationError, match=fragment):
        eigenvalue_json((0, Fraction(1)), p)
    assert jacquet_result_json(report, 5) == jacquet_result_json(report, 5)
