"""Reports and ext verdicts against the closed form in k of perfbench/oracle.py.

The oracle states every jacquet report as a table in k and imports nothing
from djem, so it is an independent computation.  It is loaded by path and
used as it is; its one copy lives with the benchmark.
"""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from djem.characters import SmoothCharacter, TRIVIAL_PSI
from djem.cli import TRUNC_ENV_VAR, main
from djem.cohomology import kostant_check, stabilization_certificate
from djem.errors import CertificateError
from djem.extbound import RelationDeclarations, classify_ext
from djem.jacquet import OrlikStrauchSpec, assemble_les, build_module, les_consistency_check
from djem.reporting import jacquet_result_json
from djem.sl2 import n_finite_dual


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

K_MAX = 2000
STRIDE = 8  # every STRIDE-th even k, from a seeded start
WINDOW_K_MAX = 40
DECLARED_PSI = ("chi", 1, "3/2")


# psi(z) = p^val * unit; at val = k + 2 with unit +-1 a stalk H^0 line and a
# section H^1 line of simple share a z-eigenvalue.
PSI_GRID = tuple(("chi", val, unit) for val in range(-12, 13) for unit in ("1", "-1", "2", "-1/2"))


def _psis():
    yield oracle.TRIVIAL, TRIVIAL_PSI
    label, val, unit = DECLARED_PSI
    yield DECLARED_PSI, SmoothCharacter(label, val, Fraction(unit))


def test_jacquet_reports_match_the_closed_form():
    start = random.Random(20261020).randrange(STRIDE)
    ks = range(-K_MAX + 2 * start, K_MAX + 1, 2 * STRIDE)
    checked = 0
    for k in ks:
        for family in ("verma", "dualverma", "simple"):
            if family != "verma" and k < 0:
                continue
            for psi, character in _psis():
                report = assemble_les(OrlikStrauchSpec(family, k, character))
                got = json.loads(json.dumps(jacquet_result_json(report)))
                assert got == oracle.jacquet_result(family, k, psi), (family, k, psi)
                checked += 1
    assert checked == 2 * (len(ks) + 2 * sum(1 for k in ks if k >= 0))


def test_jacquet_reports_match_the_closed_form_at_a_far_k():
    # A report reads only the window ends and the coefficient roots, so a k
    # of 13 digits costs what a small one does.
    for family, k in (("verma", -10**12), ("verma", 10**12), ("dualverma", 10**12)):
        for psi, character in _psis():
            report = assemble_les(OrlikStrauchSpec(family, k, character))
            got = json.loads(json.dumps(jacquet_result_json(report)))
            assert got == oracle.jacquet_result(family, k, psi), (family, k, psi)


def _report_json(family, k, character, trunc=None):
    report = assemble_les(OrlikStrauchSpec(family, k, character), trunc)
    return json.loads(json.dumps(jacquet_result_json(report)))


def test_every_psi_of_the_grid_matches_the_closed_form():
    # The connecting map T0 -> S1 is zero because T0 and S1 never share a
    # weight, so every report, the shared-eigenvalue ones included, is the
    # oracle's splice.
    checked = 0
    for family in ("verma", "dualverma", "simple"):
        for k in range(-WINDOW_K_MAX if family == "verma" else 0, WINDOW_K_MAX + 1, 2):
            for psi in PSI_GRID:
                label, val, unit = psi
                report = assemble_les(
                    OrlikStrauchSpec(family, k, SmoothCharacter(label, val, Fraction(unit))))
                t0 = {c.weight for c in report.stalk[0]}
                assert t0.isdisjoint(c.weight for c in report.section[1]), (family, k, psi)
                got = json.loads(json.dumps(jacquet_result_json(report)))
                assert got == oracle.jacquet_result(family, k, psi), (family, k, psi)
                checked += 1
    assert checked == (WINDOW_K_MAX + 1 + 2 * (WINDOW_K_MAX // 2 + 1)) * len(PSI_GRID) == 8300


def test_reports_are_the_same_from_the_minimal_certified_window():
    for family, ks in (("verma", range(-WINDOW_K_MAX, WINDOW_K_MAX + 1, 2)),
                       ("dualverma", range(0, WINDOW_K_MAX + 1, 2))):
        for k in ks:
            dual = n_finite_dual(build_module(OrlikStrauchSpec(family, k)))
            t_min = max(stabilization_certificate(dual, d).bound for d in ("n", "nbar"))
            for psi, character in _psis():
                expected = oracle.jacquet_result(family, k, psi)
                for trunc in (t_min, 4 * t_min + 1):
                    assert _report_json(family, k, character, trunc) == expected, (family, k, trunc)
                if t_min > 0:
                    with pytest.raises(CertificateError):
                        assemble_les(OrlikStrauchSpec(family, k, character), t_min - 1)


def test_cohomology_documents_match_the_closed_form(capsys, monkeypatch):
    monkeypatch.delenv(TRUNC_ENV_VAR, raising=False)
    checked = 0
    for family in ("verma", "dualverma", "simple"):
        for k in range(-WINDOW_K_MAX if family == "verma" else 0, WINDOW_K_MAX + 1, 2):
            for direction in ("n", "nbar"):
                code = main(["cohomology", "--family", family, "--k", str(k),
                             "--direction", direction, "--json"])
                doc = json.loads(capsys.readouterr().out)
                want = oracle.cohomology_result(family, k, direction)
                assert code == 0 and doc["command"] == "cohomology", (family, k, direction)
                assert {key: doc["result"].get(key) for key in want} == want, (family, k, direction)
                checked += 1
    assert checked == 166


def test_kostant_check_up_to_k_max():
    assert all(kostant_check(k) for k in range(0, K_MAX + 1, 2))


def test_les_consistency_up_to_k_max():
    start = random.Random(20261021).randrange(2)
    for k in range(2 * start, K_MAX + 1, 4):
        for _, character in _psis():
            assert les_consistency_check(k, character), (k, character)


# (psi-eq-phi, psi-delta-eq-phi-w, phi-delta-eq-phi-w) -> psi and phi as
# (label, p-valuation, unit) at z, with z-values that agree with the
# assignment.  These five are the only consistent ones, since any two of the
# three relations give the third.
EXT_ASSIGNMENTS = {
    (True, True, True): (("a", 1, 1), ("b", 1, 1)),
    (True, False, False): (("a", 0, 1), ("b", 0, 1)),
    (False, True, False): (("a", 2, 1), ("b", 0, 1)),
    (False, False, True): (("a", 0, 1), ("b", 1, 1)),
    (False, False, False): (("a", 0, 1), ("b", 0, Fraction(3, 2))),
}


def test_ext_verdicts_match_the_closed_form():
    names = ("psi-eq-phi", "psi-delta-eq-phi-w", "phi-delta-eq-phi-w")
    checked = 0
    for assignment, (psi, phi) in EXT_ASSIGNMENTS.items():
        (_, va, ua), (_, vb, ub) = psi, phi
        # At z: delta_P shifts the p-exponent by -2, and phi^w(z) = phi(z)^-1.
        by_z = ((va, ua) == (vb, ub), (va - 2, ua) == (-vb, 1 / Fraction(ub)),
                (vb - 2, ub) == (-vb, 1 / Fraction(ub)))
        assert by_z == assignment, assignment
        relations = dict(zip(names, assignment))
        psi, phi = (SmoothCharacter(label, val, unit) for label, val, unit in (psi, phi))
        eq, twist, _ = assignment
        for ell in range(-8, 13, 2):
            for k in range(-14, 0, 2):
                if k == ell:
                    continue
                case = classify_ext(k, ell, psi, phi, RelationDeclarations(*assignment))
                verdict, fired = oracle.ext_verdict(k, ell, relations)
                assert (case.verdict, list(case.fired_bullets)) == (verdict, fired), (k, ell)
                assert all(c in case.h1_factors for c in case.matched_factors), (k, ell)
                bounded = k == -(ell + 2) and (eq or twist)
                assert case.hom_bound == ((0, eq + twist) if bounded else None), (k, ell)
                checked += 1
    assert checked == 5 * (11 * 7 - 4)
