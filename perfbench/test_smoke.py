"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q

It checks that BENCHMARK.json and metrics.py name the same metrics, that
run.py prints every named metric for every workload, that failed_ratio is
computed, that the oracles agree with djem where they should and catch a
deliberately wrong expectation, and that every span's self time is >= 0.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_KS = (8, 64)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "MIN_REQUESTS", 4)
    monkeypatch.setattr(workloads, "K_RANGE", (8, 32))
    monkeypatch.setattr(metrics, "KS", TINY_KS)


def run_main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_benchmark_json_names_the_metrics_the_code_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == (
        metrics.per_layer())


@pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.BY_HAND)
def test_every_end_to_end_metric_is_printed(tiny, capsys, workload):
    report, result = run_main(capsys, "--workload", workload, "--seed", "3",
                              "--seconds", "0.5", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m[0] for m in metrics.END_TO_END]
    for name, unit, _, _ in metrics.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    assert result["attempted"] >= 4
    assert report["failed_ratio"] == result["failed"] / result["attempted"]
    assert report["samples"]["latency_ms.p50"] == result["attempted"]
    env = report["environment"]
    assert {"python", "platform", "nproc", "git_sha", "src_sha256", "seed"} <= set(env)


@pytest.mark.parametrize("workload", ("large-k-sweep",))
def test_every_per_layer_metric_is_printed(tiny, capsys, workload):
    report, result = run_main(capsys, "--workload", workload, "--seed", "3",
                              "--seconds", "0", "--trace", "1")
    assert list(result["metrics"]) == metrics.per_layer_names(TINY_KS)
    assert result["correct"] and result["failed"] == 0
    assert report["min_self_ns"] >= 0
    assert (ROOT / report["spans_file"]).is_file()


def test_every_span_self_time_is_not_negative():
    _, _, checks, tracer = tracing.traced_run(ROOT, 5, 0, ks=TINY_KS)
    assert all(ok for _, ok in checks)
    selfs = tracer.self_times()
    assert len(selfs) == len(tracer.spans) > 0
    assert min(selfs) >= 0
    names = {span[0] for span in tracer.spans}
    assert {"sl2.build", "sl2.bracket", "linalg.kernel", "cohomology.n",
            "characters.hecke", "jacquet.assemble"} <= names


def test_oracle_matches_djem_at_k200_and_small_k():
    from djem.characters import SmoothCharacter, TRIVIAL_PSI
    from djem.cohomology import cohomology
    from djem.jacquet import OrlikStrauchSpec, assemble_les, build_module
    from djem.reporting import cohomology_result_json, jacquet_result_json
    from djem.sl2 import default_truncation, n_finite_dual
    from fractions import Fraction

    for k in (-8, -2, 0, 2, 8, 200):
        for family in workloads.FAMILIES:
            if family != "verma" and k < 0:
                continue
            for psi in workloads.PSIS:
                char = (TRIVIAL_PSI if psi[0] == "trivial"
                        else SmoothCharacter(psi[0], psi[1], Fraction(psi[2])))
                got = jacquet_result_json(assemble_les(OrlikStrauchSpec(family, k, char)), 5)
                assert json.loads(json.dumps(got)) == oracle.jacquet_result(family, k, psi, 5)
            dual = n_finite_dual(build_module(OrlikStrauchSpec(family, k), default_truncation(k)))
            for direction in ("n", "nbar"):
                got = cohomology_result_json(cohomology(dual, direction))
                want = oracle.cohomology_result(family, k, direction)
                assert {key: got[key] for key in want} == want


def test_oracle_catches_a_wrong_expectation(monkeypatch):
    right = oracle.family_table
    # Expect the dual family's table where the principal series is computed.
    monkeypatch.setattr(oracle, "family_table",
                        lambda family, k: right("dualverma" if family == "verma" else family, k))
    monkeypatch.setattr(workloads, "K_RANGE", (8, 32))
    tally = workloads.large_k_sweep(7, 0, min_requests=8)
    assert tally.wrong > 0 and tally.failed >= tally.wrong


def test_golden_compare_catches_a_changed_golden(monkeypatch, tmp_path):
    for path in workloads.fixtures_dir().glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    victim = tmp_path / "kostant-k+04.json"
    victim.write_bytes(victim.read_bytes().replace(b'"passed": true', b'"passed": false'))
    monkeypatch.setattr(workloads, "fixtures_dir", lambda: tmp_path)
    tally = workloads.regression_corpus(1, 0, min_requests=9)
    assert tally.wrong >= 1
    assert list(tally.reasons) == ["kostant-k+04: differs from the golden bytes"]


def test_cli_check_separates_wrong_answers_from_failures():
    refusal = {"kind": "odd-k", "argv": ["jacquet"], "exit": 2, "expect": None}
    ok = {"kind": "kostant", "argv": ["kostant"], "exit": 0, "expect": ("kostant", 4)}
    good = json.dumps({"command": "kostant", "result": oracle.check_result(
        4, h0_weight=4, h1_weight=-6)})
    bad = good.replace("-6", "-8")
    assert workloads.check_cli(refusal, (0.1, 2, "", "validation error", 20)) is None
    assert workloads.check_cli(refusal, (0.1, 1, "", "Traceback (most", 20))[0] == "error"
    assert workloads.check_cli(refusal, (0.1, 3, "", "", 20))[0] == "error"
    assert workloads.check_cli(refusal, (0.1, None, "", "", 20))[0] == "error"
    assert workloads.check_cli(refusal, (0.1, 0, "{}", "", 20))[0] == "wrong"
    assert workloads.check_cli(ok, (0.1, 0, good, "", 20)) is None
    assert workloads.check_cli(ok, (0.1, 0, bad, "", 20))[0] == "wrong"


def test_refusal_mix_is_one_in_eight_without_hanging_inputs():
    stream = workloads.oneshot_requests(11)
    reqs = [req for _ in range(14) for req in next(stream)]
    refusals = [req["kind"] for req in reqs if req["expect"] is None]
    assert len(refusals) * 8 == len(reqs)
    assert set(refusals) == set(workloads.REFUSAL_KINDS)
    assert not any("1000000000000000003" in req["argv"] for req in reqs)


def test_known_defects_are_probed():
    cases, wrong = workloads.known_defects(ROOT, 11)
    assert [case["kind"] for case in cases] == list(workloads.KNOWN_DEFECT_KINDS)
    assert wrong == 0
    for case in cases:
        assert case["documented"] == 2 and case["exit"] != 0
        # Exit 1 with a traceback today; the reason clears once exit 2 comes back.
        assert (case["reason"] is None) == (case["exit"] == 2)


def test_run_refuses_without_djem_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oneshot-cli",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
