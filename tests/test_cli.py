import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from djem import cli
from djem.cli import (EXIT_CORPUS_DIFF, EXIT_CORPUS_SETUP, EXIT_TRUNCATION,
                      EXIT_UNDECIDABLE, EXIT_VALIDATION, P_LIMIT, SIZE_LIMIT,
                      _default_fixtures_dir, _is_prime, corpus_manifest, fixture_document,
                      main)
from djem.reporting import VALUE_DIGIT_CAP, frac_str


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jacquet_json_document(capsys):
    code, out, _ = run(capsys, "jacquet", "--family", "verma", "--k", "-4",
                       "--psi", "trivial", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "jacquet"
    assert doc["config"]["truncation"] == 20
    deg = doc["result"]["degrees"]
    assert [c["text"] for c in deg["0"]["jh_factors"]] == ["chi_{-4} psi delta_P"]
    assert [c["text"] for c in deg["1"]["jh_factors"]] == ["chi_{2} psi^w"]
    assert deg["0"]["extension"]["kind"] == "direct-sum-determined"


def test_jacquet_text_mode(capsys):
    code, out, _ = run(capsys, "jacquet", "--family", "verma", "--k", "4")
    assert code == 0
    assert "chi_{4} psi delta_P" in out
    assert "ext-class-undetermined" in out


def test_byte_identical_repeat_runs(capsys):
    argv = ("jacquet", "--family", "dualverma", "--k", "4", "--json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_validation_exit_code_names_constraint(capsys):
    code, _, err = run(capsys, "jacquet", "--family", "simple", "--k", "-2", "--json")
    assert code == EXIT_VALIDATION
    assert "k >= 0" in err


def test_truncation_exit_code(capsys):
    code, _, err = run(capsys, "cohomology", "--family", "verma", "--k", "40",
                       "--direction", "nbar", "--trunc", "5")
    assert code == EXIT_TRUNCATION
    assert "increase truncation" in err


def test_undecidable_exit_code(capsys):
    code, _, err = run(capsys, "ext-bound", "--k", "-4", "--ell", "2",
                       "--psi", "a", "--psi-val", "1", "--phi", "b", "--phi-val", "1")
    assert code == EXIT_UNDECIDABLE
    assert "declare the relation" in err


def test_window_only_mode(capsys):
    code, out, _ = run(capsys, "cohomology", "--family", "verma", "--k", "40",
                       "--direction", "nbar", "--trunc", "5", "--window-only", "--json")
    assert code == 0
    assert json.loads(out)["result"]["certified"] is False


def test_cohomology_report_content(capsys):
    code, out, _ = run(capsys, "cohomology", "--family", "dualverma", "--k", "4",
                       "--direction", "n", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["h0"] == [{"weight": 4, "dim": 1, "labels": ["ê_0"]},
                            {"weight": -6, "dim": 1, "labels": ["ê_5"]}]
    assert result["h1"] == [{"weight": -6, "dim": 1, "labels": ["ê_4"]}]
    assert result["higher_degrees"] == "zero"


def test_env_truncation_override(capsys, monkeypatch):
    monkeypatch.setenv("JACQUET_TRUNC_DEFAULT", "24")
    code, out, _ = run(capsys, "jacquet", "--family", "verma", "--k", "0", "--json")
    assert code == 0
    assert json.loads(out)["config"]["truncation"] == 24


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("family = verma\nk = -4\npsi = trivial\njson = true\n", encoding="utf-8")
    code, out, _ = run(capsys, "jacquet", "--config", str(cfg))
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["family"] == "verma"
    assert doc["config"]["k"] == -4


def test_config_file_flags_override(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("family = verma\nk = -4\n", encoding="utf-8")
    code, out, _ = run(capsys, "jacquet", "--config", str(cfg), "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["config"]["k"] == 2


def test_concrete_prime_display(capsys):
    code, out, _ = run(capsys, "jacquet", "--family", "verma", "--k", "-4",
                       "--p", "5", "--json")
    assert code == 0
    eig = json.loads(out)["result"]["degrees"]["0"]["jh_factors"][0]["eigenvalue"]
    assert eig == {"p_exp": -6, "unit": "1/1", "value": "1/15625"}


def test_nonprime_p_rejected(capsys):
    code, _, err = run(capsys, "jacquet", "--family", "verma", "--k", "-4", "--p", "6")
    assert code == EXIT_VALIDATION
    assert "prime" in err


@pytest.mark.parametrize("p, fragment", [
    ("6", "prime"),
    (str((10**9 + 7) * (10**9 + 9)), "prime"),  # no small factor
    ("3215031751", "prime"),                    # strong pseudoprime to bases 2, 3, 5, 7
    (str(P_LIMIT), "below"),                    # strong pseudoprime to bases 2..37
    ("9" * 400, "below"),
])
def test_p_refusals_exit_2_without_traceback(capsys, p, fragment):
    code, _, err = run(capsys, "jacquet", "--family", "verma", "--k", "-4", "--p", p)
    assert code == EXIT_VALIDATION
    assert fragment in err and "Traceback" not in err


def test_large_prime_p_is_accepted_promptly():
    # A fresh process with a timeout, so that a slow primality test fails here
    # instead of stalling the suite.
    p = 1000000000000000003
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-m", "djem.cli", "jacquet", "--family", "verma",
                          "--k", "-4", "--p", str(p), "--json"],
                         capture_output=True, text=True, timeout=20,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    eig = json.loads(out.stdout)["result"]["degrees"]["0"]["jh_factors"][0]["eigenvalue"]
    assert eig["value"] == f"1/{p ** 6}"


@pytest.mark.parametrize("argv", [
    ("jacquet", "--family", "verma", "--k", "20000", "--json"),
    ("jacquet", "--family", "verma", "--k", "-4", "--psi", "a", "--psi-val", "10000"),
    ("jacquet", "--family", "verma", "--k", "-4", "--psi", "a", "--psi-val", "10000", "--json"),
    ("ext-bound", "--k", "-4", "--ell", "2", "--psi", "a", "--psi-val", "10000", "--json"),
    ("ext-bound", "--k", "-4", "--ell", "2", "--phi", "a", "--phi-val", "10000", "--json"),
])
def test_concrete_value_past_digit_cap_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--p", "3")
    assert code == EXIT_VALIDATION
    assert f"more than {VALUE_DIGIT_CAP} digits" in err and "Traceback" not in err
    assert out == ""


def test_ext_bound_text_mode_ignores_digit_cap(capsys):
    # The text report prints no eigenvalue, so a value past the cap is never rendered.
    argv = ("ext-bound", "--k", "-4", "--ell", "2", "--psi", "a", "--psi-val", "10000",
            "--phi", "b", "--relation", "psi-eq-phi", "--relation", "not:psi-delta-eq-phi-w",
            "--relation", "phi-delta-eq-phi-w", "--p", "3")
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "verdict: one-or-two-dimensional" in out.splitlines()
    code, _, err = run(capsys, *argv, "--json")
    assert code == EXIT_VALIDATION
    assert f"more than {VALUE_DIGIT_CAP} digits" in err


@pytest.mark.parametrize("argv, json_name, text_name", [
    (("jacquet", "--family", "verma", "--k", "4"), "jacquet_result_json", "jacquet_text"),
    (("cohomology", "--family", "verma", "--k", "4", "--direction", "n"),
     "cohomology_result_json", "cohomology_text"),
    (("ext-bound", "--k", "-4", "--ell", "2", "--relation", "psi-eq-phi",
      "--relation", "not:psi-delta-eq-phi-w", "--relation", "phi-delta-eq-phi-w"),
     "ext_case_json", "ext_case_text"),
])
def test_only_the_requested_output_mode_is_rendered(capsys, monkeypatch, argv, json_name,
                                                     text_name):
    def refuse(*_):
        raise AssertionError("rendered an output mode that was not requested")

    with monkeypatch.context() as patch:
        patch.setattr(cli, json_name, refuse)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
    with monkeypatch.context() as patch:
        patch.setattr(cli, text_name, refuse)
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["command"] == argv[0]


def _run_limited(argv, env=None):
    """A fresh CLI process under a 1.5 GB address-space limit and a 20 s timeout,
    so that an unbounded allocation fails fast instead of loading the machine."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "djem.cli", *argv], capture_output=True,
                          text=True, timeout=20, preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": str(src), **(env or {})})


@pytest.mark.parametrize("argv, env, flag", [
    (("jacquet", "--family", "verma", "--k", "100000000", "--json"), None, "--k"),
    (("cohomology", "--family", "verma", "--k", "4", "--direction", "n", "--trunc",
      "100000000"), None, "--trunc"),
    (("cohomology", "--family", "verma", "--k", "4", "--direction", "n"),
     {"JACQUET_TRUNC_DEFAULT": "100000000"}, "JACQUET_TRUNC_DEFAULT"),
    (("ext-bound", "--k", "-4", "--ell", "-100000000"), None, "--ell"),
    (("kostant", "--k", "100000000"), None, "--k"),
])
def test_sizes_past_the_limit_exit_2_before_building(argv, env, flag):
    out = _run_limited(argv, env)
    assert out.returncode == EXIT_VALIDATION, out.stderr
    assert f"{flag} must be at most {SIZE_LIMIT}" in out.stderr
    assert "Traceback" not in out.stderr and out.stdout == ""


def test_sizes_at_the_limit_are_accepted(capsys):
    # k != -(ell + 2) is decided without building a module, so the bounds
    # themselves are cheap to probe.
    code, _, err = run(capsys, "ext-bound", "--k", str(-SIZE_LIMIT), "--ell", "2",
                       "--trunc", str(SIZE_LIMIT))
    assert code == 0, err
    for flags in (("--k", str(-SIZE_LIMIT - 2), "--ell", "2"),
                  ("--k", "-4", "--ell", str(SIZE_LIMIT + 2)),
                  ("--k", "-4", "--ell", "6", "--trunc", str(SIZE_LIMIT + 1))):
        code, _, err = run(capsys, "ext-bound", *flags)
        assert code == EXIT_VALIDATION and f"must be at most {SIZE_LIMIT}" in err


def test_cli_import_path_stays_lean():
    # -S keeps site hooks from importing modules on their own behalf.
    script = ("import sys\n"
              "import djem.cli\n"
              "djem.cli.main(['jacquet', '--family', 'verma', '--k', '4', '--json'])\n"
              "heavy = ('dataclasses', 'inspect', 'concurrent.futures', 'logging',"
              " 'djem.extbound')\n"
              "print(sorted(m for m in heavy if m in sys.modules), file=sys.stderr)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         timeout=20, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["command"] == "jacquet"
    assert out.stderr.strip() == "[]"


def test_huge_concrete_value_refused_promptly():
    # A fresh process with a timeout: computing 3**(10**8) would stall the suite.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-m", "djem.cli", "jacquet", "--family", "verma",
                          "--k", "-4", "--psi", "a", "--psi-val", "100000000", "--p", "3",
                          "--json"],
                         capture_output=True, text=True, timeout=20,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == EXIT_VALIDATION, out.stderr
    assert "digits" in out.stderr and "Traceback" not in out.stderr


def test_concrete_value_just_under_digit_cap_renders_exactly(capsys):
    # psi-val 8385 gives |p_exp| up to 8383, and 8383 * log10(3) = 3999.7.
    code, out, _ = run(capsys, "jacquet", "--family", "verma", "--k", "-4", "--psi", "a",
                       "--psi-val", "8385", "--p", "3", "--json")
    assert code == 0
    values = []
    stack = [json.loads(out)["result"]]
    while stack:
        node = stack.pop()
        if isinstance(node, dict) and "value" in node:
            values.append(node)
        stack.extend(node.values() if isinstance(node, dict) else
                     node if isinstance(node, list) else ())
    assert max(abs(v["p_exp"]) for v in values) == 8383
    for v in values:
        assert v["value"] == frac_str(Fraction(3) ** v["p_exp"] * Fraction(v["unit"]))
    code, _, _ = run(capsys, "jacquet", "--family", "verma", "--k", "-4", "--psi", "a",
                     "--psi-val", "8386", "--p", "3", "--json")
    assert code == EXIT_VALIDATION


def test_primality_matches_trial_division():
    trial = lambda n: n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]


@pytest.mark.parametrize("flag, value", [
    ("--psi-unit", "abc"), ("--psi-unit", "1/0"), ("--phi-unit", "abc"), ("--phi-unit", "1/0"),
])
def test_bad_rational_exits_2_without_traceback(capsys, flag, value):
    code, _, err = run(capsys, "ext-bound", "--k", "-4", "--ell", "2", "--psi", "a",
                       "--phi", "b", flag, value)
    assert code == EXIT_VALIDATION
    assert flag in err and "Traceback" not in err


def test_bad_rational_in_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("family = verma\nk = -4\npsi = chi\npsi-unit = 2/0\n", encoding="utf-8")
    code, _, err = run(capsys, "jacquet", "--config", str(cfg))
    assert code == EXIT_VALIDATION
    assert "--psi-unit" in err and "Traceback" not in err


NEGATIVE_UNIT_RUNS = [
    ("jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit", "-2/5", "--json"),
    ("ext-bound", "--k", "-4", "--ell", "2", "--psi", "a", "--phi", "b",
     "--phi-unit", "-2/5", "--relation", "psi-eq-phi", "--json"),
    ("les-check", "--k", "2", "--psi", "a", "--psi-val", "1", "--psi-unit", "-7/3", "--json"),
]


@pytest.mark.parametrize("argv", NEGATIVE_UNIT_RUNS, ids=lambda argv: argv[0])
def test_negative_unit_is_taken_as_the_flag_value(capsys, argv):
    flag = next(i for i, token in enumerate(argv) if token.endswith("-unit"))
    joined = argv[:flag] + (f"{argv[flag]}={argv[flag + 1]}",) + argv[flag + 2:]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *joined)


def test_negative_unit_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("family = verma\nk = 2\npsi = a\npsi-unit = -2/5\n", encoding="utf-8")
    code, out, err = run(capsys, "jacquet", "--config", str(cfg), "--json")
    assert (code, err) == (0, "")
    assert out == run(capsys, "jacquet", "--family", "verma", "--k", "2", "--psi", "a",
                      "--psi-unit=-2/5", "--json")[1]


@pytest.mark.parametrize("case", ["psi", "phi", "config-file"])
def test_trivial_label_with_another_torus_unit_exits_2(tmp_path, capsys, case):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("family = verma\nk = 2\npsi = trivial\npsi-torus-unit = foo\njson = true\n",
                   encoding="utf-8")
    argv = {"psi": ("jacquet", "--family", "verma", "--k", "2", "--psi", "trivial",
                    "--psi-torus-unit", "foo", "--json"),
            "phi": ("ext-bound", "--k", "-4", "--ell", "2", "--phi", "trivial",
                    "--phi-torus-unit", "foo"),
            "config-file": ("jacquet", "--config", str(cfg))}[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_VALIDATION, "")
    assert "torus-unit 'foo'" in err and "Traceback" not in err


def test_trivial_label_with_its_own_torus_unit_is_the_trivial_character(capsys):
    argv = ("jacquet", "--family", "verma", "--k", "2", "--psi", "trivial", "--json")
    code, out, err = run(capsys, *argv, "--psi-torus-unit", "trivial")
    assert (code, err) == (0, "")
    assert out == run(capsys, *argv)[1]


@pytest.mark.parametrize("value", ["--json", "-abc", "-2/5x"])
def test_unit_flag_without_a_value_stays_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit", value])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_bytes(b"family = verma\nk = \xff\n")
    code, _, err = run(capsys, "jacquet", "--config", str(cfg))
    assert code == EXIT_VALIDATION
    assert "UTF-8" in err and "Traceback" not in err


def _psi_config(tmp_path):
    cfg = tmp_path / "psi.cfg"
    cfg.write_text("psi = a\npsi-val = 3\n", encoding="utf-8")
    return cfg


VERMA_K2 = ("jacquet", "--family", "verma", "--k", "2", "--json")


def test_config_equals_path_is_applied(tmp_path, capsys):
    code, out, err = run(capsys, *VERMA_K2, f"--config={_psi_config(tmp_path)}")
    assert (code, err) == (0, "")
    assert out == run(capsys, *VERMA_K2, "--psi", "a", "--psi-val", "3")[1]


@pytest.mark.parametrize("spelling", ["abbreviated", "missing-file", "second", "in-file"])
def test_config_given_another_way_exits_2(tmp_path, capsys, spelling):
    cfg = _psi_config(tmp_path)
    nested = tmp_path / "nested.cfg"
    nested.write_text(f"config = {cfg}\n", encoding="utf-8")
    extra = {"abbreviated": ["--conf", str(cfg)],
             "missing-file": [f"--config={tmp_path / 'missing.cfg'}"],
             "second": ["--config", str(cfg), "--config", str(cfg)],
             "in-file": ["--config", str(nested)]}[spelling]
    try:
        code = main([*VERMA_K2, *extra])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_check_commands(capsys):
    for argv in (("kostant", "--k", "2"), ("bgg-check", "--k", "2"), ("les-check", "--k", "2")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "PASS" in out


def test_connecting_undetermined_surfaced(capsys):
    code, out, _ = run(capsys, "jacquet", "--family", "simple", "--k", "2",
                       "--psi", "steep", "--psi-val", "4", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["connecting_map_forced_zero"] is False
    assert result["degrees"]["0"]["extension"]["kind"] == "connecting-undetermined"
    assert result["degrees"]["0"]["jh_factors"] == []


def test_ext_bound_command(capsys):
    code, out, _ = run(capsys, "ext-bound", "--k", "-4", "--ell", "2", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "one-dimensional"
    assert result["fired_bullets"] == [1]
    assert result["hom_bound"] == {"min": 0, "max": 1}


def test_relation_flag_round_trip(capsys):
    code, out, _ = run(capsys, "ext-bound", "--k", "-4", "--ell", "2",
                       "--relation", "not:psi-eq-phi", "--relation", "not:psi-delta-eq-phi-w",
                       "--json")
    assert code == 0
    assert json.loads(out)["result"]["verdict"] == "trivial"
    code, _, err = run(capsys, "ext-bound", "--k", "-4", "--ell", "2",
                       "--relation", "nonsense")
    assert code == EXIT_VALIDATION


# -- corpus -------------------------------------------------------------------


def test_corpus_run_packaged_fixtures(capsys):
    code, out, _ = run(capsys, "corpus", "run")
    assert code == 0
    assert "0 failed" in out


def test_corpus_run_parallel_matches_sequential(capsys):
    code, sequential, _ = run(capsys, "corpus", "run")
    assert code == 0
    code, parallel, _ = run(capsys, "corpus", "run", "--parallel", "2")
    assert code == 0
    assert "36 fixtures, 36 passed, 0 failed" in parallel
    assert parallel == sequential


def test_corpus_manifest_covers_required_cases():
    names = [name for name, _ in corpus_manifest()]
    for k in range(-8, 9, 2):
        assert f"jacquet-verma-k{k:+03d}" in names
    for k in (0, 2, 4, 6, 8):
        assert f"jacquet-dualverma-k{k:+03d}" in names
    for k in (0, 2, 4, 6):
        assert f"jacquet-simple-k{k:+03d}" in names
    for k in range(0, 13, 2):
        assert f"bgg-check-k{k:+03d}" in names
        assert f"kostant-k{k:+03d}" in names
    assert names == sorted(names)


def test_corpus_detects_edited_golden(tmp_path, capsys):
    dst = tmp_path / "corpus"
    shutil.copytree(_default_fixtures_dir(), dst)
    victim = sorted(dst.glob("*.json"))[0]
    victim.write_bytes(victim.read_bytes() + b" ")
    code, out, err = run(capsys, "corpus", "run", "--fixtures", str(dst))
    assert code == EXIT_CORPUS_DIFF
    assert victim.stem in err
    assert "parsed JSON is equal" in err


def test_corpus_diff_names_json_pointer_and_values(tmp_path, capsys):
    dst = tmp_path / "corpus"
    shutil.copytree(_default_fixtures_dir(), dst)
    victim = dst / "jacquet-verma-k+02.json"
    doc = json.loads(victim.read_bytes())
    doc["result"]["degrees"]["1"]["jh_factors"][0]["weight"] = 99
    victim.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="ascii")
    code, out, err = run(capsys, "corpus", "run", "--fixtures", str(dst))
    assert code == EXIT_CORPUS_DIFF
    assert f"FAIL {victim.stem}\n" in out and "35 passed, 1 failed" in out
    assert victim.stem in err
    assert "/result/degrees/1/jh_factors/0/weight: golden 99, computed -4" in err


def test_corpus_missing_dir_is_setup_error(tmp_path, capsys):
    code, _, err = run(capsys, "corpus", "run", "--fixtures", str(tmp_path / "nope"))
    assert code == EXIT_CORPUS_SETUP
    assert "not found" in err


def test_corpus_missing_single_fixture(tmp_path, capsys):
    dst = tmp_path / "corpus"
    shutil.copytree(_default_fixtures_dir(), dst)
    sorted(dst.glob("*.json"))[0].unlink()
    code, _, err = run(capsys, "corpus", "run", "--fixtures", str(dst))
    assert code == EXIT_CORPUS_SETUP
    assert "missing fixture" in err


def test_corpus_write_then_run(tmp_path, capsys):
    dst = tmp_path / "fresh"
    code, _, _ = run(capsys, "corpus", "write", "--fixtures", str(dst))
    assert code == 0
    code, out, _ = run(capsys, "corpus", "run", "--fixtures", str(dst), "--json")
    assert code == 0
    summary = json.loads(out)["result"]
    assert summary["failed"] == 0
    assert summary["first_failure"] is None


def test_corpus_write_to_unwritable_path_is_setup_error(tmp_path, capsys):
    not_a_dir = tmp_path / "file.txt"
    not_a_dir.write_text("x", encoding="ascii")
    code, out, err = run(capsys, "corpus", "write", "--fixtures", str(not_a_dir))
    assert code == EXIT_CORPUS_SETUP
    assert out == ""
    assert err.startswith("corpus setup error: ") and err.count("\n") == 1
    # An OSError on one fixture file, here a directory in its place, is a setup error too.
    dst = tmp_path / "fresh"
    (dst / f"{corpus_manifest()[0][0]}.json").mkdir(parents=True)
    code, _, err = run(capsys, "corpus", "write", "--fixtures", str(dst))
    assert code == EXIT_CORPUS_SETUP
    assert err.startswith("corpus setup error: ") and err.count("\n") == 1


# -- schema -------------------------------------------------------------------


def test_reports_validate_against_shipped_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(resources.files("djem").joinpath("schema.json").read_text(encoding="utf-8"))
    cases = (
        ["jacquet", "--family", "simple", "--k", "4", "--json"],
        ["jacquet", "--family", "dualverma", "--k", "0", "--p", "3", "--json"],
        ["cohomology", "--family", "dualverma", "--k", "4", "--direction", "nbar", "--json"],
        ["kostant", "--k", "4", "--json"],
        ["bgg-check", "--k", "4", "--json"],
        ["les-check", "--k", "2", "--json"],
        ["ext-bound", "--k", "-4", "--ell", "2", "--json"],
        ["corpus", "run", "--json"],
    )
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        jsonschema.validate(json.loads(out), schema)


def test_fixture_document_matches_cli_output(capsys):
    name, argv = corpus_manifest()[0]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == fixture_document(argv)
