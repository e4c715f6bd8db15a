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
                      _default_fixtures_dir, corpus_manifest, fixture_document, main)
from djem.characters import SmoothCharacter
from djem.errors import (CertificateError, CorpusSetupError, DjemError, ParityError,
                         TruncationError, UndecidableRelationError, ValidationError)
from djem.reporting import VALUE_DIGIT_CAP, _is_prime, frac_str


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
    # the full rendering: undetermined then direct-sum, direct-sum twice, and
    # concrete values at a prime
    expected = {
        ("--family", "verma", "--k", "4"): (
            "family=verma k=4 psi=trivial\n"
            "H^0 J_P  [ext-class-undetermined]\n"
            "  sub:  chi_{4} psi delta_P  (z-eigenvalue p^2 * 1/1)\n"
            "  quot: chi_{4} psi^w  (z-eigenvalue p^4 * 1/1)\n"
            "H^1 J_P  [direct-sum-determined]\n"
            "  chi_{-6} psi^w  (z-eigenvalue p^-6 * 1/1)\n"
            "  chi_{4} psi^w  (z-eigenvalue p^4 * 1/1)\n"),
        ("--family", "verma", "--k", "-4"): (
            "family=verma k=-4 psi=trivial\n"
            "H^0 J_P  [direct-sum-determined]\n"
            "  chi_{-4} psi delta_P  (z-eigenvalue p^-6 * 1/1)\n"
            "H^1 J_P  [direct-sum-determined]\n"
            "  chi_{2} psi^w  (z-eigenvalue p^2 * 1/1)\n"),
        ("--family", "simple", "--k", "2", "--p", "5"): (
            "family=simple k=2 psi=trivial\n"
            "H^0 J_P  [ext-class-undetermined]\n"
            "  sub:  chi_{2} psi delta_P  (z-eigenvalue 1/1)\n"
            "  quot: chi_{2} psi^w  (z-eigenvalue 25/1)\n"
            "H^1 J_P  [ext-class-undetermined]\n"
            "  sub:  chi_{-4} psi delta_P  (z-eigenvalue 1/15625)\n"
            "  quot: chi_{-4} psi^w  (z-eigenvalue 1/625)\n"),
    }
    for argv, text in expected.items():
        assert run(capsys, "jacquet", *argv) == (0, text, ""), argv


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


@pytest.mark.parametrize("argv, error, code, label", [
    pytest.param(("jacquet", "--family", "verma", "--k", "3"),
                 ParityError, 2, "validation error", id="odd-k"),
    pytest.param(("cohomology", "--family", "verma", "--k", "4", "--direction", "nbar",
                  "--trunc", "2"), CertificateError, 3, "truncation/certificate failure",
                 id="uncertified"),
    pytest.param(("bgg-check", "--k", "4", "--trunc", "5"),
                 TruncationError, 3, "truncation/certificate failure", id="short-window"),
    pytest.param(("ext-bound", "--k", "-4", "--ell", "2", "--psi", "u1", "--psi-val", "1",
                  "--phi", "u2", "--phi-val", "1"),
                 UndecidableRelationError, 4, "undecidable relation", id="undeclared"),
    pytest.param(("corpus", "run", "--fixtures", None),
                 CorpusSetupError, 6, "corpus setup error", id="missing-fixtures"),
])
def test_each_refusal_prints_its_label_and_exits_with_its_code(tmp_path, capsys, argv, error,
                                                               code, label):
    # The input raises exactly this class, and main prints the class's label
    # on one stderr line and returns the class's exit code.
    argv = [str(tmp_path / "missing") if token is None else token for token in argv]
    args = cli._parse_args(argv)
    with pytest.raises(DjemError) as raised:
        cli.corpus_run(args.fixtures) if args.command == "corpus" else cli._output(args)
    assert type(raised.value) is error and (error.exit_code, error.label) == (code, label)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(f"{label}: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("argv, value", [
    (("kostant", "--k", "\u0664"), "\u0664"),
    (("kostant", "--k", "+4"), "+4"),
    (("kostant", "--k", " 4"), " 4"),
    (("kostant", "--k=1_0"), "1_0"),
    (("jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-val", "\u0661"), "\u0661"),
    (("jacquet", "--family", "verma", "--k", "-4", "--p", "\u0665"), "\u0665"),
    (("corpus", "run", "--parallel", "+2"), "+2"),
])
def test_an_int_option_takes_only_ascii_digits(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: djem {argv[0]}") and f"invalid int value: {value!r}" in err


@pytest.mark.parametrize("value", ["2_4", "+24", " 24", "\u0662\u0664"])
def test_env_truncation_takes_only_ascii_digits(capsys, monkeypatch, value):
    monkeypatch.setenv("JACQUET_TRUNC_DEFAULT", value)
    code, out, err = run(capsys, "jacquet", "--family", "verma", "--k", "4")
    assert code == EXIT_VALIDATION and out == ""
    assert err == f"validation error: JACQUET_TRUNC_DEFAULT must be an integer, got {value!r}\n"


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


_P_ARGV = {
    "jacquet": ("jacquet", "--family", "verma", "--k", "-4"),
    "cohomology": ("cohomology", "--family", "verma", "--k", "4", "--direction", "nbar"),
    "bgg-check": ("bgg-check", "--k", "2"),
    "kostant": ("kostant", "--k", "2"),
    "ext-bound": ("ext-bound", "--k", "-4", "--ell", "2"),
    "les-check": ("les-check", "--k", "2"),
}


@pytest.mark.parametrize("p", ["4", "1", str(P_LIMIT)])
@pytest.mark.parametrize("command", sorted(_P_ARGV))
def test_every_subcommand_refuses_an_invalid_p(capsys, command, p):
    code, out, err = run(capsys, *_P_ARGV[command], "--p", p)
    assert code == EXIT_VALIDATION and out == ""
    assert "--p must be" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["cohomology", "bgg-check", "kostant", "les-check"])
def test_prime_p_leaves_reports_without_eigenvalues_unchanged(capsys, command):
    for mode in ((), ("--json",)):
        argv = _P_ARGV[command] + mode
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *argv, "--p", "5") == plain


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


_HEAVY = ("dataclasses", "inspect", "concurrent.futures", "logging", "djem.extbound",
          "argparse", "gettext", "locale", "json", "pathlib")


def _fresh_call(*argv):
    """(exit code, stdout, stderr lines) of main(argv) in a fresh interpreter
    whose last stderr line lists the heavy modules loaded by then."""
    # -S keeps site hooks from importing modules on their own behalf.
    script = ("import sys\n"
              "import djem.cli\n"
              "try:\n"
              "    code = djem.cli.main(sys.argv[1:])\n"
              "except SystemExit as exc:\n"
              "    code = exc.code\n"
              f"print(sorted(m for m in {_HEAVY!r} if m in sys.modules), file=sys.stderr)\n"
              "raise SystemExit(code)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-S", "-c", script, *argv], capture_output=True,
                         text=True, timeout=20, env={**os.environ, "PYTHONPATH": str(src)})
    return out.returncode, out.stdout, out.stderr.splitlines()


def test_cli_import_path_stays_lean():
    # An answer and a validation refusal load none of the heavy modules:
    # argparse and json among them, since the option table reads the argv.
    code, out, err = _fresh_call("jacquet", "--family", "verma", "--k", "4", "--json")
    assert code == 0, err
    assert json.loads(out)["command"] == "jacquet"
    assert err == ["[]"]
    code, out, err = _fresh_call("jacquet", "--family", "verma", "--k", "3", "--json")
    assert code == EXIT_VALIDATION and out == ""
    assert err == ["validation error: k must be even, got 3", "[]"]
    # A usage error still gets argparse's usage text, loading argparse to print it.
    code, out, err = _fresh_call("jacquet", "--family", "verma")
    assert code == 2 and out == ""
    assert err[0].startswith("usage: djem jacquet") and "argparse" in err[-1]
    # An abbreviation argparse accepts is still accepted, through argparse.
    code, out, err = _fresh_call("jacquet", "--fam", "verma", "--k", "2", "--json")
    assert code == 0 and json.loads(out)["config"]["family"] == "verma"


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


# Spellings Fraction(str) reads but the unit grammar (NUM or NUM/DEN in ASCII
# digits, NUM optionally '-'-led) does not; the last two once cost a
# traceback and an unbounded power of ten.
NON_GRAMMAR_UNITS = ("1.5", "1e3", "1_000", " 7", "+3", "\u0663", "1e-5000")


def _unit_refusal(flag, value):
    return (f"validation error: {flag} must be an exact rational NUM or NUM/DEN with a "
            f"nonzero DEN, got {value!r}\n")


@pytest.mark.parametrize("value", NON_GRAMMAR_UNITS)
@pytest.mark.parametrize("argv, flag", [
    (("jacquet", "--family", "verma", "--k", "4", "--psi", "a", "--psi-unit"), "--psi-unit"),
    (("ext-bound", "--k", "-4", "--ell", "2", "--psi", "a", "--phi", "b", "--phi-unit"),
     "--phi-unit"),
], ids=("psi-unit", "phi-unit"))
def test_unit_outside_the_grammar_exits_2(capsys, argv, flag, value):
    assert run(capsys, *argv, value) == (EXIT_VALIDATION, "", _unit_refusal(flag, value))


# The config grammar strips the blanks around a value, so " 7" reads as 7 there.
@pytest.mark.parametrize("value", [v for v in NON_GRAMMAR_UNITS if v != " 7"])
def test_unit_outside_the_grammar_in_config_file_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"family = verma\nk = 4\npsi = a\npsi-unit = {value}\n", encoding="utf-8")
    assert run(capsys, "jacquet", "--config", str(cfg)) == (
        EXIT_VALIDATION, "", _unit_refusal("--psi-unit", value))


@pytest.mark.parametrize("value", ["1e999999999", "1e-5000"])
def test_unit_with_a_huge_exponent_is_refused_promptly(value):
    out = _run_limited(("jacquet", "--family", "verma", "--k", "4", "--psi", "a",
                        "--psi-unit", value))
    assert (out.returncode, out.stdout, out.stderr) == (
        EXIT_VALIDATION, "", _unit_refusal("--psi-unit", value))


@pytest.mark.parametrize("value", NON_GRAMMAR_UNITS)
def test_smooth_character_refuses_a_unit_outside_the_grammar(value):
    with pytest.raises(ValidationError, match="^z_unit must be an exact rational"):
        SmoothCharacter("a", 0, value)


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


def test_regime_report_is_spliced(capsys):
    # psi(z) = p^4 at k = 2 gives the stalk H^0 line and the section H^1
    # line one z-eigenvalue, but their weights 2 and -4 differ, so the
    # connecting map is zero and the degree lists are spliced.
    code, out, _ = run(capsys, "jacquet", "--family", "simple", "--k", "2",
                       "--psi", "steep", "--psi-val", "4", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["connecting_map_forced_zero"] is True
    degree = result["degrees"]["0"]
    assert degree["extension"]["kind"] == "ext-class-undetermined"
    assert degree["jh_factors"] == result["section"]["0"] + result["stalk"]["0"]


def test_regime_report_at_a_concrete_prime(capsys):
    # psi(z) = -p^6 at k = 4: the stalk H^0 line chi_4 psi^w and the section
    # H^1 line chi_{-6} psi delta_P share the z-eigenvalue -p^-2; each degree
    # is still section then stalk, and every line is rendered at p = 5.
    code, out, _ = run(capsys, "jacquet", "--family", "simple", "--k", "4", "--psi", "chi",
                       "--psi-val", "6", "--psi-unit", "-1", "--p", "5", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["connecting_map_forced_zero"] is True
    assert result["finite_slope_complete"] is True
    values = {}
    for i in ("0", "1"):
        degree = result["degrees"][i]
        assert degree["extension"]["kind"] == "ext-class-undetermined"
        assert degree["extension"]["sub"] == result["section"][i]
        assert degree["extension"]["quot"] == result["stalk"][i]
        assert degree["jh_factors"] == result["section"][i] + result["stalk"][i]
        assert degree["hecke_eigenvalues"] == [c["eigenvalue"] for c in degree["jh_factors"]]
        for side in ("section", "stalk"):
            (chi,) = result[side][i]
            values[side, i] = (chi["text"], chi["eigenvalue"])
    assert values == {
        ("section", "0"): ("chi_{4} psi delta_P", {"p_exp": 8, "unit": "-1/1", "value": "-390625/1"}),
        ("stalk", "0"): ("chi_{4} psi^w", {"p_exp": -2, "unit": "-1/1", "value": "-1/25"}),
        ("section", "1"): ("chi_{-6} psi delta_P", {"p_exp": -2, "unit": "-1/1", "value": "-1/25"}),
        ("stalk", "1"): ("chi_{-6} psi^w", {"p_exp": -12, "unit": "-1/1",
                                            "value": "-1/244140625"}),
    }
    code, out, _ = run(capsys, "jacquet", "--family", "simple", "--k", "4", "--psi", "chi",
                       "--psi-val", "6", "--psi-unit", "-1", "--p", "5")
    assert code == 0 and "candidate" not in out


@pytest.mark.parametrize("unit", ["1", "-1"])
def test_regime_les_check_passes(capsys, unit):
    code, out, _ = run(capsys, "les-check", "--k", "4", "--psi", "a", "--psi-val", "6",
                       "--psi-unit", unit)
    assert (code, out) == (0, "les-check k=4: PASS\n")


@pytest.mark.parametrize("unit", ["1", "-1"])
def test_regime_ext_bound_lists_both_h1_factors(capsys, unit):
    # The target is simple at ell = 4 with phi(z) = +-p^6, where its H^0 stalk
    # line and H^1 section line share a z-eigenvalue.
    code, out, _ = run(capsys, "ext-bound", "--k", "-6", "--ell", "4", "--psi", "a",
                       "--phi", "b", "--phi-val", "6", "--phi-unit", unit,
                       "--relation", "psi-eq-phi", "--relation", "not:psi-delta-eq-phi-w",
                       "--relation", "not:phi-delta-eq-phi-w", "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"] == "one-dimensional"
    assert [c["text"] for c in result["h1_factors"]] == ["chi_{-6} psi delta_P",
                                                         "chi_{-6} psi^w"]
    assert [c["text"] for c in result["matched_factors"]] == ["chi_{-6} psi delta_P"]
    assert result["hom_bound"] == {"min": 0, "max": 1}


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



def test_relation_names_match_the_extbound_table(capsys):
    # cli keeps its own copy of the names so that importing it does not load
    # djem.extbound; the copy, the table and the declaration slots must agree.
    from djem.extbound import _RELATIONS, RelationDeclarations

    names = tuple(name for name, _, _ in _RELATIONS)
    assert cli._RELATION_NAMES == names
    assert RelationDeclarations.__slots__ == tuple(n.replace("-", "_") for n in names)
    for token in ("not:", "not:not:psi-eq-phi", "NOT:psi-eq-phi", "bogus"):
        code, out, err = run(capsys, "ext-bound", "--k", "-4", "--ell", "2", "--relation", token)
        assert (code, out) == (EXIT_VALIDATION, "")
        assert err.startswith(f"validation error: unknown relation {token!r}; expected one of ")
    # A repeated relation keeps its last value.
    code, out, _ = run(capsys, "ext-bound", "--k", "-4", "--ell", "2", "--relation", "psi-eq-phi",
                       "--relation", "not:psi-eq-phi", "--json")
    assert code == 0
    assert json.loads(out)["result"]["relations"]["psi-eq-phi"] is False

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


def test_corpus_threads_share_the_subcommand_parsers(capsys):
    # Every worker thread parses through the same cached subcommand parsers;
    # a switch interval this short interleaves the threads inside a parse.
    code, sequential, _ = run(capsys, "corpus", "run", "--json")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert run(capsys, "corpus", "run", "--json", "--parallel", "8") == (code, sequential, "")
    finally:
        sys.setswitchinterval(interval)
    assert code == 0 and json.loads(sequential)["result"]["passed"] == 36


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


def test_corpus_manifest_is_one_immutable_object():
    manifest = corpus_manifest()
    assert corpus_manifest() is manifest
    assert type(manifest) is tuple
    for name, argv in manifest:
        assert type(name) is str and type(argv) is tuple
        assert all(type(token) is str for token in argv)


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


def test_corpus_run_reads_each_golden_once(tmp_path, capsys, monkeypatch):
    # Every golden is read once, before computing; a diff's detail reuses
    # those bytes, and a golden that is a directory is a setup error.
    dst = tmp_path / "corpus"
    shutil.copytree(_default_fixtures_dir(), dst)
    victim = dst / "kostant-k+04.json"
    victim.write_bytes(victim.read_bytes().replace(b'"passed": true', b'"passed": false'))
    reads = []
    read_bytes = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or read_bytes(path))
    monkeypatch.setattr(Path, "is_file", lambda path: pytest.fail(f"is_file({path})"))
    code, _, err = run(capsys, "corpus", "run", "--fixtures", str(dst))
    assert code == EXIT_CORPUS_DIFF
    assert "/result/passed: golden false, computed true" in err
    assert sorted(reads) == sorted(dst.glob("*.json"))
    victim.unlink()
    victim.mkdir()
    code, _, err = run(capsys, "corpus", "run", "--fixtures", str(dst))
    assert code == EXIT_CORPUS_SETUP and f"missing fixture file: {victim}" in err


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
        ["jacquet", "--family", "simple", "--k", "4", "--psi", "a", "--psi-val", "6",
         "--psi-unit", "-1", "--json"],
        ["cohomology", "--family", "dualverma", "--k", "4", "--direction", "nbar", "--json"],
        ["kostant", "--k", "4", "--json"],
        ["bgg-check", "--k", "4", "--json"],
        ["les-check", "--k", "2", "--json"],
        ["ext-bound", "--k", "-4", "--ell", "2", "--json"],
        ["corpus", "run", "--json"],
        # a cut window, certified, and one below its certificate bound
        ["cohomology", "--family", "verma", "--k", "4", "--direction", "n", "--json"],
        ["cohomology", "--family", "verma", "--k", "40", "--direction", "nbar", "--trunc", "5",
         "--window-only", "--json"],
    )
    docs = []
    for argv in cases:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        docs.append(json.loads(out))
    cut, window_only = docs[-2:]
    assert cut["result"]["certificate"]["coefficient_coeffs"] == [-1]
    assert window_only["result"]["certified"] is False
    goldens = [f for f in resources.files("djem").joinpath("fixtures", "corpus").iterdir()
               if f.name.endswith(".json")]
    assert len(goldens) == len(corpus_manifest()) == 36
    for doc in docs + [json.loads(f.read_text(encoding="utf-8")) for f in goldens]:
        jsonschema.validate(doc, schema)
    # Every cohomology result carries a certificate, the empty one of a
    # finite module included, and a coefficient has one to three terms.
    cert = cut["result"]["certificate"]
    for bad_cert in (None, {**cert, "coefficient_coeffs": []},
                     {**cert, "coefficient_coeffs": [1, 2, 3, 4]}):
        bad = {**cut, "result": {**cut["result"], "certificate": bad_cert}}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)
    # sub and quot are there, non-empty, exactly when the class is undetermined
    undetermined = docs[0]["result"]["degrees"]["0"]["extension"]
    direct_sum = docs[1]["result"]["degrees"]["0"]["extension"]
    assert undetermined["kind"] == "ext-class-undetermined"
    assert direct_sum == {"kind": "direct-sum-determined"}
    for bad_ext in ({"kind": undetermined["kind"], "sub": undetermined["sub"]},
                    {**undetermined, "quot": []},
                    {**direct_sum, "sub": undetermined["sub"]}):
        bad = json.loads(json.dumps(docs[0]))
        bad["result"]["degrees"]["0"]["extension"] = bad_ext
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


def test_fixture_document_matches_cli_output(capsys):
    name, argv = corpus_manifest()[0]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == fixture_document(argv)
