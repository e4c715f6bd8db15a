"""Seeded fuzzing of the command line, in process.

About two hundred argument vectors are drawn with a fixed seed over the
documented subcommands and flags (corpus aside) and handed to djem.cli.main.
Every one must end in a documented way: exit 0, 2, 3 or 4, or argparse's
usage error (SystemExit(2)).  Any other exception, a traceback, fails the
test with the argv that raised it.  A --json answer must be in json's
sorted, indent-2, ASCII layout, byte for byte.  Sizes stay small (|k|,
|ell| and --trunc at most 200) except for values drawn just past
SIZE_LIMIT, which must be refused before anything is built.
"""

import json
import random

from djem.cli import P_LIMIT, SIZE_LIMIT, TRUNC_ENV_VAR, main

SEED = 20261018
CASES = 200
DOCUMENTED_EXITS = {0, 2, 3, 4}

GOOD_RATIONALS = ("1", "-1", "3/7", "-2/5", "10", "1/1")
BAD_RATIONALS = ("abc", "1/0", "", "1.5", "1e3", "0", "0/5", "--", "2//3", " 7", "½")
PRIMES = (2, 3, 5, 7, 1_000_000_007, 2**61 - 1)
NON_PRIMES = (0, 1, -3, 4, 9, 91, 561, 2**61 + 1)
HUGE_P = (P_LIMIT, P_LIMIT + 1, 10**30, 10**200)
LABELS = ("trivial", "a", "b", "chi", "", "psi w", "a")
RELATIONS = ("psi-eq-phi", "psi-delta-eq-phi-w", "phi-delta-eq-phi-w")


def _past_limit(rng):
    return rng.choice((1, -1)) * (SIZE_LIMIT + rng.randint(1, 3))


def _weight(rng, sign=0):
    """A --k or --ell: mostly small and even, and of the sign the subcommand
    accepts when it has one; sometimes odd, up to 200, or past the limit."""
    r = rng.random()
    if r < 0.05:
        return _past_limit(rng)
    if r < 0.12:
        return rng.choice((1, -1)) * rng.randrange(1, 200, 2)
    size = rng.randint(0, 100) if r < 0.25 else rng.randint(0, 10)
    if not sign or rng.random() < 0.2:
        sign = rng.choice((1, -1))
    return 2 * sign * size


def _trunc(rng):
    r = rng.random()
    if r < 0.05:
        return SIZE_LIMIT + rng.randint(1, 3)
    if r < 0.1:
        return -rng.randint(1, 5)
    return rng.choice((rng.randint(0, 40), rng.randint(0, 200)))


def _p(rng):
    return rng.choice((rng.choice(PRIMES), rng.choice(NON_PRIMES), rng.choice(HUGE_P)))


def _rational(rng):
    return rng.choice(GOOD_RATIONALS if rng.random() < 0.7 else BAD_RATIONALS)


def _character(rng, name):
    out = []
    if rng.random() < 0.5:
        out += [f"--{name}-val", str(rng.randint(-6, 6))]
    if rng.random() < 0.4:
        out += [f"--{name}-unit", _rational(rng)]
    if rng.random() < (0.9 if out else 0.3):  # 'trivial' allows only p^0 * 1
        out += [f"--{name}", rng.choice(LABELS)]
    if rng.random() < 0.2:
        out += [f"--{name}-w-selfdual"]
    if rng.random() < 0.2:
        out += [f"--{name}-torus-unit", rng.choice(LABELS)]
    return out


def _common(rng, with_trunc=True):
    out = []
    if rng.random() < 0.5:
        out += ["--json"]
    if rng.random() < 0.3:
        out += ["--p", str(_p(rng))]
    if with_trunc and rng.random() < 0.5:
        out += ["--trunc", str(_trunc(rng))]
    return out


def _family(rng):
    return rng.choice(("verma", "dualverma", "simple", "verma", "simple", "bogus"))


def _subcommand_argv(rng):
    command = rng.choice(("jacquet", "cohomology", "bgg-check", "kostant", "ext-bound",
                          "les-check"))
    argv = [command]
    family = _family(rng)
    sign = -1 if command == "ext-bound" else 0 if family == "verma" else 1
    k, ell = _weight(rng, sign), _weight(rng)
    if command == "ext-bound" and rng.random() < 0.5:
        k = -(ell + 2)  # the only pair with a nontrivial verdict
    if rng.random() < 0.97:
        argv += ["--k", str(k)]
    if command in ("jacquet", "cohomology"):
        argv += ["--family", family]
    if command == "cohomology":
        argv += ["--direction", rng.choice(("n", "nbar", "n", "nbar", "up"))]
        if rng.random() < 0.3:
            argv += ["--window-only"]
    if command in ("jacquet", "ext-bound", "les-check"):
        argv += _character(rng, "psi")
    if command == "ext-bound":
        argv += ["--ell", str(ell)] + _character(rng, "phi")
        for _ in range(rng.randint(0, 3)):
            name = rng.choice(RELATIONS + ("bogus",))
            argv += ["--relation", ("not:" if rng.random() < 0.3 else "") + name]
    argv += _common(rng, with_trunc=command != "kostant")
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)), "--bogus")
    if rng.random() < 0.05 and len(argv) > 2:
        del argv[rng.randrange(1, len(argv))]  # a flag without its value, or a value alone
    return argv


def _config_value(rng, key):
    if key in ("k", "ell"):
        return str(_weight(rng))
    if key == "trunc":
        return str(_trunc(rng))
    if key == "p":
        return str(_p(rng))
    if key.endswith("-unit"):
        return _rational(rng)
    if key.endswith("-val"):
        return str(rng.randint(-6, 6))
    if key == "relation":
        return ", ".join(rng.sample(RELATIONS + ("not:psi-eq-phi", "bogus"), rng.randint(1, 2)))
    return rng.choice(LABELS + ("yes", "no", "1", "true", "off", "n", "nbar", "verma"))


CONFIG_KEYS = ("k", "ell", "trunc", "p", "psi", "psi-val", "psi-unit", "phi", "phi-unit",
               "json", "window-only", "psi-w-selfdual", "relation", "family", "direction",
               "bogus")


def _config_text(rng):
    lines = []
    for _ in range(rng.randint(0, 5)):
        r = rng.random()
        if r < 0.1:
            lines.append(rng.choice(("no equals sign", "= 3", "k =", "# a comment", "")))
        else:
            key = rng.choice(CONFIG_KEYS)
            lines.append(f"{key} = {_config_value(rng, key)}")
    return "\n".join(lines) + "\n"


def _cases(tmp_path, seed=SEED):
    rng = random.Random(seed)
    for n in range(CASES):
        argv = _subcommand_argv(rng)
        if rng.random() < 0.15:
            path = tmp_path / f"config-{n}.txt"
            path.write_text(_config_text(rng), encoding="utf-8")
            argv[1:1] = ["--config", str(path)]
        yield argv


def test_every_fuzzed_argv_ends_in_a_documented_way(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(TRUNC_ENV_VAR, raising=False)
    codes, documents = {}, 0
    for argv in _cases(tmp_path):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = "usage"
        except Exception as exc:  # any other escape is the failure
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        assert code == "usage" or code in DOCUMENTED_EXITS, (argv, code)
        codes[code] = codes.get(code, 0) + 1
        out = capsys.readouterr().out
        if code == 0 and out.startswith("{"):
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2,
                                     ensure_ascii=True) + "\n", argv
            documents += 1
    # The draw reaches answers, JSON documents among them, and refusals alike.
    assert codes.get(0, 0) >= 20 and codes.get(2, 0) >= 20 and codes.get("usage", 0) >= 5, codes
    assert documents >= 10, documents


def test_no_fuzzed_argv_with_a_bad_unit_is_answered(tmp_path, capsys, monkeypatch):
    # A unit outside NUM or NUM/DEN is refused, even one Fraction(str) reads
    # (1.5, 1e3, " 7"), whatever else the argv holds.
    monkeypatch.delenv(TRUNC_ENV_VAR, raising=False)
    checked = 0
    for seed in (SEED, 1, 2, 3, 4):
        folder = tmp_path / str(seed)
        folder.mkdir()
        for argv in _cases(folder, seed):
            if not any(flag in ("--psi-unit", "--phi-unit") and value in BAD_RATIONALS
                       for flag, value in zip(argv, argv[1:])):
                continue
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            capsys.readouterr()
            assert code != 0, argv
            checked += 1
    assert checked >= 50, checked
