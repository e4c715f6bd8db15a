"""Command-line front end.

Subcommands: jacquet, cohomology, bgg-check, kostant, ext-bound, les-check,
corpus.  JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
5 corpus diff, and for a refusal the exit_code its class in djem.errors holds.

The truncation default, abs(k) + 16 (les-check abs(k+2) + 16, ext-bound
max(abs(k), abs(ell)) + 16, as each --trunc help says), can be overridden per
run with --trunc or globally with the JACQUET_TRUNC_DEFAULT environment variable.
An int option is read below Python's print limit (_int); a report reads only
the window ends and coefficient roots, so it costs the same at any k.  A flat
"key = value" config file, given once as --config PATH or --config=PATH,
may supply any option; explicit flags win.

Options and handlers are declared once, in _COMMANDS, and _output() runs a
call.  build_parser() builds argparse's tree from the table, for help and usage
errors; _table_args() reads a plain argv (a subcommand other than corpus, then
exact long options with their values, a '-'-led value only as -NUM or
-NUM/DEN) from it without argparse and hands any other argv to
build_parser().parse_args.  So `import djem.cli` and a call load neither
argparse (gettext, locale), json nor pathlib; ext-bound loads djem.extbound,
corpus pathlib and corpus --parallel concurrent.futures.
"""

from __future__ import annotations

import functools
import os
import sys
from types import SimpleNamespace

from djem.characters import TRIVIAL_PSI, SmoothCharacter, as_rational, is_rational_text
from djem.cohomology import DIRECTIONS, cohomology, kostant_check
from djem.errors import (CorpusSetupError, DjemError, TruncationError,
                         UndecidableRelationError, ValidationError, require_int)
from djem.jacquet import FAMILIES, OrlikStrauchSpec, assemble_les, build_module, les_consistency_check
from djem.reporting import (P_LIMIT, cohomology_result_json, cohomology_text, ext_case_json,
                            ext_case_text, jacquet_result_json, jacquet_text, make_document,
                            serialize, smooth_character_json, validate_p)
from djem.sl2 import bgg_morphism, default_truncation, n_finite_dual, simple

EXIT_OK = 0
EXIT_VALIDATION = ValidationError.exit_code
EXIT_TRUNCATION = TruncationError.exit_code
EXIT_UNDECIDABLE = UndecidableRelationError.exit_code
EXIT_CORPUS_DIFF = 5
EXIT_CORPUS_SETUP = CorpusSetupError.exit_code

TRUNC_ENV_VAR = "JACQUET_TRUNC_DEFAULT"

_RELATION_NAMES = ("psi-eq-phi", "psi-delta-eq-phi-w", "phi-delta-eq-phi-w")
_TRUE_WORDS = {"1", "true", "yes", "on"}


def _character_from_args(args, name) -> SmoothCharacter:
    label = getattr(args, name)
    val = getattr(args, f"{name}_val")
    unit = as_rational(getattr(args, f"{name}_unit"), f"--{name}-unit")
    selfdual = getattr(args, f"{name}_w_selfdual")
    torus = getattr(args, f"{name}_torus_unit") or ""
    if label == "trivial":
        if val != 0 or unit != 1:
            raise ValidationError("the label 'trivial' is reserved for the character with "
                                  "z-value p^0 * 1/1")
        if torus not in ("", "trivial"):
            raise ValidationError(f"the label 'trivial' is reserved for the character with "
                                  f"torus unit 'trivial', got --{name}-torus-unit {torus!r}")
        return TRIVIAL_PSI
    return SmoothCharacter(label, val, unit, w_selfdual=selfdual, torus_unit_label=torus)


def _relations_from_args(tokens):
    from djem.extbound import RelationDeclarations

    declared = dict.fromkeys(_RELATION_NAMES)
    for token in tokens or ():
        name = token.removeprefix("not:")
        if name not in declared:
            raise ValidationError(f"unknown relation {token!r}; expected one of "
                                  f"{', '.join(_RELATION_NAMES)} (optionally 'not:' prefixed)")
        declared[name] = name == token
    return RelationDeclarations(*declared.values())  # _RELATION_NAMES is in slot order


def _resolve_trunc(args, k) -> int:
    trunc = getattr(args, "trunc", None)
    source = "--trunc"
    if trunc is None:
        env = os.environ.get(TRUNC_ENV_VAR)
        if env is None:
            return default_truncation(k)
        source = TRUNC_ENV_VAR
        try:
            trunc = _int(env)
        except ValueError as err:
            raise ValidationError(f"{TRUNC_ENV_VAR} {err}") from None
    return require_int(trunc, source, minimum=0)


def _int(text) -> int:
    """text as an int, read only as is_rational_text's NUM: ASCII digits, an optional
    leading '-', fewer of them than sys.get_int_max_str_digits() (0 is no limit),
    so that k plus the few units a report adds to it stays printable."""
    digits = text.removeprefix("-")
    if not (text.isascii() and digits.isdigit()):
        raise ValueError(f"must be an integer, got {text!r}")
    limit = sys.get_int_max_str_digits()
    if limit and len(digits) >= limit:
        raise ValueError(f"must have fewer than {limit} digits, got {len(digits)}")
    return int(text)


_int.__name__ = "int"  # argparse's usage error names a type by it: "invalid int value"


# -- subcommand implementations ----------------------------------------------
# Each computes its answer and returns the one output asked for: the (config
# echo, result) pair of the JSON document under --json, the text lines
# otherwise, so a run renders one mode only.


def _cmd_jacquet(args):
    psi = _character_from_args(args, "psi")
    trunc = _resolve_trunc(args, args.k)
    report = assemble_les(OrlikStrauchSpec(args.family, args.k, psi), trunc)
    if not args.json:
        return jacquet_text(report, args.p)
    config = {"family": args.family, "k": args.k, "psi": smooth_character_json(psi),
              "truncation": trunc, "p": args.p}
    return config, jacquet_result_json(report, args.p)


def _cmd_cohomology(args):
    trunc = _resolve_trunc(args, args.k)
    spec = OrlikStrauchSpec(args.family, args.k)
    dual = n_finite_dual(build_module(spec, trunc))
    res = cohomology(dual, args.direction, allow_uncertified=args.window_only)
    if not args.json:
        return cohomology_text(res)
    config = {"family": args.family, "k": args.k, "direction": args.direction,
              "truncation": trunc, "window_only": bool(args.window_only)}
    return config, cohomology_result_json(res)


def _cmd_bgg_check(args):
    trunc = _resolve_trunc(args, args.k)
    morphism = bgg_morphism(args.k, trunc)
    equivariant = morphism.is_equivariant()
    # The cokernel matches when its one nonempty range is simple(-k)'s window.
    cokernel_matches = [r for r in morphism.cokernel_ranges() if r] == [simple(-args.k).weights]
    passed = equivariant and cokernel_matches
    if not args.json:
        return [f"bgg-check k={args.k}: {'PASS' if passed else 'FAIL'} "
                f"(equivariant={equivariant}, cokernel-matches-simple={cokernel_matches})"]
    return {"k": args.k, "truncation": trunc}, {"k": args.k, "passed": passed,
            "equivariant": equivariant, "cokernel_matches_simple": cokernel_matches}


def _cmd_kostant(args):
    passed = kostant_check(args.k)
    if not args.json:
        return [f"kostant k={args.k}: {'PASS' if passed else 'FAIL'} "
                f"(one line at weight {args.k}, one at {-(args.k + 2)})"]
    return {"k": args.k}, {"k": args.k, "passed": passed, "h0_weight": args.k,
                           "h1_weight": -(args.k + 2)}


def _cmd_ext_bound(args):
    from djem.extbound import classify_ext

    psi = _character_from_args(args, "psi")
    phi = _character_from_args(args, "phi")
    relations = _relations_from_args(args.relation)
    trunc = _resolve_trunc(args, max(abs(args.k), abs(args.ell)))
    case = classify_ext(args.k, args.ell, psi, phi, relations, trunc)
    if not args.json:
        return ext_case_text(case)
    config = {"k": args.k, "ell": args.ell,
              "psi": smooth_character_json(psi), "phi": smooth_character_json(phi),
              "declared_relations": sorted(args.relation or []),
              "truncation": trunc, "p": args.p}
    return config, ext_case_json(case, args.p)


def _cmd_les_check(args):
    psi = _character_from_args(args, "psi")
    trunc = _resolve_trunc(args, args.k + 2)
    passed = les_consistency_check(args.k, psi, trunc)
    if not args.json:
        return [f"les-check k={args.k}: {'PASS' if passed else 'FAIL'}"]
    config = {"k": args.k, "psi": smooth_character_json(psi), "truncation": trunc}
    return config, {"k": args.k, "passed": passed}


# -- option table and parsing ----------------------------------------------


def _opt(flag, kind="str", help=None, *, choices=None, required=None, default=None,
         metavar=None):
    """One entry of the option table: (flag, dest, kind, choices, required,
    default, metavar, help).  kind is "int", "str", "store-true" or "append";
    a flag without dashes is a positional."""
    default = False if kind == "store-true" else default
    return (flag, flag.lstrip("-").replace("-", "_"), kind, choices, required, default,
            metavar, help)


def _character_options(name):
    return (
        _opt(f"--{name}", default="trivial", metavar="LABEL",
             help=f"label of the smooth character {name} (default: trivial)"),
        _opt(f"--{name}-val", "int", default=0, metavar="V",
             help=f"valuation of {name}(z), i.e. {name}(z) = p^V * unit"),
        _opt(f"--{name}-unit", default="1", metavar="NUM/DEN",
             help=f"unit part of {name}(z) as an exact rational"),
        _opt(f"--{name}-w-selfdual", "store-true", help=f"declare {name}^w = {name}"),
        _opt(f"--{name}-torus-unit", metavar="LABEL",
             help=f"label of the restriction of {name} to the compact torus"))


def _common_options(trunc_default="abs(k)+16"):
    common = (_opt("--json", "store-true", help="emit a JSON report document"),
              _opt("--p", "int", help="substitute a concrete prime for readable eigenvalues"))
    trunc = _opt("--trunc", "int", help=f"truncation window override (default {trunc_default})")
    return common + ((trunc,) if trunc_default else ())


_FAMILY = _opt("--family", required=True, choices=FAMILIES)
_K = _opt("--k", "int", required=True)

# Every subcommand's help, options and handler, in help order: the one
# definition that build_parser() and _table_args() read and _output() runs.
# corpus has no handler: main() runs it.
_COMMANDS = {
    "jacquet": ("derived Jacquet module report for one family",
                (_FAMILY, _K, *_character_options("psi"), *_common_options()), _cmd_jacquet),
    "cohomology": ("radical cohomology of the n-finite dual ladder of one family",
                   (_FAMILY, _K, _opt("--direction", required=True, choices=tuple(DIRECTIONS)),
                    _opt("--window-only", "store-true",
                         help="accept a non-certified window-only answer"),
                    *_common_options()), _cmd_cohomology),
    "bgg-check": ("equivariance and cokernel check of the ladder embedding",
                  (_K, *_common_options()), _cmd_bgg_check),
    "kostant": ("two-line cohomology check for the simple module dual",
                (_K, *_common_options(None)), _cmd_kostant),
    "ext-bound": ("extension-dimension verdict for a pair of characters",
                  (_K, _opt("--ell", "int", required=True), *_character_options("psi"),
                   *_character_options("phi"),
                   _opt("--relation", "append", metavar="NAME",
                        help="declare a relation true (or false with a 'not:' prefix); "
                             f"names: {', '.join(_RELATION_NAMES)}"),
                   *_common_options("max(abs(k), abs(ell))+16")), _cmd_ext_bound),
    "les-check": ("exactness of the ladder sequence's long exact cohomology sequence",
                  (_K, *_character_options("psi"), *_common_options("abs(k+2)+16")),
                  _cmd_les_check),
    "corpus": ("golden-file regression corpus",
               (_opt("action", choices=("run", "write")),
                _opt("--fixtures", help="fixture directory override"),
                _opt("--parallel", "int", default=0, metavar="N",
                     help="compute fixtures on N worker threads"),
                _opt("--json", "store-true")), None),
}
_KIND_SETTINGS = {"int": {"type": _int}, "str": {}, "store-true": {"action": "store_true"},
                  "append": {"action": "append"}}


def build_parser():
    import argparse

    class _SubcommandParser(argparse.ArgumentParser):
        """Takes a negative NUM/DEN token, such as -2/5, for a value: argparse
        reads a token that starts with '-' as an option unless it is a negative
        int or decimal, so `--psi-unit -2/5` would lack its argument."""

        def _parse_optional(self, arg_string):
            if is_rational_text(arg_string):
                return None
            return super()._parse_optional(arg_string)

    parser = argparse.ArgumentParser(
        prog="djem",
        description="Exact derived Jacquet modules for SL2(Qp) "
                    "principal-series-type representations.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for command, (help_text, options, _) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for flag, _, kind, *settings in options:
            named = zip(("choices", "required", "default", "metavar", "help"), settings)
            sp.add_argument(flag, **_KIND_SETTINGS[kind],
                            **{key: value for key, value in named if value is not None})
    return parser


def _table_args(argv):
    """What build_parser().parse_args(argv) gives, or None to decline.  It
    takes argv[0] naming a subcommand without positionals, then exact long
    options, each value one that _int and the choices accept, '-'-led only as
    -NUM or -NUM/DEN (any other is argparse's to read); all required present;
    a repeated option keeps its last value, --relation appends."""
    options = _COMMANDS[argv[0]][1] if argv and argv[0] in _COMMANDS else ()
    if not options or any(not opt[0].startswith("--") for opt in options):
        return None
    by_flag = {opt[0]: opt for opt in options}
    values = {opt[1]: opt[5] for opt in options}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in by_flag:
            return None
        _, dest, kind, choices, *_ = by_flag[token]
        if kind == "store-true":
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or (value[:1] == "-" and not is_rational_text(value)):
            return None
        if kind == "int":
            try:
                value = _int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = [*(values[dest] or ()), value] if kind == "append" else value
    if any(opt[4] and values[opt[1]] is None for opt in options):
        return None
    return SimpleNamespace(command=argv[0], **values)


def _parse_args(argv):
    """What build_parser().parse_args(argv) gives, or the same usage error:
    the table reading where it takes argv, argparse itself for the rest
    (usage errors, -h, abbreviations, --opt=value, corpus)."""
    args = _table_args(argv)
    return build_parser().parse_args(argv) if args is None else args


def _output(args) -> str:
    """What `djem <argv>` writes to stdout for a parsed call other than
    corpus.  A --p that is not a prime below P_LIMIT is refused before
    anything is built."""
    if args.p is not None:
        validate_p(args.p, "--p")
    output = _COMMANDS[args.command][2](args)
    if args.json:
        return serialize(make_document(args.command, *output))
    return "".join(f"{line}\n" for line in output)


# -- regression corpus -------------------------------------------------------


@functools.cache
def corpus_manifest():
    """Every fixture as (name, argv), sorted by name: a constant, built once
    per process and immutable, so every caller may share it.  Truncations
    are pinned explicitly so golden bytes do not depend on the environment."""
    jobs = [(f"jacquet-{family}-k{k:+03d}",
             ("jacquet", "--family", family, "--k", str(k), "--psi", "trivial",
              "--trunc", str(default_truncation(k)), "--json"))
            for family, ks in (("verma", range(-8, 9, 2)), ("dualverma", range(0, 9, 2)),
                               ("simple", range(0, 7, 2)))
            for k in ks]
    for k in range(0, 13, 2):
        jobs.append((f"bgg-check-k{k:+03d}",
                     ("bgg-check", "--k", str(k), "--trunc", str(default_truncation(k)), "--json")))
        jobs.append((f"kostant-k{k:+03d}", ("kostant", "--k", str(k), "--json")))
    for k in (0, 2, 4, 6):
        jobs.append((f"les-check-k{k:+03d}",
                     ("les-check", "--k", str(k), "--psi", "trivial",
                      "--trunc", str(default_truncation(k + 2)), "--json")))
    return tuple(sorted(jobs))


def fixture_document(argv) -> str:
    """What `djem <argv>` writes to stdout: for a fixture argv, its report document."""
    return _output(_parse_args(argv))


def _default_fixtures_dir(fixtures_dir=None):
    """fixtures_dir as a Path, by default the corpus shipped with djem."""
    from pathlib import Path

    return Path(fixtures_dir or Path(__file__).resolve().parent / "fixtures" / "corpus")


def _compute_all(manifest, parallel):
    if parallel and parallel > 1:
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(max_workers=parallel) as pool:
            docs = list(pool.map(lambda job: fixture_document(job[1]), manifest))
        return {name: doc for (name, _), doc in zip(manifest, docs)}
    return {name: fixture_document(argv) for name, argv in manifest}


_ABSENT = object()


def _json_diff(golden, computed, pointer=""):
    """(JSON pointer, golden value, computed value) at the first place, in
    key order, where two parsed documents differ; None when they are equal."""
    if type(golden) is not type(computed) or not isinstance(golden, (dict, list)):
        same = type(golden) is type(computed) and golden == computed
        return None if same else (pointer, golden, computed)
    as_dict = lambda v: v if isinstance(v, dict) else dict(enumerate(v))
    golden, computed = as_dict(golden), as_dict(computed)
    for key in sorted(golden.keys() | computed.keys()):
        step = str(key).replace("~", "~0").replace("/", "~1")
        found = _json_diff(golden.get(key, _ABSENT), computed.get(key, _ABSENT),
                           f"{pointer}/{step}")
        if found:
            return found
    return None


def _diff_detail(golden_bytes, computed) -> str:
    """Where a golden file and the computed document part, for stderr."""
    import json

    try:
        golden = json.loads(golden_bytes)
    except ValueError as err:
        return f"the golden file is not valid JSON ({err})"
    found = _json_diff(golden, json.loads(computed))
    if found is None:
        return "the bytes differ but the parsed JSON is equal (formatting only)"
    show = lambda v: "(absent)" if v is _ABSENT else json.dumps(v, ensure_ascii=True)
    pointer, want, got = found
    return f"first diverging JSON pointer {pointer or '(root)'}: golden {show(want)}, computed {show(got)}"


def corpus_run(fixtures_dir=None, parallel=0, json_mode=False, out=None):
    out = out or sys.stdout
    fixtures = _default_fixtures_dir(fixtures_dir)
    manifest = corpus_manifest()
    if not fixtures.is_dir():
        raise CorpusSetupError(f"fixture directory not found: {fixtures}")
    goldens = {}
    for name, _ in manifest:
        try:
            goldens[name] = (fixtures / f"{name}.json").read_bytes()
        except OSError:
            raise CorpusSetupError(f"missing fixture file: {fixtures / f'{name}.json'}") from None
    docs = _compute_all(manifest, parallel)
    statuses = [(name, goldens[name] == docs[name].encode("utf-8")) for name, _ in manifest]
    first_failure = next((name for name, ok in statuses if not ok), None)
    if json_mode:
        summary = {
            "fixtures": [{"name": n, "status": "pass" if ok else "fail"} for n, ok in statuses],
            "passed": sum(ok for _, ok in statuses),
            "failed": sum(not ok for _, ok in statuses),
            "first_failure": first_failure,
        }
        out.write(serialize(make_document("corpus", {"action": "run"}, summary)))
    else:
        for name, ok in statuses:
            out.write(f"{'PASS' if ok else 'FAIL'} {name}\n")
        out.write(f"corpus: {len(statuses)} fixtures, {sum(ok for _, ok in statuses)} passed, "
                  f"{sum(not ok for _, ok in statuses)} failed\n")
    if first_failure is not None:
        print(f"corpus diff: first divergent fixture: {fixtures / (first_failure + '.json')}",
              file=sys.stderr)
        print(f"corpus diff: {_diff_detail(goldens[first_failure], docs[first_failure])}",
              file=sys.stderr)
        return EXIT_CORPUS_DIFF
    return EXIT_OK


def corpus_write(fixtures_dir=None, parallel=0, out=None):
    out = out or sys.stdout
    fixtures = _default_fixtures_dir(fixtures_dir)
    manifest = corpus_manifest()
    try:
        fixtures.mkdir(parents=True, exist_ok=True)
        docs = _compute_all(manifest, parallel)
        for name, _ in manifest:
            (fixtures / f"{name}.json").write_bytes(docs[name].encode("utf-8"))
    except OSError as err:
        raise CorpusSetupError(f"cannot write fixtures to {fixtures}: {err}") from None
    out.write(f"wrote {len(manifest)} fixtures to {fixtures}\n")
    return EXIT_OK


# -- config file and entry point ---------------------------------------------


def _config_file_tokens(path) -> list:
    """The options a config file supplies, as argv tokens.  A key names a
    long option; its kind in _COMMANDS decides the tokens: a store-true
    option is given when its value is a true word, an append option once
    per comma-separated item, any other key with its value."""
    kinds = {opt[0]: opt[2] for _, options, _ in _COMMANDS.values() for opt in options}
    tokens = []
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"config file {path} cannot be read as UTF-8 text: {err}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = f"--{key}"
        kind = kinds.get(flag)
        if kind == "store-true":
            if value.lower() in _TRUE_WORDS:
                tokens.append(flag)
        elif kind == "append":
            for item in value.split(","):
                tokens.extend([flag, item.strip()])
        else:
            tokens.extend([flag, value])
    return tokens


def _apply_config_file(argv):
    """Expands `--config PATH` or `--config=PATH`, given at most once."""
    at = [i for i, arg in enumerate(argv) if arg == "--config" or arg.startswith("--config=")]
    if not at:
        return argv
    if len(at) > 1:
        raise ValidationError("--config may be given only once")
    idx = end = at[0]
    _, eq, path = argv[idx].partition("=")
    if not eq:
        end += 1
        if end >= len(argv):
            raise ValidationError("--config requires a file path")
        path = argv[end]
    rest = argv[:idx] + argv[end + 1:]
    if not rest:
        raise ValidationError("--config cannot supply the subcommand itself")
    if not os.path.isfile(path):
        raise ValidationError(f"config file not found: {path}")
    # Defaults from the file go right after the subcommand; explicit flags win.
    return [rest[0]] + _config_file_tokens(path) + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(_apply_config_file(argv))
        if args.command == "corpus":
            if args.action == "run":
                return corpus_run(args.fixtures, args.parallel, args.json)
            return corpus_write(args.fixtures, args.parallel)
        sys.stdout.write(_output(args))
        return EXIT_OK
    except DjemError as err:
        print(f"{err.label}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
