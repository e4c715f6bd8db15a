"""Command-line front end.

Subcommands: jacquet, cohomology, bgg-check, kostant, ext-bound, les-check,
corpus.  JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 validation error, 3 truncation/certificate failure, 4 undecidable relation,
5 corpus diff, 6 corpus setup error.

The truncation default is abs(k) + 16 and can be overridden per run with
--trunc or globally with the JACQUET_TRUNC_DEFAULT environment variable.
|k|, |ell| and an explicit truncation are capped at SIZE_LIMIT.  A flat
"key = value" config file, given once as --config PATH or --config=PATH,
may supply any option; explicit flags win.

Only the modules a subcommand needs are imported when it runs: ext-bound
loads djem.extbound, and corpus --parallel loads concurrent.futures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from djem.characters import SmoothCharacter
from djem.cohomology import cohomology, kostant_check
from djem.errors import (DjemError, TruncationError, UndecidableRelationError,
                         ValidationError)
from djem.jacquet import OrlikStrauchSpec, assemble_les, build_module, les_consistency_check
from djem.linalg import as_rational
from djem.reporting import (check_result_json, cohomology_result_json, cohomology_text,
                            ext_case_json, ext_case_text, jacquet_result_json, jacquet_text,
                            make_document, serialize, smooth_character_json)
from djem.sl2 import bgg_morphism, default_truncation, n_finite_dual, simple

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TRUNCATION = 3
EXIT_UNDECIDABLE = 4
EXIT_CORPUS_DIFF = 5
EXIT_CORPUS_SETUP = 6

TRUNC_ENV_VAR = "JACQUET_TRUNC_DEFAULT"

# Largest |k|, |ell| and explicit truncation accepted.  Each module still
# builds the tuple of its window weights, which grows linearly in each; at
# this cap a report takes about 0.1 s and 20 MB RSS per CLI call (2 vCPU,
# Python 3.11.7), about what a call at k = 2 takes.
SIZE_LIMIT = 50_000

_RELATION_NAMES = ("psi-eq-phi", "psi-delta-eq-phi-w", "phi-delta-eq-phi-w")
_BOOL_KEYS = {"json", "window-only", "psi-w-selfdual", "phi-w-selfdual"}
_TRUE_WORDS = {"1", "true", "yes", "on"}
_NEGATIVE_FRACTION = re.compile(r"-[0-9]+/[0-9]+")


def _add_character_args(sp, name):
    sp.add_argument(f"--{name}", default="trivial", metavar="LABEL",
                    help=f"label of the smooth character {name} (default: trivial)")
    sp.add_argument(f"--{name}-val", type=int, default=0, metavar="V",
                    help=f"valuation of {name}(z), i.e. {name}(z) = p^V * unit")
    sp.add_argument(f"--{name}-unit", default="1", metavar="NUM/DEN",
                    help=f"unit part of {name}(z) as an exact rational")
    sp.add_argument(f"--{name}-w-selfdual", action="store_true",
                    help=f"declare {name}^w = {name}")
    sp.add_argument(f"--{name}-torus-unit", default=None, metavar="LABEL",
                    help=f"label of the restriction of {name} to the compact torus")


def _add_common_args(sp, with_trunc=True):
    sp.add_argument("--json", action="store_true", help="emit a JSON report document")
    sp.add_argument("--p", type=int, default=None,
                    help="substitute a concrete prime for readable eigenvalues")
    if with_trunc:
        sp.add_argument("--trunc", type=int, default=None,
                        help="truncation window override (default abs(k)+16)")


class _SubcommandParser(argparse.ArgumentParser):
    """Takes a negative NUM/DEN token, such as -2/5, for a value: argparse
    reads a token that starts with '-' as an option unless it is a negative
    int or decimal, so `--psi-unit -2/5` would lack its argument."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_FRACTION.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="djem",
        description="Exact derived Jacquet modules for SL2(Qp) "
                    "principal-series-type representations.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    jq = sub.add_parser("jacquet", help="derived Jacquet module report for one family")
    jq.add_argument("--family", required=True, choices=["verma", "dualverma", "simple"])
    jq.add_argument("--k", type=int, required=True)
    _add_character_args(jq, "psi")
    _add_common_args(jq)

    co = sub.add_parser("cohomology",
                        help="radical cohomology of the n-finite dual ladder of one family")
    co.add_argument("--family", required=True, choices=["verma", "dualverma", "simple"])
    co.add_argument("--k", type=int, required=True)
    co.add_argument("--direction", required=True, choices=["n", "nbar"])
    co.add_argument("--window-only", action="store_true",
                    help="accept a non-certified window-only answer")
    _add_common_args(co)

    bg = sub.add_parser("bgg-check", help="equivariance and cokernel check of the ladder embedding")
    bg.add_argument("--k", type=int, required=True)
    _add_common_args(bg)

    ko = sub.add_parser("kostant", help="two-line cohomology check for the simple module dual")
    ko.add_argument("--k", type=int, required=True)
    _add_common_args(ko, with_trunc=False)

    eb = sub.add_parser("ext-bound", help="extension-dimension verdict for a pair of characters")
    eb.add_argument("--k", type=int, required=True)
    eb.add_argument("--ell", type=int, required=True)
    _add_character_args(eb, "psi")
    _add_character_args(eb, "phi")
    eb.add_argument("--relation", action="append", default=None, metavar="NAME",
                    help="declare a relation true (or false with a 'not:' prefix); "
                         f"names: {', '.join(_RELATION_NAMES)}")
    _add_common_args(eb)

    lc = sub.add_parser("les-check", help="Euler-characteristic consistency across the ladder sequence")
    lc.add_argument("--k", type=int, required=True)
    _add_character_args(lc, "psi")
    _add_common_args(lc)

    cp = sub.add_parser("corpus", help="golden-file regression corpus")
    cp.add_argument("action", choices=["run", "write"])
    cp.add_argument("--fixtures", default=None, help="fixture directory override")
    cp.add_argument("--parallel", type=int, default=0, metavar="N",
                    help="compute fixtures on N worker threads")
    cp.add_argument("--json", action="store_true")

    return parser


@functools.cache
def _parser():
    """The parser of this process.  parse_args leaves a parser unchanged, so
    every call, corpus worker threads included, may share it."""
    return build_parser()


def _rational_arg(text, flag) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"--{flag} must be an exact rational NUM or NUM/DEN with a "
                              f"nonzero DEN, got {text!r}") from None


def _character_from_args(args, name) -> SmoothCharacter:
    label = getattr(args, name.replace("-", "_"))
    val = getattr(args, f"{name}_val".replace("-", "_"))
    unit = _rational_arg(getattr(args, f"{name}_unit".replace("-", "_")), f"{name}-unit")
    selfdual = getattr(args, f"{name}_w_selfdual".replace("-", "_"))
    torus = getattr(args, f"{name}_torus_unit".replace("-", "_")) or ""
    if label == "trivial":
        if val != 0 or unit != 1:
            raise ValidationError("the label 'trivial' is reserved for the character with "
                                  "z-value p^0 * 1/1")
        if torus not in ("", "trivial"):
            raise ValidationError(f"the label 'trivial' is reserved for the character with "
                                  f"torus unit 'trivial', got --{name}-torus-unit {torus!r}")
        selfdual = True
    return SmoothCharacter(label, val, unit, w_selfdual=selfdual, torus_unit_label=torus)


def _relations_from_args(tokens):
    from djem.extbound import RelationDeclarations

    declared = {name: None for name in _RELATION_NAMES}
    for token in tokens or ():
        value = True
        name = token
        if token.startswith("not:"):
            value = False
            name = token[4:]
        if name not in declared:
            raise ValidationError(f"unknown relation {token!r}; expected one of "
                                  f"{', '.join(_RELATION_NAMES)} (optionally 'not:' prefixed)")
        declared[name] = value
    return RelationDeclarations(psi_eq_phi=declared["psi-eq-phi"],
                                psi_delta_eq_phi_w=declared["psi-delta-eq-phi-w"],
                                phi_delta_eq_phi_w=declared["phi-delta-eq-phi-w"])


def _resolve_trunc(args, k) -> int:
    trunc = getattr(args, "trunc", None)
    source = "--trunc"
    if trunc is None:
        env = os.environ.get(TRUNC_ENV_VAR)
        if env is None:
            return default_truncation(k)
        source = TRUNC_ENV_VAR
        try:
            trunc = int(env)
        except ValueError:
            raise ValidationError(f"{TRUNC_ENV_VAR} must be an integer, got {env!r}")
    if trunc < 0:
        raise ValidationError("truncation must be non-negative")
    if trunc > SIZE_LIMIT:
        raise ValidationError(f"{source} must be at most {SIZE_LIMIT}, got {trunc}")
    return trunc


# Miller-Rabin with the prime bases 2..37 is exact below this bound.
P_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n) -> bool:
    """Deterministic Miller-Rabin; exact for 0 <= n < P_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _validate_p(p):
    if p is None:
        return None
    if p >= P_LIMIT:
        raise ValidationError(f"--p must be below {P_LIMIT}, got a {len(str(p))}-digit value")
    if not _is_prime(p):
        raise ValidationError(f"--p must be prime, got {p}")
    return p


# -- subcommand implementations ----------------------------------------------
# Each computes its answer and returns (as_json, as_text): as_json() gives the
# (config echo, result) pair of the JSON document and as_text() the text
# lines.  Only the requested one is called, so a run renders one mode only.


def _cmd_jacquet(args):
    psi = _character_from_args(args, "psi")
    trunc = _resolve_trunc(args, args.k)
    p = _validate_p(args.p)
    report = assemble_les(OrlikStrauchSpec(args.family, args.k, psi), trunc)

    def as_json():
        config = {"family": args.family, "k": args.k, "psi": smooth_character_json(psi),
                  "truncation": trunc, "p": p}
        return config, jacquet_result_json(report, p)

    return as_json, lambda: jacquet_text(report, p)


def _cmd_cohomology(args):
    trunc = _resolve_trunc(args, args.k)
    spec = OrlikStrauchSpec(args.family, args.k)
    dual = n_finite_dual(build_module(spec, trunc))
    res = cohomology(dual, args.direction, allow_uncertified=args.window_only)

    def as_json():
        config = {"family": args.family, "k": args.k, "direction": args.direction,
                  "truncation": trunc, "window_only": bool(args.window_only)}
        return config, cohomology_result_json(res)

    return as_json, lambda: cohomology_text(res)


def _cmd_bgg_check(args):
    if args.k < 0 or args.k % 2:
        raise ValidationError(f"bgg-check expects an even k >= 0, got {args.k}")
    trunc = _resolve_trunc(args, args.k)
    morphism = bgg_morphism(args.k, trunc)
    equivariant = morphism.is_equivariant()
    cokernel_matches = morphism.cokernel_dims() == simple(-args.k).dims
    passed = equivariant and cokernel_matches

    def as_json():
        return {"k": args.k, "truncation": trunc}, check_result_json(
            args.k, passed, equivariant=equivariant, cokernel_matches_simple=cokernel_matches)

    return as_json, lambda: [
        f"bgg-check k={args.k}: {'PASS' if passed else 'FAIL'} "
        f"(equivariant={equivariant}, cokernel-matches-simple={cokernel_matches})"]


def _cmd_kostant(args):
    passed = kostant_check(args.k)

    def as_json():
        return {"k": args.k}, check_result_json(args.k, passed, h0_weight=args.k,
                                                h1_weight=-(args.k + 2))

    return as_json, lambda: [f"kostant k={args.k}: {'PASS' if passed else 'FAIL'} "
                             f"(one line at weight {args.k}, one at {-(args.k + 2)})"]


def _cmd_ext_bound(args):
    from djem.extbound import classify_ext

    psi = _character_from_args(args, "psi")
    phi = _character_from_args(args, "phi")
    relations = _relations_from_args(args.relation)
    trunc = _resolve_trunc(args, max(abs(args.k), abs(args.ell)))
    p = _validate_p(args.p)
    case = classify_ext(args.k, args.ell, psi, phi, relations, trunc)

    def as_json():
        config = {"k": args.k, "ell": args.ell,
                  "psi": smooth_character_json(psi), "phi": smooth_character_json(phi),
                  "declared_relations": sorted(args.relation or []),
                  "truncation": trunc, "p": p}
        return config, ext_case_json(case, p)

    return as_json, lambda: ext_case_text(case)


def _cmd_les_check(args):
    psi = _character_from_args(args, "psi")
    trunc = _resolve_trunc(args, args.k + 2)
    passed = les_consistency_check(args.k, psi, trunc)

    def as_json():
        config = {"k": args.k, "psi": smooth_character_json(psi), "truncation": trunc}
        return config, check_result_json(args.k, passed)

    return as_json, lambda: [f"les-check k={args.k}: {'PASS' if passed else 'FAIL'}"]


_HANDLERS = {
    "jacquet": _cmd_jacquet,
    "cohomology": _cmd_cohomology,
    "bgg-check": _cmd_bgg_check,
    "kostant": _cmd_kostant,
    "ext-bound": _cmd_ext_bound,
    "les-check": _cmd_les_check,
}


def _run_handler(args):
    """(as_json, as_text) of one subcommand run; a --k or --ell past
    SIZE_LIMIT is refused before anything is built."""
    for flag in ("k", "ell"):
        value = getattr(args, flag, None)
        if value is not None and abs(value) > SIZE_LIMIT:
            raise ValidationError(f"--{flag} must be at most {SIZE_LIMIT} in absolute value, "
                                  f"got {value}")
    return _HANDLERS[args.command](args)


# -- regression corpus -------------------------------------------------------


def corpus_manifest():
    """Every fixture as (name, argv).  Truncations are pinned explicitly so
    golden bytes do not depend on the environment."""
    jobs = []
    for k in range(-8, 9, 2):
        jobs.append((f"jacquet-verma-k{k:+03d}",
                     ["jacquet", "--family", "verma", "--k", str(k), "--psi", "trivial",
                      "--trunc", str(default_truncation(k)), "--json"]))
    for k in (0, 2, 4, 6, 8):
        jobs.append((f"jacquet-dualverma-k{k:+03d}",
                     ["jacquet", "--family", "dualverma", "--k", str(k), "--psi", "trivial",
                      "--trunc", str(default_truncation(k)), "--json"]))
    for k in (0, 2, 4, 6):
        jobs.append((f"jacquet-simple-k{k:+03d}",
                     ["jacquet", "--family", "simple", "--k", str(k), "--psi", "trivial",
                      "--trunc", str(default_truncation(k)), "--json"]))
    for k in range(0, 13, 2):
        jobs.append((f"bgg-check-k{k:+03d}",
                     ["bgg-check", "--k", str(k), "--trunc", str(default_truncation(k)), "--json"]))
        jobs.append((f"kostant-k{k:+03d}", ["kostant", "--k", str(k), "--json"]))
    for k in (0, 2, 4, 6):
        jobs.append((f"les-check-k{k:+03d}",
                     ["les-check", "--k", str(k), "--psi", "trivial",
                      "--trunc", str(default_truncation(k + 2)), "--json"]))
    return sorted(jobs)


def fixture_document(argv) -> str:
    """Serialized report document for one fixture argv."""
    args = _parser().parse_args(argv)
    as_json, _ = _run_handler(args)
    config, result = as_json()
    return serialize(make_document(args.command, config, result))


def _default_fixtures_dir() -> Path:
    return Path(__file__).resolve().parent / "fixtures" / "corpus"


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
    fixtures = Path(fixtures_dir) if fixtures_dir else _default_fixtures_dir()
    manifest = corpus_manifest()
    if not fixtures.is_dir():
        print(f"corpus setup error: fixture directory not found: {fixtures}", file=sys.stderr)
        return EXIT_CORPUS_SETUP
    missing = [name for name, _ in manifest if not (fixtures / f"{name}.json").is_file()]
    if missing:
        print(f"corpus setup error: missing fixture file: {fixtures / (missing[0] + '.json')}",
              file=sys.stderr)
        return EXIT_CORPUS_SETUP
    docs = _compute_all(manifest, parallel)
    statuses = []
    first_failure = None
    for name, _ in manifest:
        golden = (fixtures / f"{name}.json").read_bytes()
        ok = golden == docs[name].encode("utf-8")
        statuses.append((name, ok))
        if not ok and first_failure is None:
            first_failure = name
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
        golden_path = fixtures / (first_failure + ".json")
        print(f"corpus diff: first divergent fixture: {golden_path}", file=sys.stderr)
        print(f"corpus diff: {_diff_detail(golden_path.read_bytes(), docs[first_failure])}",
              file=sys.stderr)
        return EXIT_CORPUS_DIFF
    return EXIT_OK


def corpus_write(fixtures_dir=None, parallel=0, out=None):
    out = out or sys.stdout
    fixtures = Path(fixtures_dir) if fixtures_dir else _default_fixtures_dir()
    manifest = corpus_manifest()
    try:
        fixtures.mkdir(parents=True, exist_ok=True)
        docs = _compute_all(manifest, parallel)
        for name, _ in manifest:
            (fixtures / f"{name}.json").write_bytes(docs[name].encode("utf-8"))
    except OSError as err:
        print(f"corpus setup error: cannot write fixtures to {fixtures}: {err}", file=sys.stderr)
        return EXIT_CORPUS_SETUP
    out.write(f"wrote {len(manifest)} fixtures to {fixtures}\n")
    return EXIT_OK


# -- config file and entry point ---------------------------------------------


def _config_file_tokens(path) -> list:
    tokens = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"config file {path} cannot be read as UTF-8 text: {err}") from None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line is not 'key = value': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _BOOL_KEYS:
            if value.lower() in _TRUE_WORDS:
                tokens.append(f"--{key}")
            continue
        if key == "relation":
            for item in value.split(","):
                tokens.extend(["--relation", item.strip()])
            continue
        tokens.extend([f"--{key}", value])
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
    if not Path(path).is_file():
        raise ValidationError(f"config file not found: {path}")
    # Defaults from the file go right after the subcommand; explicit flags win.
    return [rest[0]] + _config_file_tokens(path) + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = _parser().parse_args(argv)
        if args.command == "corpus":
            if args.action == "run":
                return corpus_run(args.fixtures, args.parallel, args.json)
            return corpus_write(args.fixtures, args.parallel)
        as_json, as_text = _run_handler(args)
        if args.json:
            config, result = as_json()
            sys.stdout.write(serialize(make_document(args.command, config, result)))
        else:
            for line in as_text():
                print(line)
        return EXIT_OK
    except UndecidableRelationError as err:
        print(f"undecidable relation: {err}", file=sys.stderr)
        return EXIT_UNDECIDABLE
    except TruncationError as err:
        print(f"truncation/certificate failure: {err}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ValidationError as err:
        print(f"validation error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except DjemError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
