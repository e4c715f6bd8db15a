"""The command line's parse path against argparse's own.

When argv[0] names a subcommand, djem.cli hands argv[1:] straight to that
subcommand's parser, where build_parser().parse_args(argv) would first
classify every token itself and then do the same.  On the CLI fuzzer's
argvs (five seeds, with their config files expanded or not) and on a list
of edge cases, the two must give equal namespaces, or exit with the same
code and the same stdout and stderr bytes.  argparse's internals differ
between Python versions, so this runs on every supported one.
"""

from djem.cli import _apply_config_file, _parse_args, build_parser
from djem.errors import ValidationError
from test_fuzz_cli import SEED, _cases

SEEDS = (SEED, 1, 2, 3, 4)

EDGE_CASES = [
    [],
    ["-h"],
    ["-h", "jacquet"],
    ["bogus", "--k", "2"],
    ["jacquet", "-h"],
    ["corpus", "--help"],
    ["kostant", "--k", "2", "trailing", "tokens"],
    ["kostant", "--k", "2", "--unknown", "x"],
    ["--", "x"],
    ["kostant", "--", "x"],
    ["kostant", "--k", "2", "--", "x"],
    ["jacquet", "--fam", "verma", "--k", "2"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi-", "a"],
    ["jacquet", "--family=verma", "--k", "2", "--json"],
    ["kostant", "--k", "2", "--k", "4"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit", "-2/5"],
    ["corpus"],
    ["corpus", "run", "--parallel", "2", "--json"],
    ["--config", "x", "kostant"],
    ["kostant", "--config", "x", "--k", "2"],
    ["kostant", "--config=x"],
    ["kostant", "--k"],
    ["kostant", "--k", "two"],
    ["--h"],
    ["-"],
    ["kostant", "-", "--k", "2"],
]


def _outcome(parse, argv, capsys):
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def _argvs(tmp_path):
    for seed in SEEDS:
        folder = tmp_path / str(seed)
        folder.mkdir()
        for argv in _cases(folder, seed):
            yield argv
            try:
                expanded = _apply_config_file(argv)
            except ValidationError:
                continue
            if expanded != argv:
                yield expanded
    yield from EDGE_CASES


def test_subcommand_parse_matches_the_full_parser(tmp_path, capsys):
    reference = build_parser()
    parsed = exits = 0
    for argv in _argvs(tmp_path):
        want = _outcome(reference.parse_args, argv, capsys)
        assert _outcome(_parse_args, argv, capsys) == want, argv
        if isinstance(want[0], tuple):
            exits += 1
        else:
            parsed += 1
    # Both ways out are reached, and often.
    assert parsed >= 600 and exits >= 300, (parsed, exits)
