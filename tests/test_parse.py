"""The command line's parse path against argparse's own.

djem.cli reads an argv against its option table without argparse when the
argv is plain (a subcommand, then exact long options and their values) and
hands any other to build_parser().parse_args, which stays the reference.
On the CLI fuzzer's argvs (five seeds, with their config files expanded or
not), on every corpus-manifest argv and on a list of edge cases, the two
must give the same attributes (vars() of the namespaces), or exit with the
same code and the same stdout and stderr bytes.  argparse's internals
differ between Python versions, so this runs on every supported one.
"""

from djem.cli import _apply_config_file, _parse_args, _table_args, build_parser, corpus_manifest
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
    # Aimed at the table reading: negative values.
    ["kostant", "--k", "-8"],
    ["kostant", "--k", "-08"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit", "-.5"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit", "-1e5"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit", "-2/0"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit", "-1_0/3"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "-2/5"],
    ["kostant", "--k", "-2/5"],
    ["kostant", "--k", "-8\n"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "- a"],
    # '-'-led values the table declines and argparse reads as negative numbers.
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "-1.5"],
    ["kostant", "--k", "-1.5"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit", "-\u0663"],
    # Option spellings argparse alone reads.
    ["kostant", "--k=4"],
    ["kostant", "--k=-4", "--json"],
    ["jacquet", "--fam", "verma", "--k", "2", "--js"],
    ["kostant", "--k", "2", "--help"],
    # Repeats: the last value wins, --relation appends.
    ["kostant", "--k", "2", "--k", "4", "--json"],
    ["kostant", "--k", "x", "--k", "2"],
    ["kostant", "--k", "2", "--json", "--json"],
    ["ext-bound", "--k", "-4", "--ell", "2", "--relation", "psi-eq-phi",
     "--relation", "not:phi-delta-eq-phi-w"],
    # Values int() reads in its own way.
    ["kostant", "--k", ""],
    ["kostant", "--k", " 4"],
    ["kostant", "--k", "4_0"],
    ["kostant", "--k", "\u0664"],
    ["kostant", "--k", "+4"],
    ["kostant", "--k=1_0"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-val", "\u0661"],
    ["jacquet", "--family", "verma", "--k", "-4", "--p", "\u0665"],
    ["jacquet", "--family", "verma", "--k", "2", "--psi", ""],
    # Value and option errors.
    ["jacquet", "--family", "VERMA", "--k", "2"],
    ["jacquet", "--k", "2"],
    ["ext-bound", "--k", "2"],
    ["cohomology", "--family", "verma", "--k", "2"],
    ["cohomology", "--family", "verma", "--k", "2", "--direction", "up"],
    ["kostant", "--json", "--k"],
    ["kostant", "--k", "--json"],
    ["kostant", "--k", "2", "--trunc", "3"],
    ["kostant", "--k", "2", "--json", "x"],
    ["corpus", "run", "--json"],
]


def test_the_table_takes_a_dash_led_value_only_as_a_rational():
    argv = ["jacquet", "--family", "verma", "--k", "2", "--psi", "a", "--psi-unit"]
    for value in ("-1.5", "-.5", "-1e5", "-\u0663"):
        assert _table_args(argv + [value]) is None, value
    for value in ("-8", "-2/5"):
        assert _table_args(argv + [value]).psi_unit == value


def _outcome(parse, argv, capsys):
    """(attributes or exit code, stdout, stderr).  The table reading returns
    a namespace other than argparse's, so both are compared through vars():
    argparse.Namespace equality is vars() equality, so this is no weaker."""
    try:
        result = vars(parse(list(argv)))
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
    for _, argv in corpus_manifest():
        yield list(argv)


def test_subcommand_parse_matches_the_full_parser(tmp_path, capsys):
    reference = build_parser()
    parsed = exits = taken = 0
    for argv in _argvs(tmp_path):
        want = _outcome(reference.parse_args, argv, capsys)
        assert _outcome(_parse_args, argv, capsys) == want, argv
        if isinstance(want[0], tuple):
            exits += 1
        else:
            parsed += 1
            taken += _table_args(list(argv)) is not None
    # Both ways out are reached, and often.
    assert parsed >= 600 and exits >= 300, (parsed, exits)
    # Every corpus job, and nearly every argv argparse accepts, is read from
    # the table, not handed to argparse: the table reading cannot go dead.
    for _, argv in corpus_manifest():
        assert _table_args(list(argv)) is not None, argv
    assert taken >= 0.9 * parsed, (taken, parsed)
