"""Reports against the closed form in k of perfbench/oracle.py.

The oracle states every jacquet report as a table in k and imports nothing
from djem, so it is an independent computation.  It is loaded by path and
used as it is; its one copy lives with the benchmark.
"""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

from djem.characters import SmoothCharacter, TRIVIAL_PSI
from djem.jacquet import OrlikStrauchSpec, assemble_les
from djem.reporting import jacquet_result_json


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

K_MAX = 2000
STRIDE = 8  # every STRIDE-th even k, from a seeded start
DECLARED_PSI = ("chi", 1, "3/2")


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
