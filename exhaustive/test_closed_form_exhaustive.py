"""Every jacquet report the command line accepts, against the closed form.

For every even k with |k| <= SIZE_LIMIT, every family defined at k, both
declared characters psi and the two characters psi(z) = +-p^(k+2), the
report at the default truncation must equal the table in k of
perfbench/oracle.py, which imports nothing from djem.  At psi(z) = +-p^(k+2)
a stalk H^0 line and a section H^1 line of simple share a z-eigenvalue; the
connecting map between them is still zero, since their weights differ.
tests/test_closed_form.py samples the same comparison; this run leaves no k
out.  It takes minutes, so it lives outside the tier-1 test paths; run it
with

    python -m pytest exhaustive -q
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from djem.characters import SmoothCharacter, TRIVIAL_PSI
from djem.cli import SIZE_LIMIT
from djem.jacquet import OrlikStrauchSpec, assemble_les
from djem.reporting import jacquet_result_json


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

DECLARED_PSI = ("chi", 1, "3/2")
PSIS = ((oracle.TRIVIAL, TRIVIAL_PSI),
        (DECLARED_PSI, SmoothCharacter(DECLARED_PSI[0], DECLARED_PSI[1],
                                       Fraction(DECLARED_PSI[2]))))


def _psis(k):
    yield from PSIS
    for unit in ("1", "-1"):
        psi = ("chi", k + 2, unit)
        yield psi, SmoothCharacter(psi[0], psi[1], Fraction(unit))


@pytest.mark.parametrize("family", ["verma", "dualverma", "simple"])
def test_every_report_matches_the_closed_form(family):
    ks = range(-SIZE_LIMIT if family == "verma" else 0, SIZE_LIMIT + 1, 2)
    checked = 0
    for k in ks:
        for psi, character in _psis(k):
            report = assemble_les(OrlikStrauchSpec(family, k, character))
            got = json.loads(json.dumps(jacquet_result_json(report)))
            assert got == oracle.jacquet_result(family, k, psi), (family, k, psi)
            checked += 1
    assert checked == 4 * (SIZE_LIMIT + 1 if family == "verma" else SIZE_LIMIT // 2 + 1)
