"""The window of a weight module: its two ends, and the line coefficients at them.

A WeightModule stores only min_weight and max_weight; `weights` is a range
built from them, so a module costs the same at any size.  line_coefficient
answers every edge question: the ladder polynomial when both lines are in
the window, 0 past an exact edge, None past a truncation cut.  It is checked
on hand-computed cases, and against the per-weight blocks of ladder_blocks
on the family grid and on seeded hand-made ladders.
"""

import argparse
import random
import tracemalloc

import pytest

from djem.cli import SIZE_LIMIT, TRUNC_ENV_VAR, _cmd_bgg_check
from djem.sl2 import WeightModule, dual_verma, n_finite_dual, simple, verma
from ladder_blocks import SHIFT, block
from test_cohomology import _family_grid, _hand_made_ladder


def _one_weight(bottom_exact, top_exact):
    v = verma(0, 4)
    return WeightModule("generic", v.step, v.coeff_x, v.coeff_y, 0, 1, bottom_exact, top_exact)


# (module, op, src, expected).  verma(-4, 3) has weights -4..2, exact below and
# cut above, X = 1 and Y = i(5 - i); dual_verma(-4, 3) has X = (i+1)(4 - i)
# and Y = 1.  Their duals have step -2, weights -2..4, cut below and exact
# above.  simple(-2) has weights -2..2, exact at both ends, Y = i(3 - i).
CASES = [
    # both lines in the window: the ladder polynomial at src's index
    (verma(-4, 3), "x", -4, 1),
    (verma(-4, 3), "y", -2, 4),
    (verma(-4, 3), "y", 2, 6),
    (dual_verma(-4, 3), "x", 0, 6),
    (dual_verma(-4, 3), "y", 2, 1),
    (simple(-2), "y", 2, 2),
    (n_finite_dual(verma(-4, 3)), "y", 4, -4),
    (n_finite_dual(verma(-4, 3)), "x", -2, -1),
    (n_finite_dual(dual_verma(-4, 3)), "x", -2, -6),
    (n_finite_dual(simple(-2)), "y", 2, -2),
    # the other line past an exact bottom edge
    (verma(-4, 3), "y", -4, 0),
    (dual_verma(-4, 3), "y", -4, 0),
    (simple(-2), "y", -2, 0),
    (n_finite_dual(simple(-2)), "y", -2, 0),
    (_one_weight(True, True), "y", 0, 0),
    # the other line past an exact top edge
    (simple(-2), "x", 2, 0),
    (n_finite_dual(verma(-4, 3)), "x", 4, 0),
    (n_finite_dual(dual_verma(-4, 3)), "x", 4, 0),
    (_one_weight(True, True), "x", 0, 0),
    (_one_weight(False, True), "x", 0, 0),
    # the other line past a cut
    (verma(-4, 3), "x", 2, None),
    (dual_verma(-4, 3), "x", 2, None),
    (n_finite_dual(verma(-4, 3)), "y", -2, None),
    (n_finite_dual(dual_verma(-4, 3)), "y", -2, None),
    (verma(0, 0), "x", 0, None),
    (_one_weight(False, True), "y", 0, None),
    # src outside the window: 0 beyond an exact edge, None beyond a cut,
    # whether or not the line it maps to is in the window
    (verma(-4, 3), "x", -6, 0),
    (verma(-4, 3), "y", -6, 0),
    (verma(-4, 3), "y", 4, None),
    (verma(-4, 3), "x", 4, None),
    (simple(-2), "x", -4, 0),
    (simple(-2), "y", 4, 0),
    (simple(-2), "x", 6, 0),
    (n_finite_dual(verma(-4, 3)), "x", -4, None),
    (n_finite_dual(verma(-4, 3)), "y", 6, 0),
    (n_finite_dual(simple(-2)), "x", -4, 0),
    (_one_weight(True, True), "x", -2, 0),
    (_one_weight(False, True), "x", -2, None),
    (_one_weight(False, True), "y", 2, 0),
]


def _family(m):
    """The family as the module's repr names it."""
    return f"n-finite-dual({m.family})" if m.hatted else m.family


@pytest.mark.parametrize("m, op, src, expected", CASES,
                         ids=[f"{_family(m)}[{m.min_weight},{m.max_weight}]-{op}{src:+d}"
                              for m, op, src, _ in CASES])
def test_line_coefficient_cases(m, op, src, expected):
    assert m.line_coefficient(op, src) == expected


def _modules():
    rng = random.Random(20261019)
    for m in _family_grid():
        yield m
        yield n_finite_dual(m)
    for _ in range(600):
        yield _hand_made_ladder(rng)


def test_line_coefficient_agrees_with_per_weight_blocks():
    both = one = neither = 0
    for m in _modules():
        for op, shift in SHIFT.items():
            for src in range(m.min_weight - 4, m.max_weight + 6, 2):
                c, blk = m.line_coefficient(op, src), block(m, src, op)
                inside = m.dim_at(src) + m.dim_at(src + shift)
                if inside == 2:
                    assert blk == ([[c]], 1), (m, op, src)
                    both += 1
                elif inside == 1:
                    # the 0x1 or 1x0 block past an exact edge, None past a cut
                    assert (None if blk is None else 0) == c, (m, op, src)
                    one += 1
                else:
                    exact = m.top_exact if src > m.max_weight else m.bottom_exact
                    assert c == (0 if exact else None), (m, op, src)
                    neither += 1
    assert min(both, one, neither) >= 1000, (both, one, neither)


def test_weights_are_the_ladder_weights():
    for m in _modules():
        ladder = sorted(m.lowest_label_weight + m.step * i for i in range(m.length))
        assert tuple(m.weights) == tuple(ladder), m
        assert (m.min_weight, m.max_weight, len(m.weights)) == (ladder[0], ladder[-1], m.length)


def test_window_at_the_size_limit_is_constant_size():
    tracemalloc.start()
    try:
        m = n_finite_dual(verma(-SIZE_LIMIT, SIZE_LIMIT))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert (m.min_weight, m.max_weight, len(m.weights)) == (-SIZE_LIMIT, SIZE_LIMIT,
                                                            SIZE_LIMIT + 1)
    assert m.line_coefficient("x", SIZE_LIMIT) == 0 and m.line_coefficient("y", -SIZE_LIMIT) is None


def test_bgg_check_at_the_size_limit_builds_no_weight_table(monkeypatch):
    # The cokernel of the embedding is two ranges, compared with simple(-k)'s
    # window by range equality, so the decision costs what it does at k = 0.
    monkeypatch.delenv(TRUNC_ENV_VAR, raising=False)
    args = argparse.Namespace(command="bgg-check", k=SIZE_LIMIT, trunc=None, p=None, json=True)
    tracemalloc.start()
    try:
        output = _cmd_bgg_check(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert output == ({"k": SIZE_LIMIT, "truncation": SIZE_LIMIT + 16},
                      {"k": SIZE_LIMIT, "passed": True, "equivariant": True,
                       "cokernel_matches_simple": True})
