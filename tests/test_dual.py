"""The sign-involution dual read off the ladder, checked against its definition.

n_finite_dual(m) is defined by pairing: the dual basis vector of e_i sits at
the negated weight, and each operator block is the negated transpose of the
block it pairs with, so X: V_mu -> V_{mu+2} dualizes to
X: (V_{mu+2})^ -> (V_mu)^ and likewise for Y.  These tests compare every
in-window block of the dual with that definition, and check that dualizing
twice gives the module back, over a grid of families, weights and
truncations.  The blocks are read off each module's ladder polynomials.
"""

from djem.sl2 import dual_verma, n_finite_dual, simple, verma
from ladder_blocks import block

TRUNCATIONS = (0, 1, 7, 40)


def _grid():
    for lam in range(-40, 41, 2):
        for trunc in TRUNCATIONS:
            yield verma(lam, trunc)
            yield dual_verma(lam, trunc)
    for k in range(0, 41, 2):
        yield simple(-k)


def _entry(m, mu, op):
    """The entry of the block of op at mu, checked to be 1x1."""
    (row,), cols = block(m, mu, op)
    assert (len(row), cols) == (1, 1)
    return row[0]


def _views(m):
    return [(mu, block(m, mu, "x"), block(m, mu, "y")) for mu in m.weights]


def test_dual_blocks_are_the_negated_paired_blocks():
    checked = 0
    for m in _grid():
        d = n_finite_dual(m)
        assert d.weights == tuple(sorted(-mu for mu in m.weights))
        window = set(m.weights)
        for mu in m.weights:
            if mu + 2 in window:
                assert _entry(d, -(mu + 2), "x") == -_entry(m, mu, "x"), (m, mu)
                checked += 1
            if mu - 2 in window:
                assert _entry(d, -(mu - 2), "y") == -_entry(m, mu, "y"), (m, mu)
                checked += 1
    # Each window of n weights has n - 1 in-window X blocks and as many Y blocks.
    assert checked == sum(2 * (len(m.weights) - 1) for m in _grid())


def test_double_dual_gives_the_module_back():
    for m in _grid():
        dd = n_finite_dual(n_finite_dual(m))
        for attr in ("family", "weights", "basis_labels", "bottom_exact", "top_exact",
                     "truncation", "ladder", "hatted"):
            assert getattr(dd, attr) == getattr(m, attr), (m, attr)
        assert _views(dd) == _views(m), m
