"""The sign-involution dual read off the ladder, checked against its definition.

n_finite_dual(m) is defined by pairing: the dual basis vector of e_i sits at
the negated weight, and each operator block is the negated transpose of the
block it pairs with, so X: V_mu -> V_{mu+2} dualizes to
X: (V_{mu+2})^ -> (V_mu)^ and likewise for Y.  These tests compare every
in-window block of the dual with that definition, and check that dualizing
twice gives the module back, over a grid of families, weights and
truncations.  They use only the blocks' public views.
"""

from djem.sl2 import dual_verma, n_finite_dual, simple, verma

TRUNCATIONS = (0, 1, 7, 40)


def _grid():
    for lam in range(-40, 41, 2):
        for trunc in TRUNCATIONS:
            yield verma(lam, trunc)
            yield dual_verma(lam, trunc)
    for k in range(0, 41, 2):
        yield simple(-k)


def _entry(blk):
    """The entry of a 1x1 block, checked to be one."""
    assert (blk.rows, blk.cols) == (1, 1)
    return dict(blk.items()).get((0, 0), 0)


def _views(m):
    return [(mu, m.x_block(mu), m.y_block(mu)) for mu in m.weights]


def test_dual_blocks_are_the_negated_paired_blocks():
    checked = 0
    for m in _grid():
        d = n_finite_dual(m)
        assert d.weights == tuple(sorted(-mu for mu in m.weights))
        window = set(m.weights)
        for mu in m.weights:
            if mu + 2 in window:
                assert _entry(d.x_block(-(mu + 2))) == -_entry(m.x_block(mu)), (m, mu)
                checked += 1
            if mu - 2 in window:
                assert _entry(d.y_block(-(mu - 2))) == -_entry(m.y_block(mu)), (m, mu)
                checked += 1
    # Each window of n weights has n - 1 in-window X blocks and as many Y blocks.
    assert checked == sum(2 * (len(m.weights) - 1) for m in _grid())


def test_double_dual_gives_the_module_back():
    for m in _grid():
        dd = n_finite_dual(n_finite_dual(m))
        for attr in ("family", "weights", "basis_labels", "bottom_exact", "top_exact",
                     "truncation", "ladder"):
            assert getattr(dd, attr) == getattr(m, attr), (m, attr)
        assert _views(dd) == _views(m), m
