"""Operator blocks of a ladder, rebuilt in the tests from its coefficients.

djem keeps no matrices: X maps the line at weight mu to the line at mu + 2
by coeff_x at mu's ladder index, and Y maps it to mu - 2 by coeff_y.  These
helpers build the block of an operator between two weight spaces as dense
rows and a column count, the form `rref_oracle` takes, and read djem's
answer for the same block off its line maps.
"""

from djem.cohomology import cokernel_basis, kernel

SHIFT = {"x": 2, "y": -2}


def coefficient(m, mu, op):
    """The coefficient of op on the mu line of m: m.coeff_x (or coeff_y) at
    the ladder index of mu."""
    poly = m.coeff_x if op == "x" else m.coeff_y
    return poly(m.index_of_weight(mu))


def block(m, src, op):
    """The block of op from the src weight space to src + SHIFT[op], as
    (dense rows, column count): 1x1 when both lie in the window, 0x1 or 1x0
    when one of them lies past an exact edge, and None when it lies past a
    truncation cut (the block is not knowable from the window) or when
    neither lies in the window."""
    dst = src + SHIFT[op]
    rows, cols = m.dim_at(dst), m.dim_at(src)
    if rows and cols:
        return [[coefficient(m, src, op)]], 1
    other = dst if cols else src
    if not (rows or cols) or not (m.top_exact if other > m.max_weight else m.bottom_exact):
        return None
    return [[]] * rows, cols


def window_blocks(m):
    """Every block of X and Y knowable from m's window: the one leaving each
    window weight, and the one entering the window end that the operator
    moves into from outside."""
    for op, shift in SHIFT.items():
        entering = (m.min_weight if shift > 0 else m.max_weight) - shift
        for src in (*m.weights, entering):
            blk = block(m, src, op)
            if blk is not None:
                yield blk


def value(blk):
    """The entry of a 1x1 block, or 0 for an empty one."""
    dense, cols = blk
    return dense[0][0] if dense and cols else 0


def line_answer(blk):
    """(kernel dim, cokernel dim) of a block of at most one row and one
    column, from djem's line maps: a missing line contributes nothing."""
    dense, cols = blk
    c = value(blk)
    return cols * kernel(c), len(dense) * cokernel_basis(c)
