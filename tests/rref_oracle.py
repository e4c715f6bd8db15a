"""Reference linear algebra over Q by reduced row echelon form.

djem answers only line maps, by their coefficient.  This module answers
matrices of every shape, given as dense rows and a column count, so tests
can check djem's answers against it and exercise matrices djem itself never
builds.  It imports nothing from djem.  Spaces come back as `Space` records
whose basis is in canonical RREF form, which is unique per subspace, so
equal spaces compare equal as data.
"""

from fractions import Fraction
from typing import NamedTuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Space(NamedTuple):
    """A subspace of Q^ambient_dim, stored by its canonical RREF basis."""

    ambient_dim: int
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)


def _rational(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("expected an exact rational, got float")
    return Fraction(value)


def _checked(dense, cols):
    """The rows as lists of Fractions, each checked to have cols entries."""
    rows = [[_rational(v) for v in row] for row in dense]
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"row of length {len(row)} in a matrix of {cols} columns")
    return rows


def rref(dense, cols):
    """Reduced row echelon form.  Returns (nonzero rows, pivot column list)."""
    rows = [list(r) for r in dense]
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][pc] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = _ONE / rows[pr][pc]
        rows[pr] = [v * inv for v in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != 0:
                f = rows[r][pc]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return rows[:pr], pivots


def from_vectors(ambient_dim, vectors) -> Space:
    """The span of the vectors, in canonical form."""
    red, _ = rref(_checked(vectors, ambient_dim), ambient_dim)
    return Space(ambient_dim, tuple(tuple(row) for row in red))


def full(ambient_dim) -> Space:
    return from_vectors(ambient_dim, [[_ONE if c == r else _ZERO for c in range(ambient_dim)]
                                      for r in range(ambient_dim)])


def zero(ambient_dim) -> Space:
    return Space(ambient_dim, ())


def canonicalized(space: Space) -> Space:
    return from_vectors(space.ambient_dim, space.basis)


def contains(space: Space, vector) -> bool:
    """Membership for a space in canonical form."""
    (v,) = _checked([vector], space.ambient_dim)
    for row in space.basis:
        pivot = next(j for j, x in enumerate(row) if x != 0)
        if v[pivot] != 0:
            f = v[pivot]
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def rank(dense, cols) -> int:
    _, pivots = rref(_checked(dense, cols), cols)
    return len(pivots)


def kernel(dense, cols) -> Space:
    """Solution space of m.v = 0 for the matrix m with these rows, in Q^cols."""
    red, pivots = rref(_checked(dense, cols), cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [_ZERO] * cols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return from_vectors(cols, basis)


def cokernel_basis(dense, cols) -> Space:
    """Canonical complement of the column space inside Q^rows.

    The complement is spanned by the coordinate vectors at the non-pivot
    coordinates of the column space, so it depends only on the column space.
    """
    rows = _checked(dense, cols)
    transposed = [[rows[r][c] for r in range(len(rows))] for c in range(cols)]
    _, pivots = rref(transposed, len(rows))
    pivot_set = set(pivots)
    basis = []
    for j in range(len(rows)):
        if j in pivot_set:
            continue
        v = [_ZERO] * len(rows)
        v[j] = _ONE
        basis.append(v)
    return from_vectors(len(rows), basis)
