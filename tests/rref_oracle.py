"""Reference linear algebra over Q by reduced row echelon form.

djem's `linalg` answers only the blocks of a ladder (at most one row and one
column).  This module answers every shape, so tests can check djem's
answers against it and exercise matrices djem itself never builds.  Spaces
come back as `djem.linalg.Subspace` in canonical RREF form, which is unique
per subspace, so equal spaces compare equal as data.
"""

from fractions import Fraction

from djem.linalg import SparseMatrix, Subspace, as_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _dense(m: SparseMatrix):
    rows = [[_ZERO] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.items():
        rows[r][c] = v
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


def from_vectors(ambient_dim, vectors) -> Subspace:
    """The span of the vectors, in canonical form."""
    vecs = [[as_rational(v) for v in vec] for vec in vectors]
    for vec in vecs:
        if len(vec) != ambient_dim:
            raise ValueError("vector length mismatch")
    red, _ = rref(vecs, ambient_dim)
    return Subspace(ambient_dim, red)


def full(ambient_dim) -> Subspace:
    return Subspace(ambient_dim, [[_ONE if c == r else _ZERO for c in range(ambient_dim)]
                                  for r in range(ambient_dim)])


def canonicalized(space: Subspace) -> Subspace:
    return from_vectors(space.ambient_dim, space.basis)


def contains(space: Subspace, vector) -> bool:
    """Membership for a space in canonical form."""
    v = [as_rational(x) for x in vector]
    if len(v) != space.ambient_dim:
        raise ValueError("vector length mismatch")
    for row in space.basis:
        pivot = next(j for j, x in enumerate(row) if x != 0)
        if v[pivot] != 0:
            f = v[pivot]
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def rank(m: SparseMatrix) -> int:
    _, pivots = rref(_dense(m), m.cols)
    return len(pivots)


def kernel(m: SparseMatrix) -> Subspace:
    """Solution space of m.v = 0, as a canonical Subspace of Q^cols."""
    red, pivots = rref(_dense(m), m.cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return from_vectors(m.cols, basis)


def cokernel_basis(m: SparseMatrix) -> Subspace:
    """Canonical complement of the column space inside Q^rows.

    The complement is spanned by the coordinate vectors at the non-pivot
    coordinates of the column space, so it depends only on the column space.
    """
    dense = _dense(m)
    transposed = [[dense[r][c] for r in range(m.rows)] for c in range(m.cols)]
    _, pivots = rref(transposed, m.rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.rows):
        if j in pivot_set:
            continue
        v = [_ZERO] * m.rows
        v[j] = _ONE
        basis.append(v)
    return from_vectors(m.rows, basis)
