"""Exact sparse linear algebra over the rationals.

Kernels, column-space complements and ranks for small matrices with Fraction
entries.  Subspaces are stored in reduced row echelon form, which is unique
per subspace, so equality of computed spaces is literal data comparison.
Blocks of at most one row and one column, the blocks of a ladder, are
answered directly; larger blocks go through RREF.  There is no
floating-point mode.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_rational(value) -> Fraction:
    """Coerce ints and "num/den" strings to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class SparseMatrix:
    """A rows x cols matrix over Q.  Zero entries are never stored.

    Instances are treated as immutable; all arithmetic returns new matrices.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows, cols, entries=None):
        rows = int(rows)
        cols = int(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        self.rows = rows
        self.cols = cols
        stored = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r}, {c}) outside a {rows}x{cols} matrix")
            v = as_rational(v)
            if v != 0:
                stored[(int(r), int(c))] = v
        self._entries = stored

    @classmethod
    def _of(cls, rows, cols, entries):
        """A matrix from nonzero Fraction entries already inside its shape."""
        m = object.__new__(cls)
        m.rows, m.cols, m._entries = rows, cols, entries
        return m

    @classmethod
    def from_rows(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                v = as_rational(v)
                if v != 0:
                    entries[(r, c)] = v
        return cls._of(rows, cols, entries)

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): _ONE for i in range(n)})

    @classmethod
    def scalar(cls, n, value):
        value = as_rational(value)
        return cls(n, n, {(i, i): value for i in range(n)})

    def entry(self, r, c) -> Fraction:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        return self._entries.get((r, c), _ZERO)

    def items(self):
        """Nonzero entries as ((row, col), value) in row-major order."""
        return sorted(self._entries.items())

    def to_rows(self):
        dense = [[_ZERO] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._entries.items():
            dense[r][c] = v
        return dense

    def transpose(self):
        return SparseMatrix._of(self.cols, self.rows,
                                {(c, r): v for (r, c), v in self._entries.items()})

    def is_zero(self):
        return not self._entries

    def apply(self, vector):
        """Matrix-vector product; vector has length cols."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        out = [_ZERO] * self.rows
        for (r, c), v in self._entries.items():
            out[r] += v * as_rational(vector[c])
        return out

    def scaled(self, a):
        a = as_rational(a)
        return SparseMatrix._of(self.rows, self.cols,
                                {rc: a * v for rc, v in self._entries.items()} if a else {})

    def __neg__(self):
        return SparseMatrix._of(self.rows, self.cols,
                                {rc: -v for rc, v in self._entries.items()})

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        entries = dict(self._entries)
        for rc, v in other._entries.items():
            entries[rc] = entries[rc] + v if rc in entries else v
        return SparseMatrix._of(self.rows, self.cols,
                                {rc: v for rc, v in entries.items() if v})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        by_row = {}
        for (r, c), v in other._entries.items():
            by_row.setdefault(r, []).append((c, v))
        entries = {}
        for (r, k), a in self._entries.items():
            for c, b in by_row.get(k, ()):
                rc, v = (r, c), a * b
                entries[rc] = entries[rc] + v if rc in entries else v
        return SparseMatrix._of(self.rows, other.cols,
                                {rc: v for rc, v in entries.items() if v})

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._entries == other._entries

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self._entries)} nonzero)"


def _rref(dense, cols):
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


class Subspace:
    """A subspace of Q^ambient_dim, stored by its canonical RREF basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = int(ambient_dim)
        self.basis = tuple(tuple(as_rational(v) for v in row) for row in basis)
        for row in self.basis:
            if len(row) != self.ambient_dim:
                raise ValueError("basis vector length mismatch")

    @classmethod
    def from_vectors(cls, ambient_dim, vectors):
        vecs = [[as_rational(v) for v in vec] for vec in vectors]
        for vec in vecs:
            if len(vec) != ambient_dim:
                raise ValueError("vector length mismatch")
        red, _ = _rref(vecs, ambient_dim)
        return cls(ambient_dim, red)

    @classmethod
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim):
        return cls(ambient_dim, SparseMatrix.identity(ambient_dim).to_rows())

    @property
    def dim(self):
        return len(self.basis)

    def canonicalized(self):
        return Subspace.from_vectors(self.ambient_dim, self.basis)

    def contains(self, vector):
        v = [as_rational(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        for row in self.basis:
            pivot = next(j for j, x in enumerate(row) if x != 0)
            if v[pivot] != 0:
                f = v[pivot]
                v = [a - f * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _line_block(m: SparseMatrix) -> bool:
    """True for blocks of at most one row and one column (0x1, 1x0, 1x1 and
    0x0), which need no RREF: such a block is either zero or of full rank."""
    return m.rows <= 1 and m.cols <= 1


def _line_space(dim, full) -> Subspace:
    """The zero space or the full line of Q^dim (dim <= 1), in canonical form."""
    return Subspace(dim, ((_ONE,),) if full and dim else ())


def rank(m: SparseMatrix) -> int:
    if _line_block(m):
        return 0 if m.is_zero() else 1
    return _rank_rref(m)


def kernel(m: SparseMatrix) -> Subspace:
    """Solution space of m.v = 0, as a canonical Subspace of Q^cols."""
    if _line_block(m):
        return _line_space(m.cols, m.is_zero())
    return _kernel_rref(m)


def cokernel_basis(m: SparseMatrix) -> Subspace:
    """Canonical complement of the column space inside Q^rows.

    The complement is spanned by the coordinate vectors at the non-pivot
    coordinates of the column space, so it depends only on the column space.
    """
    if _line_block(m):
        return _line_space(m.rows, m.is_zero())
    return _cokernel_rref(m)


def _rank_rref(m: SparseMatrix) -> int:
    _, pivots = _rref(m.to_rows(), m.cols)
    return len(pivots)


def _kernel_rref(m: SparseMatrix) -> Subspace:
    red, pivots = _rref(m.to_rows(), m.cols)
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
    return Subspace.from_vectors(m.cols, basis)


def _cokernel_rref(m: SparseMatrix) -> Subspace:
    _, pivots = _rref(m.transpose().to_rows(), m.rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.rows):
        if j in pivot_set:
            continue
        v = [_ZERO] * m.rows
        v[j] = _ONE
        basis.append(v)
    return Subspace.from_vectors(m.rows, basis)
