"""Exact sparse linear algebra over the rationals.

Sparse matrices with Fraction entries, and kernels and column-space
complements of the blocks a ladder has: at most one row and one column.
Such a block is either zero or of full rank, so every answer is the zero
space or the full line, in canonical form; a larger block raises ValueError.
There is no floating-point mode.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

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

    Instances are treated as immutable.
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
    def zero(cls, rows, cols):
        return cls(rows, cols)

    def items(self):
        """Nonzero entries as ((row, col), value) in row-major order."""
        return sorted(self._entries.items())

    def is_zero(self):
        return not self._entries

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._entries == other._entries

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self._entries)} nonzero)"


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
    def zero(cls, ambient_dim):
        return cls(ambient_dim, ())

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    __hash__ = None

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def _require_line(m: SparseMatrix):
    if m.rows > 1 or m.cols > 1:
        raise ValueError(f"only blocks of at most one row and one column are supported, "
                         f"got {m.rows}x{m.cols}")


def _line_space(dim, full) -> Subspace:
    """The zero space or the full line of Q^dim (dim <= 1), in canonical form."""
    return Subspace(dim, ((_ONE,),) if full and dim else ())


def kernel(m: SparseMatrix) -> Subspace:
    """Solution space of m.v = 0, as a canonical Subspace of Q^cols."""
    _require_line(m)
    return _line_space(m.cols, m.is_zero())


def cokernel_basis(m: SparseMatrix) -> Subspace:
    """Canonical complement of the column space inside Q^rows."""
    _require_line(m)
    return _line_space(m.rows, m.is_zero())
