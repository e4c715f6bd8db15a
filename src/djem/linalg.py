"""Exact rationals, and the kernel and cokernel of a line map.

On a ladder every weight space is a line, so the operator between two
weight spaces is a single coefficient: its kernel and its cokernel are the
full line when the coefficient is zero and nothing otherwise.  There is no
floating-point mode.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def as_rational(value) -> Fraction:
    """Coerce ints and "num/den" strings to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def kernel(coefficient) -> int:
    """Dimension of the kernel of the line map with this coefficient: 1 or 0."""
    return int(coefficient == 0)


def cokernel_basis(coefficient) -> int:
    """Dimension of the cokernel of the line map with this coefficient: 1 or 0."""
    return int(coefficient == 0)
