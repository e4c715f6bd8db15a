"""Torus character bookkeeping.

A torus character is tracked as a formal product chi_weight * psi^a * (psi^w)^b
* delta_P^c over one declared smooth base character psi.  Only its value at
z = diag(p, p^{-1}) is ever evaluated, symbolically as a pair
(p-exponent, unit), without committing to a numeric prime:

  * chi_k(diag(a, a^{-1})) = a^k, so chi_k contributes exponent k;
  * delta_P(z) = 1/[N_0 : z N_0 z^{-1}] = p^{-2}, exponent -2;
  * psi contributes its declared pair, and psi^w(z) = psi(z)^{-1} because
    w z w^{-1} = z^{-1}.
"""

from __future__ import annotations

from fractions import Fraction

from djem.errors import ValidationError, require_flag, require_int, require_type
from djem.value import Value

# z N_0 z^{-1} has index p^2 in N_0.
DELTA_P_Z_EXPONENT = -2

_ONE = Fraction(1)


def is_rational_text(text: str) -> bool:
    """Whether text is NUM or NUM/DEN in ASCII digits, NUM optionally '-'-led."""
    num, slash, den = text.removeprefix("-").partition("/")
    return all(part.isascii() and part.isdigit() for part in ((num, den) if slash else (num,)))


def as_rational(value, name="value") -> Fraction:
    """value as a Fraction: a Fraction or int as it is, a str of is_rational_text's shape
    with a nonzero DEN; any other str is a ValidationError naming name, any other
    type (a bool too) a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    if is_rational_text(value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):  # a zero DEN, or past int's digit limit
            pass
    raise ValidationError(f"{name} must be an exact rational NUM or NUM/DEN with a nonzero "
                          f"DEN, got {value!r}")


class SmoothCharacter(Value):
    """A smooth character of the diagonal torus, declared by its value at z.

    The value at z = diag(p, p^{-1}) is recorded as p^z_valuation * z_unit.
    w_selfdual asserts psi^w = psi; torus_unit_label names the restriction to
    the maximal compact torus (characters agreeing at z may still differ
    there, so equality of smooth characters is never inferred from z-values
    alone).
    """

    __slots__ = ("label", "z_valuation", "z_unit", "w_selfdual", "torus_unit_label")

    def __init__(self, label: str, z_valuation: int = 0, z_unit=Fraction(1),
                 w_selfdual: bool = False, torus_unit_label: str = ""):
        self.label = require_type(label, "label", str)
        self.z_valuation = require_int(z_valuation, "z_valuation")
        self.z_unit = as_rational(z_unit, "z_unit")
        if self.z_unit == 0:
            raise ValidationError(f"smooth character {label!r} must be nonzero at z")
        self.w_selfdual = require_flag(w_selfdual, "w_selfdual")
        self.torus_unit_label = require_type(torus_unit_label, "torus_unit_label", str) or label


TRIVIAL_PSI = SmoothCharacter("trivial", 0, Fraction(1), w_selfdual=True)


class TorusCharacter(Value):
    """Formal product chi_weight * psi^psi_exp * (psi^w)^psiw_exp * delta_P^delta_exp."""

    __slots__ = ("weight", "psi_exp", "psiw_exp", "delta_exp")

    def __init__(self, weight: int, psi_exp: int = 0, psiw_exp: int = 0, delta_exp: int = 0):
        self.weight = require_int(weight, "weight", even=True)
        self.psi_exp = require_int(psi_exp, "psi_exp")
        self.psiw_exp = require_int(psiw_exp, "psiw_exp")
        self.delta_exp = require_int(delta_exp, "delta_exp")

    def z_eigenvalue(self, psi: SmoothCharacter) -> tuple[int, Fraction]:
        """Eigenvalue of z = diag(p, p^{-1}) as (p-exponent, unit)."""
        # psi^w(z) = psi(z)^{-1}, so psi and psi^w combine into one power of psi(z).
        e = self.psi_exp - self.psiw_exp
        exponent = self.weight + e * psi.z_valuation + self.delta_exp * DELTA_P_Z_EXPONENT
        if e == 1:
            return (exponent, psi.z_unit)
        return (exponent, _ONE if e == 0 else psi.z_unit ** e)

    def text(self) -> str:
        parts = [f"chi_{{{self.weight}}}"]
        if self.psi_exp:
            parts.append("psi" if self.psi_exp == 1 else f"psi^{self.psi_exp}")
        if self.psiw_exp:
            parts.append("psi^w" if self.psiw_exp == 1 else f"(psi^w)^{self.psiw_exp}")
        if self.delta_exp:
            parts.append("delta_P" if self.delta_exp == 1 else f"delta_P^{self.delta_exp}")
        return " ".join(parts)
