"""Cohomology of the one-dimensional nilpotent radicals on weight modules.

For a one-dimensional Lie algebra spanned by a single operator, degree 0 is
the kernel of that operator and degree 1 is its cokernel tensored by the dual
line; every higher degree is structurally zero.  Direction "n" uses X and
twists degree 1 by weight -2 (the dual line of the weight +2 radical);
direction "nbar" uses Y and twists by +2.

Truncated windows are discharged by a stabilization certificate: the closed
form ladder coefficient together with its integer roots proves that neither
kernel nor cokernel receives contributions past the certified bound, so the
window answer is the exact answer.  Without a certificate the computation
refuses by default; callers may opt into a window-only answer that is flagged
as non-certified.
"""

from __future__ import annotations

from djem.errors import CertificateError, UnsupportedFamilyError, ValidationError
from djem.linalg import cokernel_basis, kernel
from djem.sl2 import IndexPoly, WeightModule, check_bracket_relations, n_finite_dual, simple
from djem.value import Value

# direction -> (operator, weight shift of the operator, degree-1 report shift)
_DIRECTIONS = {"n": ("x", 2, -2), "nbar": ("y", -2, 2)}


class StabilizationCertificate(Value):
    """Proof object: the ladder coefficient is nonzero at every index > bound.

    For finite modules there is nothing to certify and the certificate is
    empty (finite=True).  For truncated ladders, every integer root of the
    coefficient polynomial is < bound, so kernel and cokernel contributions
    can only occur at ladder indices < bound <= truncation.
    """

    __slots__ = ("operator", "coefficient", "roots", "bound", "finite")

    def __init__(self, operator: str, coefficient: IndexPoly | None, roots: tuple[int, ...],
                 bound: int, finite: bool):
        self.operator = operator
        self.coefficient = coefficient
        self.roots = roots
        self.bound = bound
        self.finite = finite


class WeightLines(Value):
    """A computed line at one weight, named by its basis label."""

    __slots__ = ("weight", "labels")

    def __init__(self, weight: int, labels: tuple[str, ...]):
        self.weight = weight
        self.labels = labels

    @property
    def dim(self):
        return len(self.labels)


class CohomologyResult(Value):
    __slots__ = ("direction", "h0", "h1", "weight_shift_applied", "certificate", "certified")

    def __init__(self, direction: str, h0: tuple[WeightLines, ...], h1: tuple[WeightLines, ...],
                 weight_shift_applied: int, certificate: StabilizationCertificate | None,
                 certified: bool = True):
        self.direction = direction
        self.h0 = h0
        self.h1 = h1
        self.weight_shift_applied = weight_shift_applied
        self.certificate = certificate
        self.certified = certified

    def h0_dims(self):
        return {line.weight: line.dim for line in self.h0}

    def h1_dims(self):
        return {line.weight: line.dim for line in self.h1}


def stabilization_certificate(m: WeightModule, direction: str) -> StabilizationCertificate:
    """Certificate for the operator of the given direction on a ladder module.

    Finite modules get the empty certificate; a truncated module's
    certificate is read off its ladder polynomial for that operator.
    """
    if direction not in _DIRECTIONS:
        raise ValidationError(f"direction must be one of {sorted(_DIRECTIONS)}, got {direction!r}")
    op, _, _ = _DIRECTIONS[direction]
    if m.is_finite:
        return StabilizationCertificate(op.upper(), None, (), 0, True)
    coeff = m.ladder.coeff_x if op == "x" else m.ladder.coeff_y
    if coeff.is_zero():
        raise UnsupportedFamilyError(
            "ladder coefficient vanishes identically; a truncated window cannot be certified")
    roots = coeff.integer_roots()
    bound = max(roots) + 1 if roots else 0
    return StabilizationCertificate(op.upper(), coeff, tuple(roots), max(bound, 0), False)


def _candidate_weights(m: WeightModule, coeff: IndexPoly, shift: int):
    """Window weights, highest first, where a kernel (shift 0) or cokernel
    (shift = the operator's weight shift) line can sit: the line map is
    nonzero except where the coefficient vanishes or the operator leaves the
    window, so the two window ends and the in-window roots of the
    coefficient, moved by shift.  Every weight when the roots cannot be
    listed (an identically zero coefficient, or degree > 2)."""
    try:
        roots = coeff.integer_roots()
    except ValueError:
        return reversed(m.weights)
    moved = (m.lowest_label_weight + m.ladder.step * i + shift for i in roots if 0 <= i < m.length)
    return sorted({m.min_weight, m.max_weight, *filter(m.dim_at, moved)}, reverse=True)


def _line_map(m: WeightModule, coeff: IndexPoly, src, dst, certified):
    """The operator's coefficient from the src line to the dst line, where at
    least one of the two is in the window: read off the ladder when both are,
    0 when the other lies past an exact edge (nothing is there) or past a cut
    in an uncertified answer, and None when it lies past a certified cut: the
    coefficient at the first index past a cut is certified nonzero, so the
    true module has no line there."""
    if m.dim_at(src) and m.dim_at(dst):
        return coeff(m.index_of_weight(src))
    other = dst if m.dim_at(src) else src
    if certified and not (m.top_exact if other > m.max_weight else m.bottom_exact):
        return None
    return 0


def cohomology(m: WeightModule, direction: str, allow_uncertified: bool = False) -> CohomologyResult:
    """Kernel (degree 0) and twisted cokernel (degree 1) of X or Y on m.

    Certified results are exact for the untruncated module.  If the window
    cannot be certified, raises CertificateError / UnsupportedFamilyError
    unless allow_uncertified is set, in which case the window-only answer is
    returned with certified=False.
    """
    if direction not in _DIRECTIONS:
        raise ValidationError(f"direction must be one of {sorted(_DIRECTIONS)}, got {direction!r}")
    if not check_bracket_relations(m):
        raise ValidationError("module fails the bracket identity [X, Y] = H on its window")
    op, op_shift, report_shift = _DIRECTIONS[direction]

    certificate = None
    certified = True
    try:
        certificate = stabilization_certificate(m, direction)
    except UnsupportedFamilyError:
        if not allow_uncertified:
            raise
        certified = False
    if certificate is not None and not certificate.finite and m.truncation < certificate.bound:
        if not allow_uncertified:
            raise CertificateError(
                f"truncation {m.truncation} is below the certificate bound "
                f"{certificate.bound}; increase truncation")
        certified = False

    coeff = m.ladder.coeff_x if op == "x" else m.ladder.coeff_y
    h0 = []
    for mu in _candidate_weights(m, coeff, 0):
        c = _line_map(m, coeff, mu, mu + op_shift, certified)
        if c is not None and kernel(c):
            h0.append(WeightLines(mu, m.labels_at(mu)))

    h1 = []
    for nu in _candidate_weights(m, coeff, op_shift):
        c = _line_map(m, coeff, nu - op_shift, nu, certified)
        if c is not None and cokernel_basis(c):
            h1.append(WeightLines(nu + report_shift, m.labels_at(nu)))

    return CohomologyResult(direction, tuple(h0), tuple(h1), report_shift,
                            certificate, certified)


def kostant_check(k) -> bool:
    """Nilpotent-radical cohomology of the dual of the simple module: one line
    per Weyl-group element, at weights k and -(k+2)."""
    k = int(k)
    if k < 0 or k % 2:
        raise ValidationError(f"kostant_check expects an even k >= 0, got {k}")
    res = cohomology(n_finite_dual(simple(-k)), "n")
    return res.h0_dims() == {k: 1} and res.h1_dims() == {-(k + 2): 1}
