"""Cohomology of the one-dimensional nilpotent radicals on weight modules.

For a one-dimensional Lie algebra spanned by a single operator, degree 0 is
the kernel of that operator and degree 1 is its cokernel tensored by the dual
line; every higher degree is structurally zero.  Direction "n" uses X and
twists degree 1 by weight -2 (the dual line of the weight +2 radical);
direction "nbar" uses Y and twists by +2.

Truncated windows are discharged by a stabilization certificate: the closed
form ladder coefficient together with its integer roots proves that neither
kernel nor cokernel receives contributions past the certified bound, so the
window answer is the exact answer.  Every ladder coefficient is a nonzero
polynomial of degree at most 2, so every module has a certificate; a window
cut below the certificate bound is refused by default, and callers may opt
into a window-only answer that is flagged as non-certified.
"""

from __future__ import annotations

from djem.errors import CertificateError, ValidationError, require_int
from djem.sl2 import WeightModule, check_bracket_relations, n_finite_dual, simple
from djem.value import Value

# direction -> (operator, weight shift of the operator); degree 1 is reported
# shifted by minus the operator's shift
DIRECTIONS = {"n": ("x", 2), "nbar": ("y", -2)}


# On a ladder every weight space is a line, so the operator between two
# weight spaces is a single coefficient: its kernel and its cokernel are the
# full line when the coefficient is zero and nothing otherwise.
def kernel(coefficient) -> int:
    """Dimension of the kernel of the line map with this coefficient: 1 or 0."""
    return int(coefficient == 0)


def cokernel_basis(coefficient) -> int:
    """Dimension of the cokernel of the line map with this coefficient: 1 or 0."""
    return int(coefficient == 0)


class StabilizationCertificate(Value):
    """Proof object: the ladder coefficient is nonzero at every index > bound.

    For finite modules there is nothing to certify and the certificate is
    empty (finite=True).  For truncated ladders, every integer root of the
    coefficient polynomial is < bound, so kernel and cokernel contributions
    can only occur at ladder indices < bound <= truncation.
    """

    __slots__ = ("operator", "coefficient", "roots", "bound", "finite")


class WeightLines(Value):
    """A computed line at one weight, named by its basis label."""

    __slots__ = ("weight", "labels")

    @property
    def dim(self):
        return len(self.labels)


class CohomologyResult(Value):
    __slots__ = ("direction", "h0", "h1", "weight_shift_applied", "certificate", "certified")


def stabilization_certificate(m: WeightModule, direction: str) -> StabilizationCertificate:
    """Certificate for the operator of the given direction on a ladder module.

    Finite modules get the empty certificate; a truncated module's
    certificate is read off its ladder polynomial for that operator, a
    nonzero polynomial of degree at most 2 whose integer roots are listed
    in closed form.
    """
    if direction not in DIRECTIONS:
        raise ValidationError(f"direction must be one of {sorted(DIRECTIONS)}, got {direction!r}")
    op = DIRECTIONS[direction][0].upper()
    if m.is_finite:
        return StabilizationCertificate(op, None, (), 0, True)
    coeff = m.coeff_x if op == "X" else m.coeff_y
    roots = coeff.integer_roots()
    bound = max(roots) + 1 if roots else 0
    return StabilizationCertificate(op, coeff, roots, max(bound, 0), False)


def _candidate_weights(m: WeightModule, certificate, shift: int):
    """Window weights, highest first, where a kernel (shift 0) or cokernel
    (shift = the operator's weight shift) line can sit: the line map is
    nonzero except where the coefficient vanishes or the operator leaves the
    window, so the two window ends and the in-window certificate roots of the
    coefficient, moved by shift.  A finite window's certificate lists no
    roots, and needs none: exact at both edges and passing the bracket check,
    a window of L weights has X.Y = i(L - i) != 0 on its interior link i
    (between the i-th and (i+1)-th weight from the bottom, 0 < i < L), so
    neither coefficient vanishes inside it."""
    lo, hi = m.min_weight, m.max_weight
    weights = {lo, hi}
    base, step, length = m.lowest_label_weight + shift, m.step, m.length
    for i in certificate.roots:
        mu = base + step * i
        if 0 <= i < length and lo <= mu <= hi:
            weights.add(mu)
    return sorted(weights, reverse=True)


def cohomology(m: WeightModule, direction: str, allow_uncertified: bool = False) -> CohomologyResult:
    """Kernel (degree 0) and twisted cokernel (degree 1) of X or Y on m.

    Certified results are exact for the untruncated module.  If the window
    is cut below the certificate bound, raises CertificateError unless
    allow_uncertified is set, in which case the window-only answer is
    returned with certified=False.
    """
    certificate = stabilization_certificate(m, direction)  # refuses an unknown direction
    if not check_bracket_relations(m):
        raise ValidationError("module fails the bracket identity [X, Y] = H")
    op, shift = DIRECTIONS[direction]
    certified = certificate.finite or m.truncation >= certificate.bound
    if not certified and not allow_uncertified:
        raise CertificateError(
            f"truncation {m.truncation} is below the certificate bound "
            f"{certificate.bound}; increase truncation")

    # Past a certified cut the coefficient is nonzero, so the true module has
    # no line there (None: skipped); a window-only answer reads the cut as an
    # edge (0).  H^0 is the kernel at each weight; H^1 at nu is the cokernel
    # of the map into nu, reported at nu minus the operator's shift.
    past_cut = None if certified else 0
    degrees = []
    for s, present in ((0, kernel), (shift, cokernel_basis)):
        lines = []
        for nu in _candidate_weights(m, certificate, s):
            c = m.line_coefficient(op, nu - s)
            if c is None:
                c = past_cut
            if c is not None and present(c):
                lines.append(WeightLines(nu - s, m.labels_at(nu)))
        degrees.append(tuple(lines))
    h0, h1 = degrees
    return CohomologyResult(direction, h0, h1, -shift, certificate, certified)


def kostant_check(k) -> bool:
    """Nilpotent-radical cohomology of the dual of the simple module: one line
    per Weyl-group element, at weights k and -(k+2)."""
    k = require_int(k, "k", minimum=0, even=True)
    res = cohomology(n_finite_dual(simple(-k)), "n")
    lines = lambda group: [(line.weight, line.dim) for line in group]
    return lines(res.h0) == [(k, 1)] and lines(res.h1) == [(-(k + 2), 1)]
