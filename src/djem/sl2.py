"""Weight-graded sl2-modules with exact rational raising and lowering actions.

Conventions.  X = [[0,1],[0,0]] raises the weight by 2, Y = [[0,0],[1,0]]
lowers it by 2, and H = diag(1,-1) acts on the mu weight space by the scalar
mu; H is never stored, the grading is the H-action.  A module is a ladder
on a finite window: one-dimensional weight spaces, and closed-form integer
coefficient polynomials in the ladder index i = 0, 1, ... for X and Y.
Nothing else is stored: X maps the line at weight mu to the line at mu+2 by
the X polynomial at that index, and Y maps it to mu-2 by the Y polynomial.
Each window edge is either exact (the module genuinely stops there) or a
truncation cut (the module continues outside the window), where the
coefficient pointing past the cut is unknown.  The polynomials also let
downstream cohomology certify that nothing lives past the window.
"""

from __future__ import annotations

from math import isqrt

from djem.errors import TruncationError, ValidationError, require_int

TRUNCATION_MARGIN = 16


def default_truncation(lam) -> int:
    """Window size abs(lam) + margin; covers every coefficient root in scope."""
    return abs(require_int(lam, "lam")) + TRUNCATION_MARGIN


class IndexPoly:
    """Nonzero integer polynomial of degree at most 2 in the ladder index i,
    the only kind of coefficient a ladder that passes the bracket check has;
    any other is refused with ValidationError when it is made."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [require_int(c, "coefficient") for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if not 0 < len(coeffs) <= 3:
            raise ValidationError(f"a ladder coefficient must be a nonzero polynomial of degree "
                                  f"at most 2, got the coefficients {coeffs}")
        self.coeffs = tuple(coeffs)

    @classmethod
    def _of(cls, coeffs: tuple):
        """The polynomial with these coefficients, already one to three ints
        with a nonzero last entry, taken as they are."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

    def __call__(self, i):
        c = self.coeffs
        n = len(c)
        if n == 3:
            return c[0] + (c[1] + c[2] * i) * i
        if n == 1:
            return c[0]
        return c[0] + c[1] * i

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def shifted(self, s):
        """Coefficients of p(i + s)."""
        c = self.coeffs
        n = len(c)
        # The leading coefficient is kept, so the closed forms stay normalized.
        if n == 3:
            c0, c1, c2 = c
            return IndexPoly._of((c0 + (c1 + c2 * s) * s, c1 + 2 * c2 * s, c2))
        if n == 2:
            return IndexPoly._of((c[0] + c[1] * s, c[1]))
        return self

    def __neg__(self):
        return IndexPoly._of(tuple([-c for c in self.coeffs]))

    def integer_roots(self):
        n = len(self.coeffs)
        if n == 1:
            return ()
        if n == 2:
            c0, c1 = self.coeffs
            q, r = divmod(-c0, c1)
            return (q,) if r == 0 else ()
        c0, c1, c2 = self.coeffs
        disc = c1 * c1 - 4 * c2 * c0
        if disc < 0:
            return ()
        s = isqrt(disc)
        if s * s != disc:
            return ()
        roots = set()
        for num in (-c1 + s, -c1 - s):
            q, r = divmod(num, 2 * c2)
            if r == 0:
                roots.add(q)
        return tuple(sorted(roots))

    def text(self):
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            mono = "" if d == 0 else ("i" if d == 1 else f"i^{d}")
            mag = abs(c)
            body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else f"{mag}")
            sign = "-" if c < 0 else ("+" if parts else "")
            parts.append(sign + body)
        return "".join(parts)

    def __eq__(self, other):
        return isinstance(other, IndexPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return f"IndexPoly({self.text()})"


class WeightModule:
    """Immutable weight-graded module over sl2 on a finite even-weight window,
    with a one-dimensional space at each weight.

    The module is its ladder and its window: e_i (ê_i when hatted, the
    n-finite dual of the family's module) spans the weight
    lowest_label_weight + step*i for i = 0 .. length-1, X e_i =
    coeff_x(i) e_{i + 2//step} and Y e_i = coeff_y(i) e_{i - 2//step}.
    Whether it is finite, and where it is cut, follow from the two edge kinds.
    """

    __slots__ = ("family", "step", "coeff_x", "coeff_y", "lowest_label_weight", "length",
                 "bottom_exact", "top_exact", "hatted", "min_weight", "max_weight")

    def __init__(self, family, step, coeff_x, coeff_y, lowest_label_weight, length,
                 bottom_exact, top_exact, hatted=False):
        if type(step) is not int or step not in (2, -2) or not (
                isinstance(coeff_x, IndexPoly) and isinstance(coeff_y, IndexPoly)):
            raise ValidationError("a weight module needs a step of 2 or -2 and IndexPoly "
                                  "coefficients")
        length = require_int(length, "length")
        if length < 1:
            raise ValidationError(f"a weight module needs at least one weight, got {length}")
        self.family = str(family)
        self.step = step
        self.coeff_x = coeff_x
        self.coeff_y = coeff_y
        self.lowest_label_weight = require_int(lowest_label_weight, "lowest_label_weight",
                                               even=True)
        self.length = length
        self.bottom_exact = bool(bottom_exact)
        self.top_exact = bool(top_exact)
        self.hatted = bool(hatted)
        self.min_weight = self.lowest_label_weight + min(0, step * (length - 1))
        self.max_weight = self.min_weight + 2 * (length - 1)

    # -- window geometry ---------------------------------------------------

    @property
    def is_finite(self):
        return self.bottom_exact and self.top_exact

    @property
    def truncation(self):
        """The last ladder index kept, length - 1, on a cut window; None when
        the module is finite."""
        return None if self.is_finite else self.length - 1

    @property
    def weights(self):
        """The window weights, lowest first, as a range."""
        return range(self.min_weight, self.max_weight + 2, 2)

    def dim_at(self, mu):
        return int(self.min_weight <= mu <= self.max_weight and mu % 2 == 0)

    def index_of_weight(self, mu):
        q, r = divmod(mu - self.lowest_label_weight, self.step)
        if r != 0 or q < 0 or q >= self.length:
            raise ValidationError(f"weight {mu} is not on the ladder")
        return q

    def line_coefficient(self, op, src):
        """The coefficient of op ("x" or "y") from the line at the even weight
        src to the line at src + 2 (X) or src - 2 (Y): the ladder polynomial
        at src's index when both lines are in the window; otherwise 0 when the
        line outside the window lies past an exact edge (nothing is there),
        and None when it lies past a truncation cut (the window cannot tell)."""
        dst = src + 2 if op == "x" else src - 2
        lo, hi = self.min_weight, self.max_weight
        if lo <= src <= hi and lo <= dst <= hi:
            poly = self.coeff_x if op == "x" else self.coeff_y
            return poly((src - self.lowest_label_weight) // self.step)
        exact = self.top_exact if max(src, dst) > hi else self.bottom_exact
        return 0 if exact else None

    def labels_at(self, mu):
        """The basis label of the mu weight space: (e_i,), or (ê_i,) when hatted."""
        return (f"{'ê' if self.hatted else 'e'}_{self.index_of_weight(mu)}",)

    def __repr__(self):
        family = f"n-finite-dual({self.family})" if self.hatted else self.family
        return (f"WeightModule({family}, weights [{self.min_weight}, {self.max_weight}], "
                f"dim {self.length})")


# -- constructors -----------------------------------------------------------

# The constant coefficient 1, shared by the ladders that use it.  The other
# family coefficients are int triples ending in -1, so IndexPoly._of takes them.
_ONE = IndexPoly((1,))


def _lowest_weight_and_truncation(lam, trunc):
    lam = require_int(lam, "lam", even=True)
    return lam, default_truncation(lam) if trunc is None else require_int(trunc, "trunc", minimum=0)


def verma(lam, trunc=None) -> WeightModule:
    """Ladder generated by a Y-killed vector of weight lam.

    Basis e_0..e_trunc, weight(e_i) = lam + 2i, X e_i = e_{i+1} and
    Y e_i = -i(lam + i - 1) e_{i-1}.  The Y coefficient is pinned by
    [X, Y] = H together with Y e_0 = 0; at lam = -k it reads i(k - (i-1)).
    The window is exact below and cut above.
    """
    lam, trunc = _lowest_weight_and_truncation(lam, trunc)
    return WeightModule("verma", 2, _ONE, IndexPoly._of((0, 1 - lam, -1)), lam, trunc + 1,
                        bottom_exact=True, top_exact=False)


def dual_verma(lam, trunc=None) -> WeightModule:
    """Co-induced ladder: Y e_i = e_{i-1} and X e_i = -(i+1)(lam+i) e_{i+1}.

    The X coefficient is the one forced by [X, Y] = H given Y e_i = e_{i-1};
    at lam = -k it reads (i+1)(k-i), vanishing at i = k, so the span of
    e_0..e_k is the finite-dimensional submodule.
    """
    lam, trunc = _lowest_weight_and_truncation(lam, trunc)
    return WeightModule("dual-verma", 2, IndexPoly._of((-lam, -(lam + 1), -1)), _ONE, lam,
                        trunc + 1, bottom_exact=True, top_exact=False)


def simple(minus_k) -> WeightModule:
    """The (k+1)-dimensional simple module with weights -k, -k+2, ..., k.

    Quotient of verma(-k) by the span of e_{k+1}, e_{k+2}, ...; well defined
    because the Y coefficient -i(-k+i-1) vanishes at i = k+1.
    """
    minus_k = require_int(minus_k, "minus_k", even=True)
    if minus_k > 0:
        raise ValidationError(
            f"simple() expects a non-positive lowest weight, got {minus_k}")
    k = -minus_k
    return WeightModule("simple", 2, _ONE, IndexPoly._of((0, k + 1, -1)), -k, k + 1,
                        bottom_exact=True, top_exact=True)


def n_finite_dual(m: WeightModule) -> WeightModule:
    """Restricted dual with the sign-involution action (tau.f)(v) = f(-tau v).

    The dual basis vector ê_i of e_i sits at the negated weight, and each
    operator coefficient is the negated coefficient it pairs with:
    X: V_mu -> V_{mu+2} dualizes to X: (V_{mu+2})^ -> (V_mu)^.  On the ladder
    that negates each coefficient polynomial and moves it one index along, so
    the dual is again a ladder, of the opposite step.  Applied twice this
    returns the original module exactly.
    """
    sigma = 2 // m.step
    return WeightModule(m.family, -m.step, -m.coeff_x.shifted(-sigma), -m.coeff_y.shifted(sigma),
                        -m.lowest_label_weight, m.length, bottom_exact=m.top_exact,
                        top_exact=m.bottom_exact, hatted=not m.hatted)


def check_bracket_relations(m: WeightModule) -> bool:
    """True iff X.Y - Y.X acts by the scalar mu on every weight space of the
    module the ladder defines, at every ladder index, not only in the window.

    With s = 2 // step the bracket on e_i reads B(i) = weight(i), where
    B(i) = cx(i - s) cy(i) - cy(i + s) cx(i) and weight(i) = w0 + step*i.
    cx and cy are nonzero, of degrees p and q (IndexPoly holds nothing
    else), so the two products share their leading term, and the
    i^(p+q-1) coefficient of B is -s (p + q) lead(cx) lead(cy), never zero.
    So B can equal the linear weight(i) only when p + q = 2, and then
    B - weight has degree at most 1, decided by its values at i = 0 and 1.
    At an exact edge the line past it is missing, so the product through it
    must vanish on its own: cx(lo - s) cy(lo) at the bottom and
    cy(hi + s) cx(hi) at the top, lo and hi the indices of min_weight and
    max_weight.  A cut edge asks nothing more: the module goes on past it.
    """
    cx, cy, step = m.coeff_x, m.coeff_y, m.step
    # Degrees p + q = 2: p + 1 and q + 1 coefficients.
    if len(cx.coeffs) + len(cy.coeffs) != 4:
        return False
    s = 2 // step
    w0 = m.lowest_label_weight
    if (cx(-s) * cy(0) - cy(s) * cx(0) != w0
            or cx(1 - s) * cy(1) - cy(1 + s) * cx(1) != w0 + step):
        return False
    lo, hi = (0, m.length - 1) if step > 0 else (m.length - 1, 0)
    if m.bottom_exact and cx(lo - s) * cy(lo) != 0:
        return False
    if m.top_exact and cy(hi + s) * cx(hi) != 0:
        return False
    return True


class ModuleMap:
    """The ladder shift source -> target sending e_j to e_{j+offset}, and to 0
    where the target has no such vector.  The shift must preserve weights."""

    __slots__ = ("source", "target", "offset")

    def __init__(self, source, target, offset):
        offset = require_int(offset, "offset")
        step = source.step
        if (target.step != step
                or source.lowest_label_weight != target.lowest_label_weight + step * offset):
            raise ValidationError(f"shifting {source!r} by {offset} into {target!r} "
                                  f"does not preserve weights")
        self.source = source
        self.target = target
        self.offset = offset

    def is_equivariant(self) -> bool:
        """Exact commutation with X and Y wherever the window makes both sides knowable.

        Where source and target both hold a weight and its neighbour, X (or
        Y) commutes with the map iff coeff_t(j + offset) = coeff_s(j), an
        identity in j of degree at most d, the largest degree among the four
        polynomials; the lowest d + 2 weights of the shared window decide it
        for X and for Y.  Elsewhere a vector is missing, which happens only at
        the source ends and just outside the target.
        """
        s, t = self.source, self.target
        d = max(p.degree for p in (s.coeff_x, s.coeff_y, t.coeff_x, t.coeff_y))
        shared = range(max(s.min_weight, t.min_weight), min(s.max_weight, t.max_weight) + 1, 2)
        probes = {s.min_weight, s.max_weight, t.min_weight - 2, t.max_weight + 2, *shared[:d + 2]}
        return all(self._commutes_at(mu) for mu in probes if s.dim_at(mu))

    def _commutes_at(self, mu) -> bool:
        """X and Y commute with the map on the mu weight space of the source.
        A side whose vector is missing is zero; a source coefficient pointing
        past a truncation cut is unknowable and skipped."""
        s, t = self.source, self.target
        for op, nu in (("x", mu + 2), ("y", mu - 2)):
            rhs = s.line_coefficient(op, mu)
            if rhs is None or not t.dim_at(nu):
                continue
            lhs = t.line_coefficient(op, mu) if t.dim_at(mu) else 0
            if lhs != rhs:
                return False
        return True

    def cokernel_ranges(self):
        """The cokernel as the target weights below and above the source
        window, two ranges (either may be empty): the map is onto each target
        weight the source also has, and misses every other."""
        s, t = self.source, self.target
        below = range(t.min_weight, min(t.max_weight + 2, s.min_weight), 2)
        above = range(max(t.min_weight, s.max_weight + 2), t.max_weight + 2, 2)
        return below, above

    def cokernel_dims(self):
        """{weight: 1} at each weight of cokernel_ranges(); weights with a zero
        cokernel are not listed."""
        below, above = self.cokernel_ranges()
        return dict.fromkeys((*below, *above), 1)


def bgg_morphism(k, trunc=None) -> ModuleMap:
    """The embedding verma(k+2) -> verma(-k) sending e'_j to e_{k+1+j}.

    Its cokernel is the finite-dimensional simple module; equivariance at the
    seam uses that the Y coefficient on verma(-k) vanishes at index k+1.
    """
    k = require_int(k, "k", minimum=0, even=True)
    trunc = default_truncation(k) if trunc is None else require_int(trunc, "trunc", minimum=0)
    if trunc < k + 2:
        raise TruncationError(
            f"truncation {trunc} too small for the embedding; need at least {k + 2}")
    return ModuleMap(verma(k + 2, trunc - (k + 1)), verma(-k, trunc), k + 1)
