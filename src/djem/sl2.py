"""Weight-graded sl2-modules with exact rational raising and lowering actions.

Conventions.  X = [[0,1],[0,0]] raises the weight by 2, Y = [[0,0],[1,0]]
lowers it by 2, and H = diag(1,-1) acts on the mu weight space by the scalar
mu; H is never stored, the grading is the H-action.  A module is a ladder
on a finite window: one-dimensional weight spaces, and closed-form integer
coefficient polynomials in the ladder index i = 0, 1, ... for X and Y
(LadderInfo).  Nothing else is stored: X maps the line at weight mu to the
line at mu+2 by the X polynomial at that index, and Y maps it to mu-2 by the
Y polynomial.  Each window edge is either exact (the module genuinely stops
there) or a truncation cut (the module continues outside the window), where
the coefficient pointing past the cut is unknown.  The polynomials also let
downstream cohomology certify that nothing lives past the window.
"""

from __future__ import annotations

from math import isqrt

from djem.errors import ParityError, TruncationError, ValidationError
from djem.value import Value

TRUNCATION_MARGIN = 16


def default_truncation(lam) -> int:
    """Window size abs(lam) + margin; covers every coefficient root in scope."""
    return abs(int(lam)) + TRUNCATION_MARGIN


def _require_even(value, name) -> int:
    value = int(value)
    if value % 2:
        raise ParityError(f"{name} must be even, got {value}")
    return value


class IndexPoly:
    """Integer polynomial in the ladder index i (degree at most 2 in scope)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    def __call__(self, i):
        out = 0
        for c in reversed(self.coeffs):
            out = out * i + c
        return out

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def shifted(self, s):
        """Coefficients of p(i + s)."""
        # Horner in (i + s): repeatedly multiply by (i + s) and add.
        out = [0]
        for c in reversed(self.coeffs):
            nxt = [0] * (len(out) + 1)
            for j, a in enumerate(out):
                nxt[j + 1] += a
                nxt[j] += a * s
            nxt[0] += c
            out = nxt
        return IndexPoly(out)

    def __neg__(self):
        return IndexPoly([-c for c in self.coeffs])

    def integer_roots(self):
        if self.is_zero():
            raise ValueError("the zero polynomial has every integer as a root")
        if self.degree == 0:
            return ()
        if self.degree == 1:
            c0, c1 = self.coeffs
            q, r = divmod(-c0, c1)
            return (q,) if r == 0 else ()
        if self.degree == 2:
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
        raise ValueError("only degree <= 2 is supported")

    def text(self):
        if self.is_zero():
            return "0"
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


class LadderInfo(Value):
    """Closed-form ladder data: weight(i) = w0 + step*i, X e_i = coeff_x(i) e_{i + 2//step},
    Y e_i = coeff_y(i) e_{i - 2//step}."""

    __slots__ = ("step", "coeff_x", "coeff_y")

    def __init__(self, step: int, coeff_x: IndexPoly, coeff_y: IndexPoly):
        self.step = step
        self.coeff_x = coeff_x
        self.coeff_y = coeff_y


class WeightModule:
    """Immutable weight-graded module over sl2 on a finite even-weight window,
    with a one-dimensional space at each weight.

    The module is its ladder and its window: e_i (ê_i when hatted) spans the
    weight lowest_label_weight + step*i for i = 0 .. length-1, and X and Y
    act on it by the ladder polynomials at i.
    """

    __slots__ = ("family", "ladder", "lowest_label_weight", "length", "bottom_exact",
                 "top_exact", "truncation", "hatted", "weights")

    def __init__(self, family, ladder, lowest_label_weight, length, bottom_exact, top_exact,
                 truncation, hatted=False):
        if not isinstance(ladder, LadderInfo) or ladder.step not in (2, -2):
            raise ValidationError("a weight module needs a LadderInfo of step 2 or -2")
        length = int(length)
        if length < 1:
            raise ValidationError(f"a weight module needs at least one weight, got {length}")
        self.family = str(family)
        self.ladder = ladder
        self.lowest_label_weight = _require_even(lowest_label_weight, "lowest label weight")
        self.length = length
        self.bottom_exact = bool(bottom_exact)
        self.top_exact = bool(top_exact)
        self.truncation = None if truncation is None else int(truncation)
        self.hatted = bool(hatted)
        low = self.lowest_label_weight + min(0, ladder.step * (length - 1))
        self.weights = tuple(range(low, low + 2 * length, 2))

    # -- window geometry ---------------------------------------------------

    @property
    def is_finite(self):
        return self.truncation is None

    @property
    def min_weight(self):
        return self.weights[0]

    @property
    def max_weight(self):
        return self.weights[-1]

    def dim_at(self, mu):
        return int(self.weights[0] <= mu <= self.weights[-1] and mu % 2 == 0)

    @property
    def dims(self):
        """{weight: 1} over the window, built on each access."""
        return dict.fromkeys(self.weights, 1)

    def total_dim(self):
        return self.length

    def index_of_weight(self, mu):
        q, r = divmod(mu - self.lowest_label_weight, self.ladder.step)
        if r != 0 or q < 0 or q >= self.length:
            raise ValidationError(f"weight {mu} is not on the ladder")
        return q

    def labels_at(self, mu):
        """The basis label of the mu weight space: (e_i,), or (ê_i,) when hatted."""
        return (f"{'ê' if self.hatted else 'e'}_{self.index_of_weight(mu)}",)

    @property
    def basis_labels(self):
        """{weight: labels_at(weight)} over the window, built on each access."""
        return {mu: self.labels_at(mu) for mu in self.weights}

    def __repr__(self):
        return (f"WeightModule({self.family}, weights [{self.min_weight}, {self.max_weight}], "
                f"dim {self.length})")


# -- constructors -----------------------------------------------------------


def _lowest_weight_and_truncation(lam, trunc):
    lam = _require_even(lam, "lowest weight")
    trunc = int(default_truncation(lam) if trunc is None else trunc)
    if trunc < 0:
        raise ValidationError("truncation must be non-negative")
    return lam, trunc


def verma(lam, trunc=None) -> WeightModule:
    """Ladder generated by a Y-killed vector of weight lam.

    Basis e_0..e_trunc, weight(e_i) = lam + 2i, X e_i = e_{i+1} and
    Y e_i = -i(lam + i - 1) e_{i-1}.  The Y coefficient is pinned by
    [X, Y] = H together with Y e_0 = 0; at lam = -k it reads i(k - (i-1)).
    The window is exact below and cut above.
    """
    lam, trunc = _lowest_weight_and_truncation(lam, trunc)
    ladder = LadderInfo(step=2, coeff_x=IndexPoly((1,)), coeff_y=IndexPoly((0, 1 - lam, -1)))
    return WeightModule("verma", ladder, lam, trunc + 1, bottom_exact=True, top_exact=False,
                        truncation=trunc)


def dual_verma(lam, trunc=None) -> WeightModule:
    """Co-induced ladder: Y e_i = e_{i-1} and X e_i = -(i+1)(lam+i) e_{i+1}.

    The X coefficient is the one forced by [X, Y] = H given Y e_i = e_{i-1};
    at lam = -k it reads (i+1)(k-i), vanishing at i = k, so the span of
    e_0..e_k is the finite-dimensional submodule.
    """
    lam, trunc = _lowest_weight_and_truncation(lam, trunc)
    ladder = LadderInfo(step=2, coeff_x=IndexPoly((-lam, -(lam + 1), -1)),
                        coeff_y=IndexPoly((1,)))
    return WeightModule("dual-verma", ladder, lam, trunc + 1, bottom_exact=True,
                        top_exact=False, truncation=trunc)


def simple(minus_k) -> WeightModule:
    """The (k+1)-dimensional simple module with weights -k, -k+2, ..., k.

    Quotient of verma(-k) by the span of e_{k+1}, e_{k+2}, ...; well defined
    because the Y coefficient -i(-k+i-1) vanishes at i = k+1.
    """
    minus_k = _require_even(minus_k, "lowest weight")
    if minus_k > 0:
        raise ValidationError(
            f"simple() expects a non-positive lowest weight, got {minus_k}")
    k = -minus_k
    ladder = LadderInfo(step=2, coeff_x=IndexPoly((1,)), coeff_y=IndexPoly((0, k + 1, -1)))
    return WeightModule("simple", ladder, -k, k + 1, bottom_exact=True, top_exact=True,
                        truncation=None)


def n_finite_dual(m: WeightModule) -> WeightModule:
    """Restricted dual with the sign-involution action (tau.f)(v) = f(-tau v).

    The dual basis vector ê_i of e_i sits at the negated weight, and each
    operator coefficient is the negated coefficient it pairs with:
    X: V_mu -> V_{mu+2} dualizes to X: (V_{mu+2})^ -> (V_mu)^.  On the ladder
    that negates each coefficient polynomial and moves it one index along, so
    the dual is again a ladder, of the opposite step.  Applied twice this
    returns the original module exactly.
    """
    if m.family.startswith("n-finite-dual(") and m.family.endswith(")"):
        family_d = m.family[len("n-finite-dual("):-1]
    else:
        family_d = f"n-finite-dual({m.family})"
    sigma = 2 // m.ladder.step
    ladder_d = LadderInfo(step=-m.ladder.step,
                          coeff_x=-(m.ladder.coeff_x.shifted(-sigma)),
                          coeff_y=-(m.ladder.coeff_y.shifted(sigma)))
    return WeightModule(family_d, ladder_d, -m.lowest_label_weight, m.length,
                        bottom_exact=m.top_exact, top_exact=m.bottom_exact,
                        truncation=m.truncation, hatted=not m.hatted)


def check_bracket_relations(m: WeightModule) -> bool:
    """True iff X.Y - Y.X acts by the scalar mu on every weight space where
    all four coefficients are knowable from the window.

    On a weight with both neighbours in the window the bracket reads
    cx(i - s) cy(i) - cy(i + s) cx(i) = weight(i), with s = 2 // step: a
    polynomial identity in i of degree at most d = max(deg cx + deg cy, 1).
    A nonzero polynomial of degree <= d has at most d roots, so the lowest
    d + 2 weights (d + 1 of them interior) and the top weight decide it.
    """
    d = max(m.ladder.coeff_x.degree + m.ladder.coeff_y.degree, 1)
    return all(_bracket_holds_at(m, mu) for mu in (*m.weights[:d + 2], m.max_weight))


def _bracket_holds_at(m: WeightModule, mu) -> bool:
    """The bracket on the mu weight space, read off the ladder coefficients,
    or True when a coefficient it needs points past a truncation cut.  A term
    whose operator leaves the window past an exact edge is zero."""
    below, above = mu - 2 >= m.min_weight, mu + 2 <= m.max_weight
    if (not above and not m.top_exact) or (not below and not m.bottom_exact):
        return True
    i, s = m.index_of_weight(mu), 2 // m.ladder.step
    cx, cy = m.ladder.coeff_x, m.ladder.coeff_y
    xy = cx(i - s) * cy(i) if below else 0
    yx = cy(i + s) * cx(i) if above else 0
    return xy - yx == mu


class ModuleMap:
    """The ladder shift source -> target sending e_j to e_{j+offset}, and to 0
    where the target has no such vector.  The shift must preserve weights."""

    __slots__ = ("source", "target", "offset")

    def __init__(self, source, target, offset):
        offset = int(offset)
        step = source.ladder.step
        if (target.ladder.step != step
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
        d = max(p.degree for p in (s.ladder.coeff_x, s.ladder.coeff_y,
                                   t.ladder.coeff_x, t.ladder.coeff_y))
        shared = range(max(s.min_weight, t.min_weight), min(s.max_weight, t.max_weight) + 1, 2)
        probes = {s.min_weight, s.max_weight, t.min_weight - 2, t.max_weight + 2, *shared[:d + 2]}
        return all(self._commutes_at(mu) for mu in probes if s.dim_at(mu))

    def _commutes_at(self, mu) -> bool:
        """X and Y commute with the map on the mu weight space of the source.
        A side whose vector is missing is zero; a source coefficient pointing
        past a truncation cut is unknowable and skipped."""
        s, t = self.source, self.target
        for delta, edge_exact, coeff_s, coeff_t in (
                (2, s.top_exact, s.ladder.coeff_x, t.ladder.coeff_x),
                (-2, s.bottom_exact, s.ladder.coeff_y, t.ladder.coeff_y)):
            nu = mu + delta
            if not t.dim_at(nu) or (not s.dim_at(nu) and not edge_exact):
                continue
            lhs = coeff_t(t.index_of_weight(mu)) if t.dim_at(mu) else 0
            rhs = coeff_s(s.index_of_weight(mu)) if s.dim_at(nu) else 0
            if lhs != rhs:
                return False
        return True

    def cokernel_dims(self):
        """{weight: 1} at each target weight the source window does not reach:
        the map is onto each target weight the source also has.  Weights with
        a zero cokernel are not listed."""
        s, t = self.source, self.target
        below = range(t.min_weight, min(t.max_weight + 2, s.min_weight), 2)
        above = range(max(t.min_weight, s.max_weight + 2), t.max_weight + 2, 2)
        return dict.fromkeys((*below, *above), 1)


def bgg_morphism(k, trunc=None) -> ModuleMap:
    """The embedding verma(k+2) -> verma(-k) sending e'_j to e_{k+1+j}.

    Its cokernel is the finite-dimensional simple module; equivariance at the
    seam uses that the Y coefficient on verma(-k) vanishes at index k+1.
    """
    k = _require_even(k, "k")
    if k < 0:
        raise ValidationError(f"bgg_morphism expects k >= 0, got {k}")
    if trunc is None:
        trunc = default_truncation(k)
    trunc = int(trunc)
    if trunc < k + 2:
        raise TruncationError(
            f"truncation {trunc} too small for the embedding; need at least {k + 2}")
    return ModuleMap(verma(k + 2, trunc - (k + 1)), verma(-k, trunc), k + 1)
