"""Weight-graded sl2-modules with exact rational raising and lowering actions.

Conventions.  X = [[0,1],[0,0]] raises the weight by 2, Y = [[0,0],[1,0]]
lowers it by 2, and H = diag(1,-1) acts on the mu weight space by the scalar
mu; H is never stored, the grading is the H-action.  A module keeps, per
weight mu in a finite window, the block of X (mu -> mu+2) and of Y
(mu -> mu-2).  Each window edge is either exact (the module genuinely stops
there) or a truncation cut (the module continues outside the window); blocks
pointing past a truncation cut are unknown and reported as None.

Every module is a ladder: one-dimensional weight spaces, so every block is
1x1 (or empty at an edge).  The in-scope families also carry closed-form
integer coefficient polynomials in the ladder index i = 0, 1, ... for the two
operators.  The polynomials travel with the module so that downstream
cohomology can certify that nothing lives past the window.
"""

from __future__ import annotations

from math import isqrt

from djem.errors import ParityError, TruncationError, ValidationError
from djem.linalg import SparseMatrix
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


def _toggle_hat(label: str) -> str:
    if label.startswith("ê"):
        return "e" + label[1:]
    if label.startswith("e"):
        return "ê" + label[1:]
    if label.startswith("dual(") and label.endswith(")"):
        return label[5:-1]
    return f"dual({label})"


class WeightModule:
    """Immutable weight-graded module over sl2 on a finite even-weight window,
    with a one-dimensional space at each weight."""

    __slots__ = ("family", "lowest_label_weight", "weights", "dims", "basis_labels",
                 "bottom_exact", "top_exact", "truncation", "ladder",
                 "_x_blocks", "_y_blocks", "_ladder_exact")

    def __init__(self, family, lowest_label_weight, weights, dims, x_blocks, y_blocks,
                 bottom_exact, top_exact, truncation, basis_labels, ladder=None):
        self.family = str(family)
        self.lowest_label_weight = _require_even(lowest_label_weight, "lowest label weight")
        ws = tuple(sorted(_require_even(w, "weight") for w in weights))
        if len(set(ws)) != len(ws):
            raise ValidationError("duplicate weights in window")
        self.weights = ws
        self.dims = {w: int(dims[w]) for w in ws}
        for w, d in self.dims.items():
            if d != 1:
                raise ValidationError(f"weight {w} stored with dimension {d}; "
                                      f"weight spaces must be one-dimensional")
        self.bottom_exact = bool(bottom_exact)
        self.top_exact = bool(top_exact)
        self.truncation = None if truncation is None else int(truncation)
        self.basis_labels = {w: tuple(basis_labels[w]) for w in ws}
        for w in ws:
            if len(self.basis_labels[w]) != self.dims[w]:
                raise ValidationError(f"label count at weight {w} does not match dimension")
        self._x_blocks = dict(x_blocks)
        self._y_blocks = dict(y_blocks)
        for name, blocks, shift in (("X", self._x_blocks, 2), ("Y", self._y_blocks, -2)):
            for mu, blk in blocks.items():
                if mu not in self.dims or (mu + shift) not in self.dims:
                    raise ValidationError(f"{name} block at weight {mu} outside window")
                if (blk.rows, blk.cols) != (1, 1):
                    raise ValidationError(f"{name} block shape mismatch at weight {mu}")
        self.ladder = ladder
        self._ladder_exact = None

    def _blocks_are_ladder(self) -> bool:
        """True iff the window is the ladder e_0..e_{n-1} and every block
        between two window weights, stored or implicitly zero, is the ladder
        polynomial at its index.  The one place blocks meet polynomials."""
        ladder, n = self.ladder, len(self.weights)
        if ladder is None or n == 0 or ladder.step not in (2, -2):
            return False
        w0, step = self.lowest_label_weight, ladder.step
        # Distinct even weights whose ends are w0 and w0 + step*(n-1) are
        # exactly the ladder weights of indices 0..n-1.
        if sorted((w0, w0 + step * (n - 1))) != [self.min_weight, self.max_weight]:
            return False
        s = 2 // step
        value = lambda blk: 0 if blk is None else blk.entry(0, 0)
        for i in range(n):
            mu = w0 + step * i
            if 0 <= i + s < n and value(self._x_blocks.get(mu)) != ladder.coeff_x(i):
                return False
            if 0 <= i - s < n and value(self._y_blocks.get(mu)) != ladder.coeff_y(i):
                return False
        return True

    @property
    def ladder_exact(self) -> bool:
        """Whether the stored blocks are the ladder polynomials on consecutive
        ladder indices.  Decided on first use and kept: the module is
        immutable, and a module that is only mapped or dualized never pays
        for the scan."""
        if self._ladder_exact is None:
            self._ladder_exact = self._blocks_are_ladder()
        return self._ladder_exact

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
        return self.dims.get(mu, 0)

    def total_dim(self):
        return sum(self.dims.values())

    def index_of_weight(self, mu):
        if self.ladder is None:
            raise ValidationError("not a ladder module")
        q, r = divmod(mu - self.lowest_label_weight, self.ladder.step)
        if r != 0 or q < 0 or q >= len(self.weights):
            raise ValidationError(f"weight {mu} is not on the ladder")
        return q

    # -- operator blocks ----------------------------------------------------

    def x_block(self, mu):
        """Block of X on the mu weight space (a map into weight mu+2).

        Returns None when the target weight lies past a truncation cut, i.e.
        the block is not knowable from the window.
        """
        return self._block(self._x_blocks, mu, mu + 2, self.top_exact)

    def y_block(self, mu):
        """Block of Y on the mu weight space (a map into weight mu-2), or None."""
        return self._block(self._y_blocks, mu, mu - 2, self.bottom_exact)

    def _block(self, blocks, mu, target, edge_exact):
        if mu not in self.dims:
            raise KeyError(f"weight {mu} not present")
        if target in self.dims:
            blk = blocks.get(mu)
            return SparseMatrix.zero(1, 1) if blk is None else blk
        if not edge_exact and not self.min_weight <= target <= self.max_weight:
            return None
        return SparseMatrix.zero(0, 1)

    def op_block(self, mu, op):
        if op == "x":
            return self.x_block(mu)
        if op == "y":
            return self.y_block(mu)
        raise ValidationError(f"unknown operator {op!r}")

    def stored_x_blocks(self):
        return dict(self._x_blocks)

    def stored_y_blocks(self):
        return dict(self._y_blocks)

    def __repr__(self):
        span = f"[{self.min_weight}, {self.max_weight}]" if self.weights else "[]"
        return f"WeightModule({self.family}, weights {span}, dim {self.total_dim()})"


# -- constructors -----------------------------------------------------------


def _ladder_window(family, lam, ladder, n, truncation) -> WeightModule:
    """The span of e_0..e_{n-1}, weight(e_i) = lam + 2i, with its 1x1 blocks
    read off the ladder polynomials; exact below, and above too when the
    window is not a truncation."""
    weights = [lam + 2 * i for i in range(n)]
    x_blocks = {weights[i]: SparseMatrix.from_rows([[ladder.coeff_x(i)]]) for i in range(n - 1)}
    y_blocks = {weights[i]: SparseMatrix.from_rows([[ladder.coeff_y(i)]]) for i in range(1, n)}
    return WeightModule(family, lam, weights, dict.fromkeys(weights, 1), x_blocks, y_blocks,
                        bottom_exact=True, top_exact=truncation is None, truncation=truncation,
                        basis_labels={w: (f"e_{i}",) for i, w in enumerate(weights)},
                        ladder=ladder)


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
    return _ladder_window("verma", lam, ladder, trunc + 1, trunc)


def dual_verma(lam, trunc=None) -> WeightModule:
    """Co-induced ladder: Y e_i = e_{i-1} and X e_i = -(i+1)(lam+i) e_{i+1}.

    The X coefficient is the one forced by [X, Y] = H given Y e_i = e_{i-1};
    at lam = -k it reads (i+1)(k-i), vanishing at i = k, so the span of
    e_0..e_k is the finite-dimensional submodule.
    """
    lam, trunc = _lowest_weight_and_truncation(lam, trunc)
    ladder = LadderInfo(step=2, coeff_x=IndexPoly((-lam, -(lam + 1), -1)),
                        coeff_y=IndexPoly((1,)))
    return _ladder_window("dual-verma", lam, ladder, trunc + 1, trunc)


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
    return _ladder_window("simple", -k, ladder, k + 1, None)


def n_finite_dual(m: WeightModule) -> WeightModule:
    """Restricted dual with the sign-involution action (tau.f)(v) = f(-tau v).

    The dual basis vector of e_i sits at the negated weight, and each operator
    block becomes the negated transpose of the block it pairs with.  Applied
    twice this returns the original per-weight matrices exactly.
    """
    dims_d = {-w: d for w, d in m.dims.items()}
    weights_d = sorted(dims_d)
    labels_d = {-w: tuple(_toggle_hat(l) for l in m.basis_labels[w]) for w in m.weights}
    x_d = {}
    for mu, blk in m.stored_x_blocks().items():
        # X: V_mu -> V_{mu+2} dualizes to X: (V_{mu+2})^ -> (V_mu)^.
        x_d[-(mu + 2)] = -blk.transpose()
    y_d = {}
    for mu, blk in m.stored_y_blocks().items():
        y_d[-(mu - 2)] = -blk.transpose()
    if m.family.startswith("n-finite-dual(") and m.family.endswith(")"):
        family_d = m.family[len("n-finite-dual("):-1]
    else:
        family_d = f"n-finite-dual({m.family})"
    ladder_d = None
    if m.ladder is not None:
        sigma = 2 // m.ladder.step
        ladder_d = LadderInfo(step=-m.ladder.step,
                              coeff_x=-(m.ladder.coeff_x.shifted(-sigma)),
                              coeff_y=-(m.ladder.coeff_y.shifted(sigma)))
    return WeightModule(family_d, -m.lowest_label_weight, weights_d, dims_d, x_d, y_d,
                        bottom_exact=m.top_exact, top_exact=m.bottom_exact,
                        truncation=m.truncation, basis_labels=labels_d, ladder=ladder_d)


def check_bracket_relations(m: WeightModule) -> bool:
    """True iff X.Y - Y.X acts by the scalar mu on every weight space where
    all four blocks are knowable from the window.

    A ladder whose stored blocks are its coefficient polynomials is decided by
    the polynomial identity behind the bracket; every other module, and a
    ladder that fails the identity, is decided block by block.
    """
    if _ladder_identity_holds(m):
        return all(_bracket_holds_at(m, mu) for mu in {m.min_weight, m.max_weight})
    return _bracket_by_matrices(m)


def _bracket_by_matrices(m: WeightModule) -> bool:
    return all(_bracket_holds_at(m, mu) for mu in m.weights)


def _bracket_holds_at(m: WeightModule, mu) -> bool:
    """The bracket on the mu weight space, or True when a block it needs lies
    past a truncation cut."""
    x_mu = m.x_block(mu)
    y_mu = m.y_block(mu)
    if x_mu is None or y_mu is None:
        return True
    xy = yx = SparseMatrix.zero(1, 1)
    if y_mu.rows:
        x_dn = m.x_block(mu - 2)
        if x_dn is None:
            return True
        xy = x_dn * y_mu
    if x_mu.rows:
        y_up = m.y_block(mu + 2)
        if y_up is None:
            return True
        yx = y_up * x_mu
    return xy - yx == SparseMatrix.scalar(1, mu)


def _ladder_identity_holds(m: WeightModule) -> bool:
    """True iff m is ladder-exact and cx(i - s) cy(i) - cy(i + s) cx(i) =
    weight(i) holds for every integer i, where s = 2 // step.

    Then the bracket holds on every weight space with both neighbours in the
    window, so only the two window ends, where a term reaching past an exact
    edge is dropped, remain to be checked.  The identity has degree at most
    deg cx + deg cy, so checking it at one more point than that proves it.
    """
    if not m.ladder_exact:
        return False
    w0, step = m.lowest_label_weight, m.ladder.step
    s = 2 // step
    cx, cy = m.ladder.coeff_x, m.ladder.coeff_y
    points = max(cx.degree + cy.degree, 1) + 1
    return all(cx(i - s) * cy(i) - cy(i + s) * cx(i) == w0 + step * i
               for i in range(points))


class ModuleMap:
    """A weight-preserving linear map between weight modules, given by per-weight blocks."""

    __slots__ = ("source", "target", "_blocks")

    def __init__(self, source, target, blocks):
        self.source = source
        self.target = target
        self._blocks = dict(blocks)
        for mu, blk in self._blocks.items():
            want = (target.dim_at(mu), source.dim_at(mu))
            if (blk.rows, blk.cols) != want:
                raise ValidationError(f"map block at weight {mu} has shape "
                                      f"{(blk.rows, blk.cols)}, expected {want}")

    def block(self, mu):
        stored = self._blocks.get(mu)
        if stored is not None:
            return stored
        return SparseMatrix.zero(self.target.dim_at(mu), self.source.dim_at(mu))

    def is_equivariant(self) -> bool:
        """Exact commutation with X and Y wherever the window makes both sides knowable."""
        for mu in self.source.weights:
            for op, delta in (("x", 2), ("y", -2)):
                s_op = self.source.op_block(mu, op)
                if s_op is None:
                    continue
                if mu in self.target.dims:
                    t_op = self.target.op_block(mu, op)
                    if t_op is None:
                        continue
                else:
                    t_op = SparseMatrix.zero(self.target.dim_at(mu + delta), 0)
                lhs = t_op * self.block(mu)
                rhs = self.block(mu + delta) * s_op
                if lhs != rhs:
                    return False
        return True

    def cokernel_dims(self):
        from djem.linalg import rank
        return {mu: self.target.dims[mu] - rank(self.block(mu)) for mu in self.target.weights}


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
    target = verma(-k, trunc)
    source = verma(k + 2, trunc - (k + 1))
    blocks = {k + 2 + 2 * j: SparseMatrix.identity(1) for j in range(trunc - k)}
    return ModuleMap(source, target, blocks)
