"""Every cohomology and jacquet report, for every even k and every truncation t.

The steps of `cohomology()` are run over affine forms a*k + b*t + c instead
of ints, so one run covers a whole region of (k, t):

* the ladder: each family's ladder is read off djem's own constructors
  (`build_module`) at three points, every int field fitted as an affine form
  in (k, t), and the fit is asserted at further points up to 10**100;
  n_finite_dual's transform is applied to the forms with djem's own
  `IndexPoly.shifted`;
* the bracket check: check_bracket_relations is a conjunction of polynomial
  identities of degree at most 4 in each of k and t (products of two
  coefficients, each affine with a constant leading one, at an affine
  index), so it holds at every (k, t) once it holds on a 7 x 7 grid;
* the certificate: each operator coefficient factors as lead * (i - r1) *
  (i - r2) with roots affine in k (its discriminant is the square of an
  affine form), and the bound is max(roots) + 1, at least 0;
* `_candidate_weights` and `line_coefficient`: a coefficient at an index
  vanishes where one of its root factors does.

Past the bound, t = bound + u with u >= 0.  Every comparison of two forms
asks for the sign of their difference on the current box, a range of even k
times a range of u; where the sign is not constant it splits the box on the
one variable the difference reads, and the run starts again on each part.
So the regimes are the boxes at the end, and a regime of one k is an
exceptional k.  Each regime's lines are compared, as forms, with
oracle.cohomology_lines, which reads oracle.family_table; a line form that
read u would fail that, so the answer does not depend on the window.  The
window is cut at t = length - 1, so each t below the bound is refused with
CertificateError.  djem itself is then called at every exceptional k, at
every regime edge and at interior points, k = +-10**12 and +-10**100 among
them, at t = bound + u and at t = bound - 1.  A jacquet report is the n
lines as section characters and the nbar lines as stalk characters, the
same glue at every k; it is compared with oracle.jacquet_result at each
sampled k, at the larger of the two bounds and one past it.
"""

import functools
from collections import Counter
from fractions import Fraction
from math import isqrt
from types import SimpleNamespace

import pytest

from djem.characters import TorusCharacter
from djem.cohomology import DIRECTIONS, cohomology, kostant_check
from djem.errors import CertificateError
from djem.jacquet import FAMILIES, OrlikStrauchSpec, assemble_les, build_module
from djem.reporting import jacquet_result_json
from djem.sl2 import IndexPoly, check_bracket_relations, n_finite_dual
from test_closed_form import oracle

FAR = (10**12, 10**100)


class Form:
    """a*k + b*t + c*u + d with rational coefficients; k is even, t and u are ints."""

    __slots__ = ("k", "t", "u", "d")

    def __init__(self, d=0, k=0, t=0, u=0):
        self.k, self.t, self.u, self.d = (Fraction(x) for x in (k, t, u, d))

    def _parts(self):
        return self.k, self.t, self.u, self.d

    @staticmethod
    def _of(parts):
        return Form(parts[3], *parts[:3])

    def __add__(self, other):
        other = other if isinstance(other, Form) else Form(other)
        return Form._of([a + b for a, b in zip(self._parts(), other._parts())])

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, n):
        assert not isinstance(n, Form), "a product of two forms is not affine"
        return Form._of([a * n for a in self._parts()])

    __rmul__ = __mul__

    def __truediv__(self, n):
        return self * Fraction(1, n)

    def __floordiv__(self, n):
        out = self / n
        assert integral(out), f"{self} // {n} is not exact"
        return out

    def __eq__(self, other):
        other = other if isinstance(other, Form) else Form(other)
        return self._parts() == other._parts()

    def reads(self):
        return [name for name in ("k", "t", "u") if getattr(self, name)]

    def at(self, k=0, t=0, u=0):
        value = self.k * k + self.t * t + self.u * u + self.d
        assert value.denominator == 1, (self, k, t, u)
        return int(value)

    def subs_t(self, form):
        """The form with t replaced by form."""
        return Form(self.d, self.k, 0, self.u) + form * self.t

    def __str__(self):
        terms = [f"{c}*{name}" for name, c in zip("ktu", self._parts()) if c]
        return " + ".join(terms + ([str(self.d)] if self.d or not terms else []))

    __repr__ = __str__


def integral(form):
    """True if form is an int at every even k and every int t and u, False if
    at none; anything else is out of this evaluator's reach."""
    steps = (2 * form.k, form.t, form.u)
    assert all(s.denominator == 1 for s in steps), f"whether {form} is an int depends on k, t or u"
    return form.d.denominator == 1


class Split(Exception):
    """The sign asked for is not constant on the box: run again on each part."""


def sign(form, box):
    """The sign of form on every point of box, {"k": (lo, hi), "u": (lo, hi)}
    (None for an open end; k runs over even ints, u over ints), or Split."""
    assert not form.t, form
    form = on(form, box)
    low = high = form.d
    for name in ("k", "u"):
        a, (lo, hi) = getattr(form, name), box[name]
        if a:
            ends = [a * x if x is not None else None for x in (lo, hi)]
            lo_end, hi_end = ends if a > 0 else ends[::-1]
            low = None if low is None or lo_end is None else low + lo_end
            high = None if high is None or hi_end is None else high + hi_end
    if low is not None and low > 0:
        return 1
    if high is not None and high < 0:
        return -1
    if low == high == 0:
        return 0
    names = form.reads()
    assert len(names) == 1, f"the sign of {form} on {box} is not decided by one variable"
    (name,) = names
    root, step = -form.d / getattr(form, name), 2 if name == "k" else 1
    lo, hi = box[name]
    below, above = step * -(-root // step) - step, step * (root // step) + step
    pieces = [(lo, below), (above, hi)] + ([(int(root), int(root))] if root % step == 0 else [])
    raise Split([{**box, name: (a, b)} for a, b in pieces if a is None or b is None or a <= b])


def distinct_sorted(forms, box):
    """forms without repeats, lowest first, as Python's sorted(set(...)) would
    order their values everywhere on box."""
    out = []
    for f in forms:
        signs = [sign(f - g, box) for g in out]
        if 0 not in signs:
            out.insert(signs.count(1), f)
    return out


def less_equal(a, b, box):
    return sign(b - a, box) >= 0


def pinned(box, name):
    """The one value of name on box, or None."""
    lo, hi = box[name]
    return lo if lo is not None and lo == hi else None


def on(form, box):
    """form with each variable that box pins to one value replaced by it."""
    for name in ("k", "u"):
        value = pinned(box, name)
        if value is not None and getattr(form, name):
            form = form + getattr(form, name) * (value - Form(**{name: 1}))
    return form


class RegimeK(Form):
    """The symbol k on one box: comparisons with it are decided there, so the
    oracle's branches run on forms."""

    __slots__ = ("box",)

    def __init__(self, box):
        super().__init__(k=1)
        self.box = box

    def __ge__(self, other):
        return sign(self - other, self.box) >= 0


# -- djem's ladders, as forms -------------------------------------------------

def _fields(family, k, t):
    """A family's ladder at (k, t): its shape, and its int fields in a list."""
    m = build_module(OrlikStrauchSpec(family, k), t)
    shape = (m.step, m.bottom_exact, m.top_exact, len(m.coeff_x.coeffs), len(m.coeff_y.coeffs))
    return shape, [*m.coeff_x.coeffs, *m.coeff_y.coeffs, m.lowest_label_weight, m.length]


@functools.cache
def ladder(family):
    """The family's ladder with every int field an affine form in (k, t): read
    at (0, 0), (2, 0) and (0, 1), and asserted at further (k, t)."""
    shape, base = _fields(family, 0, 0)
    dk, dt = _fields(family, 2, 0)[1], _fields(family, 0, 1)[1]
    forms = [Form(b, k=Fraction(x - b, 2), t=y - b) for b, x, y in zip(base, dk, dt)]
    ks = (4, 6, *FAR) + ((-2, -4, *(-x for x in FAR)) if family == "verma" else ())
    for k in ks:
        for t in (0, 5, *FAR):
            assert _fields(family, k, t) == (shape, [f.at(k, t) for f in forms]), (family, k, t)
    step, bottom_exact, top_exact, nx, _ = shape
    cx, cy = forms[:nx], forms[nx:-2]
    for coeffs in (cx, cy):
        assert not coeffs[-1].reads(), f"{family}: a leading coefficient reads k or t"
        assert not any(c.t for c in coeffs), f"{family}: a coefficient reads the window"
    return SimpleNamespace(step=step, coeff_x=IndexPoly._of(tuple(cx)),
                           coeff_y=IndexPoly._of(tuple(cy)), lowest_label_weight=forms[-2],
                           length=forms[-1], bottom_exact=bottom_exact, top_exact=top_exact,
                           hatted=False)


def n_finite_dual_of_forms(m):
    """n_finite_dual's transform, with IndexPoly's own shift and negation."""
    sigma = 2 // m.step
    return SimpleNamespace(step=-m.step, coeff_x=-m.coeff_x.shifted(-sigma),
                           coeff_y=-m.coeff_y.shifted(sigma),
                           lowest_label_weight=-m.lowest_label_weight, length=m.length,
                           bottom_exact=m.top_exact, top_exact=m.bottom_exact, hatted=not m.hatted)


def root_factors(poly):
    """(lead, roots) with poly(i) = lead * prod(i - r for r in roots) for every
    i and k; each root an affine form in k."""
    c = poly.coeffs
    lead = c[-1]
    if len(c) == 1:
        return lead, ()
    if len(c) == 2:
        return lead, (-c[0] / lead.d,)
    c0, c1 = c[0], c[1]
    # The discriminant c1^2 - 4*lead*c0 = c1.k^2 k^2 + B k + C must be (a k + b)^2.
    B = 2 * c1.k * c1.d - 4 * lead.d * c0.k
    C = c1.d ** 2 - 4 * lead.d * c0.d
    a = abs(c1.k)
    b = B / (2 * a) if a else rational_sqrt(C)
    assert b is not None and b * b == C and 2 * a * b == B, (
        f"the discriminant of {poly} is not the square of an affine form")
    root_of_disc = Form(b, k=a)
    return lead, tuple((-c1 + s * root_of_disc) / (2 * lead.d) for s in (1, -1))


def rational_sqrt(x):
    if x < 0:
        return None
    n, d = isqrt(x.numerator), isqrt(x.denominator)
    return Fraction(n, d) if n * n == x.numerator and d * d == x.denominator else None


# -- cohomology(), run on forms ---------------------------------------------------

def certificate(m, op, box):
    """(roots, bound) of stabilization_certificate on the ladder of forms."""
    if m.bottom_exact and m.top_exact:
        return (), Form(0)
    _, roots = root_factors(m.coeff_x if op == "x" else m.coeff_y)
    roots = distinct_sorted([r for r in roots if integral(r)], box)
    if not roots:
        return (), Form(0)
    bound = roots[-1] + 1
    return roots, bound if sign(bound, box) >= 0 else Form(0)


def window_cohomology(family, direction, box):
    """(bound, h0, h1) of cohomology(n_finite_dual(build_module(spec, t)),
    direction) on box, at t = bound + u: each line as (weight, hat, index)."""
    m = n_finite_dual_of_forms(ladder(family))
    op, shift = DIRECTIONS[direction]
    roots, bound = certificate(m, op, box)
    t = bound + Form(u=1)
    if not (m.bottom_exact and m.top_exact):
        assert m.length - 1 == Form(t=1), "the window is not cut at t"
    llw, length, step = m.lowest_label_weight.subs_t(t), m.length.subs_t(t), m.step
    lo = llw + (0 if step > 0 else step * (length - 1))
    hi = lo + 2 * (length - 1)
    _, factors = root_factors(m.coeff_x if op == "x" else m.coeff_y)
    index = lambda mu: (mu - llw) / step
    inside = lambda mu: less_equal(lo, mu, box) and less_equal(mu, hi, box)

    def line_coefficient(src):
        # None past a certified cut, "zero" or "nonzero" otherwise.
        dst = src + 2 if op == "x" else src - 2
        if inside(src) and inside(dst):
            return "zero" if any(sign(index(src) - r, box) == 0 for r in factors) else "nonzero"
        exact = m.top_exact if sign(max_form(src, dst, box) - hi, box) > 0 else m.bottom_exact
        return "zero" if exact else None

    hat = "ê" if m.hatted else "e"
    degrees = []
    for s in (0, shift):
        weights = [lo, hi] + [llw + s + step * i for i in roots
                              if less_equal(0, i, box) and sign(i - length, box) < 0
                              and inside(llw + s + step * i)]
        degrees.append([(nu - s, hat, index(nu)) for nu in reversed(distinct_sorted(weights, box))
                        if line_coefficient(nu - s) == "zero"])
    return bound, *degrees


def max_form(a, b, box):
    return a if sign(a - b, box) >= 0 else b


def regimes(family, direction):
    """[(box, bound, h0, h1)] covering every even k of the family and every
    u >= 0, each regime compared with the oracle as forms."""
    todo = [{"k": (None if family == "verma" else 0, None), "u": (0, None)}]
    out = []
    while todo:
        box = todo.pop()
        try:
            bound, h0, h1 = window_cohomology(family, direction, box)
            k = pinned(box, "k")
            want = oracle.cohomology_lines(family, RegimeK(box) if k is None else k, direction)
        except Split as split:
            todo.extend(split.args[0])
            continue
        h0, h1 = ([(on(w, box), hat, on(i, box)) for w, hat, i in lines] for lines in (h0, h1))
        got = tuple([(w, 1, (f"{hat}_{i}",)) for w, hat, i in lines] for lines in (h0, h1))
        assert got == tuple(want), (family, direction, box, got, want)
        out.append((box, on(bound, box), h0, h1))
    return out


# -- the checks -----------------------------------------------------------------

def samples(lo, hi, step):
    """Each end of [lo, hi] and points inside it, the far ones among them."""
    points = {x for x in (lo, hi) if x is not None}
    if lo is not None and hi is not None:
        points.add(lo + (hi - lo) // (2 * step) * step)
    elif lo is not None or hi is not None:
        end = lo if lo is not None else hi
        points |= {end + step if lo is not None else end - step}
    else:
        points.add(0)
    points |= {s * x for x in FAR for s in (1, -1)
               if (lo is None or s * x >= lo) and (hi is None or s * x <= hi)}
    return sorted(points)


def lines_of(res):
    return ([(line.weight, line.dim, line.labels) for line in res.h0],
            [(line.weight, line.dim, line.labels) for line in res.h1])


def evaluated(lines, k):
    return [(w.at(k), 1, (f"{hat}_{i.at(k)}",)) for w, hat, i in lines]


def bound_at(found, k):
    """The certificate bound at k, from the regime that holds k."""
    for box, bound, *_ in found:
        lo, hi = box["k"]
        if (lo is None or lo <= k) and (hi is None or k <= hi):
            return bound.at(k)


# The exceptional k of each (family, direction): the regimes of one k.
EXCEPTIONAL = {("verma", "n"): [0], ("verma", "nbar"): [0],
               ("dualverma", "n"): [0], ("dualverma", "nbar"): [],
               ("simple", "n"): [0], ("simple", "nbar"): [0]}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_report_matches_the_closed_form_at_every_k_and_t(family):
    # The bracket check is a conjunction of identities of degree <= 4 in each
    # of k and t, so a grid of more than 5 x 5 proves it everywhere.
    for k in range(0, 14, 2):
        for t in range(7):
            dual = n_finite_dual(build_module(OrlikStrauchSpec(family, k), t))
            assert check_bracket_relations(dual), (family, k, t)
    m = n_finite_dual_of_forms(ladder(family))
    found = {direction: regimes(family, direction) for direction in DIRECTIONS}
    ks = set()
    for direction, regs in found.items():
        exceptional = sorted({pinned(box, "k") for box, *_ in regs} - {None})
        assert exceptional == EXCEPTIONAL[family, direction], (family, direction, exceptional)
        for box, bound, h0, h1 in regs:
            for k in samples(*box["k"], 2):
                ks.add(k)
                spec, b = OrlikStrauchSpec(family, k), bound.at(k)
                for u in samples(*box["u"], 1):
                    t = b + u
                    dual = n_finite_dual(build_module(spec, t))
                    assert (dual.step, dual.bottom_exact, dual.top_exact, dual.coeff_x.coeffs,
                            dual.coeff_y.coeffs, dual.lowest_label_weight, dual.length) == (
                        m.step, m.bottom_exact, m.top_exact,
                        tuple(c.at(k) for c in m.coeff_x.coeffs),
                        tuple(c.at(k) for c in m.coeff_y.coeffs),
                        m.lowest_label_weight.at(k, t), m.length.at(k, t)), (family, k, t)
                    res = cohomology(dual, direction)
                    assert res.certificate.bound == b, (family, direction, k, t)
                    assert lines_of(res) == (evaluated(h0, k), evaluated(h1, k)) == tuple(
                        oracle.cohomology_lines(family, k, direction)), (family, direction, k, t)
                for t in ({b - 1, 0} if b else ()):
                    with pytest.raises(CertificateError):
                        cohomology(n_finite_dual(build_module(spec, t)), direction)
    for k in ks:
        b = max(bound_at(regs, k) for regs in found.values())
        for t in (b, b + 1):
            report = assemble_les(OrlikStrauchSpec(family, k), t)
            assert jacquet_result_json(report) == oracle.jacquet_result(family, k), (family, k, t)


def test_the_simple_report_is_the_kostant_line_times_two_smooth_characters():
    """The paper's cross-check, a second derivation of the simple row.

    Premise, from the paper: H^0 J_P is Emerton's J_P, which on a locally
    algebraic U (x) W is J_P(U) (x) W^N, and H^*J_P is a delta-functor
    extending it.  Taken in every degree, degree i of the report on
    simple(k) = U (x) W, W algebraic of highest weight k, is the i-th
    Kostant line H^i(n, W) (weight k in degree 0, -(k+2) in degree 1)
    times the two characters of the smooth U's Jacquet module, psi*delta_P
    and psi^w.  The check reads each degree's Jordan-Hoelder factors as one
    multiset, not the section/stalk split.  Its psi^w half comes from nbar
    cohomology and is independent of kostant_check; its psi*delta_P half
    runs cohomology(n_finite_dual(simple(-k)), "n"), as kostant_check does.
    """
    kostant_line = {0: lambda k: k, 1: lambda k: -(k + 2)}
    smooth = (dict(psi_exp=1, delta_exp=1), dict(psiw_exp=1))
    ks = {k for direction in DIRECTIONS for box, *_ in regimes("simple", direction)
          for k in samples(*box["k"], 2)}
    assert {0, 2, *FAR} <= ks
    for k in ks:
        report = assemble_les(OrlikStrauchSpec("simple", k))
        for i, weight in kostant_line.items():
            want = Counter(TorusCharacter(weight(k), **tags) for tags in smooth)
            assert Counter(report.jh_factors(i)) == want, (k, i)
        assert kostant_check(k)
