"""Expected djem outputs stated as closed forms in k, without importing djem.

A torus character is written (weight, a, b, c) for
chi_weight * psi^a * (psi^w)^b * delta_P^c.  With sec(w) = (w, 1, 0, 1), the
open-cell section line, and stk(w) = (w, 0, 1, 0), the Weyl-point stalk line,
every report the benchmark requests has the two weights k and -(k+2):

  family     section H^0           section H^1   stalk H^0   stalk H^1
  verma k>=0 sec(k)                -             stk(k)      stk(-(k+2)), stk(k)
  verma k<0  sec(k)                -             -           stk(-(k+2))
  dualverma  sec(k), sec(-(k+2))   sec(-(k+2))   -           stk(-(k+2))
  simple     sec(k)                sec(-(k+2))   stk(k)      stk(-(k+2))

A degree whose section and stalk parts are both non-empty is an
ext-class-undetermined extension (sub = section, quot = stalk); a degree
with one side empty is a direct sum.  The connecting map is forced to zero
for every psi the benchmark declares (its valuation is at most 1 in absolute
value and its unit is not +-1 unless psi is trivial), so the Jordan-Hoelder
list is section followed by stalk.

The radical cohomology of the n-finite dual ladder is the same table read
before the splice: direction "n" has H^0/H^1 at the section weights,
direction "nbar" at the negated stalk weights, and the line of ladder index i
is labelled by the dual basis vector of e_i.
"""

from __future__ import annotations

from fractions import Fraction

TRIVIAL = ("trivial", 0, "1")


def sec(w):
    return (w, 1, 0, 1)


def stk(w):
    return (w, 0, 1, 0)


def family_table(family, k):
    """(section, stalk) as {degree: [character, ...]} for one report."""
    top = -(k + 2)
    if family == "verma":
        if k >= 0:
            return {0: [sec(k)], 1: []}, {0: [stk(k)], 1: [stk(top), stk(k)]}
        return {0: [sec(k)], 1: []}, {0: [], 1: [stk(top)]}
    if family == "dualverma":
        return {0: [sec(k), sec(top)], 1: [sec(top)]}, {0: [], 1: [stk(top)]}
    if family == "simple":
        return {0: [sec(k)], 1: [sec(top)]}, {0: [stk(k)], 1: [stk(top)]}
    raise ValueError(f"unknown family {family!r}")


def frac_str(x):
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def eigenvalue(chi, psi, p=None):
    weight, a, b, c = chi
    _, val, unit = psi
    u = Fraction(unit)
    exponent = weight + (a - b) * val - 2 * c
    value = u ** a * (1 / u) ** b
    out = {"p_exp": exponent, "unit": frac_str(value)}
    if p is not None:
        out["value"] = frac_str(Fraction(p) ** exponent * value)
    return out


def text(chi):
    weight, a, b, c = chi
    parts = [f"chi_{{{weight}}}"]
    if a:
        parts.append("psi")
    if b:
        parts.append("psi^w")
    if c:
        parts.append("delta_P")
    return " ".join(parts)


def character(chi, psi, p=None):
    weight, a, b, c = chi
    return {"weight": weight, "psi_exp": a, "psiw_exp": b, "delta_exp": c,
            "text": text(chi), "eigenvalue": eigenvalue(chi, psi, p)}


def jacquet_result(family, k, psi=TRIVIAL, p=None):
    """The `result` object of `djem jacquet --json` for (family, k, psi)."""
    section, stalk = family_table(family, k)
    chars = lambda cs: [character(c, psi, p) for c in cs]
    degrees = {}
    for i in (0, 1):
        jh = section[i] + stalk[i]
        if section[i] and stalk[i]:
            ext = {"kind": "ext-class-undetermined",
                   "sub": chars(section[i]), "quot": chars(stalk[i])}
        else:
            ext = {"kind": "direct-sum-determined" if jh else "zero"}
        degrees[str(i)] = {"jh_factors": chars(jh), "extension": ext,
                           "hecke_eigenvalues": [eigenvalue(c, psi, p) for c in jh],
                           "finite_slope_complete": True}
    return {"section": {"0": chars(section[0]), "1": chars(section[1])},
            "stalk": {"0": chars(stalk[0]), "1": chars(stalk[1])},
            "degrees": degrees,
            "connecting_map_forced_zero": True,
            "finite_slope_complete": True}


def cohomology_lines(family, k, direction):
    """(h0, h1) of the dual ladder as [(weight, dim, labels)], highest weight first."""
    section, stalk = family_table(family, k)
    if direction == "n":
        weights, shift = ([c[0] for c in section[0]], [c[0] for c in section[1]]), -2
    elif direction == "nbar":
        weights, shift = ([-c[0] for c in stalk[0]], [-c[0] for c in stalk[1]]), 2
    else:
        raise ValueError(f"unknown direction {direction!r}")
    # The dual basis vector of e_i sits at weight k - 2i; a degree-1 line
    # reported at weight w lives at weight w - shift on the ladder.
    label = lambda mu: (f"ê_{(k - mu) // 2}",)
    h0 = [(w, 1, label(w)) for w in weights[0]]
    h1 = [(w, 1, label(w - shift)) for w in weights[1]]
    return h0, h1


def cohomology_result(family, k, direction):
    """The checked part of `djem cohomology --json`: lines, shift and certification."""
    h0, h1 = cohomology_lines(family, k, direction)
    lines = lambda ls: [{"weight": w, "dim": d, "labels": list(lab)} for w, d, lab in ls]
    return {"direction": direction, "certified": True,
            "weight_shift_applied": -2 if direction == "n" else 2,
            "h0": lines(h0), "h1": lines(h1), "higher_degrees": "zero"}


def ext_verdict(k, ell, relations):
    """(verdict, fired bullets) of `djem ext-bound` with every relation declared.

    relations maps psi-eq-phi, psi-delta-eq-phi-w and phi-delta-eq-phi-w to
    the declared truth values.
    """
    if k != -(ell + 2):
        return "trivial", []
    eq = relations["psi-eq-phi"]
    twist = relations["psi-delta-eq-phi-w"]
    phi_self = relations["phi-delta-eq-phi-w"]
    bullets = [(1, not phi_self and eq, "one-dimensional"),
               (2, not phi_self and twist, "at-most-one-dimensional"),
               (3, phi_self and eq, "one-or-two-dimensional"),
               (4, twist, "at-most-one-dimensional")]
    fired = [n for n, hit, _ in bullets if hit]
    verdict = next((v for _, hit, v in bullets if hit), "trivial")
    return verdict, fired


def check_result(k, **extra):
    out = {"k": k, "passed": True}
    out.update(extra)
    return out
