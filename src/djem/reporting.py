"""Deterministic JSON and text rendering of results.

Two runs of the same configuration must produce byte-identical documents:
keys are sorted, rationals are rendered canonically as "num/den", ASCII is
escaped, and list orderings are fixed by the producing code.

The annotations name the result classes of djem.characters, djem.cohomology,
djem.jacquet and djem.extbound without importing them, so that rendering a
report never loads a module the command did not need.
"""

from __future__ import annotations

import math
from fractions import Fraction
try:  # json.encoder's own choice, without importing the json package
    from _json import encode_basestring_ascii as _quote
except ImportError:
    from json.encoder import py_encode_basestring_ascii as _quote

from djem import __version__
from djem.errors import ValidationError, require_int

# A concrete eigenvalue p^e * unit is rendered only while |e| * log10(p),
# plus the digits of the unit, stays within this many digits: past it the
# power is slow to compute, and Python refuses to print an int of more than
# 4300 digits.
VALUE_DIGIT_CAP = 4000


# Miller-Rabin with the prime bases 2..37 is exact below this bound.
P_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n) -> bool:
    """Deterministic Miller-Rabin; exact for 0 <= n < P_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_p(p, name="p"):
    """A ValidationError naming name unless p is an int prime below P_LIMIT."""
    require_int(p, name)
    if p >= P_LIMIT:
        raise ValidationError(f"{name} must be below {P_LIMIT}, got a {len(str(p))}-digit value")
    if not _is_prime(p):
        raise ValidationError(f"{name} must be prime, got {p}")


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def concrete_value(exponent, unit, p) -> str:
    """p^exponent * unit as "num/den" at a p that validate_p accepts; refused past
    VALUE_DIGIT_CAP digits, decided from |exponent| * log10(p) before the power is taken."""
    validate_p(p)
    unit_digits = math.log10(max(abs(unit.numerator), unit.denominator))
    if abs(exponent) * math.log10(p) + unit_digits > VALUE_DIGIT_CAP:
        raise ValidationError(f"the eigenvalue p^{exponent} * unit at p = {p} has more than "
                              f"{VALUE_DIGIT_CAP} digits; omit --p for the symbolic form")
    return frac_str(Fraction(p) ** exponent * unit)


def eigenvalue_json(pair, p=None):
    exponent, unit = pair
    out = {"p_exp": exponent, "unit": frac_str(unit)}
    if p is not None:
        out["value"] = concrete_value(exponent, unit, p)
    return out


def eigenvalue_text(pair, p=None):
    exponent, unit = pair
    if p is not None:
        return concrete_value(exponent, unit, p)
    return f"p^{exponent} * {frac_str(unit)}"


def smooth_character_json(psi: SmoothCharacter):
    return {
        "label": psi.label,
        "z_valuation": psi.z_valuation,
        "z_unit": frac_str(psi.z_unit),
        "w_selfdual": psi.w_selfdual,
        "torus_unit_label": psi.torus_unit_label,
    }


def character_json(chi: TorusCharacter, eigenvalue: dict):
    """The JSON object of chi, given the JSON object of its eigenvalue."""
    return {
        "weight": chi.weight,
        "psi_exp": chi.psi_exp,
        "psiw_exp": chi.psiw_exp,
        "delta_exp": chi.delta_exp,
        "text": chi.text(),
        "eigenvalue": eigenvalue,
    }


def _rendered(eigenvalues: dict, p=None):
    """{chi: JSON object} for a {chi: z-eigenvalue} table: each distinct
    character is rendered once, and every list that names it shares its
    object."""
    return {chi: character_json(chi, eigenvalue_json(pair, p))
            for chi, pair in eigenvalues.items()}


def jacquet_result_json(report: JacquetReport, p=None):
    """The report's result object.  Characters and their eigenvalues come
    from the report's eigenvalue table; the Hecke list of a degree is the
    eigenvalue objects of its Jordan-Hoelder factors, in order, and an
    undetermined extension names the section part as sub and the stalk part
    as quot."""
    rendered = _rendered(report.eigenvalues, p)

    def of(chars):
        return [rendered[c] for c in chars]

    section, stalk = report.section, report.stalk
    degrees = {}
    for i in (0, 1):
        jh = of(report.jh_factors(i))
        extension = {"kind": report.extension_kind(i)}
        if extension["kind"] == "ext-class-undetermined":
            extension["sub"] = of(section[i])
            extension["quot"] = of(stalk[i])
        degrees[str(i)] = {
            "jh_factors": jh,
            "extension": extension,
            "hecke_eigenvalues": [c["eigenvalue"] for c in jh],
            # A z-eigenvalue p^e * unit is never zero, since psi's unit is not.
            "finite_slope_complete": True,
        }
    return {
        "section": {"0": of(section[0]), "1": of(section[1])},
        "stalk": {"0": of(stalk[0]), "1": of(stalk[1])},
        "degrees": degrees,
        # T0 and S1 have different weights, so the map between them is zero.
        "connecting_map_forced_zero": True,
        "finite_slope_complete": True,
    }


def jacquet_text(report: JacquetReport, p=None):
    eigenvalues = report.eigenvalues

    def line(prefix, c):
        return f"  {prefix}{c.text()}  (z-eigenvalue {eigenvalue_text(eigenvalues[c], p)})"

    lines = [f"family={report.spec.family} k={report.spec.k} psi={report.spec.psi.label}"]
    for i in (0, 1):
        kind = report.extension_kind(i)
        lines.append(f"H^{i} J_P  [{kind}]")
        if kind == "ext-class-undetermined":
            lines += [line("sub:  ", c) for c in report.section[i]]
            lines += [line("quot: ", c) for c in report.stalk[i]]
        else:
            lines += [line("", c) for c in report.jh_factors(i)] or ["  0"]
    return lines


def certificate_json(cert: StabilizationCertificate):
    return {
        "operator": cert.operator,
        "coefficient": None if cert.coefficient is None else cert.coefficient.text(),
        "coefficient_coeffs": None if cert.coefficient is None else list(cert.coefficient.coeffs),
        "roots": list(cert.roots),
        "bound": cert.bound,
        "finite": cert.finite,
    }


def cohomology_result_json(res: CohomologyResult):
    lines = lambda groups: [{"weight": g.weight, "dim": g.dim, "labels": list(g.labels)}
                            for g in groups]
    return {
        "direction": res.direction,
        "certified": res.certified,
        "weight_shift_applied": res.weight_shift_applied,
        "h0": lines(res.h0),
        "h1": lines(res.h1),
        "higher_degrees": "zero",
        "certificate": certificate_json(res.certificate),
    }


def cohomology_text(res: CohomologyResult):
    lines = [f"direction={res.direction} certified={'yes' if res.certified else 'NO (window-only)'} "
             f"h1-shift={res.weight_shift_applied:+d}"]
    for name, groups in (("H^0", res.h0), ("H^1", res.h1)):
        if not groups:
            lines.append(f"{name}: 0")
        for g in groups:
            lines.append(f"{name}: weight {g.weight}  dim {g.dim}  [{', '.join(g.labels)}]")
    cert = res.certificate
    if cert.finite:
        lines.append("certificate: finite module, nothing truncated")
    else:
        lines.append(f"certificate: operator {cert.operator}, coefficient {cert.coefficient.text()}, "
                     f"roots {list(cert.roots)}, bound {cert.bound}")
    return lines


def ext_case_json(case: ExtCase, p=None):
    # matched_factors is a sub-tuple of h1_factors, so this renders both.
    phi_chars = _rendered({c: c.z_eigenvalue(case.phi) for c in case.h1_factors}, p)
    source = case.source_character

    def of(chars):
        return [phi_chars[c] for c in chars]

    return {
        "k": case.k,
        "ell": case.ell,
        "verdict": case.verdict,
        "fired_bullets": list(case.fired_bullets),
        "relations": case.relations,
        "source_character": character_json(
            source, eigenvalue_json(source.z_eigenvalue(case.psi), p)),
        "h1_factors": of(case.h1_factors),
        "matched_factors": of(case.matched_factors),
        "hom_bound": None if case.hom_bound is None else
            {"min": case.hom_bound[0], "max": case.hom_bound[1]},
    }


def ext_case_text(case: ExtCase):
    lines = [f"k={case.k} ell={case.ell} psi={case.psi.label} phi={case.phi.label}",
             f"verdict: {case.verdict}"]
    if case.fired_bullets:
        lines.append(f"fired bullets: {', '.join(str(b) for b in case.fired_bullets)}")
    for name, value in sorted(case.relations.items()):
        lines.append(f"relation {name}: {'yes' if value else 'no'}")
    if case.h1_factors:
        lines.append("H^1 factors of the target: " + "; ".join(c.text() for c in case.h1_factors))
    if case.matched_factors:
        lines.append("matched by the source: " + "; ".join(c.text() for c in case.matched_factors))
    if case.hom_bound is not None:
        lines.append(f"hom multiplicity bound: min {case.hom_bound[0]}, max {case.hom_bound[1]}")
    return lines


def check_result_json(k, passed, **extra):
    out = {"k": k, "passed": passed}
    out.update(extra)
    return out


def make_document(command, config, result):
    return {
        "tool": "djem",
        "version": __version__,
        "deterministic": True,
        "command": command,
        "config": config,
        "result": result,
    }


def serialize(doc) -> str:
    """The document in the layout of json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n", byte for byte.

    json runs its C encoder only when indent is None, so an indented dump goes
    through the pure-Python one; this emitter writes the same bytes directly,
    into one list of chunks.  It takes exactly the types djem documents hold:
    str, int, bool, None, lists, tuples and dicts with str keys.  Anything
    else, a subclass of one of these included, raises TypeError."""
    out = []
    _write(doc, "\n", out, {})
    out.append("\n")
    return "".join(out)


def _write(o, newline, out, memo):
    """Appends o as JSON to out; newline is "\\n" plus the indent of the line
    o starts on.  memo maps the id() of each dict a list or tuple has held,
    within one serialize call, to its text at indent 0: a report's lists
    share their character objects, and each is written once."""
    t = type(o)
    if t is str:
        out.append(_quote(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is bool:
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "{" + inner
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _quote(key) + ": ")
            sep = comma
            _write(o[key], inner, out, memo)
        out.append(newline + "}")
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "[" + inner
        for v in o:
            out.append(sep)
            sep = comma
            if type(v) is dict:
                text = memo.get(id(v))
                if text is None:
                    chunks = []
                    _write(v, "\n", chunks, memo)
                    text = memo[id(v)] = "".join(chunks)
                out.append(text.replace("\n", inner))
            else:
                _write(v, inner, out, memo)
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
