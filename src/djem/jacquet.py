"""Derived Jacquet modules of the three locally analytic families.

The computation runs over the dense algebraic core.  Writing V for one of the
three representations attached to an even k and a smooth character psi,

  * family "verma"     -> the full principal-series-type module on verma(-k),
  * family "dualverma" -> the module built on dual_verma(-k) (k >= 0),
  * family "simple"    -> the locally algebraic module on simple(-k) (k >= 0),

the open-cell section of V contributes the X-cohomology of the n-finite dual
ladder, each weight line landing in the character chi_weight psi delta_P (the
compactly supported smooth factor is killed by differentiation, and its
invariants form the single psi delta_P line in every degree).  The stalk at
the Weyl point contributes the Y-cohomology tensored by psi, read through the
w-interpolation: weights negate and psi becomes psi^w.  The two contributions
splice through the six-term sequence

  0 -> S0 -> H^0 -> T0 -> S1 -> H^1 -> T1 -> 0,

whose connecting map T0 -> S1 is zero (see assemble_les).  les_consistency_check
checks bgg_morphism's ladder sequence's long exact sequence on its maps (_les_is_exact).
"""

from __future__ import annotations

from djem.characters import SmoothCharacter, TorusCharacter, TRIVIAL_PSI
from djem.cohomology import DIRECTIONS, cohomology
from djem.errors import ValidationError, require_int, require_type
from djem.sl2 import WeightModule, bgg_morphism, dual_verma, n_finite_dual, simple, verma
from djem.value import Value

FAMILIES = ("verma", "dualverma", "simple")


class OrlikStrauchSpec(Value):
    """Input descriptor: a module family, the character weight k, and psi.

    The parameter k names the character chi_k of the inducing data, so family
    "verma" with k builds the ladder verma(-k).  Families "dualverma" and
    "simple" require k >= 0.
    """

    __slots__ = ("family", "k", "psi")

    def __init__(self, family: str, k: int, psi: SmoothCharacter = TRIVIAL_PSI):
        if family not in FAMILIES:
            raise ValidationError(f"family must be one of {FAMILIES}, got {family!r}")
        self.family = family
        self.k = require_int(k, "k", minimum=None if family == "verma" else 0, even=True)
        self.psi = require_type(psi, "psi", SmoothCharacter)


def build_module(spec: OrlikStrauchSpec, trunc=None) -> WeightModule:
    if spec.family == "verma":
        return verma(-spec.k, trunc)
    if spec.family == "dualverma":
        return dual_verma(-spec.k, trunc)
    if trunc is not None:  # simple has no window to check it
        require_int(trunc, "trunc", minimum=0)
    return simple(-spec.k)


def _characters(res, sign, psi_exp, psiw_exp, delta_exp):
    """Per-degree characters of a cohomology result, one per line (every
    weight space of a ladder is a line), in the result's order (descending
    weight): the line at weight w gives
    chi_{sign*w} psi^psi_exp (psi^w)^psiw_exp delta_P^delta_exp."""
    return {degree: tuple([TorusCharacter(sign * line.weight, psi_exp, psiw_exp, delta_exp)
                           for line in lines])
            for degree, lines in ((0, res.h0), (1, res.h1))}


def section_cohomology_characters(dual: WeightModule):
    """Per-degree torus characters of the open-cell section contribution:
    X-cohomology of the n-finite dual ladder, every line in chi_weight psi delta_P."""
    return _characters(cohomology(dual, "n"), 1, 1, 0, 1)


def stalk_cohomology_characters(dual: WeightModule):
    """Per-degree torus characters of the Weyl-point stalk contribution:
    Y-cohomology of the n-finite dual ladder tensored by psi, then interpolated
    through w: weights negate and psi becomes psi^w, so the line at weight w
    lands in chi_{-w} psi^w, the w-twist of chi_w psi."""
    return _characters(cohomology(dual, "nbar"), -1, 0, 1, 0)


class JacquetReport(Value):
    """The spliced report: degree i is section[i] followed by stalk[i].
    eigenvalues maps each distinct character of the section and stalk lists
    to its z-eigenvalue, taken once, for the Hecke lists and the renderers
    alike.  A certified report is the same in every window, so it records none."""

    __slots__ = ("spec", "section", "stalk", "eigenvalues")

    def jh_factors(self, i) -> tuple[TorusCharacter, ...]:
        """Jordan-Hoelder factors of degree i: the section part, then the stalk part."""
        return self.section[i] + self.stalk[i]

    def extension_kind(self, i) -> str:
        """Layer structure of degree i.  "ext-class-undetermined": both parts
        are nonempty, an extension of the stalk part (quot) by the section part
        (sub) whose class is unresolved; "direct-sum-determined": exactly one
        part is nonempty; "zero": the degree vanishes."""
        if self.section[i] and self.stalk[i]:
            return "ext-class-undetermined"
        return "direct-sum-determined" if self.section[i] or self.stalk[i] else "zero"


def hecke_eigenvalue(chi: TorusCharacter, psi: SmoothCharacter = TRIVIAL_PSI):
    """Eigenvalue of the normalized Hecke operator at z on the chi line,
    as (p-exponent, unit).  Always nonzero, so every line is finite slope."""
    return chi.z_eigenvalue(psi)


def assemble_les(spec: OrlikStrauchSpec, trunc=None) -> JacquetReport:
    """Splice section and stalk characters through the six-term sequence.

    The connecting map T0 -> S1 is zero, so degree i is S_i followed by T_i.
    H^*J_P is a delta-functor into locally analytic M-representations, so
    the map is M-equivariant.  psi, psi^w and delta_P are smooth and chi_w is
    algebraic of weight w, so two lines of different weight differ on any
    open subgroup where psi is trivial, and an M-map between them is zero.
    Every T0 line has weight k and every S1 line weight -(k+2), and these
    never meet for even k.
    """
    dual = n_finite_dual(build_module(spec, trunc))
    section = section_cohomology_characters(dual)
    stalk = stalk_cohomology_characters(dual)
    # Each distinct character's z-eigenvalue, once: the Hecke lists and the
    # renderers read it.
    psi = spec.psi
    eigenvalues = {}
    for chars in (section[0], section[1], stalk[0], stalk[1]):
        for c in chars:
            if c not in eigenvalues:
                eigenvalues[c] = hecke_eigenvalue(c, psi)
    return JacquetReport(spec, section, stalk, eigenvalues)


def _les_is_exact(sub: WeightModule, mid: WeightModule, quot: WeightModule) -> bool:
    """Whether 0 -> A0 -> B0 -> C0 -> A1 -> B1 -> C1 -> 0, A, B, C the cohomology of
    sub, mid and quot, is exact per direction and weight mu, where each term is 0 or
    a line: a ladder map is the identity where both sides have mu, and the connecting
    map is mid's operator on a lift (H^1 sits at its target minus the shift)."""
    results = [[cohomology(m, d) for d in DIRECTIONS] for m in (sub, mid, quot)]
    for i, (op, _) in enumerate(DIRECTIONS.values()):
        terms = [{line.weight for line in getattr(r[i], h)} for h in ("h0", "h1") for r in results]
        for mu in set().union(*terms):
            a0, b0, c0, a1, b1, c1 = (mu in term for term in terms)
            f, g, h, j = a0 and b0, b0 and c0, a1 and b1, b1 and c1
            delta = c0 and a1 and mid.line_coefficient(op, mu) != 0
            if (a0, b0, c0, a1, b1, c1) != (f, f + g, g + delta, delta + h, h + j, j):
                return False
    return True


def les_consistency_check(k, psi: SmoothCharacter = TRIVIAL_PSI, trunc=None) -> bool:
    """Whether the cohomology sequence of bgg_morphism(k, trunc)'s ladder sequence, n-finite
    dualized to 0 -> simple(-k)^ -> verma(-k)^ -> verma(k + 2)^ -> 0, is exact.  psi is checked but
    does not enter: section and stalk are the n and nbar sequences; a sum of exact ones is exact."""
    embedding = bgg_morphism(k, trunc)
    require_type(psi, "psi", SmoothCharacter)
    return _les_is_exact(*map(n_finite_dual, (simple(-k), embedding.target, embedding.source)))
