"""Extension-dimension bounds from computed Jacquet reports.

classify_ext answers: how large can the space of extensions between the
negative-weight principal-series-type module attached to (k, psi) and the
canonically embedded submodule attached to (ell, phi) be?  The verdict is a
pure character-matching case analysis driven by three relation predicates

    psi = phi,   psi delta_P = phi^w,   phi delta_P = phi^w,

evaluated against the degree-1 Jacquet report of the (ell, phi) module.
Smooth characters agreeing at z may still differ on the compact torus, so each
predicate is decided by the first of these that applies: its declaration;
distinct z-values of its two sides refute it; for psi = phi only, identical
declarations (same label and torus-unit label) make it true.  Anything else
raises rather than silently guessing.
"""

from __future__ import annotations

from djem.characters import SmoothCharacter, TorusCharacter
from djem.errors import (UndecidableRelationError, ValidationError, require_flag, require_int,
                         require_type)
from djem.jacquet import OrlikStrauchSpec, assemble_les
from djem.value import Value

VERDICT_TRIVIAL = "trivial"
VERDICT_ONE = "one-dimensional"
VERDICT_AT_MOST_ONE = "at-most-one-dimensional"
VERDICT_ONE_OR_TWO = "one-or-two-dimensional"

_BULLET_VERDICTS = {1: VERDICT_ONE, 2: VERDICT_AT_MOST_ONE,
                    3: VERDICT_ONE_OR_TWO, 4: VERDICT_AT_MOST_ONE}


class RelationDeclarations(Value):
    """Explicit truth declarations, each True, False or None (undeclared)."""

    __slots__ = ("psi_eq_phi", "psi_delta_eq_phi_w", "phi_delta_eq_phi_w")

    def __init__(self, psi_eq_phi: bool | None = None, psi_delta_eq_phi_w: bool | None = None,
                 phi_delta_eq_phi_w: bool | None = None):
        declared = (psi_eq_phi, psi_delta_eq_phi_w, phi_delta_eq_phi_w)
        for name, value in zip(self.__slots__, declared):
            setattr(self, name, require_flag(value, name, optional=True))


class ExtCase(Value):
    __slots__ = ("k", "ell", "psi", "phi", "verdict", "fired_bullets", "source_character",
                 "h1_factors", "matched_factors", "hom_bound", "relations")


# Each relation's CLI name and its two sides, in RelationDeclarations' slot order.  A side
# (base, chi) has the z-eigenvalue chi(z), (chi delta_P)(z) or chi^w(z) over the base chi.
_RELATIONS = (
    ("psi-eq-phi", ("psi", TorusCharacter(0, psi_exp=1)), ("phi", TorusCharacter(0, psi_exp=1))),
    ("psi-delta-eq-phi-w", ("psi", TorusCharacter(0, psi_exp=1, delta_exp=1)),
     ("phi", TorusCharacter(0, psiw_exp=1))),
    ("phi-delta-eq-phi-w", ("phi", TorusCharacter(0, psi_exp=1, delta_exp=1)),
     ("phi", TorusCharacter(0, psiw_exp=1))),
)


def resolve_relations(psi: SmoothCharacter, phi: SmoothCharacter,
                      declared: RelationDeclarations) -> dict:
    """Decide the three predicates, in the order of the module docstring, or raise
    UndecidableRelationError."""
    bases = {"psi": psi, "phi": phi}
    rel = {}
    for (name, (lhs, lhs_chi), (rhs, rhs_chi)), slot in zip(_RELATIONS, declared.__slots__):
        value = getattr(declared, slot)
        if value is None:
            if lhs_chi.z_eigenvalue(bases[lhs]) != rhs_chi.z_eigenvalue(bases[rhs]):
                value = False
            elif (lhs_chi == rhs_chi and psi.label == phi.label  # one character over psi and phi
                  and psi.torus_unit_label == phi.torus_unit_label):
                value = True
            else:
                raise UndecidableRelationError(
                    f"relation {name} is undecidable: z-values agree but the characters may "
                    f"differ on the compact torus; declare the relation explicitly")
        rel[name] = value
    return rel


def classify_ext(k, ell, psi: SmoothCharacter, phi: SmoothCharacter,
                 relations: RelationDeclarations = RelationDeclarations(),
                 trunc=None) -> ExtCase:
    """Case analysis for Ext^1 between the (k, psi) and (ell, phi) modules.

    Trivial whenever k != -(ell+2).  Otherwise the four bullets are checked
    in order against the degree-1 report of the (ell, phi) module:

      1. phi delta_P != phi^w and psi = phi            -> one-dimensional
      2. phi delta_P != phi^w and psi delta_P = phi^w  -> at most one-dimensional
      3. phi delta_P  = phi^w and psi = phi            -> one or two-dimensional
      4. psi delta_P = phi^w                           -> at most one-dimensional

    Every bullet that fires is recorded; the verdict is the first one's.
    """
    k = require_int(k, "k", even=True)
    ell = require_int(ell, "ell", even=True)
    if k >= 0:
        raise ValidationError(f"classify_ext requires k < 0, got k={k}")
    if k == ell:
        raise ValidationError("classify_ext requires k != ell")
    if trunc is not None:
        require_int(trunc, "trunc", minimum=0)
    require_type(psi, "psi", SmoothCharacter)
    require_type(phi, "phi", SmoothCharacter)
    source = TorusCharacter(k, psi_exp=1, delta_exp=1)
    if k != -(ell + 2):
        return ExtCase(k, ell, psi, phi, VERDICT_TRIVIAL, (), source, (), (), None, {})

    rel = resolve_relations(psi, phi, relations)
    e, t, s = rel.values()  # psi = phi, psi delta_P = phi^w, phi delta_P = phi^w
    report = assemble_les(OrlikStrauchSpec("simple", ell, phi), trunc)  # ell >= 0 as k < 0
    h1 = report.jh_factors(1)

    fired = tuple(i for i, b in enumerate((not s and e, not s and t, s and e, t), 1) if b)
    verdict = _BULLET_VERDICTS[fired[0]] if fired else VERDICT_TRIVIAL

    # The degree-1 factors equal to the source chi_k psi delta_P under the
    # decided relations: psi = phi matches a section factor chi_k phi delta_P,
    # psi delta_P = phi^w a stalk factor chi_k phi^w.  The hom bound counts
    # them, and credits min only where degree 1 is a direct sum.
    matched = tuple(c for c in h1 if e and c.delta_exp == 1 or t and c.psiw_exp == 1)
    n = len(matched)
    bound = (n if report.extension_kind(1) == "direct-sum-determined" else 0, n) if e or t else None
    return ExtCase(k, ell, psi, phi, verdict, fired, source, h1, matched, bound, rel)
