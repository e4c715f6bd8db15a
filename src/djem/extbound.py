"""Extension-dimension bounds from computed Jacquet reports.

classify_ext answers: how large can the space of extensions between the
negative-weight principal-series-type module attached to (k, psi) and the
canonically embedded submodule attached to (ell, phi) be?  The verdict is a
pure character-matching case analysis driven by three relation predicates

    psi = phi,   psi delta_P = phi^w,   phi delta_P = phi^w,

evaluated against the degree-1 Jacquet report of the (ell, phi) module.
Smooth characters agreeing at z may still differ on the compact torus, so a
predicate is only decided by an explicit declaration, by identical
declarations on both sides, or by refutation from distinct z-values; anything
else raises rather than silently guessing.
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


def _decide(name, declared, lhs_z, rhs_z, identical_declarations=False):
    if declared is not None:
        return declared
    if lhs_z != rhs_z:
        return False
    if identical_declarations:
        return True
    raise UndecidableRelationError(
        f"relation {name} is undecidable: z-values agree but the characters may "
        f"differ on the compact torus; declare the relation explicitly")


# Over a base chi, the z-eigenvalues of these are chi(z), (chi delta_P)(z) and chi^w(z).
_BASE = TorusCharacter(0, psi_exp=1)
_BASE_DELTA = TorusCharacter(0, psi_exp=1, delta_exp=1)
_BASE_W = TorusCharacter(0, psiw_exp=1)


def resolve_relations(psi: SmoothCharacter, phi: SmoothCharacter,
                      declared: RelationDeclarations) -> dict:
    """Decide the three predicates or raise UndecidableRelationError."""
    psi_z, phi_z = _BASE.z_eigenvalue(psi), _BASE.z_eigenvalue(phi)
    phi_w_z = _BASE_W.z_eigenvalue(phi)
    same_declaration = (psi.label == phi.label and psi_z == phi_z
                        and psi.torus_unit_label == phi.torus_unit_label)
    psi_eq_phi = _decide("psi-eq-phi", declared.psi_eq_phi, psi_z, phi_z, same_declaration)
    psi_delta_eq_phi_w = _decide("psi-delta-eq-phi-w", declared.psi_delta_eq_phi_w,
                                 _BASE_DELTA.z_eigenvalue(psi), phi_w_z)
    phi_delta_eq_phi_w = _decide("phi-delta-eq-phi-w", declared.phi_delta_eq_phi_w,
                                 _BASE_DELTA.z_eigenvalue(phi), phi_w_z)
    return {"psi-eq-phi": psi_eq_phi,
            "psi-delta-eq-phi-w": psi_delta_eq_phi_w,
            "phi-delta-eq-phi-w": phi_delta_eq_phi_w}


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
    target_spec = OrlikStrauchSpec("simple" if ell >= 0 else "verma", ell, phi)
    report = assemble_les(target_spec, trunc)
    h1 = report.jh_factors(1)

    b1 = (not rel["phi-delta-eq-phi-w"]) and rel["psi-eq-phi"]
    b2 = (not rel["phi-delta-eq-phi-w"]) and rel["psi-delta-eq-phi-w"]
    b3 = rel["phi-delta-eq-phi-w"] and rel["psi-eq-phi"]
    b4 = rel["psi-delta-eq-phi-w"]
    fired = tuple(i for i, b in ((1, b1), (2, b2), (3, b3), (4, b4)) if b)
    verdict = _BULLET_VERDICTS[fired[0]] if fired else VERDICT_TRIVIAL

    # The degree-1 factors equal to the source chi_k psi delta_P under the
    # decided relations: psi = phi matches a section factor chi_k phi delta_P,
    # psi delta_P = phi^w a stalk factor chi_k phi^w.  The hom bound counts
    # them, and credits min only where degree 1 is a direct sum.
    matched = tuple(c for c in h1 if rel["psi-eq-phi"] and c.delta_exp == 1
                    or rel["psi-delta-eq-phi-w"] and c.psiw_exp == 1)
    bound = None
    if rel["psi-eq-phi"] or rel["psi-delta-eq-phi-w"]:
        n = len(matched)
        bound = (n if report.extension_kind(1) == "direct-sum-determined" else 0, n)
    return ExtCase(k, ell, psi, phi, verdict, fired, source, h1, matched, bound, rel)
