import itertools
from fractions import Fraction

import pytest

from djem.characters import SmoothCharacter, TorusCharacter, TRIVIAL_PSI
from djem.errors import ParityError, UndecidableRelationError, ValidationError
from djem.extbound import (RelationDeclarations, VERDICT_AT_MOST_ONE, VERDICT_ONE,
                           VERDICT_ONE_OR_TWO, VERDICT_TRIVIAL, classify_ext, resolve_relations)
from djem.jacquet import OrlikStrauchSpec


def test_trivial_whenever_weights_mismatch():
    for k, ell in ((-4, 4), (-2, 2), (-6, 0), (-8, -2), (-4, -6)):
        case = classify_ext(k, ell, TRIVIAL_PSI, TRIVIAL_PSI)
        assert case.verdict == VERDICT_TRIVIAL
        assert case.fired_bullets == ()
        assert case.h1_factors == ()


def test_equal_characters_give_one_dimensional():
    case = classify_ext(-4, 2, TRIVIAL_PSI, TRIVIAL_PSI)
    assert case.verdict == VERDICT_ONE
    assert case.fired_bullets == (1,)
    assert case.matched_factors == (TorusCharacter(-4, psi_exp=1, delta_exp=1),)
    assert case.hom_bound == (0, 1)
    assert [c.text() for c in case.h1_factors] == ["chi_{-4} psi delta_P", "chi_{-4} psi^w"]


def test_twisted_match_gives_at_most_one():
    psi = SmoothCharacter("a", 2, 1)
    phi = SmoothCharacter("b", 0, 1)
    rel = RelationDeclarations(psi_delta_eq_phi_w=True)
    case = classify_ext(-4, 2, psi, phi, rel)
    assert case.verdict == VERDICT_AT_MOST_ONE
    assert case.fired_bullets == (2, 4)
    assert case.matched_factors == (TorusCharacter(-4, psiw_exp=1),)
    assert case.hom_bound == (0, 1)


def test_twisted_match_declared_false_is_trivial():
    psi = SmoothCharacter("a", 2, 1)
    phi = SmoothCharacter("b", 0, 1)
    case = classify_ext(-4, 2, psi, phi, RelationDeclarations(psi_delta_eq_phi_w=False))
    assert case.verdict == VERDICT_TRIVIAL
    assert case.fired_bullets == ()


def test_selfpaired_target_gives_one_or_two():
    phi = SmoothCharacter("c", 1, 1)
    rel = RelationDeclarations(phi_delta_eq_phi_w=True, psi_delta_eq_phi_w=False)
    for ell in (2, 4):
        case = classify_ext(-(ell + 2), ell, phi, phi, rel)
        assert case.verdict == VERDICT_ONE_OR_TWO
        assert case.fired_bullets == (3,)


def test_fourth_bullet_alone():
    psi = SmoothCharacter("d1", 1, 1)
    phi = SmoothCharacter("d2", 1, 1)
    rel = RelationDeclarations(psi_eq_phi=False, psi_delta_eq_phi_w=True,
                               phi_delta_eq_phi_w=True)
    case = classify_ext(-4, 2, psi, phi, rel)
    assert case.fired_bullets == (4,)
    assert case.verdict == VERDICT_AT_MOST_ONE


def test_hypothesis_validation():
    with pytest.raises(ValidationError):
        classify_ext(2, -4, TRIVIAL_PSI, TRIVIAL_PSI)   # k must be negative
    with pytest.raises(ValidationError):
        classify_ext(-4, -4, TRIVIAL_PSI, TRIVIAL_PSI)  # k != ell
    with pytest.raises(ParityError):
        classify_ext(-3, 1, TRIVIAL_PSI, TRIVIAL_PSI)


def test_undecidable_relation_raises():
    psi = SmoothCharacter("u1", 1, 1)
    phi = SmoothCharacter("u2", 1, 1)
    with pytest.raises(UndecidableRelationError, match="undecidable"):
        classify_ext(-4, 2, psi, phi)


def test_relation_resolution_rules():
    # identical declarations decide equality; distinct z-values refute it
    a = SmoothCharacter("a", 1, 2)
    rel = resolve_relations(a, a, RelationDeclarations())
    assert rel["psi-eq-phi"] is True
    b = SmoothCharacter("b", 3, 2)
    rel = resolve_relations(a, b, RelationDeclarations(psi_delta_eq_phi_w=False,
                                                       phi_delta_eq_phi_w=False))
    assert rel["psi-eq-phi"] is False
    # explicit declarations always win
    rel = resolve_relations(a, a, RelationDeclarations(psi_eq_phi=False,
                                                       psi_delta_eq_phi_w=False,
                                                       phi_delta_eq_phi_w=False))
    assert rel["psi-eq-phi"] is False


@pytest.mark.parametrize("flag", ["no", 1, 0])
def test_a_declaration_is_an_exact_bool_or_none(flag):
    # Read through bool(), "no" would declare psi = phi and 0 would deny it.
    for field in ("psi_eq_phi", "psi_delta_eq_phi_w", "phi_delta_eq_phi_w"):
        with pytest.raises(ValidationError,
                           match=f"{field} must be True, False or None, got {flag!r}"):
            RelationDeclarations(**{field: flag})
    with pytest.raises(ValidationError):
        classify_ext(-4, 2, SmoothCharacter("a", 1, 1), SmoothCharacter("b", 0, 1),
                     RelationDeclarations(flag, False, False))


def test_verdict_independent_of_declaration_bundling():
    phi = SmoothCharacter("c", 1, 1)
    declared_together = RelationDeclarations(phi_delta_eq_phi_w=True, psi_delta_eq_phi_w=False)
    declared_again = RelationDeclarations(psi_delta_eq_phi_w=False, phi_delta_eq_phi_w=True)
    a = classify_ext(-4, 2, phi, phi, declared_together)
    b = classify_ext(-4, 2, phi, phi, declared_again)
    assert a.verdict == b.verdict and a.fired_bullets == b.fired_bullets


@pytest.mark.parametrize("ell", [2, 6])  # k = -(ell + 2), and the early trivial return
@pytest.mark.parametrize("field", ["psi", "phi"])
def test_psi_and_phi_are_refused_unless_smooth_characters(field, ell):
    chars = {"psi": TRIVIAL_PSI, "phi": TRIVIAL_PSI, field: "a"}
    with pytest.raises(ValidationError, match=f"{field} must be a SmoothCharacter, got 'a'"):
        classify_ext(-4, ell, chars["psi"], chars["phi"])


def test_a_spec_refuses_a_psi_that_is_not_a_smooth_character():
    with pytest.raises(ValidationError, match="psi must be a SmoothCharacter, got 'a'"):
        OrlikStrauchSpec("verma", 2, "a")


def _reference_relations(psi, phi, declared):
    """The decision order written out from the z-values: a declaration decides;
    otherwise distinct z-values refute; otherwise, for psi-eq-phi only, identical
    declarations decide true; otherwise the relation is undecidable."""
    def z(c, delta=0, w=False):
        return (-c.z_valuation, 1 / c.z_unit) if w else (c.z_valuation - 2 * delta, c.z_unit)

    identical = psi.label == phi.label and psi.torus_unit_label == phi.torus_unit_label
    sides = {"psi-eq-phi": (z(psi), z(phi), identical),
             "psi-delta-eq-phi-w": (z(psi, delta=1), z(phi, w=True), False),
             "phi-delta-eq-phi-w": (z(phi, delta=1), z(phi, w=True), False)}
    decided = {}
    for name, (lhs, rhs, identical_decides) in sides.items():
        value = getattr(declared, name.replace("-", "_"))
        if value is None:
            if lhs != rhs:
                value = False
            elif identical_decides:
                value = True
            else:
                raise UndecidableRelationError(f"relation {name} is undecidable")
        decided[name] = value
    return decided


def _decision(resolve, psi, phi, declared):
    try:
        return resolve(psi, phi, declared)
    except UndecidableRelationError as err:
        return UndecidableRelationError, str(err).split()[1]


def test_resolve_relations_follows_the_decision_order():
    # Identical and distinct labels and torus units, psi(z) = +-p, and sides
    # that the z-values do and do not refute.
    chars = [TRIVIAL_PSI, SmoothCharacter("a", 0, 1), SmoothCharacter("a", 1, 1),
             SmoothCharacter("a", 1, 1, torus_unit_label="t"), SmoothCharacter("b", 1, 1),
             SmoothCharacter("a", 1, -1), SmoothCharacter("b", -1, 1), SmoothCharacter("c", 2, 3),
             SmoothCharacter("c", -2, Fraction(1, 3))]
    outcomes = set()
    for values in itertools.product((None, True, False), repeat=3):
        declared = RelationDeclarations(*values)
        for psi, phi in itertools.product(chars, repeat=2):
            want = _decision(_reference_relations, psi, phi, declared)
            assert _decision(resolve_relations, psi, phi, declared) == want, (psi, phi, declared)
            outcomes.add(want[1] if isinstance(want, tuple) else "decided")
    assert outcomes == {"decided", "psi-eq-phi", "psi-delta-eq-phi-w", "phi-delta-eq-phi-w"}
    # Identical declarations decide psi = phi and nothing else: psi delta_P and
    # phi^w still agree at z, so the next relation is undecidable.
    a = SmoothCharacter("a", 1, 1)
    assert _decision(resolve_relations, a, a, RelationDeclarations()) == (
        UndecidableRelationError, "psi-delta-eq-phi-w")
    assert resolve_relations(a, a, RelationDeclarations(None, False, False))["psi-eq-phi"] is True
