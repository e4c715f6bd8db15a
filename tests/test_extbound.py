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
