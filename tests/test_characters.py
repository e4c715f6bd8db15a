import random
from collections import Counter
from fractions import Fraction

import pytest

from djem.characters import SmoothCharacter, TorusCharacter, TRIVIAL_PSI
from djem.errors import ParityError, ValidationError


def w_twist(chi):
    """Conjugation by w: negates the algebraic weight, swaps psi with psi^w
    and inverts the modulus twist.  An involution."""
    return TorusCharacter(-chi.weight, chi.psiw_exp, chi.psi_exp, -chi.delta_exp)


def test_w_conjugate_inverts_z_value():
    psi = SmoothCharacter("a", 3, Fraction(2, 5))
    assert TorusCharacter(0, psiw_exp=1).z_eigenvalue(psi) == (-3, Fraction(5, 2))


def test_smooth_character_needs_nonzero_unit():
    with pytest.raises(ValidationError):
        SmoothCharacter("zero", 0, 0)


def test_a_bool_is_not_a_unit():
    # A bool is an int to isinstance, but no integer parameter takes one.
    with pytest.raises(TypeError, match="expected an exact rational, got bool"):
        SmoothCharacter("a", 0, True)
    with pytest.raises(TypeError, match="expected an exact rational, got bool"):
        SmoothCharacter("a", 0, False)


@pytest.mark.parametrize("flag", ["no", 1, 0])
def test_w_selfdual_is_an_exact_bool(flag):
    with pytest.raises(ValidationError, match=f"w_selfdual must be True or False, got {flag!r}"):
        SmoothCharacter("a", 1, 2, w_selfdual=flag)


@pytest.mark.parametrize("kwargs, field", [
    ({"label": 5}, "label"), ({"label": None}, "label"), ({"label": b"a"}, "label"),
    ({"label": "a", "torus_unit_label": 5}, "torus_unit_label"),
    ({"label": "a", "torus_unit_label": None}, "torus_unit_label"),
])
def test_labels_are_exact_strs(kwargs, field):
    with pytest.raises(ValidationError, match=f"{field} must be a str, got "):
        SmoothCharacter(z_valuation=1, z_unit=2, **kwargs)


def test_an_empty_label_is_a_label():
    psi = SmoothCharacter("", 1, 2)
    assert psi.label == psi.torus_unit_label == ""


def test_torus_unit_label_defaults_to_label():
    psi = SmoothCharacter("a", 1, 2)
    assert psi.torus_unit_label == "a"
    assert SmoothCharacter("a", 1, 2, torus_unit_label="u").torus_unit_label == "u"


def test_trivial_character_eigenvalue():
    assert TorusCharacter(0).z_eigenvalue(TRIVIAL_PSI) == (0, 1)


def test_modulus_character_eigenvalue():
    assert TorusCharacter(0, delta_exp=1).z_eigenvalue(TRIVIAL_PSI) == (-2, 1)


def test_modulus_index_by_coset_enumeration():
    # conjugation by z scales the coordinate by p^2, so the index of the
    # scaled subgroup is the number of residues mod p^2
    for p in (2, 3):
        cosets = {x % (p * p) for x in range(p ** 4)}
        assert len(cosets) == p * p


def test_eigenvalue_exponent_additivity():
    psi = SmoothCharacter("a", 1, Fraction(3, 7))
    v, u = TorusCharacter(4, psi_exp=1, delta_exp=1).z_eigenvalue(psi)
    assert (v, u) == (4 + 1 - 2, Fraction(3, 7))
    parts = [TorusCharacter(4).z_eigenvalue(psi),
             TorusCharacter(0, psi_exp=1).z_eigenvalue(psi),
             TorusCharacter(0, delta_exp=1).z_eigenvalue(psi)]
    assert v == sum(pv for pv, _ in parts)
    prod = Fraction(1)
    for _, pu in parts:
        prod *= pu
    assert u == prod


def test_w_conjugate_exponents_negate():
    psi = SmoothCharacter("a", 5, Fraction(2))
    v, u = TorusCharacter(0, psiw_exp=1).z_eigenvalue(psi)
    assert (v, u) == (-5, Fraction(1, 2))


def test_unit_is_one_power_of_the_z_unit():
    # psi^a (psi^w)^b has unit u^a (1/u)^b = u^(a - b).
    for u in (Fraction(1), Fraction(3, 2), Fraction(-2, 5), Fraction(-1), Fraction(7, 3)):
        psi = SmoothCharacter("a", 2, u)
        for a in range(-3, 4):
            for b in range(-3, 4):
                _, unit = TorusCharacter(0, psi_exp=a, psiw_exp=b).z_eigenvalue(psi)
                assert type(unit) is Fraction and unit == u ** a * (1 / u) ** b, (u, a, b)


# The base characters the w-twist tests evaluate at z: trivial, and one whose
# psi^w(z) = psi(z)^{-1} differs from psi(z) in valuation and unit.
TWIST_PSIS = (TRIVIAL_PSI, SmoothCharacter("a", 3, Fraction(2, 5)))


def assert_twist_inverts_z_eigenvalue(chi, psi):
    """w z w^{-1} = z^{-1}, so the w-twist of chi takes the inverse value at z."""
    e, u = chi.z_eigenvalue(psi)
    assert w_twist(chi).z_eigenvalue(psi) == (-e, 1 / u), (chi, psi)


def test_w_twist_involution():
    chars = (TorusCharacter(4, psi_exp=1, delta_exp=1),
             TorusCharacter(-6, psiw_exp=1),
             TorusCharacter(2, psi_exp=2, psiw_exp=1, delta_exp=-1))
    assert tuple(w_twist(w_twist(c)) for c in chars) == chars
    for chi in chars:
        for psi in TWIST_PSIS:
            assert_twist_inverts_z_eigenvalue(chi, psi)


def test_w_twist_swaps_and_negates():
    chi = TorusCharacter(4, psi_exp=1, delta_exp=1)
    assert w_twist(chi) == TorusCharacter(-4, psiw_exp=1, delta_exp=-1)
    for psi in TWIST_PSIS:
        assert_twist_inverts_z_eigenvalue(chi, psi)


def test_text_rendering():
    assert TorusCharacter(-4, psi_exp=1, delta_exp=1).text() == "chi_{-4} psi delta_P"
    assert TorusCharacter(2, psiw_exp=1).text() == "chi_{2} psi^w"
    assert TorusCharacter(0).text() == "chi_{0}"


def test_odd_weight_rejected():
    with pytest.raises(ParityError):
        TorusCharacter(3)


def test_torus_characters_are_values():
    chi = TorusCharacter(4, psi_exp=1, delta_exp=1)
    same = TorusCharacter(4, 1, 0, 1)
    assert chi == same and hash(chi) == hash(same)
    for other in (TorusCharacter(6, psi_exp=1, delta_exp=1), TorusCharacter(4, delta_exp=1),
                  TorusCharacter(4, psi_exp=1, psiw_exp=1, delta_exp=1),
                  TorusCharacter(4, psi_exp=1)):
        assert chi != other
    assert chi != (4, 1, 0, 1)
    assert Counter([chi, same, w_twist(chi)]) == Counter({chi: 2, w_twist(chi): 1})
    assert repr(chi) == "TorusCharacter(weight=4, psi_exp=1, psiw_exp=0, delta_exp=1)"


def test_torus_character_equality_and_hash_keep_value_semantics():
    rng = random.Random(20261019)
    for _ in range(200):
        fields = (2 * rng.randint(-20, 20), rng.randint(-3, 3), rng.randint(-3, 3),
                  rng.randint(-3, 3))
        chi, same = TorusCharacter(*fields), TorusCharacter(*fields)
        assert chi is not same and chi == same and not chi != same
        assert hash(chi) == hash(same) == hash(fields)
        for i in range(4):
            moved = list(fields)
            moved[i] += 2
            assert chi != TorusCharacter(*moved)
    chi = TorusCharacter(4, psi_exp=1, delta_exp=1)
    # Another Value class with the same field values is never equal to it.
    twin = SmoothCharacter("a", 1, 2)
    assert chi.__eq__(twin) is NotImplemented and twin.__eq__(chi) is NotImplemented
    assert chi != twin and chi.__eq__((4, 1, 0, 1)) is NotImplemented


def test_z_eigenvalue_takes_no_power_for_exponent_zero_or_one():
    psi = SmoothCharacter("a", 3, Fraction(-2, 5))
    assert TorusCharacter(0, psi_exp=1).z_eigenvalue(psi) == (3, psi.z_unit)
    assert TorusCharacter(0, psi_exp=1).z_eigenvalue(psi)[1] is psi.z_unit
    assert TorusCharacter(2, psi_exp=2, psiw_exp=2).z_eigenvalue(psi) == (2, Fraction(1))
    assert TorusCharacter(0, psiw_exp=1).z_eigenvalue(psi) == (-3, Fraction(-5, 2))


def test_smooth_characters_are_values():
    psi = SmoothCharacter("a", 1, 2)
    same = SmoothCharacter("a", 1, Fraction(2), torus_unit_label="a")
    assert psi == same and hash(psi) == hash(same)
    assert len({psi, same, TRIVIAL_PSI}) == 2
    for other in (SmoothCharacter("b", 1, 2), SmoothCharacter("a", 2, 2),
                  SmoothCharacter("a", 1, 3), SmoothCharacter("a", 1, 2, w_selfdual=True),
                  SmoothCharacter("a", 1, 2, torus_unit_label="u")):
        assert psi != other
    assert psi == SmoothCharacter("a", 1, "2/1")
