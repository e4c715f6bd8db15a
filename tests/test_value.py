"""The constructor Value builds for a record that only stores its fields:
its signature is the record's slots in order, it takes them by position or
by name, and it keeps Python's own arity errors.  A record made from input
keeps the __init__ it defines."""

import inspect

import pytest

from djem.characters import SmoothCharacter, TorusCharacter
from djem.cohomology import CohomologyResult, StabilizationCertificate, WeightLines
from djem.extbound import ExtCase, RelationDeclarations
from djem.jacquet import JacquetReport, OrlikStrauchSpec
from djem.value import Value

RESULTS = (StabilizationCertificate, WeightLines, CohomologyResult, JacquetReport, ExtCase)
INPUTS = (SmoothCharacter, TorusCharacter, OrlikStrauchSpec, RelationDeclarations)


@pytest.mark.parametrize("cls", RESULTS, ids=lambda cls: cls.__name__)
def test_the_built_constructor_takes_the_slots_in_order(cls):
    assert "__init__" in vars(cls) and cls.__init__.__code__.co_filename == "<string>"
    params = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in params) == cls.__slots__
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


@pytest.mark.parametrize("cls", RESULTS, ids=lambda cls: cls.__name__)
def test_position_and_keyword_construction_agree(cls):
    values = [f"field {i}" for i in range(len(cls.__slots__))]
    by_position = cls(*values)
    assert by_position == cls(**dict(zip(cls.__slots__, values)))
    assert [getattr(by_position, name) for name in cls.__slots__] == values


@pytest.mark.parametrize("cls", RESULTS, ids=lambda cls: cls.__name__)
def test_a_missing_or_extra_field_is_a_type_error(cls):
    n = len(cls.__slots__)
    with pytest.raises(TypeError, match=rf"{cls.__name__}\.__init__\(\) missing 1 required"):
        cls(*range(n - 1))
    with pytest.raises(TypeError, match=rf"{cls.__name__}\.__init__\(\) takes"):
        cls(*range(n + 1))
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*range(n), extra=0)


def test_certified_has_no_default():
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'certified'"):
        CohomologyResult("n", (), (), -2, None)


@pytest.mark.parametrize("cls", INPUTS, ids=lambda cls: cls.__name__)
def test_a_record_made_from_input_keeps_its_own_constructor(cls):
    # A built constructor is compiled from a string; a validating one is in
    # its class's own module.
    assert "__init__" in vars(cls)
    assert cls.__init__.__code__.co_filename == inspect.getfile(cls)


def test_a_constructor_is_built_only_where_the_mro_defines_none():
    class Pair(Value):
        __slots__ = ("a", "b")

    class Checked(Value):
        __slots__ = ("a",)

        def __init__(self, a):
            self.a = int(a)

    class Child(Checked):
        __slots__ = ()

    assert "__init__" in vars(Pair) and Pair(1, b=2) == Pair(a=1, b=2)
    assert Checked("3").a == 3
    # A subclass inherits the constructor its parent defines and gets none of its own.
    assert "__init__" not in vars(Child) and Child.__init__ is Checked.__init__
    assert Child("4").a == 4 and Child("4") == Child(4) and repr(Child("4")) == "Child(a=4)"


def test_a_field_added_under_an_inherited_hand_written_constructor_is_refused():
    # Checked.__init__ would never set b, so the first ==, hash or repr of a
    # Grown would raise AttributeError; the class itself is refused instead.
    class Checked(Value):
        __slots__ = ("a",)

        def __init__(self, a):
            self.a = int(a)

    with pytest.raises(TypeError, match=r"^Grown adds fields under an inherited hand-written"):
        class Grown(Checked):
            __slots__ = ("b",)

    class Own(Checked):
        __slots__ = ("b",)

        def __init__(self, a, b):
            super().__init__(a)
            self.b = b

    assert Own("1", 2) == Own(1, 2) and repr(Own(1, 2)) == "Own(a=1, b=2)"


def test_a_subclass_of_a_record_reads_every_field_of_its_mro():
    class Pair(Value):
        __slots__ = ("a", "b")

    class Same(Pair):
        __slots__ = ()

    class Triple(Pair):
        __slots__ = ("c",)

    class Empty(Value):
        __slots__ = ()

    assert Same(1, b=2) == Same(1, 2) != Same(1, 3) and Same(1, 2) != Pair(1, 2)
    assert repr(Same(1, 2)) == "Same(a=1, b=2)"
    assert tuple(inspect.signature(Triple).parameters) == ("a", "b", "c")
    assert Triple(1, 2, 3) != Triple(0, 2, 3) and Triple(1, 2, 3) != Triple(1, 2, 4)
    assert len({Triple(1, 2, 3), Triple(1, 2, 3), Triple(0, 2, 3)}) == 2
    assert repr(Triple(1, 2, 3)) == "Triple(a=1, b=2, c=3)"
    assert Empty() == Empty() and hash(Empty()) == hash(Empty()) and repr(Empty()) == "Empty()"
