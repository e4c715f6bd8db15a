"""A base for the small immutable records that results are made of."""

from operator import attrgetter


class Value:
    """A record whose fields are its __slots__, set once in __init__ and never
    changed afterwards: a record made from input checks each in the __init__ it
    defines, and a class whose MRO defines none gets __init__(self, <its slots in
    order>), which stores each as given.  Equality, hashing and repr read the
    fields in slot order, so two records of a class are equal exactly when their
    fields are, and a record hashes only if all its fields do."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__slots__)
        if not any("__init__" in vars(base) for base in cls.__mro__[:-1]):
            body = "".join(f"\n    self.{name} = {name}" for name in cls.__slots__)
            namespace = {}
            exec(f"def __init__(self, {', '.join(cls.__slots__)}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
