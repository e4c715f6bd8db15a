"""A base for the small immutable records that results are made of."""

from operator import attrgetter


class Value:
    """A record whose fields are the __slots__ of its MRO, a base's first, set once in
    __init__ and never changed afterwards: a record made from input checks each in the
    __init__ it defines (a subclass may add no field under an inherited one), and one whose
    MRO defines none by hand gets __init__(self, <its fields in order>), which stores each
    as given.  Equality, hashing and repr read the fields in order, so two records of a
    class are equal exactly when their fields are, and hash only if all fields do."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(name for base in reversed(cls.__mro__)
                                     for name in vars(base).get("__slots__", ()))
        cls._key = attrgetter(*fields) if fields else staticmethod(lambda record: ())
        init = cls.__init__  # a built one is compiled from a string
        if init is object.__init__ or init.__code__.co_filename == "<string>":
            body = "".join(f"\n    self.{name} = {name}" for name in fields) or "\n    pass"
            namespace = {}
            exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        elif "__init__" not in vars(cls) and vars(cls).get("__slots__"):
            raise TypeError(f"{cls.__name__} adds fields under an inherited hand-written "
                            "__init__, which would leave them unset; give it its own __init__")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
