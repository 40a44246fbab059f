"""Record: the base of the package's immutable value classes.

A record is a plain class with __slots__ and an explicit __init__, not
one the standard library's record decorator generates: that module
imports inspect, ast, dis and tokenize, and each decorated class compiles
its generated methods at import. Together they cost each CLI call 11-18
ms before any work (medians of 40 fresh interpreters per verb, 2-core
machine).
"""


class Record:
    """An immutable record whose fields are its __slots__.

    The slots without a leading underscore, in order, are the fields that
    ==, hash, repr and pickling read: two records are equal when they are
    of the same class and their fields are, and the hash is that of the
    field tuple. A slot with a leading underscore holds what the record
    works out about itself and takes part in none of these. A subclass
    sets its slots through object.__setattr__ in its own __init__, which
    takes the fields as arguments and checks them; assigning or deleting
    an attribute raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *values):
        """Set every slot, in __slots__ order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        """The record with these slot values, in __slots__ order, which the
        caller knows pass cls.__init__'s checks: none of them is run."""
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
