"""The immutable-value base of the package's record classes.

A record class lists its fields in ``__slots__``, in constructor order (a
slot whose name starts with ``_`` is a private cache, not a field), and its
``__init__`` stores each normalised value with :func:`_set` and checks it.
The base refuses assignment and deletion (AttributeError), compares two
records of the same class by their fields, hashes by them (a TypeError
where a field is unhashable), writes a ``Class(field=value)`` repr, and
copies and pickles through the constructor.  That is what a frozen
dataclass generates, written once, so importing the package execs no
generated methods and loads neither the dataclass module nor the
``inspect``, ``ast``, ``dis`` and ``tokenize`` modules it imports.
"""

_set = object.__setattr__


class Value:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name[0] != "_"])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
