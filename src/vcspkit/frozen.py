"""The base of the immutable value classes.

A subclass names its fields in ``_fields``, in constructor order, and sets
each one once in its ``__init__`` through ``setfield``; after that every
assignment or deletion raises ``AttributeError``.  Equality, hash and repr
read the fields alone, through one ``operator.attrgetter`` per class.  Copy
and pickle rebuild an object by calling its class on its fields.
"""

from operator import attrgetter

setfield = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since restoring
        # the fields one by one would go through __setattr__
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
