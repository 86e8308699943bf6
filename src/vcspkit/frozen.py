"""The base of the immutable value classes.

A subclass names its fields in ``_fields``, in constructor order.  The
shared constructor takes exactly one positional value per field and stores
them in that order; after that every assignment or deletion raises
``AttributeError``.  Equality, hash and repr read the fields alone, through
one ``operator.attrgetter`` per class.  Copy and pickle rebuild an object by
calling its class on its fields.

The value classes fall in three groups:

- records that only store their arguments inherit the constructor and
  define no ``__init__``;
- classes that default, convert or check an argument keep their own
  signature and checks, and store their fields with one
  ``Frozen.__init__(self, ...)`` call;
- one class, ``Arc``, sets its slots through ``setfield``.  It is made once
  per arc of every flow network: on Python 3.11.7 on an Intel Xeon, the
  shared constructor takes about 850-1,000 ns for a 3-field object against
  480 ns for three ``setfield`` calls (best of 7 x 200,000), and with
  ``Arc`` built through it, ``cfc-laminar`` ``wall_s`` read 0.127 / 0.123 /
  0.122 s against 0.112 / 0.113 / 0.116 s, slower in 3 of 3 alternating
  pairs.
"""

from operator import attrgetter

setfield = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            setfield(self, name, value)

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
