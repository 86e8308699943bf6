"""Exact cost values: non-negative rationals extended with an absorbing infinity.

Addition is commutative, associative and monotone; ``a + INF == INF``.
All finite arithmetic is exact rational arithmetic, never floating point.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import FormatError


class Cost:
    """A non-negative exact rational, or the distinguished infinite cost.

    Instances are immutable and totally ordered, with every finite value
    below infinity.
    """

    __slots__ = ("_v",)

    def __init__(self, value):
        if isinstance(value, Cost):
            self._v = value._v
            return
        if value is None:
            self._v = None  # infinity
            return
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise TypeError(f"cost must be int, Fraction or Cost, not {type(value).__name__}")
        frac = value if type(value) is Fraction else Fraction(value)
        if frac < 0:
            raise ValueError(f"costs are non-negative, got {frac}")
        self._v = frac

    @property
    def is_infinite(self):
        return self._v is None

    @property
    def value(self) -> Fraction:
        """The finite rational value; raises on infinity."""
        if self._v is None:
            raise ValueError("infinite cost has no finite value")
        return self._v

    def __add__(self, other):
        if not isinstance(other, Cost):
            return NotImplemented
        if self._v is None or other._v is None:
            return INF
        return Cost(self._v + other._v)

    def __sub__(self, other):
        """Difference, defined where the result stays in the structure."""
        if not isinstance(other, Cost):
            return NotImplemented
        if other._v is None:
            raise ValueError("cannot subtract an infinite cost")
        if self._v is None:
            return INF
        return Cost(self._v - other._v)

    def __mul__(self, scalar):
        if isinstance(scalar, Cost):
            scalar = scalar.value
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar < 0:
            raise ValueError("cost scaling factor must be non-negative")
        if self._v is None:
            if scalar == 0:
                raise ValueError("0 * INF is undefined")
            return INF
        return Cost(self._v * Fraction(scalar))

    __rmul__ = __mul__

    def _key(self):
        # INF sorts above every finite value
        return (1,) if self._v is None else (0, self._v)

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def __eq__(self, other):
        if not isinstance(other, Cost):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

    def __repr__(self):
        return f"Cost({format_cost(self)!r})"

    def __str__(self):
        return format_cost(self)


ZERO = Cost(0)
ONE = Cost(1)
INF = Cost(None)


def cost_sum(items) -> Cost:
    """Exact sum of Costs, INF if any is infinite; the finite values are
    added as integers over their common denominator."""
    den, ((ints,),) = scale_tables([[items]])
    return INF if None in ints else Cost(Fraction(sum(ints), den))


def scale_tables(tables):
    """``(den, scaled)`` for tables of rows of Costs: every finite cost times
    ``den``, the least common multiple of all their denominators, as an int,
    and ``inf`` as None, shaped as the input.  Each cost's ratio is read
    once, in one pass: when a denominator does not divide the running
    ``den``, the rows scaled so far are multiplied up, which happens at most
    once per prime factor of the final ``den``."""
    den = 1
    out = []
    for table in tables:
        rows = []
        out.append(rows)
        for row in table:
            ints = []
            for c in row:
                v = c._v
                if v is None:
                    ints.append(None)
                    continue
                p, q = v.as_integer_ratio()
                if den % q:
                    grown = lcm(den, q)
                    k, den = grown // den, grown
                    out = [[tuple([x if x is None else x * k for x in r]) for r in t] for t in out]
                    rows = out[-1]
                    ints = [x if x is None else x * k for x in ints]
                ints.append(p * (den // q))
            rows.append(tuple(ints))
    return den, [tuple(rows) for rows in out]


_COST_GRAMMAR = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def parse_cost(text: str) -> Cost:
    """Parse ``"inf"``, ASCII digits ``n``, or ``p/q`` in ASCII digits with
    q > 0, in any terms; signs, underscores and other digits are rejected."""
    if not isinstance(text, str):
        raise FormatError(f"cost must be a string, got {type(text).__name__}")
    stripped = text.strip()
    if stripped == "inf":
        return INF
    match = _COST_GRAMMAR.fullmatch(stripped)
    if match is None:
        raise FormatError(f"malformed cost string {text!r}; expected inf, n or p/q, non-negative")
    try:
        num, den = (int(part or 1) for part in match.groups())
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise FormatError(
            f"cost string of {len(stripped)} characters has more digits than can be read"
        ) from None
    if den == 0:
        raise FormatError(f"cost denominator must be positive: {text!r}")
    return Cost(Fraction(num, den))


def format_cost(c: Cost) -> str:
    """Canonical cost string: ``inf``, ``7`` or ``5/6`` (lowest terms).
    Raises FormatError when a part has more digits than ``str`` writes,
    as ``parse_cost`` does when it has more than ``int`` reads."""
    if c.is_infinite:
        return "inf"
    v = c.value
    try:
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise FormatError("cost has more digits than can be written") from None
