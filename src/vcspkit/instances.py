"""Instance data model: binary-table instances and count-cost instances.

All types are immutable after construction and safe to share across threads.
A solution is a plain tuple of value indices, one per variable.  Each kind
of instance keeps, built on first use, one view of its costs as integers
over one denominator (``BinaryInstance.integer_costs``,
``CountInstance.integer_counts``), which the solvers read; the evaluators
read the ``Cost`` tables, so re-evaluation is independent of the views.
A count table's convexity is decided there once, when its ``IntegerCount``
is built (``bend``), and equal tables of one view share that object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple

from .costs import Cost, INF, ZERO, cost_sum, scale_tables
from .errors import InstanceError
from .frozen import Frozen

Solution = Tuple[int, ...]
Assignment = Tuple[int, int]  # (variable index, value index)


class IntegerCosts(Frozen):
    """The costs of a binary instance as integers over one denominator.

    Each finite cost times ``den``, the least common multiple of the
    denominators of all unary and binary costs, is an int; ``inf`` is None.
    ``unary`` and ``binary`` are shaped as in ``BinaryInstance``, with the
    present tables only.
    """

    __slots__ = _fields = ("den", "unary", "binary")

    def cost(self, v: Optional[int]) -> Cost:
        """The cost a scaled value stands for."""
        return INF if v is None else Cost(Fraction(v, self.den))


class IntegerCount(Frozen):
    """A count-cost table as ints over a denominator kept by its owner.

    ``table[m]`` is the cost of count m times that denominator, None where
    it is ``inf``; ``support`` is (l, u), the ends of the finite part, or
    None if it is empty; ``slopes`` are the first differences on [l, u];
    ``bend`` is the first count m with g(m+2) - g(m+1) < g(m+1) - g(m), or
    None when the table is convex.  Build it with ``integer_count``.
    """

    __slots__ = _fields = ("table", "support", "slopes", "bend")


def _finite_support(finite):
    """(l, u), the ends of ``finite``, the indices of a table's finite
    entries, or None if there are none; raises unless they are contiguous."""
    if finite and finite[-1] - finite[0] + 1 != len(finite):
        raise InstanceError(
            f"finite support of a count function must be a contiguous interval, got {finite}"
        )
    return (finite[0], finite[-1]) if finite else None


def integer_count(table) -> IntegerCount:
    """The IntegerCount of a table of ints and Nones: the one place where a
    table's convexity is decided, from its slopes."""
    table = tuple(table)
    support = _finite_support([m for m, v in enumerate(table) if v is not None])
    lo, hi = support or (0, -1)
    slopes = tuple([b - a for a, b in zip(table[lo:hi], table[lo + 1:hi + 1])])
    bend = next(
        (m for m, (left, right) in enumerate(zip(slopes, slopes[1:]), lo) if right < left), None
    )
    return IntegerCount(table, support, slopes, bend)


def _integer_counts(tables):
    """One IntegerCount per table; equal tables share one, so each distinct
    table's convexity is decided once."""
    made = {}
    for t in tables:
        if t not in made:
            made[t] = integer_count(t)
    return tuple([made[t] for t in tables])


class IntegerCounts(Frozen):
    """The costs of a count instance as integers over one denominator.

    ``den`` is the least common multiple of the denominators of every
    finite count cost and of the constant; ``counts[k]`` is the function of
    set k scaled by it, and ``constant`` the scaled constant (None when it
    is ``inf``).
    """

    __slots__ = _fields = ("den", "counts", "constant")


class BinaryInstance(Frozen):
    """Variables with finite domains, unary cost tables and pairwise tables.

    ``binary`` maps ordered pairs (i, j) with i < j to |D_i| x |D_j| tables;
    an absent pair means the uniformly zero cost function, and so does an
    absent unary table at construction time (it is materialised as zeros).
    """

    _fields = ("names", "domains", "unary", "binary")

    def __init__(
        self,
        names: Tuple[str, ...],
        domains: Tuple[Tuple[str, ...], ...],
        unary: Tuple[Tuple[Cost, ...], ...],
        binary: Mapping[Tuple[int, int], Tuple[Tuple[Cost, ...], ...]],
    ):
        Frozen.__init__(self, names, domains, unary, MappingProxyType(dict(binary)))
        n = len(names)
        if len(domains) != n:
            raise InstanceError("one domain per variable required")
        for i, dom in enumerate(domains):
            if not dom:
                raise InstanceError(f"domain of variable {i} is empty")
        if len(unary) != n:
            raise InstanceError("one unary table per variable required")
        for i, table in enumerate(unary):
            if len(table) != len(domains[i]):
                raise InstanceError(f"unary table of variable {i} has wrong length")
        for (i, j), table in self.binary.items():
            if not (0 <= i < j < n):
                raise InstanceError(f"binary table on invalid pair ({i}, {j})")
            if len(table) != len(domains[i]) or any(
                len(row) != len(domains[j]) for row in table
            ):
                raise InstanceError(f"binary table on ({i}, {j}) has wrong shape")

    @classmethod
    def build(cls, domains: Sequence[Sequence[str]], *, names=None, unary=None, binary=None):
        """Construct with zero-filled defaults for absent tables; the
        constructor checks the shapes and the pairs."""
        domains_t = tuple(tuple(d) for d in domains)
        n = len(domains_t)
        if names is None:
            names = tuple(f"v{i}" for i in range(n))
        unary = dict(unary or {})
        unary_t = tuple(
            tuple(Cost(c) for c in unary[i]) if i in unary else tuple(ZERO for _ in domains_t[i])
            for i in range(n)
        )
        tables = {pair: tuple(tuple(Cost(c) for c in row) for row in rows)
                  for pair, rows in (binary or {}).items()}
        return cls(tuple(names), domains_t, unary_t, tables)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def max_domain(self) -> int:
        return max(len(d) for d in self.domains)

    @cached_property
    def integer_costs(self) -> IntegerCosts:
        """The costs scaled to integers, built on first use and kept.  The
        triangle scan, the class solvers and the oracle read these;
        ``evaluate_binary`` reads the ``Cost`` tables."""
        den, (unary, *binary) = scale_tables((self.unary, *self.binary.values()))
        return IntegerCosts(den, unary, MappingProxyType(dict(zip(self.binary, binary))))

    def all_binary_costs(self):
        """Every entry of every present binary table (absent tables are zero)."""
        for table in self.binary.values():
            for row in table:
                yield from row


def _check_solution(inst, x: Solution):
    """One value index per variable, each inside its domain."""
    if len(x) != inst.n:
        raise InstanceError(f"solution has {len(x)} entries, expected {inst.n}")
    for i, a in enumerate(x):
        if not (0 <= a < len(inst.domains[i])):
            raise InstanceError(f"value index {a} outside domain of variable {i}")


def evaluate_binary(inst: BinaryInstance, x: Solution) -> Cost:
    """Exact aggregate of all unary and pairwise costs under x."""
    _check_solution(inst, x)
    return cost_sum([inst.unary[i][a] for i, a in enumerate(x)]
                    + [table[x[i]][x[j]] for (i, j), table in inst.binary.items()])


class CountFunction(Frozen):
    """Cost as a function of a count in [0, s], finite on a contiguous interval.

    The finite support may be empty.  Convexity of the finite part is a
    property of the solvable class, decided in the instance's integer view
    (``IntegerCount.bend``), not a construction requirement (non-convex
    tables are legitimate instances).
    """

    __slots__ = _fields = ("table",)

    def __init__(self, table: Tuple[Cost, ...]):
        table = tuple(c if type(c) is Cost else Cost(c) for c in table)
        if not table:
            raise InstanceError("count function needs at least one entry")
        Frozen.__init__(self, table)
        self.support  # raises unless the finite part is contiguous

    @property
    def size(self) -> int:
        """Largest admissible count s (table covers 0..s)."""
        return len(self.table) - 1

    @property
    def support(self) -> Optional[Tuple[int, int]]:
        """(l, u) endpoints of the finite interval, or None if empty."""
        return _finite_support([m for m, c in enumerate(self.table) if not c.is_infinite])

    def __call__(self, m: int) -> Cost:
        if not (0 <= m < len(self.table)):
            raise InstanceError(f"count {m} outside [0, {self.size}]")
        return self.table[m]

    def reflected(self, t: int, s: int) -> "CountFunction":
        """y -> g(t - y) over counts 0..s, inf where t - y is no count of g:
        the function of a set hit y times when g's set is hit t - y times."""
        return CountFunction(tuple([
            self.table[t - y] if 0 <= t - y < len(self.table) else INF for y in range(s + 1)
        ]))

    @classmethod
    def zero(cls, s: int) -> "CountFunction":
        return cls(tuple(ZERO for _ in range(s + 1)))


class AssignmentSet(Frozen):
    """A set of (variable, value) assignments scored by a count function.

    ``g`` has length s + 1 where s is the number of distinct variables
    among the members (the largest count a solution can reach).
    """

    __slots__ = _fields = ("members", "g")

    def __init__(self, members: frozenset, g: CountFunction):
        Frozen.__init__(self, frozenset(members), g)
        if not self.members:
            raise InstanceError("assignment-set must be non-empty")
        if g.size != self.var_count:
            raise InstanceError(
                f"count function covers 0..{g.size}, expected 0..{self.var_count}"
            )

    @property
    def var_count(self) -> int:
        """s: number of distinct variables among the members."""
        return len({v for v, _ in self.members})


def _merge(sets):
    """The sets with equal members merged, in first-seen order, into one set
    whose function is the sum of theirs."""
    merged = {}
    for aset in sets:
        old = merged.get(aset.members)
        if old is not None:
            table = tuple([a + b for a, b in zip(old.g.table, aset.g.table)])
            aset = AssignmentSet(aset.members, CountFunction(table))
        merged[aset.members] = aset
    return tuple(merged.values())


class CountInstance(Frozen):
    """Variables plus assignment-sets with count-cost functions and a constant."""

    _fields = ("names", "domains", "constant", "sets")

    def __init__(
        self,
        names: Tuple[str, ...],
        domains: Tuple[Tuple[str, ...], ...],
        constant: Cost,
        sets: Tuple[AssignmentSet, ...],
    ):
        Frozen.__init__(self, names, domains, constant, sets)
        n = len(names)
        if len(domains) != n:
            raise InstanceError("one domain per variable required")
        for i, dom in enumerate(domains):
            if not dom:
                raise InstanceError(f"domain of variable {i} is empty")
        seen = set()
        for k, aset in enumerate(sets):
            for (i, a) in aset.members:
                if not (0 <= i < n) or not (0 <= a < len(domains[i])):
                    raise InstanceError(f"set {k} references assignment ({i}, {a}) outside domains")
            if aset.members in seen:
                raise InstanceError("duplicate assignment-sets must be merged at load time")
            seen.add(aset.members)

    @classmethod
    def build(cls, domains, sets, *, names=None, constant=ZERO):
        """Construct, merging identical member-sets by summing their functions."""
        domains_t = tuple(tuple(d) for d in domains)
        if names is None:
            names = tuple(f"v{i}" for i in range(len(domains_t)))
        return cls(tuple(names), domains_t, Cost(constant), _merge(sets))

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def integer_counts(self) -> IntegerCounts:
        """The costs scaled to integers, built on first use and kept.  The
        convexity check (each table's ``bend``), the forest, the network and
        the flow read these;
        ``evaluate_count`` reads the ``Cost`` tables."""
        den, (tables, ((constant,),)) = scale_tables(
            ([aset.g.table for aset in self.sets], ((self.constant,),))
        )
        return IntegerCounts(den, _integer_counts(tables), constant)

    def universe(self) -> frozenset:
        """All (variable, value) assignments of the instance."""
        return frozenset(
            (i, a) for i in range(self.n) for a in range(len(self.domains[i]))
        )


def evaluate_count(inst: CountInstance, x: Solution) -> Cost:
    """constant + sum over sets of g_i applied to the count hit by x."""
    _check_solution(inst, x)
    chosen = set(enumerate(x))
    return cost_sum(
        [inst.constant] + [aset.g.table[len(aset.members & chosen)] for aset in inst.sets]
    )
