"""Instance data model: binary-table instances and count-cost instances.

All types are immutable after construction and safe to share across threads.
A solution is a plain tuple of value indices, one per variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Tuple

from .costs import Cost, INF, ZERO, cost_sum, scale_tables
from .errors import InstanceError

Solution = Tuple[int, ...]
Assignment = Tuple[int, int]  # (variable index, value index)


@dataclass(frozen=True)
class IntegerCosts:
    """The costs of a binary instance as integers over one denominator.

    Each finite cost times ``den``, the least common multiple of the
    denominators of all unary and binary costs, is an int; ``inf`` is None.
    ``unary`` and ``binary`` are shaped as in ``BinaryInstance``, with the
    present tables only.
    """

    den: int
    unary: Tuple[Tuple[Optional[int], ...], ...]
    binary: Mapping[Tuple[int, int], Tuple[Tuple[Optional[int], ...], ...]]

    def cost(self, v: Optional[int]) -> Cost:
        """The cost a scaled value stands for."""
        return INF if v is None else Cost(Fraction(v, self.den))


def _freeze_table(rows, n_rows, n_cols, what):
    if len(rows) != n_rows:
        raise InstanceError(f"{what}: expected {n_rows} rows, got {len(rows)}")
    out = []
    for row in rows:
        if len(row) != n_cols:
            raise InstanceError(f"{what}: ragged row of length {len(row)}, expected {n_cols}")
        out.append(tuple(Cost(c) for c in row))
    return tuple(out)


@dataclass(frozen=True)
class BinaryInstance:
    """Variables with finite domains, unary cost tables and pairwise tables.

    ``binary`` maps ordered pairs (i, j) with i < j to |D_i| x |D_j| tables;
    an absent pair means the uniformly zero cost function, and so does an
    absent unary table at construction time (it is materialised as zeros).
    """

    names: Tuple[str, ...]
    domains: Tuple[Tuple[str, ...], ...]
    unary: Tuple[Tuple[Cost, ...], ...]
    binary: Mapping[Tuple[int, int], Tuple[Tuple[Cost, ...], ...]]

    def __post_init__(self):
        object.__setattr__(self, "binary", MappingProxyType(dict(self.binary)))
        n = len(self.names)
        if len(self.domains) != n:
            raise InstanceError("one domain per variable required")
        for i, dom in enumerate(self.domains):
            if not dom:
                raise InstanceError(f"domain of variable {i} is empty")
        if len(self.unary) != n:
            raise InstanceError("one unary table per variable required")
        for i, table in enumerate(self.unary):
            if len(table) != len(self.domains[i]):
                raise InstanceError(f"unary table of variable {i} has wrong length")
        for (i, j), table in self.binary.items():
            if not (0 <= i < j < n):
                raise InstanceError(f"binary table on invalid pair ({i}, {j})")
            if len(table) != len(self.domains[i]) or any(
                len(row) != len(self.domains[j]) for row in table
            ):
                raise InstanceError(f"binary table on ({i}, {j}) has wrong shape")

    @classmethod
    def build(cls, domains: Sequence[Sequence[str]], *, names=None, unary=None, binary=None):
        """Construct with zero-filled defaults for absent tables."""
        domains_t = tuple(tuple(d) for d in domains)
        n = len(domains_t)
        if names is None:
            names = tuple(f"v{i}" for i in range(n))
        unary = dict(unary or {})
        unary_t = tuple(
            tuple(Cost(c) for c in unary[i]) if i in unary else tuple(ZERO for _ in domains_t[i])
            for i in range(n)
        )
        tables = {}
        for (i, j), rows in (binary or {}).items():
            if j < i:
                raise InstanceError(f"binary pair must be ordered i < j, got ({i}, {j})")
            if (i, j) in tables:
                raise InstanceError(f"duplicate binary table on pair ({i}, {j})")
            tables[(i, j)] = _freeze_table(rows, len(domains_t[i]), len(domains_t[j]), f"c[{i},{j}]")
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
    total = ZERO
    for i, a in enumerate(x):
        total = total + inst.unary[i][a]
    for (i, j), table in inst.binary.items():
        total = total + table[x[i]][x[j]]
    return total


@dataclass(frozen=True)
class CountFunction:
    """Cost as a function of a count in [0, s], finite on a contiguous interval.

    The finite support may be empty.  Convexity of the finite part is a
    property of the solvable class, checked separately, not a construction
    requirement (non-convex tables are legitimate instances).
    """

    table: Tuple[Cost, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "table", tuple(c if type(c) is Cost else Cost(c) for c in self.table)
        )
        if not self.table:
            raise InstanceError("count function needs at least one entry")
        finite = [m for m, c in enumerate(self.table) if not c.is_infinite]
        if finite and finite[-1] - finite[0] + 1 != len(finite):
            raise InstanceError(
                f"finite support of a count function must be a contiguous interval, got {finite}"
            )
        object.__setattr__(self, "_support", (finite[0], finite[-1]) if finite else None)

    @property
    def size(self) -> int:
        """Largest admissible count s (table covers 0..s)."""
        return len(self.table) - 1

    @property
    def support(self) -> Optional[Tuple[int, int]]:
        """(l, u) endpoints of the finite interval, or None if empty."""
        return self._support

    def integer_slopes(self) -> Tuple[int, Tuple[int, ...]]:
        """``(den, slopes)``: the first differences of the finite part, each
        ``slopes[k] / den`` with ``den`` the values' common denominator;
        ``(1, ())`` on an empty support.  Computed on first use and kept."""
        return self._integer_slopes

    @cached_property
    def _integer_slopes(self):
        lo, hi = self._support or (0, -1)
        den, ((scaled,),) = scale_tables([[self.table[lo:hi + 1]]])
        return den, tuple([b - a for a, b in zip(scaled, scaled[1:])])

    def __call__(self, m: int) -> Cost:
        if not (0 <= m < len(self.table)):
            raise InstanceError(f"count {m} outside [0, {self.size}]")
        return self.table[m]

    def reflected(self, t: int, s: int) -> "CountFunction":
        """y -> g(t - y) over counts 0..s, inf where t - y is no count of g:
        the function of a set hit y times when g's set is hit t - y times."""
        return CountFunction(tuple(
            self.table[t - y] if 0 <= t - y <= self.size else INF for y in range(s + 1)
        ))

    @classmethod
    def zero(cls, s: int) -> "CountFunction":
        return cls(tuple(ZERO for _ in range(s + 1)))


@dataclass(frozen=True)
class AssignmentSet:
    """A set of (variable, value) assignments scored by a count function.

    ``g`` has length s + 1 where s is the number of distinct variables
    among the members (the largest count a solution can reach).
    """

    members: frozenset
    g: CountFunction

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.members:
            raise InstanceError("assignment-set must be non-empty")
        if self.g.size != self.var_count:
            raise InstanceError(
                f"count function covers 0..{self.g.size}, expected 0..{self.var_count}"
            )

    @property
    def var_count(self) -> int:
        """s: number of distinct variables among the members."""
        return len({v for v, _ in self.members})

    def count_in(self, x: Solution) -> int:
        """Hits of a checked solution x, in time linear in the members."""
        return sum(1 for i, a in self.members if x[i] == a)


@dataclass(frozen=True)
class CountInstance:
    """Variables plus assignment-sets with count-cost functions and a constant."""

    names: Tuple[str, ...]
    domains: Tuple[Tuple[str, ...], ...]
    constant: Cost
    sets: Tuple[AssignmentSet, ...]

    def __post_init__(self):
        n = len(self.names)
        if len(self.domains) != n:
            raise InstanceError("one domain per variable required")
        for i, dom in enumerate(self.domains):
            if not dom:
                raise InstanceError(f"domain of variable {i} is empty")
        seen = set()
        for k, aset in enumerate(self.sets):
            for (i, a) in aset.members:
                if not (0 <= i < n) or not (0 <= a < len(self.domains[i])):
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
        merged = {}
        order = []
        for aset in sets:
            key = frozenset(aset.members)
            if key in merged:
                old = merged[key]
                table = tuple(a + b for a, b in zip(old.g.table, aset.g.table))
                merged[key] = AssignmentSet(key, CountFunction(table))
            else:
                merged[key] = AssignmentSet(key, aset.g)
                order.append(key)
        return cls(tuple(names), domains_t, Cost(constant), tuple(merged[k] for k in order))

    @property
    def n(self) -> int:
        return len(self.names)

    def universe(self) -> frozenset:
        """All (variable, value) assignments of the instance."""
        return frozenset(
            (i, a) for i in range(self.n) for a in range(len(self.domains[i]))
        )


def evaluate_count(inst: CountInstance, x: Solution) -> Cost:
    """constant + sum over sets of g_i applied to the count hit by x."""
    _check_solution(inst, x)
    return cost_sum([inst.constant] + [aset.g(aset.count_in(x)) for aset in inst.sets])
