"""Renaming for Boolean count-cost instances.

A constraint g(|x cap A|) on a set of literals A can be replaced by the
equivalent constraint on the negated literals with the count function read
backwards.  Whether some subset of constraints can be renamed to make the
family cross-free reduces to 2-SAT over one flag per constraint, whose
clauses come from crossing tests on member masks: each test is one AND and
one bit count.  The renaming works on the ``Cost`` tables; the renamed
instance builds its own integer view on first use.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Tuple

from .cfc import _crosses, _member_masks, _require_convex, _solve_forest, build_laminar_forest
from .errors import ClassViolation, InstanceError
from .frozen import Frozen
from .instances import AssignmentSet, CountInstance
from .results import SolveResult


def _require_boolean(domains):
    for i, dom in enumerate(domains):
        if len(dom) != 2:
            raise ClassViolation(
                f"renaming is defined over Boolean domains; variable {i} has {len(dom)} values"
            )


def rename_set(aset: AssignmentSet, domains) -> AssignmentSet:
    """Negate the members elementwise and read g backwards: g'(z) = g(m - z)
    with m the member count (out-of-range entries are infinite)."""
    _require_boolean(domains)
    return _rename(aset)


def _rename(aset: AssignmentSet) -> AssignmentSet:
    """``rename_set`` over domains already known to be Boolean."""
    members = frozenset((i, 1 - a) for i, a in aset.members)
    return AssignmentSet(members, aset.g.reflected(len(aset.members), aset.var_count))


class TwoSatInstance(Frozen):
    """Conjunction of 2-literal clauses; literal k>0 means variable k-1 true,
    k<0 its negation."""

    __slots__ = _fields = ("num_vars", "clauses")

    def __init__(self, num_vars: int, clauses: Tuple[Tuple[int, int], ...]):
        Frozen.__init__(self, num_vars, clauses)
        for clause in clauses:
            if len(clause) != 2:
                raise InstanceError("every clause must have exactly 2 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise InstanceError(f"literal {lit} out of range")


def solve_2sat(inst: TwoSatInstance):
    """A satisfying assignment via the implication graph's strongly connected
    components, or None.

    Deterministic model choice: components are explored from the negative
    literal nodes first, which prefers the all-false assignment whenever the
    constraints leave a variable's component free.
    """
    n = inst.num_vars
    size = 2 * n
    # literal k > 0 is node 2k - 2 and k < 0 is node -2k - 1, so a literal's
    # negation is its node ^ 1
    adj = [[] for _ in range(size)]
    for a, b in inst.clauses:
        a = 2 * a - 2 if a > 0 else -2 * a - 1
        b = 2 * b - 2 if b > 0 else -2 * b - 1
        adj[a ^ 1].append(b)
        adj[b ^ 1].append(a)

    index = [None] * size
    low = [0] * size
    on_stack = [False] * size
    stack = []
    comp = [None] * size
    counter = 0
    comp_count = 0

    start_order = [2 * v + 1 for v in range(n)] + [2 * v for v in range(n)]
    for root in start_order:
        if index[root] is not None:
            continue
        # iterative Tarjan
        work = [(root, 0)]
        while work:
            x, k = work[-1]
            if k == 0:
                index[x] = low[x] = counter
                counter += 1
                stack.append(x)
                on_stack[x] = True
            advanced = False
            while k < len(adj[x]):
                y = adj[x][k]
                k += 1
                if index[y] is None:
                    work[-1] = (x, k)
                    work.append((y, 0))
                    advanced = True
                    break
                if on_stack[y]:
                    low[x] = min(low[x], index[y])
            if advanced:
                continue
            work.pop()
            if low[x] == index[x]:
                while True:
                    y = stack.pop()
                    on_stack[y] = False
                    comp[y] = comp_count
                    if y == x:
                        break
                comp_count += 1
            if work:
                px, pk = work[-1]
                low[px] = min(low[px], low[x])

    model = []
    for v in range(n):
        pos, neg = comp[2 * v], comp[2 * v + 1]
        if pos == neg:
            return None
        # smaller component id completed first, i.e. lies later in the
        # topological order of implications, so it is the safe choice
        model.append(pos < neg)
    return tuple(model)


def _clauses(members, universe):
    """The 2-SAT clauses over one flag per set, pair (i, j) by pair, i < j.

    Overlapping pairs force opposite flags; pairs that would overlap after
    one renaming force equal flags.  Both need A cap B or (not A) cap B to be
    non-empty, so the two sets share a variable: each i is tested only
    against the j > i found through the sets of its variables.  The sets are
    tested as member masks, where (v, a) is bit 2v + a, so renaming a set
    swaps each pair of adjacent bits.
    """
    masks = _member_masks(members, universe)
    sizes = [len(ms) for ms in members]
    size_u = len(universe)
    low = (1 << size_u) // 3  # 0b0101...01: the bits of the (v, 0)
    variables = [{v for v, _ in ms} for ms in members]
    by_var = {}
    for k, vs in enumerate(variables):
        for v in vs:
            by_var.setdefault(v, []).append(k)
    clauses = []
    for i, a in enumerate(masks):
        negated = ((a & low) << 1) | ((a >> 1) & low)
        size_a = sizes[i]
        near = set()
        for v in variables[i]:
            sharing = by_var[v]
            near.update(sharing[bisect_right(sharing, i):])
        for j in sorted(near):
            b, size_b = masks[j], sizes[j]
            if _crosses(a, b, size_a, size_b, size_u):
                # exactly one of the two must be renamed
                clauses.append((i + 1, j + 1))
                clauses.append((-(i + 1), -(j + 1)))
            if _crosses(negated, b, size_a, size_b, size_u):
                # renaming one without the other would create an overlap
                clauses.append((-(i + 1), j + 1))
                clauses.append((i + 1, -(j + 1)))
    return clauses


class Renaming(Frozen):
    """Renaming flags per constraint, the renamed instance and its forest."""

    __slots__ = _fields = ("flags", "renamed", "forest")


def recognize_renamable(inst: CountInstance) -> Optional[Renaming]:
    """Find per-constraint renaming flags making the family cross-free.

    The flags are a model of the 2-SAT clauses of ``_clauses``.  The model
    is post-verified by building the renamed instance's forest: a renamed
    family that is still not cross-free is reported as not renamable rather
    than trusted.
    """
    _require_boolean(inst.domains)
    _require_convex(inst)
    clauses = _clauses([aset.members for aset in inst.sets], inst.universe())
    model = solve_2sat(TwoSatInstance(len(inst.sets), tuple(clauses)))
    if model is None:
        return None
    sets = [_rename(aset) if flag else aset for aset, flag in zip(inst.sets, model)]
    renamed = CountInstance.build(inst.domains, sets, names=inst.names, constant=inst.constant)
    try:
        forest = build_laminar_forest(renamed)
    except ClassViolation:
        return None
    return Renaming(model, renamed, forest)


def solve_renamable(inst: CountInstance) -> SolveResult:
    """Solve a renamable instance by solving its cross-free renaming."""
    ren = recognize_renamable(inst)
    if ren is None:
        raise ClassViolation("instance is not renamable cross-free")
    return solve_renaming(inst, ren)


def solve_renaming(inst: CountInstance, ren: Renaming) -> SolveResult:
    """Solve ``inst`` through ``ren``, its renaming found by
    ``recognize_renamable``, by convex flow on ``ren.forest``.

    Convexity and the family are not checked again: a renamed function is
    the input's read backwards, so it is convex when the input's is, and
    the forest exists only for a cross-free renamed family.  Renaming
    changes constraints, not variables, so the assignment maps back
    unchanged and is re-evaluated once, against ``inst``.
    """
    inner, _ = _solve_forest(inst, ren.forest)
    cert = dict(inner.certificate)
    cert["renamed_constraints"] = [k for k, f in enumerate(ren.flags) if f]
    return SolveResult(inner.assignment, inner.cost, "renamable-cfc", cert)
