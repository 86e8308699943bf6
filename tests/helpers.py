"""Test-only references and random generators.

The references are deliberately independent of the code they check:
exhaustive flow search (``oracle_flow``, ``enumerate_feasible_flows``)
over networks built by ``network``,
exhaustive matching search, a solution-document reader, a pairwise cost
lookup and a frozenset definition of two assignment-sets crossing.  The generators draw seeded random count instances and flow
networks; the same seed always yields the same instance.
``near_1e17_maxm_instance`` is a fixed instance that floating-point
matching duals solve wrongly.  The oracles and
generators that the command line uses live in ``vcspkit.testkit``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from vcspkit.costs import Cost, INF, ZERO, format_cost, scale_tables
from vcspkit.errors import InstanceError
from vcspkit.flow import Arc, FlowNetwork
from vcspkit.formats import (
    SOLUTION_FORMAT,
    _expect,
    _is_index,
    _load_json,
    _parse_cost_at,
)
from vcspkit.instances import (
    AssignmentSet,
    BinaryInstance,
    CountFunction,
    CountInstance,
    integer_count,
)
from vcspkit.matching import MatchingGraph
from vcspkit.renaming import rename_set
from vcspkit.testkit import _domains


def pair_cost(inst, i: int, a: int, j: int, b: int) -> Cost:
    """Cost of the pair (i, a), (j, b) in either order; an absent table is zero."""
    if i > j:
        i, j, a, b = j, i, b, a
    table = inst.binary.get((i, j))
    return ZERO if table is None else table[a][b]


def crosses(a, b, universe) -> bool:
    """Whether assignment-sets a and b cross, by frozenset operations: they
    overlap without nesting and without covering the universe."""
    return bool(a & b) and not a <= b and not b <= a and (a | b) != universe


def parse_solution(text) -> tuple:
    """``(assignment, cost)`` of a solution document."""
    doc = _load_json(text)
    _expect(isinstance(doc, dict), "top-level document must be an object")
    _expect(doc.get("format") == SOLUTION_FORMAT, "expected a solution document")
    assignment = doc.get("assignment")
    _expect(isinstance(assignment, list) and all(_is_index(v) for v in assignment),
            "'assignment' must be a list of value indices")
    return tuple(assignment), _parse_cost_at(doc.get("cost", "0"), "cost")


def solution_to_doc(x, total: Cost) -> dict:
    return {"format": SOLUTION_FORMAT, "assignment": list(x), "cost": format_cost(total)}


def count_finite_solutions(inst: CountInstance) -> int:
    """Number of assignments with finite objective (constant ignored)."""
    total = 0
    for x in itertools.product(*(range(len(d)) for d in inst.domains)):
        chosen = set(enumerate(x))
        finite = all(not aset.g(len(aset.members & chosen)).is_infinite for aset in inst.sets)
        if finite:
            total += 1
    return total


def brute_force_max_weight_matching(g: MatchingGraph):
    """Reference implementation: exhaustive search over all matchings, with
    ``(matching, total)`` as ``max_weight_matching`` returns them.

    Exponential; intended for cross-checking on graphs with at most a
    dozen vertices.
    """
    if g.num_vertices > 16:
        raise InstanceError("brute-force matching is limited to small graphs")
    edges = sorted((min(u, v), max(u, v), w) for u, v, w in g.edges)
    best = (0, frozenset())

    def extend(idx, used, weight, chosen):
        nonlocal best
        if weight > best[0]:
            best = (weight, frozenset(chosen))
        for k in range(idx, len(edges)):
            u, v, w = edges[k]
            if u in used or v in used:
                continue
            used.add(u)
            used.add(v)
            chosen.append((u, v))
            extend(k + 1, used, weight + w, chosen)
            chosen.pop()
            used.discard(u)
            used.discard(v)

    extend(0, set(), 0, [])
    return best[1], best[0]


def near_1e17_maxm_instance() -> BinaryInstance:
    """Four Boolean variables in the MAXM cell {>M, M}, M = 10^17 + 8: every
    pair table is M but for one entry on each pair of the cycle 0-1-3-2,
    2 on (0, 1), 1 on (0, 2), 0 on (1, 3) and (2, 3).  The least cost is
    400000000000000033; floating-point matching duals give ...34."""
    m = 10**17 + 8
    low = {(0, 1): (0, 0, 2), (0, 2): (1, 0, 1), (1, 3): (1, 0, 0), (2, 3): (1, 1, 0)}
    binary = {}
    for i in range(4):
        for j in range(i + 1, 4):
            table = [[Cost(m)] * 2 for _ in range(2)]
            if (i, j) in low:
                a, b, c = low[i, j]
                table[a][b] = Cost(c)
            binary[i, j] = table
    return BinaryInstance.build([["0", "1"]] * 4, binary=binary)


# ---------------------------------------------------------------------------
# flow networks and brute-force references for them


def network(num_nodes, source, sink, value, arcs) -> FlowNetwork:
    """The FlowNetwork of arcs ``(tail, head, table)``, each table a tuple of
    Costs over flow amounts 0..len - 1, all scaled to one denominator."""
    arcs = list(arcs)
    den, (tables,) = scale_tables([[table for _, _, table in arcs]])
    return FlowNetwork(num_nodes, source, sink, value, tuple(
        Arc(tail, head, integer_count(table)) for (tail, head, _), table in zip(arcs, tables)
    ), den)


def _balance_search(net: FlowNetwork):
    """Node balances and a pruning test for depth-first search over arc amounts.

    balance[x] = initial + inflow - outflow must reach 0: the source must
    ship `value` net out, the sink absorb `value` net in.  After assigning
    a prefix of arcs, feasible_prefix(k) tells whether each node's balance
    is still reachable using the windows of arcs[k:].
    """
    arcs = net.arcs
    m = len(arcs)
    balance = [0] * net.num_nodes
    balance[net.source] += net.value
    balance[net.sink] -= net.value
    suffix_in = [[0] * net.num_nodes for _ in range(m + 1)]
    suffix_out = [[0] * net.num_nodes for _ in range(m + 1)]
    for k in range(m - 1, -1, -1):
        for x in range(net.num_nodes):
            suffix_in[k][x] = suffix_in[k + 1][x]
            suffix_out[k][x] = suffix_out[k + 1][x]
        suffix_in[k][arcs[k].head] += arcs[k].hi
        suffix_out[k][arcs[k].tail] += arcs[k].hi

    def feasible_prefix(k):
        for x in range(net.num_nodes):
            b = balance[x]
            if b + suffix_in[k][x] < 0 or b - suffix_out[k][x] > 0:
                return False
        return True

    return balance, feasible_prefix


def enumerate_feasible_flows(net: FlowNetwork):
    """Yield every integral feasible flow of the required value (DFS search)."""
    arcs = net.arcs
    m = len(arcs)
    balance, feasible_prefix = _balance_search(net)
    flows = [0] * m

    def descend(k):
        if k == m:
            if all(b == 0 for b in balance):
                yield tuple(flows)
            return
        arc = arcs[k]
        for f in range(arc.lo, arc.hi + 1):
            flows[k] = f
            balance[arc.tail] -= f
            balance[arc.head] += f
            if feasible_prefix(k + 1):
                yield from descend(k + 1)
            balance[arc.tail] += f
            balance[arc.head] -= f

    yield from descend(0)


def oracle_flow(net: FlowNetwork):
    """(amounts, cost) of a min-cost feasible flow by exhaustive search, or None.

    Depth-first over per-arc amounts with balance-feasibility pruning and a
    lower bound from the remaining arcs' cheapest table entries; shares no
    code with the augmenting-path solver.
    """
    arcs = net.arcs
    m = len(arcs)
    balance, feasible_prefix = _balance_search(net)
    cheapest = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        low = min(c for c in arcs[k].cost.table if c is not None)
        cheapest[k] = cheapest[k + 1] + low

    best = None
    flows = [0] * m

    def descend(k, spent):
        nonlocal best
        if best is not None and spent + cheapest[k] >= best[1]:
            return
        if k == m:
            if all(b == 0 for b in balance):
                best = (tuple(flows), spent)
            return
        arc = arcs[k]
        for f in range(arc.lo, arc.hi + 1):
            flows[k] = f
            balance[arc.tail] -= f
            balance[arc.head] += f
            if feasible_prefix(k + 1):
                descend(k + 1, spent + arc.cost.table[f])
            balance[arc.tail] += f
            balance[arc.head] -= f

    if feasible_prefix(0):
        descend(0, 0)
    if best is None:
        return None
    return best[0], Cost(Fraction(best[1], net.den))


# ---------------------------------------------------------------------------
# random count instances and flow networks


def _random_convex_function(rng, size) -> CountFunction:
    """Convex table with contiguous finite support and its minimum in 0..8."""
    lo = rng.randint(0, size)
    hi = rng.randint(lo, size)
    deltas = sorted(rng.randint(-3, 3) for _ in range(hi - lo))
    values = [0]
    for dlt in deltas:
        values.append(values[-1] + dlt)
    floor = min(values)
    start = rng.randint(0, 8)
    values = [v - floor + start for v in values]
    table = [INF] * (size + 1)
    for k, v in enumerate(values):
        table[lo + k] = Cost(v)
    return CountFunction(tuple(table))


def _random_contiguous_function(rng, size) -> CountFunction:
    """Arbitrary (possibly non-convex) table with contiguous finite support."""
    lo = rng.randint(0, size)
    hi = rng.randint(lo, size)
    table = [INF] * (size + 1)
    for k in range(lo, hi + 1):
        table[k] = Cost(rng.randint(0, 6))
    return CountFunction(tuple(table))


def _random_laminar_parts(rng, items, collect):
    """Recursive random partition of `items`; collects emitted parts."""
    if len(items) <= 1:
        return
    cut = rng.randint(1, len(items) - 1)
    parts = [items[:cut], items[cut:]]
    for part in parts:
        if len(part) < len(items) and rng.random() < 0.6 and len(part) >= 1:
            collect.append(part)
        _random_laminar_parts(rng, part, collect)


def gen_random_laminar(n, d, seed) -> CountInstance:
    """Random laminar family over all assignments with random convex costs."""
    rng = random.Random(seed)
    domains = _domains(n, d)
    universe = [(i, a) for i in range(n) for a in range(d)]
    rng.shuffle(universe)
    parts = []
    _random_laminar_parts(rng, universe, parts)
    if not parts:
        parts = [universe[: max(1, len(universe) // 2)]]
    seen = set()
    sets = []
    for part in parts:
        members = frozenset(part)
        if members in seen:
            continue
        seen.add(members)
        s = len({i for i, _ in members})
        sets.append(AssignmentSet(members, _random_convex_function(rng, s)))
    constant = Cost(rng.randint(0, 3))
    return CountInstance.build(domains, sets, constant=constant)


def gen_random_crossfree(n, d, seed) -> CountInstance:
    """Random cross-free family: a laminar family with some sets complemented."""
    rng = random.Random(seed)
    base = gen_random_laminar(n, d, rng.randrange(2**30))
    universe = base.universe()
    sets = []
    for aset in base.sets:
        members = aset.members
        if rng.random() < 0.45 and members != universe:
            members = universe - members
            s = len({i for i, _ in members})
            sets.append(AssignmentSet(members, _random_convex_function(rng, s)))
        else:
            sets.append(aset)
    return CountInstance.build(base.domains, sets, constant=base.constant)


def gen_random_pair_sets(domain_sizes, seed) -> CountInstance:
    """Random laminar family of size-<=2 sets (a matching over assignments
    plus singletons) with contiguous, possibly non-convex tables."""
    rng = random.Random(seed)
    domains = tuple(tuple(str(v) for v in range(k)) for k in domain_sizes)
    n = len(domain_sizes)
    universe = [(i, a) for i in range(n) for a in range(len(domains[i]))]
    rng.shuffle(universe)
    sets = []
    idx = 0
    while idx < len(universe):
        roll = rng.random()
        if roll < 0.45 and idx + 1 < len(universe):
            members = frozenset(universe[idx: idx + 2])
            idx += 2
        elif roll < 0.75:
            members = frozenset(universe[idx: idx + 1])
            idx += 1
        else:
            idx += 1
            continue
        s = len({i for i, _ in members})
        sets.append(AssignmentSet(members, _random_contiguous_function(rng, s)))
    if not sets:
        members = frozenset([universe[0]])
        sets.append(AssignmentSet(members, _random_contiguous_function(rng, 1)))
    return CountInstance.build(domains, sets, constant=Cost(rng.randint(0, 2)))


def gen_random_renamable(n, seed) -> CountInstance:
    """Boolean instance obtained by renaming a random subset of a random
    laminar family's constraints (so a valid renaming always exists)."""
    rng = random.Random(seed)
    base = gen_random_laminar(n, 2, rng.randrange(2**30))
    sets = []
    for aset in base.sets:
        if rng.random() < 0.5:
            sets.append(rename_set(aset, base.domains))
        else:
            sets.append(aset)
    return CountInstance.build(base.domains, sets, constant=base.constant)


def gen_random_network(seed) -> FlowNetwork:
    """Small random flow network with convex arc costs and random demands:
    up to 8 nodes, up to 14 arcs and capacities up to 4.

    Half of the draws plant a source-to-sink path with enough capacity so
    that feasible and infeasible cases are both well represented.
    """
    max_cap = 4
    rng = random.Random(seed)
    num_nodes = rng.randint(2, 8)
    source = 0
    sink = num_nodes - 1
    value = rng.randint(0, max_cap)

    def random_arc(tail, head, lo_bias):
        hi = rng.randint(max(1, value if lo_bias else 1), max_cap) if lo_bias else rng.randint(1, max_cap)
        lo = rng.randint(0, hi) if (not lo_bias and rng.random() < 0.4) else 0
        deltas = sorted(rng.randint(-3, 4) for _ in range(hi - lo))
        values = [0]
        for dlt in deltas:
            values.append(values[-1] + dlt)
        floor = min(values)
        base = rng.randint(0, 5)
        table = [INF] * (hi + 1)
        for k, v in enumerate(values):
            table[lo + k] = Cost(v - floor + base)
        return tail, head, tuple(table)

    arcs = []
    if rng.random() < 0.5 and num_nodes >= 2:
        # plant a path covering the required value
        path = [source] + rng.sample(range(1, num_nodes - 1), rng.randint(0, max(0, num_nodes - 2))) + [sink]
        for u, v in zip(path, path[1:]):
            arcs.append(random_arc(u, v, lo_bias=True))
    n_extra = rng.randint(1, max(1, 14 - len(arcs)))
    for _ in range(n_extra):
        tail = rng.randrange(num_nodes)
        head = rng.randrange(num_nodes)
        while head == tail:
            head = rng.randrange(num_nodes)
        arcs.append(random_arc(tail, head, lo_bias=False))
    return network(num_nodes, source, sink, value, arcs)
