import hashlib
import random
from fractions import Fraction

import networkx as nx
import pytest

from helpers import enumerate_feasible_flows, gen_random_network, network, oracle_flow
from vcspkit.cfc import build_laminar_forest, build_network
from vcspkit.costs import Cost, INF, ZERO, cost_sum
from vcspkit.errors import InstanceError
from vcspkit.flow import (
    Arc,
    Flow,
    FlowNetwork,
    Infeasible,
    min_convex_cost_flow,
    network_to_dot,
)
from vcspkit.instances import AssignmentSet, CountFunction, CountInstance
from vcspkit.renaming import recognize_renamable, rename_set
from vcspkit.testkit import gen_full_laminar_tree

C = Cost


def linear_arc(tail, head, cap, per_unit):
    return tail, head, tuple(C(per_unit * k) for k in range(cap + 1))


def test_forced_single_arc():
    net = network(2, 0, 1, 1, [(0, 1, (INF, C(7)))])
    flow = min_convex_cost_flow(net)
    assert isinstance(flow, Flow)
    assert flow.amounts == (1,)
    assert flow.total == C(7)


def test_two_parallel_linear_arcs():
    net = network(2, 0, 1, 3, [linear_arc(0, 1, 2, 2), linear_arc(0, 1, 2, 3)])
    flow = min_convex_cost_flow(net)
    assert flow.amounts == (2, 1)
    assert flow.total == C(7)


def _marginals(net, arc):
    return tuple(Fraction(m, net.den) for m in arc.cost.slopes)


def test_expand_first_differences():
    net = network(2, 0, 1, 0, [(0, 1, (ZERO, C(1), C(3), C(6)))])
    arc = net.arcs[0]
    assert (arc.lo, arc.hi) == (0, 3)
    assert arc.cost.table[arc.lo] == 0
    assert _marginals(net, arc) == (Fraction(1), Fraction(2), Fraction(3))


def test_expand_forced_unit():
    net = network(2, 0, 1, 0, [(0, 1, (INF, C(2), C(2)))])
    arc = net.arcs[0]
    assert (arc.lo, arc.hi) == (1, 2)
    assert C(Fraction(arc.cost.table[arc.lo], net.den)) == C(2)
    assert _marginals(net, arc) == (Fraction(0),)


def test_expand_resums_to_table():
    import random

    rng = random.Random(8)
    for _ in range(50):
        hi = rng.randint(1, 6)
        lo = rng.randint(0, hi)
        deltas = sorted(rng.randint(-3, 4) for _ in range(hi - lo))
        vals = [0]
        for d in deltas:
            vals.append(vals[-1] + d)
        floor = min(vals)
        table = [INF] * (hi + 1)
        for k, v in enumerate(vals):
            table[lo + k] = C(v - floor)
        net = network(2, 0, 1, 0, [(0, 1, tuple(table))])
        arc = net.arcs[0]
        assert (arc.lo, arc.hi) == (lo, hi)
        acc = C(Fraction(arc.cost.table[arc.lo], net.den))
        assert acc == table[lo]
        for k, m in enumerate(_marginals(net, arc), start=lo + 1):
            acc = C(acc.value + m)
            assert acc == table[k]


def test_malformed_arcs_rejected():
    with pytest.raises(InstanceError, match="no finite entry"):
        network(2, 0, 1, 0, [(0, 1, (INF, INF))])
    with pytest.raises(InstanceError, match="not convex"):
        network(2, 0, 1, 0, [(0, 1, (ZERO, C(2), C(3)))])
    with pytest.raises(InstanceError, match="contiguous"):
        network(2, 0, 1, 0, [(0, 1, (ZERO, INF, ZERO))])
    with pytest.raises(InstanceError, match="outside range"):
        network(2, 0, 1, 0, [(0, 2, (ZERO, ZERO))])
    # the window is the finite support, however long the table
    net = network(2, 0, 1, 0, [(0, 1, (INF, ZERO, ZERO, INF, INF))])
    assert (net.arcs[0].lo, net.arcs[0].hi) == (1, 2)


def test_source_equal_to_sink_rejected_for_positive_value():
    arcs = [(0, 1, (ZERO, ZERO))]
    with pytest.raises(InstanceError, match="source and sink"):
        network(2, 0, 0, 1, arcs)
    out = min_convex_cost_flow(network(2, 0, 0, 0, arcs))
    assert out == Flow((0,), ZERO)


def test_infeasible_demand():
    net = network(3, 0, 2, 0, [(1, 2, (INF, INF, ZERO))])
    out = min_convex_cost_flow(net)
    assert isinstance(out, Infeasible)
    assert out.witness_arc == 0


def test_matches_enumeration_oracle():
    fails = []
    feasible = 0
    for seed in range(220):
        net = gen_random_network(seed)
        got = min_convex_cost_flow(net)
        want = oracle_flow(net)
        if want is None:
            if not isinstance(got, Infeasible):
                fails.append(seed)
        else:
            feasible += 1
            if isinstance(got, Infeasible) or got.total != want[1]:
                fails.append(seed)
    assert not fails
    assert feasible >= 50


def _fractional_network(rng):
    """Small random network whose convex tables have denominators 2, 3 or 6.

    Slopes may be negative; windows sometimes start above 0; the arcs of one
    network mix denominators, so the network's one denominator is their lcm.
    Returns the network and its arcs' tables of Costs.
    """
    num_nodes = rng.randint(2, 6)
    value = rng.randint(0, 3)
    arcs = []
    for _ in range(rng.randint(1, 9)):
        tail = rng.randrange(num_nodes)
        head = rng.randrange(num_nodes)
        while head == tail:
            head = rng.randrange(num_nodes)
        hi = rng.randint(1, 3)
        lo = rng.randint(1, hi) if rng.random() < 0.3 else 0
        den = rng.choice((2, 3, 6))
        values = [0]
        for slope in sorted(rng.randint(-4, 5) for _ in range(hi - lo)):
            values.append(values[-1] + slope)
        floor = min(values)
        base = Fraction(rng.randint(0, 5), rng.choice((1, 2, 3)))
        table = [INF] * (hi + 1)
        for k, v in enumerate(values):
            table[lo + k] = C(Fraction(v - floor, den) + base)
        arcs.append((tail, head, tuple(table)))
    return network(num_nodes, 0, num_nodes - 1, value, arcs), [t for _, _, t in arcs]


def test_fractional_costs_match_enumeration_oracle():
    rng = random.Random(2012)
    seen = {"feasible": 0, "infeasible": 0, "negative": 0, "lo > 0": 0, "fractional": 0}
    for _ in range(300):
        net, tables = _fractional_network(rng)
        ms = [m for arc in net.arcs for m in _marginals(net, arc)]
        seen["negative"] += any(m < 0 for m in ms)
        seen["lo > 0"] += any(arc.lo > 0 for arc in net.arcs)
        seen["fractional"] += any(m.denominator > 1 for m in ms)
        got = min_convex_cost_flow(net)
        want = oracle_flow(net)
        if want is None:
            seen["infeasible"] += 1
            assert isinstance(got, Infeasible)
        else:
            seen["feasible"] += 1
            assert isinstance(got, Flow)
            assert got.total == want[1]
            assert got.total == cost_sum(
                table[f] for table, f in zip(tables, got.amounts)
            )
    assert seen["feasible"] >= 100 and seen["infeasible"] >= 20
    assert min(seen["negative"], seen["lo > 0"], seen["fractional"]) >= 50


def _tie_network(rng):
    """Small random network around a zero-cost cycle whose arc slopes are all
    0, or all 0 then 1: most reduced costs in the Dijkstra tie at zero.
    Returns the network and its arcs' tables of Costs."""
    num_nodes = rng.randint(2, 6)
    value = rng.randint(0, 3)
    cycle = rng.sample(range(num_nodes), rng.randint(2, num_nodes))
    arcs = [(u, v, (ZERO, ZERO, ZERO)) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    zero_slopes = rng.random() < 0.5
    for _ in range(rng.randint(1, 6)):
        tail, head = rng.sample(range(num_nodes), 2)
        hi = rng.randint(1, 3)
        lo = rng.randint(1, hi) if rng.random() < 0.3 else 0
        flat = hi - lo if zero_slopes else rng.randint(0, hi - lo)
        base = rng.randint(0, 2)
        table = [INF] * lo + [C(base + max(0, k - flat)) for k in range(hi - lo + 1)]
        arcs.append((tail, head, tuple(table)))
    return network(num_nodes, 0, num_nodes - 1, value, arcs), [t for _, _, t in arcs]


def test_tie_heavy_networks_match_enumeration_oracle():
    rng = random.Random(2024)
    seen = {"value 0": 0, "value > 0": 0, "infeasible": 0}
    for _ in range(300):
        net, tables = _tie_network(rng)
        got = min_convex_cost_flow(net)
        want = oracle_flow(net)
        if want is None:
            seen["infeasible"] += 1
            assert isinstance(got, Infeasible)
            continue
        seen["value 0" if net.value == 0 else "value > 0"] += 1
        assert isinstance(got, Flow)
        assert got.total == want[1]
        balance = [0] * net.num_nodes
        for arc, f in zip(net.arcs, got.amounts):
            assert arc.lo <= f <= arc.hi
            balance[arc.tail] -= f
            balance[arc.head] += f
        assert balance[net.sink] == net.value == -balance[net.source]
        assert all(b == 0 for x, b in enumerate(balance) if x not in (net.source, net.sink))
        assert got.total == cost_sum(
            table[f] for table, f in zip(tables, got.amounts)
        )
    assert min(seen.values()) >= 20


def _run_network(rng):
    """Small random network that mixes the shapes a table's runs of equal
    slopes take: fixed windows lo == hi > 0 (no run); valley tables, whose
    negative, zero and positive runs sit on a cycle whose return arc gains
    from flow up to a point inside or at the ends of the zero run; and one
    table object that two arcs share.  Returns the network and, per valley
    arc, its index, the start of its window and the units before and after
    its zero run."""
    num_nodes = rng.randint(2, 5)
    value = rng.randint(0, 2)
    arcs, valleys = [], []

    def add(tail, head, table):
        arcs.append((tail, head, tuple(table)))

    for _ in range(rng.randint(1, 2)):
        tail, head = rng.sample(range(num_nodes), 2)
        lo = rng.randint(0, 1)
        slopes = (sorted(-rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
                  + [0] * rng.randint(2, 3) + sorted(rng.randint(1, 3) for _ in range(rng.randint(1, 2))))
        negative = sum(1 for m in slopes if m < 0)
        table = [C(-sum(m for m in slopes if m < 0))]
        for m in slopes:
            table.append(C(table[-1].value + m))
        zero = slopes.count(0)
        valleys.append((len(arcs), lo, negative, negative + zero))
        add(tail, head, [INF] * lo + table)
        # the return arc gains 1 per unit up to a point drawn across the zero run
        wanted = lo + rng.randint(negative, negative + zero)
        add(head, tail, [C(wanted - min(k, wanted)) for k in range(wanted + rng.randint(1, 2))])
    for _ in range(rng.randint(1, 2)):
        tail, head = rng.sample(range(num_nodes), 2)
        lo = rng.randint(1, 2)
        add(tail, head, [INF] * lo + [C(rng.randint(0, 3))])
        if rng.random() < 0.8:
            add(head, tail, [C(k) for k in range(rng.randint(lo, 3) + 1)])
    if value:
        rate = rng.randint(0, 2)
        add(0, num_nodes - 1, [C(k * rate) for k in range(value + 1)])
    tail, head = rng.sample(range(num_nodes), 2)
    hi = rng.randint(1, 3)
    add(tail, head, [C(k * k) for k in range(hi + 1)])
    add(*rng.sample(range(num_nodes), 2), arcs[-1][2])
    net = network(num_nodes, 0, num_nodes - 1, value, arcs)
    last = net.arcs[-1]
    shared = net.arcs[:-1] + (Arc(last.tail, last.head, net.arcs[-2].cost),)
    return FlowNetwork(num_nodes, 0, num_nodes - 1, value, shared, net.den), valleys


def test_run_arcs_match_enumeration_oracle():
    rng = random.Random(34)
    seen = {"feasible": 0, "infeasible": 0, "inside zero run": 0, "fixed window > 0": 0}
    for _ in range(300):
        net, valleys = _run_network(rng)
        assert net.arcs[-1].cost is net.arcs[-2].cost
        got = min_convex_cost_flow(net)
        want = oracle_flow(net)
        if want is None:
            seen["infeasible"] += 1
            assert isinstance(got, Infeasible)
            continue
        seen["feasible"] += 1
        assert isinstance(got, Flow)
        assert got.total == want[1]
        balance = [0] * net.num_nodes
        for arc, f in zip(net.arcs, got.amounts):
            assert arc.lo <= f <= arc.hi
            balance[arc.tail] -= f
            balance[arc.head] += f
            seen["fixed window > 0"] += arc.lo == arc.hi > 0
        assert balance[net.sink] == net.value == -balance[net.source]
        assert all(b == 0 for x, b in enumerate(balance) if x not in (net.source, net.sink))
        assert got.total == C(Fraction(
            sum(arc.cost.table[f] for arc, f in zip(net.arcs, got.amounts)), net.den))
        for k, lo, below, above in valleys:
            seen["inside zero run"] += lo + below < got.amounts[k] < lo + above
    assert min(seen.values()) >= 20


def test_arc_keeps_integer_slopes():
    half, third = Fraction(1, 2), Fraction(1, 3)
    net = network(2, 0, 1, 0, [(0, 1, (INF, C(half), C(third), C(1)))])
    arc = net.arcs[0]
    assert (net.den, arc.cost.table, arc.cost.slopes) == (6, (None, 3, 2, 6), (-1, 4))
    assert _marginals(net, arc) == (Fraction(-1, 6), Fraction(2, 3))


def test_matches_classic_linear_reference():
    """All-linear networks against an independent network-simplex solver."""
    import random

    rng = random.Random(404)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        arcs = []
        seen = set()
        for _ in range(rng.randint(1, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in seen:
                continue
            seen.add((u, v))
            arcs.append(linear_arc(u, v, rng.randint(1, 4), rng.randint(0, 6)))
        value = rng.randint(0, 3)
        net = network(n, 0, n - 1, value, arcs)
        ours = min_convex_cost_flow(net)

        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.nodes[0]["demand"] = -value
        ref.nodes[n - 1]["demand"] = value
        for arc in net.arcs:
            per_unit = int(Fraction(arc.cost.table[1], net.den)) if arc.hi >= 1 else 0
            ref.add_edge(arc.tail, arc.head, capacity=arc.hi, weight=per_unit)
        try:
            ref_cost = nx.min_cost_flow_cost(ref)
        except nx.NetworkXUnfeasible:
            assert isinstance(ours, Infeasible)
            continue
        checked += 1
        assert isinstance(ours, Flow)
        assert ours.total == C(ref_cost)
    assert checked >= 20


def test_deterministic_flows():
    for seed in (3, 17, 40):
        net = gen_random_network(seed)
        a = min_convex_cost_flow(net)
        b = min_convex_cost_flow(net)
        if isinstance(a, Flow):
            assert a.amounts == b.amounts and a.total == b.total
        else:
            assert isinstance(b, Infeasible)


# SHA-256 of the flows below as computed before the Dijkstra settled
# zero-distance ties off the heap.  A change that picks a different optimum
# must update this constant on purpose.
_PINNED_FLOWS = "46e2daf0aef07371a2cb36815c2ac82f7592b7fb959f4e0a5b716502e11ade6e"


def test_flows_match_pinned_digest():
    nets = [gen_random_network(seed) for seed in range(2000)]
    nets += [
        build_network(build_laminar_forest(gen_full_laminar_tree(n, d, s)))
        for n, d, s in ((5, 2, 0), (12, 3, 1), (20, 4, 2), (40, 3, 3), (60, 4, 4))
    ]
    digest = hashlib.sha256()
    for net in nets:
        out = min_convex_cost_flow(net)
        if isinstance(out, Flow):
            sig = ("flow", out.amounts, str(out.total), None)
        else:
            sig = ("infeasible", None, None, out.witness_arc)
        digest.update(repr(sig).encode() + b"\n")
    assert digest.hexdigest() == _PINNED_FLOWS


def _workload_networks():
    """Networks of the shapes the count benchmarks solve: full laminar trees
    with d = 4, a tree with 30 % of its inner sets complemented, and Boolean
    trees with half their sets renamed, solved through their renaming."""
    nets = [build_network(build_laminar_forest(gen_full_laminar_tree(n, 4, s)))
            for n in (100, 200) for s in (0, 1)]
    rng = random.Random(7)
    base = gen_full_laminar_tree(100, 4, 11)
    universe = base.universe()
    sets = list(base.sets)
    inner = [k for k, aset in enumerate(sets) if aset.members != universe]
    for k in rng.sample(inner, round(0.3 * len(inner))):
        members = universe - sets[k].members
        s = len({i for i, _ in members})
        lo = rng.randint(0, s)
        hi = rng.randint(lo, s)
        # zero on [lo, hi], one more per unit outside it
        table = tuple(C(max(lo - m, m - hi, 0)) for m in range(s + 1))
        sets[k] = AssignmentSet(members, CountFunction(table))
    nets.append(build_network(build_laminar_forest(CountInstance.build(base.domains, sets))))
    for seed in (0, 1):
        base = gen_full_laminar_tree(200, 2, seed)
        sets = list(base.sets)
        for k in rng.sample(range(len(sets)), len(sets) // 2):
            sets[k] = rename_set(sets[k], base.domains)
        ren = recognize_renamable(CountInstance.build(base.domains, sets))
        nets.append(build_network(ren.forest))
    return nets


# SHA-256 of the flows of ``_workload_networks``, computed with the flow that
# kept one residual arc per network arc and searched its table's segments.  A
# change that picks a different optimum must update this constant on purpose.
_PINNED_WORKLOAD_FLOWS = "8a1b9b660ef2993bf6c1e535497ce5e43b39a0d1ac44b89fc717cbe7d745e36a"


def test_workload_flows_match_pinned_digest():
    digest = hashlib.sha256()
    for net in _workload_networks():
        out = min_convex_cost_flow(net)
        assert isinstance(out, Flow)
        digest.update(repr((out.amounts, str(out.total))).encode() + b"\n")
    assert digest.hexdigest() == _PINNED_WORKLOAD_FLOWS


def test_flow_count_enumeration():
    net = network(2, 0, 1, 2, [linear_arc(0, 1, 2, 1), linear_arc(0, 1, 1, 5)])
    flows = list(enumerate_feasible_flows(net))
    # (2,0) and (1,1) are the only splits of value 2
    assert sorted(flows) == [(1, 1), (2, 0)]


def test_dot_export_mentions_windows_and_flow():
    net = network(2, 0, 1, 1, [(0, 1, (INF, C(7)))])
    flow = min_convex_cost_flow(net)
    dot = network_to_dot(net, flow)
    assert "digraph" in dot
    assert "[1,1]" in dot
    assert "f=1" in dot
