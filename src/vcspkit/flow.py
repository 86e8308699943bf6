"""Minimum-cost integral flow with convex piecewise-linear arc costs.

Each arc carries a cost table over flow amounts as ints over the network's
one denominator ``den`` (an ``IntegerCount``); its demand/capacity window
[lo, hi] is the table's finite support, and the table must be convex there.
Each table's convexity was decided when it was built (``IntegerCount.bend``);
the network reads that and the support of every arc's table, and the solver
reads the tables' integer slopes as they are, with no rescaling.  It runs
successive shortest augmenting paths with node potentials on a residual
network with one linear-cost arc per run of equal consecutive slopes of a
table (Ahuja, Magnanti & Orlin, *Network Flows*, 1993, ch. 14).  Runs with
a negative slope are saturated up front (their removal stays available
through the reverse residual arcs), which keeps every residual cost
non-negative from the start, even on cyclic networks.  Each node lists its
artificial arc, to the sink or back to the source, before its run arcs, so
a depth-first search ends at the first node that can discharge.  A node fed
by exactly one forced unit sends it down one out-arc, so of its [0, 1]
out-arcs to one head only the first of least slope gets a run; the others
could never be taken, and no flow changes (see ``min_convex_cost_flow``).
Each phase's Dijkstra settles the nodes reached at the current distance
from a plain stack and heaps only the farther ones; a phase whose sink lies
at reduced distance 0 leaves the potentials as they are.  The final cost is
re-read from the arcs' tables and made one ``Cost``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain, groupby
from typing import Optional, Tuple

from .costs import Cost
from .errors import InstanceError, InternalError
from .frozen import Frozen, setfield
from .instances import IntegerCount


def check_convexity(g: IntegerCount):
    """``(True, None)`` iff the finite part of g has non-decreasing slopes,
    else ``(False, m)`` with m the first count where
    g(m+2) - g(m+1) < g(m+1) - g(m): ``g.bend``, decided when g was built."""
    return g.bend is None, g.bend


class Arc(Frozen):
    """Directed arc whose flow f costs ``cost.table[f] / den``, ``den`` the
    network's.  The window [lo, hi] is the table's finite support, and
    ``cost.slopes[k] / den`` is the cost of unit ``lo + k + 1``."""

    __slots__ = _fields = ("tail", "head", "cost")

    def __init__(self, tail: int, head: int, cost: IntegerCount):
        setfield(self, "tail", tail)
        setfield(self, "head", head)
        setfield(self, "cost", cost)

    @property
    def lo(self) -> int:
        return self.cost.support[0]

    @property
    def hi(self) -> int:
        return self.cost.support[1]


class FlowNetwork(Frozen):
    """Nodes 0..num_nodes-1 and arcs whose tables are ints over ``den``; a
    flow must carry ``value`` from ``source`` to ``sink``.  Every arc's
    table must have a finite entry and be convex, as its ``bend`` records."""

    __slots__ = _fields = ("num_nodes", "source", "sink", "value", "arcs", "den")

    def __init__(
        self, num_nodes: int, source: int, sink: int, value: int, arcs: Tuple[Arc, ...], den: int
    ):
        Frozen.__init__(self, num_nodes, source, sink, value, arcs, den)
        for node in (source, sink):
            if not (0 <= node < num_nodes):
                raise InstanceError(f"node {node} outside range")
        if value < 0:
            raise InstanceError("required flow value must be non-negative")
        if value > 0 and source == sink:
            raise InstanceError(
                f"source and sink are both node {source}; a positive value cannot flow"
            )
        if den < 1:
            raise InstanceError(f"network denominator must be positive, got {den}")
        for arc in arcs:
            for node in (arc.tail, arc.head):
                if not (0 <= node < num_nodes):
                    raise InstanceError(f"arc endpoint {node} outside range")
            if arc.cost.support is None:
                raise InstanceError("arc cost has no finite entry")
            if arc.cost.bend is not None:
                raise InstanceError("arc cost is not convex on its window")


class Flow(Frozen):
    """A feasible flow: ``amounts[k]`` units on arc k, at exact cost ``total``."""

    __slots__ = _fields = ("amounts", "total")


class Infeasible(Frozen):
    """No feasible flow; witness_arc is an arc whose demand cannot be routed
    (None when the required value itself is unreachable)."""

    __slots__ = _fields = ("witness_arc",)


def min_convex_cost_flow(net: FlowNetwork):
    """An integral feasible flow of the required value minimising total cost.

    Returns a Flow, or Infeasible when no feasible flow exists.

    Successive shortest paths in primal-dual form: one Dijkstra per phase
    establishes node potentials, then depth-first search pushes blocks of
    units along zero-reduced-cost paths until none remain.  The Dijkstra
    keeps the nodes reached at exactly the distance being settled on a stack
    that it empties before popping the heap, so zero-cost ties never touch
    the heap; it stops when the sink is settled.  The order in which ties
    settle changes no potential: a node at true distance below the sink's
    distance d_t gains that distance, every other node gains d_t.  When d_t
    is 0 the potentials stay as they are and the phase only restarts the
    search pointers.  Each network arc becomes one residual arc per run of
    equal consecutive slopes of its table, with the slope as its constant
    cost and the run's length as its capacity; an arc whose window is one
    amount has none.  A run's slope is strictly below the next run's, so
    with non-negative reduced costs the runs fill in order, and for each arc
    and direction at most one run has reduced cost 0.  Residual arc a has
    two slots in one flat list: ``rc[2a]`` is the integer cost of pushing one
    more unit and ``rc[2a + 1]`` that of cancelling one (None when the arc is
    saturated, respectively empty); only the arcs of an augmenting path
    change them.  Each node's adjacency holds ``(slot, other end)`` pairs,
    its artificial residual arc first (x -> t for a node with excess, the
    reverse of s -> x for one with a deficit), then its run arcs in order.

    A node x whose only in-arc has window [1, 1], that is not the source
    and none of whose out-arcs has a negative first slope (so none starts
    saturated) is fed by one unit, from s -> x; every variable node of
    ``cfc.build_network`` is one.  Flow enters x only across s -> x or back
    across its own runs, so x's runs carry one unit at most.  Of x's [0, 1]
    out-arcs to one head h, only the first of least slope, a, gets a run;
    the others get none and carry 0.  That changes no flow.  While a is
    empty, its reduced cost is at most that of any dropped arc b, and below
    it when b comes first, so b is admissible only in a tie, in which a
    comes first in x's adjacency: the search takes a, and passes it only
    once h is visited or dead, when b leads nowhere either.  A Dijkstra
    relaxation across b never beats the one across a.  Once a is full, x's
    unit is spent, and x is reached only back across a, from h itself, so b
    is never taken then either.
    A path that would carry no unit, or a phase that finds no path, raises
    ``InternalError`` rather than being searched again without end.
    """
    num_nodes = net.num_nodes + 2
    s_node, t_node = net.num_nodes, net.num_nodes + 1

    # required net e-inflow per node, from arc demands and the value forcing:
    # a node whose fixed outflow exceeds its fixed inflow must be fed by the
    # artificial source, and vice versa; fed[x] is 1 when x's one in-arc
    # forces one unit, x is not the source and no run out of x starts
    # saturated, so that x's runs carry one unit at most
    g = [0] * num_nodes
    fed = [0] * num_nodes
    fed[net.source] = 2
    for arc in net.arcs:
        lo, hi = arc.cost.support
        g[arc.tail] += lo
        g[arc.head] -= lo
        fed[arc.head] += 1 if lo == hi == 1 else 2
        if lo < hi and arc.cost.slopes[0] < 0:
            fed[arc.tail] = 2
    g[net.sink] += net.value
    g[net.source] -= net.value

    # of such a node's [0, 1] arcs to one head, only the first of least
    # slope gets a run
    best, dropped = {}, set()
    for k, arc in enumerate(net.arcs):
        if fed[arc.tail] == 1 and arc.cost.support == (0, 1):
            dropped.add(k)
            j = best.setdefault((arc.tail, arc.head), k)
            if arc.cost.slopes[0] < net.arcs[j].cost.slopes[0]:
                best[arc.tail, arc.head] = k
    dropped.difference_update(best.values())

    tails, heads, costs, caps, flows = [], [], [], [], []

    def add_residual(tail, head, cost, cap, e0=0):
        tails.append(tail)
        heads.append(head)
        costs.append(cost)
        caps.append(cap)
        flows.append(e0)

    runs = {}  # id of a cost table -> its (slope, length) runs
    first = []  # arc k's runs are residual arcs first[k] .. first[k + 1] - 1
    for k, arc in enumerate(net.arcs):
        first.append(len(tails))
        if k in dropped:
            continue
        table_runs = runs.get(id(arc.cost))
        if table_runs is None:
            table_runs = runs[id(arc.cost)] = [
                (m, len(list(group))) for m, group in groupby(arc.cost.slopes)
            ]
        for m, length in table_runs:
            # a negative run starts saturated, so residual costs start non-negative
            if m < 0:
                g[arc.tail] += length
                g[arc.head] -= length
            add_residual(arc.tail, arc.head, m, length, length if m < 0 else 0)
    n_runs = len(tails)
    first.append(n_runs)

    target = 0
    for x in range(net.num_nodes):
        if g[x] < 0:
            add_residual(s_node, x, 0, -g[x])
            target += -g[x]
        elif g[x] > 0:
            add_residual(x, t_node, 0, g[x])

    rc = [None] * (2 * len(tails))

    def refresh(aidx):
        e = flows[aidx]
        rc[2 * aidx] = costs[aidx] if e < caps[aidx] else None
        rc[2 * aidx + 1] = -costs[aidx] if e > 0 else None

    # slot 2a leaves the tail of arc a for its head, slot 2a + 1 the reverse
    to = [None] * len(rc)
    adjacency = [[] for _ in range(num_nodes)]
    for aidx in chain(range(n_runs, len(tails)), range(n_runs)):
        refresh(aidx)
        tail, head = tails[aidx], heads[aidx]
        to[2 * aidx], to[2 * aidx + 1] = head, tail
        adjacency[tail].append((2 * aidx, head))
        adjacency[head].append((2 * aidx + 1, tail))
    adjacency = [tuple(entries) for entries in adjacency]

    pot = [0] * num_nodes
    pushed = 0
    visited = [0] * num_nodes
    stamp = 0

    while pushed < target:
        # Dijkstra over residual reduced costs; None marks an unreached node
        # and ``ties`` holds the nodes reached at the distance d being settled
        dist = [None] * num_nodes
        dist[s_node] = 0
        d, ties, heap = 0, [s_node], []
        done = [False] * num_nodes
        while ties or heap:
            if ties:
                x = ties.pop()
            else:
                d, x = heapq.heappop(heap)
                if done[x]:
                    continue
            done[x] = True
            if x == t_node:
                break
            px = pot[x]
            for slot, y in adjacency[x]:
                if done[y]:
                    continue
                w = rc[slot]
                if w is None:
                    continue
                nd = d + w + px - pot[y]
                dy = dist[y]
                if dy is None or nd < dy:
                    dist[y] = nd
                    if nd == d:
                        ties.append(y)
                    else:
                        heapq.heappush(heap, (nd, y))
        d_t = dist[t_node]
        if d_t is None:
            return Infeasible(
                _infeasibility_witness(net, tails, heads, caps, flows, s_node, n_runs)
            )
        if d_t:  # at d_t = 0 every potential would gain min(dist, 0) = 0
            for x in range(num_nodes):
                dx = dist[x]
                pot[x] += d_t if dx is None or dx > d_t else dx
        # phase: depth-first blocks along zero-reduced-cost admissible arcs
        ptr = [0] * num_nodes
        start = pushed
        while pushed < target:
            stamp += 1
            visited[s_node] = stamp
            path = []
            x = s_node
            reached = False
            while True:
                entries = adjacency[x]
                px = pot[x]
                k, end = ptr[x], len(entries)
                while k < end:
                    slot, y = entries[k]
                    w = rc[slot]
                    if w is not None and visited[y] != stamp and w + px == pot[y]:
                        break
                    k += 1
                ptr[x] = k
                if k < end:
                    path.append(slot)
                    visited[y] = stamp
                    x = y
                    if x == t_node:
                        reached = True
                        break
                    continue
                if x == s_node:
                    break
                x = to[path.pop() ^ 1]
                ptr[x] += 1
            if not reached:
                if pushed == start:
                    raise InternalError(f"no augmenting path at reduced distance {d_t}")
                break
            delta = target - pushed
            for slot in path:
                aidx = slot >> 1
                room = flows[aidx] if slot & 1 else caps[aidx] - flows[aidx]
                if room < delta:
                    delta = room
            if delta <= 0:
                raise InternalError(f"augmenting path carries {delta} units")
            for slot in path:
                aidx = slot >> 1
                flows[aidx] += -delta if slot & 1 else delta
                refresh(aidx)
            pushed += delta

    amounts = tuple(
        arc.lo + sum(flows[first[k]:first[k + 1]]) for k, arc in enumerate(net.arcs)
    )
    _check_flow(net, amounts)
    total = sum(arc.cost.table[f] for arc, f in zip(net.arcs, amounts))
    return Flow(amounts, Cost(Fraction(total, net.den)))


def _infeasibility_witness(net, tails, heads, caps, flows, s_node, n_runs):
    for aidx in range(n_runs, len(tails)):
        if tails[aidx] == s_node and flows[aidx] < caps[aidx]:
            node = heads[aidx]
            for idx, arc in enumerate(net.arcs):
                if arc.head == node and arc.lo > 0:
                    return idx
            return None
    return None


def _check_flow(net: FlowNetwork, amounts):
    """Structural soundness: bounds, conservation and the required value."""
    balance = [0] * net.num_nodes
    for arc, f in zip(net.arcs, amounts):
        if not (arc.lo <= f <= arc.hi):
            raise InternalError(f"flow {f} violates window [{arc.lo}, {arc.hi}]")
        balance[arc.tail] -= f
        balance[arc.head] += f
    for x in range(net.num_nodes):
        if x in (net.source, net.sink):
            continue
        if balance[x] != 0:
            raise InternalError(f"conservation violated at node {x}")
    if -balance[net.source] != net.value or balance[net.sink] != net.value:
        raise InternalError("flow value differs from the required value")


def network_to_dot(net: FlowNetwork, flow: Optional[Flow] = None) -> str:
    """Graphviz rendering of the network, optionally annotated with a flow."""
    lines = ["digraph flownet {", "  rankdir=LR;"]
    for x in range(net.num_nodes):
        shape = "doublecircle" if x in (net.source, net.sink) else "circle"
        lines.append(f'  n{x} [label="{x}", shape={shape}];')
    for idx, arc in enumerate(net.arcs):
        margins = ",".join(str(Fraction(m, net.den)) for m in arc.cost.slopes)
        label = f"[{arc.lo},{arc.hi}]"
        if margins:
            label += f" w'=({margins})"
        if flow is not None:
            label += f" f={flow.amounts[idx]}"
        lines.append(f'  n{arc.tail} -> n{arc.head} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
