"""Count-cost instances over cross-free families, solved by convex flow.

Pipeline: validate the family and functions, rewrite cross-free to laminar
(complement folding), build the containment forest, translate to a flow
network whose minimum-cost integral flows of value n correspond one-to-one
to the finite-cost solutions, solve, decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from .costs import INF, ZERO
from .errors import ClassViolation, InstanceError
from .flow import Arc, Flow, FlowNetwork, Infeasible, min_convex_cost_flow
from .instances import (
    AssignmentSet,
    CountFunction,
    CountInstance,
    evaluate_count,
)
from .results import SolveResult

LAMINAR = "LAMINAR"
CROSS_FREE = "CROSS_FREE"
NEITHER = "NEITHER"


def check_family(members_list, universe):
    """LAMINAR / CROSS_FREE / NEITHER for a list of assignment-sets.

    Nested means disjoint or contained either way; cross-free additionally
    admits pairs whose union is the whole universe.  Returns the kind and,
    for NEITHER, the first violating pair of set indices.
    """
    kind = LAMINAR
    witness = None
    r = len(members_list)
    for i in range(r):
        a = members_list[i]
        for j in range(i + 1, r):
            b = members_list[j]
            if not (a & b) or a <= b or b <= a:
                continue
            if a | b == universe:
                kind = CROSS_FREE
            else:
                return NEITHER, (i, j)
    return kind, witness


def check_convexity(g: CountFunction):
    """True iff the finite support is contiguous with non-decreasing slopes.

    Contiguity holds by construction of CountFunction; the returned index is
    the first m with g(m+2) - g(m+1) < g(m+1) - g(m).
    """
    support = g.support
    if support is None:
        return True, None
    lo, hi = support
    for m in range(lo, hi - 1):
        left = g.table[m + 1].value - g.table[m].value
        right = g.table[m + 2].value - g.table[m + 1].value
        if right < left:
            return False, m
    return True, None


def _require_crossfree(inst: CountInstance):
    members = [aset.members for aset in inst.sets]
    kind, witness = check_family(members, inst.universe())
    if kind == NEITHER:
        i, j = witness
        raise ClassViolation(
            f"assignment-sets {i} and {j} overlap without covering the universe",
            witness=[sorted(members[i]), sorted(members[j])],
        )
    return kind


def _require_convex(inst: CountInstance):
    for k, aset in enumerate(inst.sets):
        ok, at = check_convexity(aset.g)
        if not ok:
            raise ClassViolation(
                f"count function of set {k} is not convex (violated at count {at})",
                witness=[k, at],
            )


def _fold(target: AssignmentSet, g_other: CountFunction, n: int) -> AssignmentSet:
    """Replace g_t by g_t(y) + g_other(n - y); n - y out of range means inf.

    Valid when the other set is the complement of the target: every solution
    splits its n assignments between the two.
    """
    s = target.var_count
    table = []
    for y in range(s + 1):
        other = g_other.table[n - y] if 0 <= n - y <= g_other.size else INF
        table.append(target.g.table[y] + other)
    return AssignmentSet(target.members, CountFunction(tuple(table)))


def crossfree_to_laminar(inst: CountInstance) -> CountInstance:
    """Cost-preserving rewrite of a cross-free instance into a laminar one.

    Already-laminar families are returned unchanged.  Sets larger than half
    the universe are folded into their complements (added with the zero
    function when absent), then complementary pairs are merged; the result
    is laminar and agrees with the input on every solution, exactly.
    """
    kind = _require_crossfree(inst)
    if kind == LAMINAR:
        return inst
    universe = inst.universe()
    n = inst.n
    constant = inst.constant
    work = {}
    order = []
    for aset in inst.sets:
        work[aset.members] = aset
        order.append(aset.members)

    def add_or_fold(members, g_from):
        if members in work:
            work[members] = _fold(work[members], g_from, n)
        else:
            s = len({v for v, _ in members})
            zero = AssignmentSet(members, CountFunction.zero(s))
            work[members] = _fold(zero, g_from, n)
            order.append(members)

    half = len(universe) // 2
    for members in list(order):
        if members not in work:
            continue
        aset = work[members]
        if members == universe:
            constant = constant + aset.g.table[n]
            del work[members]
            order.remove(members)
            continue
        if len(members) > half:
            complement = universe - members
            del work[members]
            order.remove(members)
            add_or_fold(complement, aset.g)
    # remaining complementary pairs (both exactly half the universe); fold
    # the later set of each pair into the earlier one
    for members in list(order):
        if members not in work:
            continue
        complement = universe - members
        if complement in work and order.index(members) < order.index(complement):
            g_from = work[complement].g
            del work[complement]
            order.remove(complement)
            work[members] = _fold(work[members], g_from, n)
    result = CountInstance.build(
        inst.domains,
        [work[m] for m in order],
        names=inst.names,
        constant=constant,
    )
    members = [aset.members for aset in result.sets]
    kind, _ = check_family(members, universe)
    if kind != LAMINAR:
        raise InstanceError("complement folding failed to produce a laminar family")
    return result


@dataclass(frozen=True)
class LaminarForest:
    """Containment forest of a laminar family, rooted at the universe set.

    ``sets[0]`` is the root; ``father[k]`` indexes the minimal set properly
    containing set k; ``smallest`` maps every assignment to the minimal set
    containing it.
    """

    sets: Tuple[AssignmentSet, ...]
    father: Tuple[int, ...]
    smallest: Mapping[tuple, int]

    @property
    def root_index(self) -> int:
        return 0


def build_laminar_forest(inst: CountInstance) -> LaminarForest:
    """Insert sets in decreasing size, tracking the minimal container.

    The universe set is added with the zero function when absent.  Members
    of an inserted set must agree on their current minimal container;
    disagreement certifies that the family is not laminar.
    """
    universe = inst.universe()
    root = None
    rest = []
    for aset in inst.sets:
        if aset.members == universe:
            root = aset
        else:
            rest.append(aset)
    if root is None:
        root = AssignmentSet(universe, CountFunction.zero(inst.n))
    rest.sort(key=lambda aset: -len(aset.members))  # stable: input order on ties
    sets = [root]
    father = [-1]
    smallest = {pair: 0 for pair in universe}
    for aset in rest:
        containers = {smallest[m] for m in aset.members}
        if len(containers) != 1:
            raise ClassViolation(
                "family is not laminar: a set straddles two built branches",
                witness=sorted(aset.members),
            )
        idx = len(sets)
        sets.append(aset)
        father.append(containers.pop())
        for m in aset.members:
            smallest[m] = idx
    total_assignments = len(universe)
    if len(sets) > 2 * total_assignments - 1:
        raise InstanceError("laminar family exceeds the 2N - 1 bound")
    return LaminarForest(tuple(sets), tuple(father), smallest)


def build_network(forest: LaminarForest, inst: CountInstance) -> FlowNetwork:
    """Flow network whose value-n min-cost flows encode the optimal solutions.

    Nodes: source, one per variable, one per assignment, one per set with
    the root (universe) acting as the sink.  Variable arcs force one unit
    each; set arcs carry the count function over its finite window.
    """
    n = inst.n
    assignments = sorted(inst.universe())
    a_index = {pair: 1 + n + k for k, pair in enumerate(assignments)}
    base = 1 + n + len(assignments)
    set_node = [base + k for k in range(len(forest.sets))]  # root (k=0) is the sink
    sink = base
    num_nodes = base + len(forest.sets)
    source = 0
    unit = CountFunction((ZERO, ZERO))
    forced = CountFunction((INF, ZERO))
    arcs = []
    for i in range(n):
        arcs.append(Arc(source, 1 + i, 1, 1, forced))
    for (i, a) in assignments:
        arcs.append(Arc(1 + i, a_index[(i, a)], 0, 1, unit))
    for (i, a) in assignments:
        arcs.append(Arc(a_index[(i, a)], set_node[forest.smallest[(i, a)]], 0, 1, unit))
    for k in range(1, len(forest.sets)):
        aset = forest.sets[k]
        support = aset.g.support
        if support is None:
            raise InstanceError("set with empty finite support reached the network builder")
        lo, hi = support
        table = tuple(aset.g.table[m] if lo <= m <= hi else INF for m in range(hi + 1))
        arcs.append(Arc(set_node[k], set_node[forest.father[k]], lo, hi,
                        CountFunction(table)))
    return FlowNetwork(num_nodes, source, sink, n, tuple(arcs))


def solve_cfc(inst: CountInstance, check=True) -> SolveResult:
    """Exact optimum of a cross-free convex instance via min convex-cost flow."""
    if check:
        _require_convex(inst)
    lam = crossfree_to_laminar(inst)
    for k, aset in enumerate(lam.sets):
        if aset.g.support is None:
            x = (0,) * inst.n
            res = SolveResult(x, INF, "cfc-flow", {"empty_support_set": k})
            _verify(inst, res)
            return res
    forest = build_laminar_forest(lam)
    root_term = forest.sets[0].g.table[inst.n]
    net = build_network(forest, lam)
    outcome = min_convex_cost_flow(net)
    if isinstance(outcome, Infeasible):
        x = (0,) * inst.n
        res = SolveResult(
            x, INF, "cfc-flow",
            {"infeasible": True, "witness_arc": outcome.witness_arc},
        )
        _verify(inst, res)
        return res
    x = _decode(net, outcome, inst)
    total = outcome.total + lam.constant + root_term
    res = SolveResult(
        x, total, "cfc-flow",
        {"flow_cost": str(outcome.total), "constant": str(lam.constant),
         "sets_after_rewrite": len(lam.sets)},
    )
    _verify(inst, res)
    return res


def _decode(net: FlowNetwork, flow: Flow, inst: CountInstance):
    n = inst.n
    picked = {}
    for arc, amount in zip(net.arcs, flow.amounts):
        if amount == 1 and 1 <= arc.tail <= n and arc.lo == 0:
            # variable -> assignment arc
            i = arc.tail - 1
            offset = arc.head - (1 + n)
            picked[i] = offset
    assignments = sorted(inst.universe())
    x = []
    for i in range(n):
        if i not in picked:
            raise InstanceError(f"flow does not pick a value for variable {i}")
        x.append(assignments[picked[i]][1])
    return tuple(x)


def _verify(inst, res):
    got = evaluate_count(inst, res.assignment)
    if got != res.cost:
        raise InstanceError(
            f"internal check failed: assignment evaluates to {got}, solver reported {res.cost}"
        )


# ---------------------------------------------------------------------------
# domain reduction for families of sets of size at most two


@dataclass(frozen=True)
class DomainReduction:
    """Transformed instance plus the solution back-map.

    Oversized variables become chains of small-domain variables whose only
    finite assignments are staircases carrying one original value.
    """

    reduced: CountInstance
    groups: Tuple[Tuple[int, ...], ...]      # new variable indices per original
    carried_value: Tuple[Mapping[int, int], ...]  # new var -> original value index

    def back_map(self, x) -> Tuple[int, ...]:
        out = []
        for i, group in enumerate(self.groups):
            hits = [
                self.carried_value[i][v][x[v]]
                for v in group
                if x[v] in self.carried_value[i].get(v, {})
            ]
            if len(hits) != 1:
                raise InstanceError(
                    f"assignment is not a staircase on the chain of variable {i}"
                )
            out.append(hits[0])
        return tuple(out)


def reduce_domains_pairsets(inst: CountInstance) -> DomainReduction:
    """Rewrite size-<=2-set instances so every domain has at most 3 values.

    A variable with k > 3 values becomes k chained variables; coupling sets
    force exactly one chain position to carry an original value, giving a
    one-to-one correspondence between finite-cost solutions.
    """
    for idx, aset in enumerate(inst.sets):
        if len(aset.members) > 2:
            raise ClassViolation(
                f"set {idx} has {len(aset.members)} members; the reduction "
                "applies to sets of size at most 2",
                witness=sorted(aset.members),
            )
    _require_crossfree(inst)

    new_domains = []
    new_names = []
    groups = []
    carried = []
    assign_map = {}
    for i, dom in enumerate(inst.domains):
        k = len(dom)
        if k <= 3:
            group = (len(new_domains),)
            carried.append({group[0]: {a: a for a in range(k)}})
            for a in range(k):
                assign_map[(i, a)] = (group[0], a)
            new_domains.append(tuple(dom))
            new_names.append(inst.names[i])
            groups.append(group)
            continue
        taken = set(dom)
        low = _fresh_name("0", taken)
        high = _fresh_name("1", taken | {low})
        base = len(new_domains)
        group = [base + pos for pos in range(k)]
        carry = {}
        for pos in range(k):
            if pos == 0:
                values = (high, dom[pos])
            elif pos == k - 1:
                values = (low, dom[pos])
            else:
                values = (low, high, dom[pos])
            new_domains.append(values)
            new_names.append(f"{inst.names[i]}#{pos}")
            carry[base + pos] = {len(values) - 1: pos}
            assign_map[(i, pos)] = (base + pos, len(values) - 1)
        groups.append(tuple(group))
        carried.append(carry)

    sets = []
    for aset in inst.sets:
        members = frozenset(assign_map[m] for m in aset.members)
        new_s = len({v for v, _ in members})
        g = aset.g
        if new_s != aset.var_count:
            # two values of one chained variable now sit on distinct chain
            # variables; the extra counts are unreachable on staircases
            g = CountFunction(g.table + (INF,) * (new_s - aset.var_count))
        sets.append(AssignmentSet(members, g))
    coupling = CountFunction((INF, ZERO, INF))
    for i, dom in enumerate(inst.domains):
        k = len(dom)
        if k <= 3:
            continue
        group = groups[i]
        for pos in range(k - 1):
            var_a, var_b = group[pos], group[pos + 1]
            # marker values sit at index 0 (low) except on the first chain
            # variable, whose domain starts with the high marker
            high_idx = 0 if pos == 0 else 1
            low_idx = 0
            members = frozenset([(var_a, high_idx), (var_b, low_idx)])
            sets.append(AssignmentSet(members, coupling))
    reduced = CountInstance.build(new_domains, sets, names=new_names, constant=inst.constant)
    return DomainReduction(reduced, tuple(groups), tuple(carried))


def _fresh_name(base, taken):
    name = base
    while name in taken:
        name = "_" + name
    return name


def forest_to_dot(forest: LaminarForest, inst: CountInstance) -> str:
    """Graphviz rendering of the containment forest."""
    lines = ["digraph laminar {", "  rankdir=BT;"]
    for k, aset in enumerate(forest.sets):
        label = "universe" if k == forest.root_index else _set_label(aset, inst)
        lines.append(f'  s{k} [label="{label}", shape=box];')
    for k, parent in enumerate(forest.father):
        if parent >= 0:
            lines.append(f"  s{k} -> s{parent};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _set_label(aset, inst):
    parts = [
        f"{inst.names[i]}={inst.domains[i][a]}" for i, a in sorted(aset.members)
    ]
    if len(parts) > 4:
        parts = parts[:4] + ["..."]
    return "{" + ", ".join(parts) + "}"
