"""Count-cost instances over cross-free families, solved by convex flow.

Pipeline: check that the functions are convex; build the containment
forest of the family's laminar form (``build_laminar_forest`` rewrites a
cross-free family to a laminar one on the way); translate to a flow network
whose minimum-cost integral flows of value n correspond one-to-one to the
finite-cost solutions; solve; decode.  Every step after the parse reads the
instance's integer view (``CountInstance.integer_counts``): the convexity
check its tables' ``bend``, decided once per distinct table when the view
is built, the forest and the network its tables, which become the arcs'
tables as they are, over the view's denominator.  The rewrite works on the
``Cost`` tables; the rewritten instance builds its own view on first use.

One complement rule both decides the family's kind and does the rewrite:
fix one assignment u0 and complement every set that contains u0.  The
family is cross-free exactly when the result is laminar, because
complementing one set of a pair does not change whether the pair crosses,
and two sets that both miss u0 cannot cover the universe.
"""

from __future__ import annotations

from typing import Tuple

from .costs import INF, ZERO
from .errors import ClassViolation, InstanceError, InternalError
from .flow import Arc, Flow, FlowNetwork, Infeasible, min_convex_cost_flow
from .flow import check_convexity  # noqa: F401  (kept importable from here)
from .frozen import Frozen
from .instances import (
    AssignmentSet,
    CountFunction,
    CountInstance,
    evaluate_count,
    integer_count,
)
from .results import SolveResult, re_evaluated

LAMINAR = "LAMINAR"
CROSS_FREE = "CROSS_FREE"
NEITHER = "NEITHER"


def check_family(members_list, universe):
    """LAMINAR / CROSS_FREE / NEITHER for a list of assignment-sets.

    Nested means disjoint or contained either way; cross-free additionally
    admits pairs whose union is the whole universe.  Complementing one set of
    a pair permutes the pair's four regions (in both, in one only, in the
    other only, in neither), so it never changes whether the pair crosses;
    and two sets that both miss u0 = min(universe) cannot cover the universe.
    So the family is cross-free exactly when it becomes laminar once every
    set containing u0 is replaced by its complement (universe sets, which
    cross nothing, dropped).  Both laminarity tests are linear in the size
    of the family tested.  Only a NEITHER family is scanned pair by pair, to
    return the first crossing pair of set indices in index order; each
    crossing test is one AND and one bit count on the sets' member masks.
    """
    rest = [m for m in members_list if m != universe]
    if _is_laminar(rest, universe):
        return LAMINAR, None
    u0 = min(universe)
    if _is_laminar([universe - m if u0 in m else m for m in rest], universe):
        return CROSS_FREE, None
    return NEITHER, _crossing_pair(members_list, universe)


def _member_masks(members_list, universe):
    """Each set as an int with bit k set for the k-th assignment of
    ``sorted(universe)``."""
    bit = {m: 1 << k for k, m in enumerate(sorted(universe))}
    return [sum(map(bit.__getitem__, ms)) for ms in members_list]


def _crosses(a, b, size_a, size_b, size_u):
    """Whether member masks a and b, of sizes size_a and size_b, cross in a
    universe of size_u: they overlap without nesting and without covering
    the universe.  One AND and one bit count: with c = |a & b|, the sets
    cross when c > 0, c != |a|, c != |b| and |a| + |b| - c != |U|."""
    c = (a & b).bit_count()
    return 0 < c and c != size_a and c != size_b and size_a + size_b - c != size_u


def _crossing_pair(members_list, universe):
    """The first pair (i, j), i < j, of sets that cross."""
    masks = _member_masks(members_list, universe)
    sizes = [len(ms) for ms in members_list]
    size_u = len(universe)
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if _crosses(a, masks[j], sizes[i], sizes[j], size_u):
                return i, j


def _nest(members_list, universe):
    """Insert sets in decreasing size, tracking each assignment's minimal set.

    Node 0 stands for the universe and node k >= 1 for
    ``members_list[order[k - 1]]``; ties keep input order.  Members of an
    inserted set must agree on their current minimal node, which becomes the
    set's father; disagreement certifies that the family is not laminar.
    Returns ``(order, father, smallest)``.
    """
    order = sorted(range(len(members_list)), key=lambda k: -len(members_list[k]))
    father = [-1]
    smallest = dict.fromkeys(universe, 0)
    for k in order:
        containers = {smallest[m] for m in members_list[k]}
        if len(containers) != 1:
            raise ClassViolation(
                "family is not laminar: a set straddles two built branches",
                witness=sorted(members_list[k]),
            )
        father.append(containers.pop())
        for m in members_list[k]:
            smallest[m] = len(father) - 1
    return order, father, smallest


def _is_laminar(members_list, universe):
    try:
        _nest(members_list, universe)
    except ClassViolation:
        return False
    return True


def first_nonconvex_set(inst: CountInstance):
    """``(k, m)``: the first set k whose function is not convex, at count m,
    its table's ``bend`` in the instance's integer view, where each distinct
    table's convexity is decided once; None when all are convex."""
    for k, g in enumerate(inst.integer_counts.counts):
        if g.bend is not None:
            return k, g.bend
    return None


def _require_convex(inst: CountInstance):
    bad = first_nonconvex_set(inst)
    if bad is not None:
        raise ClassViolation(
            f"count function of set {bad[0]} is not convex (violated at count {bad[1]})",
            witness=list(bad),
        )


def crossfree_to_laminar(inst: CountInstance) -> CountInstance:
    """Cost-preserving rewrite of a cross-free instance into a laminar one.

    Already-laminar families are returned unchanged.  Otherwise fix
    u0 = min(universe): a set that misses u0 stays, the universe set adds
    g(n) to the constant, and every other set becomes its complement scored
    by g(n - y), as a solution makes n assignments.  Complementing keeps the
    family cross-free, and no two of the resulting sets cover the universe
    since both miss u0, so the result is laminar; ``CountInstance.build``
    sums a set and a complement that coincide.  The result agrees with the
    input on every solution, exactly.
    """
    return build_laminar_forest(inst).instance


class LaminarForest(Frozen):
    """Containment forest of the laminar form of a count instance.

    ``instance`` is that laminar form: the input itself when its family is
    laminar, else the input's rewrite by ``crossfree_to_laminar``.
    ``sets[0]`` is the root, ``instance``'s universe set or the zero
    function on the universe; ``counts[k]`` is the function of set k >= 1
    in ``instance.integer_counts``, and ``counts[0]`` is None, since the
    root is the network's sink and carries no arc (its g(n) is read from
    ``sets[0]``); ``father[k]`` indexes the minimal set
    properly containing set k; ``smallest`` maps every assignment to the
    minimal set containing it.
    """

    __slots__ = _fields = ("instance", "sets", "counts", "father", "smallest")


def build_laminar_forest(inst: CountInstance) -> LaminarForest:
    """The forest of a cross-free instance's laminar form.

    The family is nested once.  If it is not laminar, it is rewritten as
    ``crossfree_to_laminar`` describes and the rewritten family is nested
    once.  If that is not laminar either, the family is not cross-free: the
    ClassViolation names the first pair of the input's sets that cross.
    """
    universe = inst.universe()
    try:
        return _nested(inst, universe)
    except ClassViolation:
        pass
    u0 = min(universe)
    constant = inst.constant
    sets = []
    for aset in inst.sets:
        if aset.members == universe:
            constant = constant + aset.g.table[inst.n]
        elif u0 in aset.members:
            members = universe - aset.members
            g = aset.g.reflected(inst.n, len({v for v, _ in members}))
            sets.append(AssignmentSet(members, g))
        else:
            sets.append(aset)
    lam = CountInstance.build(inst.domains, sets, names=inst.names, constant=constant)
    try:
        return _nested(lam, universe)
    except ClassViolation:
        members = [aset.members for aset in inst.sets]
        i, j = _crossing_pair(members, universe)
        raise ClassViolation(
            f"assignment-sets {i} and {j} overlap without covering the universe",
            witness=[sorted(members[i]), sorted(members[j])],
        ) from None


def _nested(lam: CountInstance, universe) -> LaminarForest:
    """The forest of ``lam``, nested once; ``_nest`` raises if the family is
    not laminar.  An absent universe set is added with the zero function."""
    root = None
    rest = []
    for aset, g in zip(lam.sets, lam.integer_counts.counts):
        if aset.members == universe:
            root = aset
        else:
            rest.append((aset, g))
    if root is None:
        root = AssignmentSet(universe, CountFunction.zero(lam.n))
    order, father, smallest = _nest([aset.members for aset, _ in rest], universe)
    pairs = [(root, None)] + [rest[k] for k in order]
    return LaminarForest(
        lam, tuple([a for a, _ in pairs]), tuple([g for _, g in pairs]), tuple(father), smallest
    )


_UNIT = integer_count((0, 0))
_FORCED = integer_count((None, 0))
_CLOSED = integer_count((0,))


def _folded_costs(forest: LaminarForest, folded):
    """Per variable with folded sets, the cost table of each value's
    assignment arc: (0, c) with c the sum over the variable's folded sets
    of g(1) for a member and g(0) otherwise, or (0,) when c is inf.  The
    sums are taken over the view's ints, and equal sums share one table."""
    domains = forest.instance.domains
    sums = {}
    for k in folded:
        g0, g1 = forest.counts[k].table
        members = forest.sets[k].members
        i = next(iter(members))[0]
        terms = [g0] * len(domains[i])
        for _, a in members:
            terms[a] = g1
        acc = sums.get(i, [0] * len(terms))
        sums[i] = [None if c is None or t is None else c + t for c, t in zip(acc, terms)]
    shared = {0: _UNIT, None: _CLOSED}

    def table(c):
        if c not in shared:
            shared[c] = integer_count((0, c))
        return shared[c]

    return {i: [table(c) for c in acc] for i, acc in sums.items()}


def build_network(forest: LaminarForest) -> FlowNetwork:
    """Flow network whose value-n min-cost flows encode the optimal
    solutions of ``forest.instance``.

    A non-root forest set whose members all belong to one variable i is
    folded into i's assignment arcs: its count is 1 exactly when the arc of
    a member carries the variable's unit, so arc (i, a) costs the sum over
    the folded sets of i of g(1) if (i, a) is a member and g(0) if not.
    The other sets are kept; their fathers are kept too, since every subset
    of a one-variable set spans one variable.

    Nodes: source 0, variable i at 1 + i, the root (the universe) at 1 + n
    as the sink, then the kept sets in forest order.  Arcs in order: source
    -> each variable, window [1, 1]; variable i -> the node of the minimal
    kept set holding (i, a), one per assignment in (i, a) order, so arc
    n + k picks assignment k, window [0, 1] with its folded cost, or [0, 0]
    when that cost is inf; each kept set -> its father's node, carrying the
    set's count over the finite window of its function, its table in the
    instance's integer view.  The network's denominator is the view's.
    """
    inst = forest.instance
    n = inst.n
    counts, father, smallest = forest.counts, forest.father, forest.smallest
    # node[k]: the node of forest set k, or of its nearest kept ancestor when
    # folded (a father precedes its children in forest order)
    node = [n + 1] + [0] * (len(counts) - 1)
    folded = []
    kept = []
    for k in range(1, len(counts)):
        if len(counts[k].table) == 2:  # g covers counts 0..s, s the variables spanned
            node[k] = node[father[k]]
            folded.append(k)
        else:
            node[k] = n + 2 + len(kept)
            kept.append(k)
    costs = _folded_costs(forest, folded)
    arcs = [Arc(0, 1 + i, _FORCED) for i in range(n)]
    for i, dom in enumerate(inst.domains):
        tables = costs.get(i)
        for a in range(len(dom)):
            arcs.append(Arc(1 + i, node[smallest[(i, a)]], tables[a] if tables else _UNIT))
    for k in kept:
        arcs.append(Arc(node[k], node[father[k]], counts[k]))
    return FlowNetwork(n + 2 + len(kept), 0, n + 1, n, tuple(arcs), inst.integer_counts.den)


def solve_cfc(inst: CountInstance) -> SolveResult:
    """Exact optimum of a cross-free convex instance via min convex-cost flow."""
    _require_convex(inst)
    return _solve_forest(inst, build_laminar_forest(inst))[0]


def _solve_forest(inst: CountInstance, forest: LaminarForest):
    """``(result, network)``: the optimum of ``forest.instance``, whose
    functions are convex, by convex flow on ``network``, re-evaluated against
    ``inst``, the instance the forest was built from or one it renames (same
    variables, same objective).  ``network`` is None when a set has no
    finite count, since no network is built then."""
    lam = forest.instance
    empty = [k for k, g in enumerate(lam.integer_counts.counts) if g.support is None]
    net = None
    if empty:
        res = SolveResult((0,) * inst.n, INF, "cfc-flow", {"empty_support_set": empty[0]})
    else:
        net = build_network(forest)
        outcome = min_convex_cost_flow(net)
        if isinstance(outcome, Infeasible):
            res = SolveResult(
                (0,) * inst.n, INF, "cfc-flow",
                {"infeasible": True, "witness_arc": outcome.witness_arc},
            )
        else:
            total = outcome.total + lam.constant + forest.sets[0].g.table[inst.n]
            res = SolveResult(
                _decode(net, outcome, inst), total, "cfc-flow",
                {"flow_cost": str(outcome.total), "constant": str(lam.constant),
                 "sets_after_rewrite": len(lam.sets)},
            )
    return re_evaluated(inst, res, evaluate_count), net


def _decode(net: FlowNetwork, flow: Flow, inst: CountInstance):
    """The solution of a flow: arc n + k carries a unit exactly when its
    assignment, the k-th in (i, a) order, is taken."""
    n = inst.n
    x = [None] * n
    picks = iter(flow.amounts[n:])
    for i, dom in enumerate(inst.domains):
        for a in range(len(dom)):
            if next(picks) == 1:
                x[i] = a
    if None in x:
        raise InternalError(f"flow does not pick a value for variable {x.index(None)}")
    return tuple(x)


# ---------------------------------------------------------------------------
# domain reduction for families of sets of size at most two


class DomainReduction(Frozen):
    """Transformed instance plus the solution back-map.

    Oversized variables become chains of small-domain variables whose only
    finite assignments are staircases carrying one original value.
    ``origin`` maps each reduced assignment (v, b) that carries an original
    value to that original assignment (i, a).
    """

    __slots__ = _fields = ("reduced", "origin")

    def back_map(self, x) -> Tuple[int, ...]:
        # carriers come in variable order: staircases carry 0, ..., n - 1 once each
        hits = [self.origin[v, b] for v, b in enumerate(x) if (v, b) in self.origin]
        carried = [i for i, _ in hits]
        n = len({i for i, _ in self.origin.values()})
        if carried != list(range(n)):
            i = next(i for i in range(n) if carried.count(i) != 1)
            raise InstanceError(
                f"assignment is not a staircase on the chain of variable {i}"
            )
        return tuple(a for _, a in hits)


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
    build_laminar_forest(inst)  # raises on a family that is not cross-free

    new_domains = []
    new_names = []
    assign_map = {}
    for i, dom in enumerate(inst.domains):
        k = len(dom)
        if k <= 3:
            for a in range(k):
                assign_map[(i, a)] = (len(new_domains), a)
            new_domains.append(tuple(dom))
            new_names.append(inst.names[i])
            continue
        taken = set(dom)
        low = _fresh_name("0", taken)
        high = _fresh_name("1", taken | {low})
        base = len(new_domains)
        for pos in range(k):
            if pos == 0:
                values = (high, dom[pos])
            elif pos == k - 1:
                values = (low, dom[pos])
            else:
                values = (low, high, dom[pos])
            new_domains.append(values)
            new_names.append(f"{inst.names[i]}#{pos}")
            assign_map[(i, pos)] = (base + pos, len(values) - 1)

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
        for pos in range(k - 1):
            var_a, var_b = assign_map[i, pos][0], assign_map[i, pos + 1][0]
            # marker values sit at index 0 (low) except on the first chain
            # variable, whose domain starts with the high marker
            high_idx = 0 if pos == 0 else 1
            low_idx = 0
            members = frozenset([(var_a, high_idx), (var_b, low_idx)])
            sets.append(AssignmentSet(members, coupling))
    reduced = CountInstance.build(new_domains, sets, names=new_names, constant=inst.constant)
    return DomainReduction(reduced, {new: old for old, new in assign_map.items()})


def _fresh_name(base, taken):
    name = base
    while name in taken:
        name = "_" + name
    return name


def forest_to_dot(forest: LaminarForest) -> str:
    """Graphviz rendering of the containment forest."""
    inst = forest.instance
    lines = ["digraph laminar {", "  rankdir=BT;"]
    for k, aset in enumerate(forest.sets):
        label = "universe" if k == 0 else _set_label(aset, inst)
        label = label.replace("\\", "\\\\").replace('"', '\\"')
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
