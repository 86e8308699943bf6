"""Ground-truth oracles, seeded instance generators and named fixtures.

The oracles are deliberately independent re-implementations: they
enumerate every assignment and share no search code with the solvers they
are used to check.  ``oracle_binary`` adds the instance's integer costs,
which the solvers read too; the tests check those entry by entry against
the ``Cost`` tables, and every solver's answer is re-evaluated on them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

from .costs import Cost, INF, ZERO
from .errors import DEFAULT_BUDGET, BudgetExceeded, GenerationError
from .flow import Arc, FlowNetwork
from .instances import (
    AssignmentSet,
    BinaryInstance,
    CountFunction,
    CountInstance,
)
from .results import SolveResult
from .triangles import ALPHABET, Scheme, profile


def _raw(c: Cost):
    """None for inf, an int when integral, else a Fraction (fast summation)."""
    if c.is_infinite:
        return None
    v = c.value
    return v.numerator if v.denominator == 1 else v


def oracle_binary(inst: BinaryInstance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact optimum of a binary instance by full enumeration.

    It enumerates on the instance's integer costs
    (``BinaryInstance.integer_costs``), so it adds ints.  Ties break to the
    lexicographically smallest optimal assignment.
    """
    space = prod(len(d) for d in inst.domains)
    if space > budget:
        raise BudgetExceeded(f"{space} assignments exceed the budget of {budget}")
    ints = inst.integer_costs
    unary = ints.unary
    pairs = [(i, j, rows) for (i, j), rows in sorted(ints.binary.items())]
    best_x = None
    best = None  # None encodes +inf here
    for x in itertools.product(*(range(len(d)) for d in inst.domains)):
        if best_x is None:
            best_x = x
        total = 0
        infinite = False
        for i, a in enumerate(x):
            u = unary[i][a]
            if u is None:
                infinite = True
                break
            total += u
        if not infinite:
            for i, j, rows in pairs:
                w = rows[x[i]][x[j]]
                if w is None:
                    infinite = True
                    break
                total += w
        if infinite:
            continue
        if best is None or total < best:
            best = total
            best_x = x
    return SolveResult(best_x, ints.cost(best), "oracle", {"enumerated": space})


def oracle_count(inst: CountInstance, budget: int = DEFAULT_BUDGET) -> SolveResult:
    """Exact optimum of a count instance by full enumeration."""
    space = prod(len(d) for d in inst.domains)
    if space > budget:
        raise BudgetExceeded(f"{space} assignments exceed the budget of {budget}")
    n = inst.n
    r = len(inst.sets)
    members = [[[] for _ in inst.domains[i]] for i in range(n)]
    for k, aset in enumerate(inst.sets):
        for (i, a) in aset.members:
            members[i][a].append(k)
    tables = [[_raw(c) for c in aset.g.table] for aset in inst.sets]
    constant = _raw(inst.constant)

    best_x = None
    best = None
    counts = [0] * r
    domains = [range(len(d)) for d in inst.domains]

    def descend(i):
        nonlocal best_x, best
        if i == n:
            total = 0
            for k in range(r):
                v = tables[k][counts[k]]
                if v is None:
                    return
                total += v
            if best is None or total < best:
                best = total
                best_x = tuple(chosen)
            return
        for a in domains[i]:
            chosen.append(a)
            for k in members[i][a]:
                counts[k] += 1
            descend(i + 1)
            for k in members[i][a]:
                counts[k] -= 1
            chosen.pop()

    chosen = []
    descend(0)
    if constant is None or best is None:
        first = tuple(0 for _ in range(n)) if best_x is None else best_x
        return SolveResult(first, INF, "oracle", {"enumerated": space})
    return SolveResult(best_x, Cost(Fraction(best + constant)), "oracle", {"enumerated": space})


def count_finite_solutions(inst: CountInstance) -> int:
    """Number of assignments with finite objective (constant ignored)."""
    n = inst.n
    total = 0
    for x in itertools.product(*(range(len(d)) for d in inst.domains)):
        finite = all(not aset.g(aset.count_in(x)).is_infinite for aset in inst.sets)
        if finite:
            total += 1
    return total


# ---------------------------------------------------------------------------
# brute-force references for flows


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
    cheapest = [ZERO] * (m + 1)
    for k in range(m - 1, -1, -1):
        low = min(c for c in arcs[k].cost.table if not c.is_infinite)
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
        descend(0, ZERO)
    return best


# ---------------------------------------------------------------------------
# generators


def _rational_pool(rng, *, allow_inf=False):
    pool = [0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 3), 5]
    def draw():
        if allow_inf and rng.random() < 0.1:
            return INF
        return Cost(Fraction(rng.choice(pool)))
    return draw


def _unary_tables(rng, domains, kind):
    """kind: 'zero' | 'binary01' | 'crisp' | 'soft' | 'rational'."""
    draw_soft = _rational_pool(rng, allow_inf=True)
    draw_fin = _rational_pool(rng)
    tables = {}
    for i, dom in enumerate(domains):
        row = []
        for _ in dom:
            if kind == "zero":
                row.append(ZERO)
            elif kind == "binary01":
                row.append(Cost(rng.randint(0, 1)))
            elif kind == "crisp":
                row.append(INF if rng.random() < 0.15 else ZERO)
            elif kind == "soft":
                row.append(draw_soft())
            else:
                row.append(draw_fin())
        tables[i] = row
    return tables


# 2-colouring of the complete graph on 5 vertices without a single-colour
# triangle: the 5-cycle and its complement
_PENTAGON = {(i, (i + 1) % 5) for i in range(5)} | {((i + 1) % 5, i) for i in range(5)}


def _pentagon_colour(i, j):
    return 1 if (i, j) in _PENTAGON else 0


def gen_profile(n, d, types, scheme, seed, tries=200):
    """A seeded instance whose profile under the scheme is within `types`.

    Uses a direct construction for the classes the solvers exercise and
    falls back to rejection sampling; the output is always re-certified by
    the classifier before being returned.
    """
    scheme = Scheme(scheme) if not isinstance(scheme, Scheme) else scheme
    target = frozenset(types)
    extra = target - ALPHABET[scheme]
    if extra:
        raise GenerationError(f"types {sorted(extra)} are outside the {scheme.value} alphabet")
    rng = random.Random(seed)
    for attempt in range(tries):
        inst = _construct(rng, n, d, target, scheme)
        if inst is None:
            break
        got = profile(inst, scheme).observed
        if got <= target:
            return inst
    raise GenerationError(
        f"could not generate an instance with profile within {sorted(target)} "
        f"under {scheme.value} (n={n}, d={d})"
    )


def _domains(n, d):
    return tuple(tuple(str(v) for v in range(d)) for _ in range(n))


def _construct(rng, n, d, target, scheme):
    domains = _domains(n, d)
    if scheme is Scheme.CSP:
        if target <= {">", "0", "inf"}:
            return _gen_csp_consistency_classes(rng, n, d)
        if target <= {"<", ">", "inf"}:
            return _gen_csp_star_of_inf(rng, n, d)
    if scheme is Scheme.MAXCSP:
        if target <= {">", "0"}:
            return _gen_two_sided(rng, n, d, alpha=Cost(1), shift=ZERO, unary="binary01")
        if target <= {">", "1"}:
            return _gen_planted_matching(rng, n, d, low=ZERO, high=Cost(1), unary="binary01")
        if target <= {"<", ">"}:
            if n > 5:
                raise GenerationError(
                    "no zero/one instance on 6 or more variables avoids a "
                    "single-colour triangle; profiles within {<, >} need n <= 5"
                )
            return _gen_pentagon(rng, n, d, scheme)
        if target <= {"<", "0", "1"}:
            return _gen_min_level(rng, n, d, levels=[0, 1], unary="binary01")
    if scheme is Scheme.ORDER:
        if target == {"="}:
            w = Cost(Fraction(rng.choice([0, 1, 2, Fraction(1, 2)])))
            binary = {
                (i, j): [[w for _ in range(d)] for _ in range(d)]
                for i in range(n) for j in range(i + 1, n)
            }
            return BinaryInstance.build(
                domains, unary=_unary_tables(rng, domains, "rational"), binary=binary
            )
        if target <= {"<", "="}:
            return _gen_min_level(rng, n, d, levels=[0, 1, 2, Fraction(1, 2), 3], unary="rational")
    if scheme is Scheme.MIN0:
        if target <= {">0", "0"}:
            shift = Cost(Fraction(rng.choice([0, 0, 1, Fraction(1, 2)])))
            alpha = Cost(Fraction(rng.choice([1, 2, 3, Fraction(3, 2)])))
            if rng.random() < 0.5 or n < 3:
                return _gen_two_sided(rng, n, d, alpha=alpha, shift=shift, unary="rational")
            return _gen_anchored_star(rng, n, d, shift=shift)
        if target <= {"delta0", "<0", ">0"}:
            if n > 5:
                raise GenerationError("profiles within {delta0, <0, >0} need n <= 5")
            return _gen_pentagon(rng, n, d, scheme)
    if scheme is Scheme.MAXM:
        if target <= {">M", "M"}:
            m_val = Cost(Fraction(rng.choice([2, 3, 5, Fraction(7, 2)])))
            return _gen_planted_matching(rng, n, d, low=None, high=m_val, unary="rational")
        if target <= {"deltaM", "<M", ">M"}:
            if n > 5:
                raise GenerationError("profiles within {deltaM, <M, >M} need n <= 5")
            return _gen_pentagon(rng, n, d, scheme)
    # generic rejection sampling fallback
    return _gen_rejection(rng, n, d, scheme)


def _gen_csp_consistency_classes(rng, n, d):
    """Crisp instance with no {0,0,inf} triangle: assignments are coloured and
    compatible exactly within a colour class."""
    domains = _domains(n, d)
    palette = rng.randint(1, 3)
    colour = {(i, a): rng.randrange(palette) for i in range(n) for a in range(d)}
    binary = {}
    for i in range(n):
        for j in range(i + 1, n):
            binary[(i, j)] = [
                [ZERO if colour[(i, a)] == colour[(j, b)] else INF for b in range(d)]
                for a in range(d)
            ]
    return BinaryInstance.build(domains, unary=_unary_tables(rng, domains, "soft"), binary=binary)


def _gen_csp_star_of_inf(rng, n, d):
    """Crisp instance with no all-zero triangle: every table away from the
    first variable is uniformly infinite."""
    domains = _domains(n, d)
    binary = {}
    for j in range(1, n):
        binary[(0, j)] = [
            [ZERO if rng.random() < 0.5 else INF for _ in range(d)] for _ in range(d)
        ]
    for i in range(1, n):
        for j in range(i + 1, n):
            binary[(i, j)] = [[INF for _ in range(d)] for _ in range(d)]
    return BinaryInstance.build(domains, unary=_unary_tables(rng, domains, "soft"), binary=binary)


def _gen_two_sided(rng, n, d, alpha, shift, unary):
    """Each assignment gets one of two sides; crossing a side costs alpha.

    Every triangle has zero or exactly two crossing pairs, so the profile
    stays within {two-big, all-small} whatever the side labels are.
    """
    domains = _domains(n, d)
    side = {(i, a): rng.randint(0, 1) for i in range(n) for a in range(d)}
    binary = {}
    for i in range(n):
        for j in range(i + 1, n):
            binary[(i, j)] = [
                [shift + (alpha if side[(i, a)] != side[(j, b)] else ZERO) for b in range(d)]
                for a in range(d)
            ]
    return BinaryInstance.build(domains, unary=_unary_tables(rng, domains, unary), binary=binary)


def _gen_planted_matching(rng, n, d, low, high, unary):
    """All tables constant `high`, with cheaper cells only on a planted
    variable matching, so no triangle sees two cheap costs."""
    domains = _domains(n, d)
    order = list(range(n))
    rng.shuffle(order)
    matched = []
    k = 0
    while k + 1 < n:
        if rng.random() < 0.8:
            matched.append((min(order[k], order[k + 1]), max(order[k], order[k + 1])))
        k += 2
    binary = {}
    for i in range(n):
        for j in range(i + 1, n):
            binary[(i, j)] = [[high for _ in range(d)] for _ in range(d)]
    draw = _rational_pool(rng)
    for (i, j) in matched:
        cells = rng.randint(1, max(1, d))
        for _ in range(cells):
            a, b = rng.randrange(d), rng.randrange(d)
            if low is not None:
                binary[(i, j)][a][b] = low
            else:
                while True:
                    w = draw()
                    if w < high:
                        binary[(i, j)][a][b] = w
                        break
    return BinaryInstance.build(domains, unary=_unary_tables(rng, domains, unary), binary=binary)


def _gen_pentagon(rng, n, d, scheme):
    """Constant-per-pair tables coloured by a triangle-free 2-colouring of
    the complete graph on up to 5 vertices."""
    if n > 5:
        raise GenerationError("the two-colour construction needs n <= 5")
    domains = _domains(n, d)
    perm = list(range(5))
    rng.shuffle(perm)
    if scheme is Scheme.MAXCSP:
        low_values = [ZERO]
        high_values = [Cost(1)]
        unary = "binary01"
    elif scheme is Scheme.MIN0:
        low_values = [ZERO]
        high_values = [Cost(1), Cost(2), Cost(3), Cost(Fraction(5, 2))]
        unary = "rational"
    else:  # MAXM
        m_val = Cost(4)
        low_values = [Cost(1), Cost(2), Cost(3), Cost(Fraction(1, 2))]
        high_values = [m_val]
        unary = "rational"
    binary = {}
    for i in range(n):
        for j in range(i + 1, n):
            hot = _pentagon_colour(perm[i], perm[j])
            w = rng.choice(high_values if hot else low_values)
            binary[(i, j)] = [[w for _ in range(d)] for _ in range(d)]
    return BinaryInstance.build(domains, unary=_unary_tables(rng, domains, unary), binary=binary)


def _gen_min_level(rng, n, d, levels, unary):
    """Pair cost = min of the two endpoint levels; the two smallest costs of
    every triangle coincide."""
    domains = _domains(n, d)
    level = {
        (i, a): Fraction(rng.choice(levels)) for i in range(n) for a in range(d)
    }
    binary = {}
    for i in range(n):
        for j in range(i + 1, n):
            binary[(i, j)] = [
                [Cost(min(level[(i, a)], level[(j, b)])) for b in range(d)]
                for a in range(d)
            ]
    return BinaryInstance.build(domains, unary=_unary_tables(rng, domains, unary), binary=binary)


def _gen_anchored_star(rng, n, d, shift):
    """All non-constant costs touch the first variable and depend only on its
    value, so triangles through it have two equal anchored costs."""
    domains = _domains(n, d)
    lam = [Cost(Fraction(rng.choice([0, 1, 2, Fraction(3, 2)]))) for _ in range(d)]
    binary = {}
    for j in range(1, n):
        binary[(0, j)] = [[shift + lam[a] for _ in range(d)] for a in range(d)]
    for i in range(1, n):
        for j in range(i + 1, n):
            binary[(i, j)] = [[shift for _ in range(d)] for _ in range(d)]
    return BinaryInstance.build(domains, unary=_unary_tables(rng, domains, "rational"), binary=binary)


def _gen_rejection(rng, n, d, scheme):
    domains = _domains(n, d)
    if scheme is Scheme.CSP:
        pool = [ZERO, INF]
        unary = "crisp"
    elif scheme is Scheme.MAXCSP:
        pool = [ZERO, Cost(1)]
        unary = "binary01"
    else:
        pool = [ZERO, Cost(1), Cost(2), Cost(Fraction(1, 2))]
        unary = "rational"
    binary = {}
    for i in range(n):
        for j in range(i + 1, n):
            binary[(i, j)] = [[rng.choice(pool) for _ in range(d)] for _ in range(d)]
    return BinaryInstance.build(domains, unary=_unary_tables(rng, domains, unary), binary=binary)


def gen_maxcut(num_vertices, edges) -> BinaryInstance:
    """Equality-penalty encoding of max-cut on the given simple graph."""
    domains = _domains(num_vertices, 2)
    binary = {}
    for (u, v) in edges:
        i, j = min(u, v), max(u, v)
        if i == j:
            raise GenerationError("self-loops are not a simple graph")
        if (i, j) in binary:
            raise GenerationError(f"repeated edge ({i}, {j})")
        binary[(i, j)] = [[Cost(1), ZERO], [ZERO, Cost(1)]]
    return BinaryInstance.build(domains, binary=binary)


def gen_matching_encoding(num_vertices, edges) -> BinaryInstance:
    """Instance whose minimum-cost solutions encode maximum matchings.

    Domains are 0 plus the neighbour list; the pair (i=j-pick, j=i-pick) is
    the only cheap cell of an edge table, and every other pair costs 1.
    """
    neighbours = {v: [] for v in range(num_vertices)}
    edge_set = set()
    for (u, v) in edges:
        i, j = min(u, v), max(u, v)
        if i == j or (i, j) in edge_set:
            raise GenerationError("graph must be simple")
        edge_set.add((i, j))
        neighbours[i].append(j)
        neighbours[j].append(i)
    # value "0" means unmatched; neighbours are named by 1-based vertex labels
    domains = tuple(
        tuple(["0"] + [str(w + 1) for w in sorted(neighbours[v])]) for v in range(num_vertices)
    )
    index = {
        v: {w: k + 1 for k, w in enumerate(sorted(neighbours[v]))} for v in range(num_vertices)
    }
    binary = {}
    for i in range(num_vertices):
        for j in range(i + 1, num_vertices):
            table = [[Cost(1) for _ in domains[j]] for _ in domains[i]]
            if (i, j) in edge_set:
                table[index[i][j]][index[j][i]] = ZERO
            binary[(i, j)] = table
    return BinaryInstance.build(domains, binary=binary)


def _gcc_penalty(size, lo, hi) -> CountFunction:
    """Linear penalty for a count leaving [lo, hi]; convex by construction."""
    if not (0 <= lo <= hi <= size):
        raise GenerationError(f"bounds [{lo}, {hi}] must sit inside [0, {size}]")
    table = []
    for m in range(size + 1):
        if m < lo:
            table.append(Cost(lo - m))
        elif m <= hi:
            table.append(ZERO)
        else:
            table.append(Cost(m - hi))
    return CountFunction(tuple(table))


def gen_soft_gcc(n, num_values, bounds) -> CountInstance:
    """Per-value cardinality sets with linear out-of-bounds penalties."""
    if len(bounds) != num_values:
        raise GenerationError("one (lo, hi) bound pair per value required")
    domains = _domains(n, num_values)
    sets = []
    for val, (lo, hi) in enumerate(bounds):
        members = frozenset((i, val) for i in range(n))
        sets.append(AssignmentSet(members, _gcc_penalty(n, lo, hi)))
    return CountInstance.build(domains, sets)


def gen_nested_gcc(n, num_values, groups, bounds) -> CountInstance:
    """Cardinality sets on nested variable groups, one set per (group, value).

    ``groups`` are variable-index collections that must be pairwise nested;
    ``bounds[(gi, val)]`` gives the (lo, hi) window for that set.
    """
    groups = [tuple(sorted(g)) for g in groups]
    for a in range(len(groups)):
        for b in range(a + 1, len(groups)):
            sa, sb = set(groups[a]), set(groups[b])
            if not (sa <= sb or sb <= sa or not (sa & sb)):
                raise GenerationError(f"groups {a} and {b} are not nested")
    domains = _domains(n, num_values)
    sets = []
    for gi, group in enumerate(groups):
        for val in range(num_values):
            lo, hi = bounds[(gi, val)]
            members = frozenset((i, val) for i in group)
            sets.append(AssignmentSet(members, _gcc_penalty(len(group), lo, hi)))
    return CountInstance.build(domains, sets)


# -- random count-instance families ----------------------------------------


def _random_convex_function(rng, size, *, finite_everywhere=False, max_value=8) -> CountFunction:
    if finite_everywhere:
        lo, hi = 0, size
    else:
        lo = rng.randint(0, size)
        hi = rng.randint(lo, size)
    deltas = sorted(rng.randint(-3, 3) for _ in range(hi - lo))
    values = [0]
    for dlt in deltas:
        values.append(values[-1] + dlt)
    floor = min(values)
    start = rng.randint(0, max_value)
    values = [v - floor + start for v in values]
    table = [INF] * (size + 1)
    for k, v in enumerate(values):
        table[lo + k] = Cost(v)
    return CountFunction(tuple(table))


def _random_contiguous_function(rng, size, *, max_value=6) -> CountFunction:
    """Arbitrary (possibly non-convex) table with contiguous finite support."""
    lo = rng.randint(0, size)
    hi = rng.randint(lo, size)
    table = [INF] * (size + 1)
    for k in range(lo, hi + 1):
        table[k] = Cost(rng.randint(0, max_value))
    return CountFunction(tuple(table))


def _random_laminar_parts(rng, items, collect, emit_p=0.6):
    """Recursive random partition of `items`; collects emitted parts."""
    if len(items) <= 1:
        return
    cut = rng.randint(1, len(items) - 1)
    parts = [items[:cut], items[cut:]]
    for part in parts:
        if len(part) < len(items) and rng.random() < emit_p and len(part) >= 1:
            collect.append(part)
        _random_laminar_parts(rng, part, collect, emit_p)


def gen_random_laminar(n, d, seed, *, emit_p=0.6, convex=True) -> CountInstance:
    """Random laminar family over all assignments with random convex costs."""
    rng = random.Random(seed)
    domains = _domains(n, d)
    universe = [(i, a) for i in range(n) for a in range(d)]
    rng.shuffle(universe)
    parts = []
    _random_laminar_parts(rng, universe, parts, emit_p)
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
        fn = (
            _random_convex_function(rng, s)
            if convex
            else _random_contiguous_function(rng, s)
        )
        sets.append(AssignmentSet(members, fn))
    constant = Cost(rng.randint(0, 3))
    return CountInstance.build(domains, sets, constant=constant)


def gen_random_crossfree(n, d, seed, *, complement_p=0.45) -> CountInstance:
    """Random cross-free family: a laminar family with some sets complemented."""
    rng = random.Random(seed)
    base = gen_random_laminar(n, d, rng.randrange(2**30))
    universe = base.universe()
    sets = []
    for aset in base.sets:
        members = aset.members
        if rng.random() < complement_p and members != universe:
            members = universe - members
            s = len({i for i, _ in members})
            sets.append(AssignmentSet(members, _random_convex_function(rng, s)))
        else:
            sets.append(aset)
    return CountInstance.build(base.domains, sets, constant=base.constant)


def gen_full_laminar_tree(n, d, seed) -> CountInstance:
    """Complete binary laminar tree over all n*d assignments (r = 2nd - 1),
    every cost finite, used for scaling runs."""
    rng = random.Random(seed)
    domains = _domains(n, d)
    universe = [(i, a) for i in range(n) for a in range(d)]
    sets = []

    def split(items):
        members = frozenset(items)
        s = len({i for i, _ in members})
        lo = rng.randint(0, s)
        hi = rng.randint(lo, s)
        sets.append(AssignmentSet(members, _gcc_penalty(s, lo, hi)))
        if len(items) > 1:
            half = len(items) // 2
            split(items[:half])
            split(items[half:])

    split(universe)
    return CountInstance.build(domains, sets)


def gen_random_pair_sets(domain_sizes, seed, *, convex=False) -> CountInstance:
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
        fn = (
            _random_convex_function(rng, s)
            if convex
            else _random_contiguous_function(rng, s)
        )
        sets.append(AssignmentSet(members, fn))
    if not sets:
        members = frozenset([universe[0]])
        sets.append(AssignmentSet(members, _random_contiguous_function(rng, 1)))
    return CountInstance.build(domains, sets, constant=Cost(rng.randint(0, 2)))


def gen_random_renamable(n, seed) -> CountInstance:
    """Boolean instance obtained by renaming a random subset of a random
    laminar family's constraints (so a valid renaming always exists)."""
    from .renaming import rename_set

    rng = random.Random(seed)
    base = gen_random_laminar(n, 2, rng.randrange(2**30))
    sets = []
    for aset in base.sets:
        if rng.random() < 0.5:
            sets.append(rename_set(aset, base.domains))
        else:
            sets.append(aset)
    return CountInstance.build(base.domains, sets, constant=base.constant)


def gen_random_network(seed, *, max_nodes=8, max_arcs=14, max_cap=4) -> FlowNetwork:
    """Small random flow network with convex arc costs and random demands.

    Half of the draws plant a source-to-sink path with enough capacity so
    that feasible and infeasible cases are both well represented.
    """
    rng = random.Random(seed)
    num_nodes = rng.randint(2, max_nodes)
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
        return Arc(tail, head, lo, hi, CountFunction(tuple(table)))

    arcs = []
    if rng.random() < 0.5 and num_nodes >= 2:
        # plant a path covering the required value
        path = [source] + rng.sample(range(1, num_nodes - 1), rng.randint(0, max(0, num_nodes - 2))) + [sink]
        for u, v in zip(path, path[1:]):
            arcs.append(random_arc(u, v, lo_bias=True))
    n_extra = rng.randint(1, max(1, max_arcs - len(arcs)))
    for _ in range(n_extra):
        tail = rng.randrange(num_nodes)
        head = rng.randrange(num_nodes)
        while head == tail:
            head = rng.randrange(num_nodes)
        arcs.append(random_arc(tail, head, lo_bias=False))
    return FlowNetwork(num_nodes, source, sink, value, tuple(arcs))


# ---------------------------------------------------------------------------
# named fixtures


def _atleast_one(members) -> AssignmentSet:
    members = frozenset(members)
    s = len({i for i, _ in members})
    table = [Cost(1)] + [ZERO] * s
    return AssignmentSet(members, CountFunction(tuple(table)))


def fixtures() -> dict:
    """Named instances used across the family, renaming and solver suites."""
    bool2 = ("0", "1")

    # four clauses over a..e whose literal sets overlap until the second
    # constraint is renamed
    overlap = CountInstance.build(
        (bool2,) * 5,
        [
            _atleast_one([(0, 1), (1, 1), (2, 1)]),
            _atleast_one([(2, 1), (3, 1)]),
            _atleast_one([(2, 0), (3, 0), (4, 1)]),
            _atleast_one([(0, 0), (4, 0)]),
        ],
        names=("a", "b", "c", "d", "e"),
    )

    # a fan around one variable: not cross-free and not renamable
    fan = CountInstance.build(
        (bool2,) * 4,
        [
            _atleast_one([(0, 1), (1, 1)]),
            _atleast_one([(1, 1), (2, 1)]),
            _atleast_one([(1, 0), (3, 1)]),
        ],
        names=("x", "y", "z", "w"),
    )

    # four pairwise disjoint literal blocks: laminar as given
    blocks = CountInstance.build(
        (bool2,) * 6,
        [
            _atleast_one([(0, 1), (1, 1), (2, 1)]),
            _atleast_one([(0, 0), (3, 1), (4, 1)]),
            _atleast_one([(1, 0), (3, 0), (5, 1)]),
            _atleast_one([(2, 0), (4, 0), (5, 0)]),
        ],
        names=("x", "y", "z", "u", "v", "w"),
    )

    # four size-2 sets over three-valued domains: laminar, used by the
    # family checks
    three = ("0", "1", "2")
    atmost1 = CountFunction((ZERO, ZERO, Cost(1)))
    grid = CountInstance.build(
        (three,) * 4,
        [
            AssignmentSet(frozenset([(0, 0), (1, 0)]), atmost1),
            AssignmentSet(frozenset([(1, 1), (2, 0)]), atmost1),
            AssignmentSet(frozenset([(0, 1), (2, 1)]), atmost1),
            AssignmentSet(frozenset([(1, 2), (3, 0)]), atmost1),
        ],
        names=("x", "y", "z", "w"),
    )

    return {
        "maxsat-overlap": overlap,
        "sat-fan": fan,
        "sat-blocks": blocks,
        "pair-grid": grid,
    }
