"""Exhaustive oracles, the generators behind ``vcspkit gen`` and the named
fixtures.

This module holds what the commands and the benchmark reach: ``oracle``
uses the oracles, ``gen`` the generators and fixtures; no solver imports
it.  The oracles are deliberately independent re-implementations:
they enumerate every assignment and share no search code with the solvers
they are used to check.  They add the instance's integer view
(``integer_costs``, ``integer_counts``), which the solvers read too; the
tests check the views entry by entry against the ``Cost`` tables, and
every solver's answer is re-evaluated on those tables.  The references
and random generators that only the tests use are in ``tests/helpers.py``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

from .costs import Cost, INF, ZERO
from .errors import DEFAULT_BUDGET, BudgetExceeded, GenerationError
from .instances import (
    AssignmentSet,
    BinaryInstance,
    CountFunction,
    CountInstance,
)
from .results import SolveResult
from .triangles import ALPHABET, OTHER, Scheme, profile


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
    """Exact optimum of a count instance by full enumeration.

    It enumerates on the instance's integer view
    (``CountInstance.integer_counts``), so it adds ints.
    """
    space = prod(len(d) for d in inst.domains)
    if space > budget:
        raise BudgetExceeded(f"{space} assignments exceed the budget of {budget}")
    n = inst.n
    r = len(inst.sets)
    members = [[[] for _ in inst.domains[i]] for i in range(n)]
    for k, aset in enumerate(inst.sets):
        for (i, a) in aset.members:
            members[i][a].append(k)
    view = inst.integer_counts
    tables = [g.table for g in view.counts]

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
    if view.constant is None or best is None:
        first = tuple(0 for _ in range(n)) if best_x is None else best_x
        return SolveResult(first, INF, "oracle", {"enumerated": space})
    total = Cost(Fraction(best + view.constant, view.den))
    return SolveResult(best_x, total, "oracle", {"enumerated": space})


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
    """kind: 'binary01' | 'crisp' | 'soft' | 'rational'."""
    draw_soft = _rational_pool(rng, allow_inf=True)
    draw_fin = _rational_pool(rng)
    tables = {}
    for i, dom in enumerate(domains):
        row = []
        for _ in dom:
            if kind == "binary01":
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


def gen_profile(n, d, types, scheme, seed):
    """A seeded instance whose profile under the scheme is within `types`.

    Uses a direct construction for the classes the solvers exercise and
    falls back to rejection sampling; the output is always re-certified by
    the classifier before being returned.  Under MIN0 and MAXM the residual
    type ``other`` may be targeted too.
    """
    scheme = Scheme(scheme) if not isinstance(scheme, Scheme) else scheme
    target = frozenset(types)
    anchored = scheme in (Scheme.MIN0, Scheme.MAXM)
    extra = target - ALPHABET[scheme] - ({OTHER} if anchored else set())
    if extra:
        raise GenerationError(f"types {sorted(extra)} are outside the {scheme.value} alphabet")
    rng = random.Random(seed)
    for _ in range(200):
        inst = _construct(rng, n, d, target, scheme)
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
    the complete graph on up to 5 vertices; each caller rejects n > 5."""
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
