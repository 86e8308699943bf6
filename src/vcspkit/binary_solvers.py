"""Polynomial solvers for the tractable triangle classes, plus a dispatcher.

Each solver checks its class precondition, the profile check against its
cells in ``triangles._SOLVER_CELLS``, and nothing the cell already implies
(matching-cardinality: no assignment zero-pairs with two variables;
weighted-matching: no assignment is below the maximum M in two tables, and
no pair minimum exceeds M; min0-structure: mu is 0 when a table is absent).
It returns a SolveResult whose assignment re-evaluates exactly to the
reported cost.  The dispatcher scans the triangles once, reads every
applicable scheme's profile from that scan, and passes the scan on, so the
routed solver's check reads it too.

The crisp solver needs no consistency propagation: in its class no triangle
has exactly one infinite cost, so values zero-compatible with a common
anchor value are zero-compatible with each other, and scanning the anchor
values of one variable is exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

from .costs import ONE, Cost, INF, ZERO, cost_sum
from .errors import ClassViolation, InstanceError
from .instances import BinaryInstance, evaluate_binary
from .matching import MatchingGraph, max_weight_matching
from .results import SolveResult
from .triangles import (
    _SOLVER_CELLS,
    _range_check,
    _rank_tables,
    _scan_ranks,
    Scheme,
    has_soft_unaries,
    in_range,
    profile,
    scan_triangles,
    solver_for,
    verdict,
)


def _require_profile(inst, solver, scan=None):
    """The profile of the first of the solver's cells, in table order, that
    holds every observed type; otherwise raise the last violation.

    ``scan`` is ``scan_triangles(inst)``, computed here when not given, and
    only once some cell's scheme has every binary cost in its range.
    """
    if scan is None:
        values, ranks = _rank_tables(inst)
    else:
        values = scan.values
    err = None
    for scheme, cells in _SOLVER_CELLS.items():
        for cell, sid in cells:
            if sid != solver:
                continue
            try:
                _range_check(inst, scheme, values)
            except ClassViolation as exc:
                err = exc
                continue
            if scan is None:
                scan = _scan_ranks(inst, values, ranks)
            prof = profile(inst, scheme, scan=scan)
            stray = prof.observed - cell
            if not stray:
                return prof
            t = sorted(stray)[0]
            err = ClassViolation(
                f"{solver}: triangle type {t!r} outside {sorted(cell)}",
                witness=list(prof.witnesses[t]),
            )
    raise err


def _check_result(inst, x, total):
    got = evaluate_binary(inst, x)
    if got != total:
        raise InstanceError(
            f"internal check failed: assignment evaluates to {got}, solver reported {total}"
        )


def _brute_force(inst):
    best_x, best = None, None
    for x in itertools.product(*(range(len(d)) for d in inst.domains)):
        total = evaluate_binary(inst, x)
        if best is None or total < best:
            best_x, best = x, total
    return best_x, best


# ---------------------------------------------------------------------------
# class solvers


def solve_sac_class(inst: BinaryInstance, scan=None) -> SolveResult:
    """Crisp binaries whose triangles avoid the two-zeros-one-inf pattern,
    with arbitrary soft unaries.

    No triangle of the class has exactly one infinite cost, so two values
    that are zero-compatible with the same anchor value of the first
    variable are zero-compatible with each other.  Any per-variable choice
    compatible with an anchor is therefore globally consistent, and the
    optimum is found by scanning anchor values over the full domains and
    taking minimum-cost compatible unaries elsewhere.
    """
    _require_profile(inst, "sac", scan)
    n = inst.n
    best = None
    for a1 in range(len(inst.domains[0])):
        total = inst.unary[0][a1]
        picks = [a1]
        feasible = True
        for i in range(1, n):
            table = inst.pair_table(0, i)
            candidates = [
                b for b in range(len(inst.domains[i]))
                if table is None or table[a1][b] == ZERO
            ]
            if not candidates:
                feasible = False
                break
            b = min(candidates, key=lambda v: (inst.unary[i][v], v))
            total = total + inst.unary[i][b]
            picks.append(b)
        if not feasible:
            continue
        if best is None or total < best[0]:
            best = (total, tuple(picks))
    if best is None:
        x = (0,) * inst.n
        return SolveResult(x, INF, "sac", {"wipeout": True})
    res = SolveResult(best[1], best[0], "sac", {"anchor_value": best[1][0]})
    _check_result(inst, res.assignment, res.cost)
    return res


def solve_trivial_class(inst: BinaryInstance, scan=None) -> SolveResult:
    """Classes whose instances are tiny or have no finite solution.

    Crisp instances avoiding the all-zero triangle have cost inf for three
    or more variables; the all-distinct anchored cells admit at most five
    variables (a two-colour triangle argument), so exhaustive search is
    constant-time.
    """
    crisp = _require_profile(inst, "trivial", scan).scheme is Scheme.CSP
    if crisp and inst.n >= 3:
        # no all-zero triangle can exist, so no solution has finite cost
        x = (0,) * inst.n
        res = SolveResult(x, INF, "trivial", {"reason": "no finite solution with n >= 3"})
        _check_result(inst, x, INF)
        return res
    limit = 2 if crisp else 5
    if inst.n > limit:
        raise ClassViolation(
            f"trivial: {inst.n} variables cannot stay within the class (limit {limit})"
        )
    x, total = _brute_force(inst)
    res = SolveResult(x, total, "trivial", {"enumerated": prod(len(d) for d in inst.domains)})
    _check_result(inst, x, total)
    return res


def _split_signatures(inst, a1, a2, pivot_cost):
    """Per-assignment side labels relative to the two pivot assignments.

    With a costly pivot pair the sides are (1,0) vs (0,1); with a cheap one
    they are (0,0) vs (1,1).  Anything else contradicts the class.
    """
    n = inst.n
    if pivot_cost == ONE:
        sig_l, sig_r = (ONE, ZERO), (ZERO, ONE)
    else:
        sig_l, sig_r = (ZERO, ZERO), (ONE, ONE)
    sides = []
    for i in range(2, n):
        t1 = inst.pair_table(0, i)
        t2 = inst.pair_table(1, i)
        row = []
        for b in range(len(inst.domains[i])):
            c1 = t1[a1][b] if t1 is not None else ZERO
            c2 = t2[a2][b] if t2 is not None else ZERO
            if (c1, c2) == sig_l:
                row.append("L")
            elif (c1, c2) == sig_r:
                row.append("R")
            else:
                raise ClassViolation(
                    "lr: assignment signature fits neither side",
                    witness=[i, b, str(c1), str(c2)],
                )
        sides.append(row)
    return sides


def solve_lr_class(inst: BinaryInstance, scan=None) -> SolveResult:
    """Zero/one binaries whose triangles avoid the two-zeros-one-one pattern.

    For every assignment to the first two variables the remaining
    assignments split into two sides with fixed within/across costs, so the
    binary cost depends only on the side count k; the quadratic in k is
    scanned over its whole feasible range (with zero/one unaries its minimum
    provably sits at an end, which is re-verified numerically).
    """
    _require_profile(inst, "lr", scan)
    return _solve_lr(inst)


def _solve_lr(inst):
    n = inst.n
    if n <= 2:
        x, total = _brute_force(inst)
        res = SolveResult(x, total, "lr", {"enumerated": True})
        _check_result(inst, x, total)
        return res
    zero_one_unaries = all(c == ZERO or c == ONE for t in inst.unary for c in t)
    best = None
    for a1 in range(len(inst.domains[0])):
        for a2 in range(len(inst.domains[1])):
            pivot_cost = inst.pair_cost(0, a1, 1, a2)
            sides = _split_signatures(inst, a1, a2, pivot_cost)
            base = inst.unary[0][a1] + inst.unary[1][a2]
            if base.is_infinite:
                continue
            forced_l = 0
            fixed = ZERO
            fixed_picks = {}
            mixed = []
            feasible = True
            for off, row in enumerate(sides):
                i = off + 2

                def side_min(side):
                    vals = [b for b, s in enumerate(row) if s == side]
                    if not vals:
                        return INF, None
                    w = min(inst.unary[i][b] for b in vals)
                    return w, min(b for b in vals if inst.unary[i][b] == w)

                w_l, pick_l = side_min("L")
                w_r, pick_r = side_min("R")
                if w_l.is_infinite and w_r.is_infinite:
                    feasible = False  # only infinite completions through here
                    break
                if w_r.is_infinite:
                    forced_l += 1
                    fixed = fixed + w_l
                    fixed_picks[i] = pick_l
                elif w_l.is_infinite:
                    fixed = fixed + w_r
                    fixed_picks[i] = pick_r
                else:
                    mixed.append((i, w_l, w_r, pick_l, pick_r))
            if not feasible:
                continue
            # choosing k_m of the mixed variables for the L side: sorting by
            # the finite cost delta makes every k_m take its cheapest prefix
            mixed.sort(key=lambda item: (item[1].value - item[2].value, item[0]))
            m = len(mixed)
            acc = sum((item[2].value for item in mixed), Fraction(0))
            unary_tot = [acc]
            for k in range(1, m + 1):
                _, w_l, w_r, _, _ = mixed[k - 1]
                acc = acc + w_l.value - w_r.value
                unary_tot.append(acc)
            totals = []
            for k_m in range(m + 1):
                k = forced_l + k_m
                if pivot_cost == ONE:
                    quad = (n - 1) + k * (n - 2 - k)
                else:
                    quad = (k + 2) * (n - 2 - k)
                totals.append(base + fixed + Cost(unary_tot[k_m] + quad))
            k_best = min(range(m + 1), key=lambda k: (totals[k], k))
            if zero_one_unaries and totals[k_best] < min(totals[0], totals[m]):
                raise InstanceError("lr: end-point dominance failed on a zero/one instance")
            if best is None or totals[k_best] < best[0]:
                picks = dict(fixed_picks)
                for idx, (i, _, _, pick_l, pick_r) in enumerate(mixed):
                    picks[i] = pick_l if idx < k_best else pick_r
                x = (a1, a2) + tuple(picks[i] for i in range(2, n))
                best = (totals[k_best], x, forced_l + k_best)
    if best is None:
        x = (0,) * inst.n
        _check_result(inst, x, INF)
        return SolveResult(x, INF, "lr", {"wipeout": True})
    total, x, k = best
    cert = {"pivot": [x[0], x[1]], "k": k, "endpoint_dominance_verified": zero_one_unaries}
    res = SolveResult(x, total, "lr", cert)
    _check_result(inst, x, total)
    return res


def solve_matching_cardinality_class(inst: BinaryInstance, scan=None) -> SolveResult:
    """Zero/one instances where cheap pairs form a partial matching.

    Every assignment zero-pairs with at most one other variable, so the
    minimum cost is pairs-minus-maximum-matching on the variable graph.
    That is not re-tested: zero pairs of (i, a) with j through b and with k
    through c would make the triangle (i, a), (j, b), (k, c) hold two zeros,
    a type outside the cell {>, 1}.
    """
    _require_profile(inst, "matching-cardinality", scan)
    for table in inst.unary:
        for c in table:
            if c != ZERO and c != ONE:
                raise ClassViolation(
                    f"matching-cardinality: unary cost {c} outside {{0, 1}}"
                )
    n = inst.n
    # unary preprocessing: all-one unary tables add a constant; otherwise
    # values of unary cost one can be dropped
    constant = ZERO
    surviving = []
    for i in range(n):
        if all(c == ONE for c in inst.unary[i]):
            constant = constant + ONE
            surviving.append(list(range(len(inst.domains[i]))))
        else:
            surviving.append([a for a in range(len(inst.domains[i])) if inst.unary[i][a] == ZERO])
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            table = inst.pair_table(i, j)
            for a in surviving[i]:
                for b in surviving[j]:
                    if table is None or table[a][b] == ZERO:
                        edges.setdefault((i, j), (a, b))
                        break
                if (i, j) in edges:
                    break
    # unit weights: a maximum-weight matching is a maximum-cardinality one
    matching, _ = max_weight_matching(
        MatchingGraph(n, tuple((u, v, ONE) for u, v in sorted(edges)))
    )
    size = len(matching)
    x = []
    mate = {}
    for (i, j) in matching:
        mate[i], mate[j] = j, i
    for i in range(n):
        if i in mate:
            j = mate[i]
            a, b = edges[(min(i, j), max(i, j))]
            x.append(a if i < j else b)
        else:
            x.append(surviving[i][0])
    total = Cost(n * (n - 1) // 2 - size) + constant
    res = SolveResult(
        tuple(x),
        total,
        "matching-cardinality",
        {
            "matching": [list(e) for e in sorted(matching)],
            "matching_size": size,
            "all_one_unary_constant": str(constant),
        },
    )
    _check_result(inst, res.assignment, total)
    return res


def solve_min0_class(inst: BinaryInstance, scan=None) -> SolveResult:
    """Finite-valued instances whose normalised triangles are all-zero or
    two-equal-nonzero-plus-zero.

    Either all non-zero normalised costs touch one variable (solved by
    instantiating it) or a single non-zero value occurs (solved by scaling
    down to the zero/one two-sided class).  An absent table counts as cost
    0, which makes the minimum mu 0, so absent tables need no normalising.
    """
    mu = _require_profile(inst, "min0-structure", scan).mu
    n = inst.n
    pairs = n * (n - 1) // 2
    offset = mu * pairs if pairs else ZERO

    def norm_table(i, j):
        table = inst.pair_table(i, j)
        if table is None:
            return None
        if mu == ZERO:
            return table
        return tuple(tuple(c - mu for c in row) for row in table)

    nonzero_pairs = []
    values = set()
    witnesses = {}
    for i in range(n):
        for j in range(i + 1, n):
            table = norm_table(i, j)
            if table is None:
                continue
            for a, row in enumerate(table):
                for b, c in enumerate(row):
                    if c != ZERO:
                        if (i, j) not in witnesses:
                            nonzero_pairs.append((i, j))
                            witnesses[(i, j)] = (a, b, c)
                        values.add(c)
    common = None
    for (i, j) in nonzero_pairs:
        common = {i, j} if common is None else common & {i, j}
    if not nonzero_pairs:
        common = {0}
    if common:
        k = min(common)
        best = None
        for a in range(len(inst.domains[k])):
            total = inst.unary[k][a]
            picks = {}
            for i in range(n):
                if i == k:
                    continue
                table = norm_table(min(i, k), max(i, k))
                def fold(b):
                    if table is None:
                        return inst.unary[i][b]
                    w = table[a][b] if k < i else table[b][a]
                    return inst.unary[i][b] + w
                b = min(range(len(inst.domains[i])), key=lambda v: (fold(v), v))
                total = total + fold(b)
                picks[i] = b
            if best is None or total < best[0]:
                picks[k] = a
                best = (total, tuple(picks[i] for i in range(n)), a)
        total, x, a = best
        total = total + offset
        res = SolveResult(x, total, "min0-structure", {"case": "anchor-variable", "anchor": [k, a]})
        _check_result(inst, x, total)
        return res
    if len(values) == 1:
        alpha = next(iter(values))
        scaled_tables = {}
        for i in range(n):
            for j in range(i + 1, n):
                table = norm_table(i, j)
                if table is not None:
                    scaled_tables[(i, j)] = [[c / alpha for c in row] for row in table]
        scaled = BinaryInstance.build(
            inst.domains,
            names=inst.names,
            unary={i: [c / alpha for c in t] for i, t in enumerate(inst.unary)},
            binary=scaled_tables,
        )
        # one non-zero value, scaled to one: the zero/one lr cell
        inner = _solve_lr(scaled)
        if inner.cost.is_infinite:
            res = SolveResult(inner.assignment, INF, "min0-structure", {"case": "single-value"})
            _check_result(inst, res.assignment, INF)
            return res
        total = inner.cost * alpha.value + offset
        res = SolveResult(
            inner.assignment, total, "min0-structure",
            {"case": "single-value", "alpha": str(alpha), "inner_k": inner.certificate.get("k")},
        )
        _check_result(inst, res.assignment, total)
        return res
    pair_a, pair_b = nonzero_pairs[0], None
    for cand in nonzero_pairs[1:]:
        if not (set(cand) & set(pair_a)) and witnesses[cand][2] != witnesses[pair_a][2]:
            pair_b = cand
            break
    detail_a = [list(pair_a), list(witnesses[pair_a][:2]), str(witnesses[pair_a][2])]
    detail_b = None if pair_b is None else [list(pair_b), list(witnesses[pair_b][:2]), str(witnesses[pair_b][2])]
    raise ClassViolation(
        "min0-structure: several non-zero costs without a shared variable",
        witness=[detail_a, detail_b],
    )


def solve_weighted_matching_class(inst: BinaryInstance, scan=None) -> SolveResult:
    """Finite-valued instances whose triangles carry at least two maximum
    costs: reduced to maximum-weight matching.

    An assignment is below M in at most one table, since two such entries
    would give a triangle with fewer than two entries equal to M, outside
    the cell {>M, M}; and at the unary minima a pair costs at most M, so no
    pair minimum exceeds M.  Neither is re-tested.

    The reported certificate satisfies
    ``matching_weight + (cost - unary_offset) == pairs * M`` exactly.
    """
    m_val = _require_profile(inst, "weighted-matching", scan).m_value
    n = inst.n
    mins = []
    for i in range(n):
        lo = min(inst.unary[i])
        if lo.is_infinite:
            x = (0,) * inst.n
            return SolveResult(x, INF, "weighted-matching", {"wipeout_variable": i})
        mins.append(lo)
    offset = cost_sum(mins)
    defaults = [
        min(range(len(inst.domains[i])), key=lambda a: (inst.unary[i][a], a))
        for i in range(n)
    ]
    edges = []
    argmins = {}
    for i in range(n):
        for j in range(i + 1, n):
            table = inst.pair_table(i, j)
            best = None
            for a in range(len(inst.domains[i])):
                ua = inst.unary[i][a] - mins[i]
                if ua.is_infinite:
                    continue
                for b in range(len(inst.domains[j])):
                    ub = inst.unary[j][b] - mins[j]
                    if ub.is_infinite:
                        continue
                    w = table[a][b] if table is not None else ZERO
                    alpha = ua + w + ub
                    if best is None or alpha < best[0]:
                        best = (alpha, a, b)
            alpha, a, b = best
            argmins[(i, j)] = (a, b)
            if alpha < m_val:
                edges.append((i, j, m_val - alpha))
    matching, weight = max_weight_matching(MatchingGraph(n, tuple(edges)))
    x = list(defaults)
    for (i, j) in matching:
        a, b = argmins[(i, j)]
        x[i], x[j] = a, b
    pairs = n * (n - 1) // 2
    normalised_cost = (m_val * pairs if pairs else ZERO) - weight
    total = normalised_cost + offset
    res = SolveResult(
        tuple(x),
        total,
        "weighted-matching",
        {
            "m_value": str(m_val),
            "matching": [list(e) for e in sorted(matching)],
            "matching_weight": str(weight),
            "unary_offset": str(offset),
            "pair_count": pairs,
        },
    )
    _check_result(inst, res.assignment, total)
    return res


# ---------------------------------------------------------------------------
# dispatch

SOLVERS = {
    "sac": solve_sac_class,
    "trivial": solve_trivial_class,
    "lr": solve_lr_class,
    "matching-cardinality": solve_matching_cardinality_class,
    "min0-structure": solve_min0_class,
    "weighted-matching": solve_weighted_matching_class,
}

_SCHEME_ORDER = (Scheme.CSP, Scheme.MAXCSP, Scheme.MAXM, Scheme.MIN0, Scheme.ORDER)


def _applicable(inst, scheme, values):
    """Whether the scheme's range admits the distinct binary costs ``values``."""
    if scheme is Scheme.MAXCSP:
        values = values + tuple(c for t in inst.unary for c in t)
    return all(in_range(scheme, c) for c in values)


def dispatch(inst: BinaryInstance, *, oracle_budget=2_000_000) -> SolveResult:
    """Classify under every applicable scheme and run the matching solver.

    The triangles are scanned once, and every applicable scheme's profile
    is read from that scan.  The routed solver gets the scan too, so its own
    profile check adds no second scan.  Every route still re-evaluates its
    answer against the instance.

    Profiles with no implemented solver (or NP-hard cells) fall back to the
    exhaustive oracle within the budget; otherwise an explicit unsolved
    result carrying the verdicts is returned.
    """
    soft = has_soft_unaries(inst)
    scan = scan_triangles(inst)
    verdict_docs = []
    route = None
    small_domain_route = None
    for scheme in _SCHEME_ORDER:
        if not _applicable(inst, scheme, scan.values):
            continue
        prof = profile(inst, scheme, scan=scan)
        v = verdict(prof, inst.max_domain, soft)
        verdict_docs.append({"scheme": scheme.value, "observed": prof.types_sorted(), **v.to_doc()})
        if v.kind == "tractable" and route is None:
            route = v.solver
        if v.kind == "trivial-small-domain" and small_domain_route is None:
            solver = solver_for(scheme, prof.observed)
            if solver is not None:
                small_domain_route = solver
    verdicts = tuple(verdict_docs)
    chosen = route or small_domain_route
    if chosen is not None:
        result = SOLVERS[chosen](inst, scan=scan)
        return SolveResult(result.assignment, result.cost, result.solver,
                           result.certificate, verdicts)
    space = prod(len(d) for d in inst.domains)
    if space <= oracle_budget:
        from .testkit import oracle_binary

        result = oracle_binary(inst, budget=oracle_budget)
        cert = dict(result.certificate)
        cert["fallback"] = "no implemented solver for the observed profiles"
        return SolveResult(result.assignment, result.cost, "oracle", cert, verdicts)
    return SolveResult(None, None, "none",
                       {"reason": f"search space {space} exceeds the oracle budget"},
                       verdicts)
