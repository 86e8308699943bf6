"""Polynomial solvers for the tractable triangle classes, plus a dispatcher.

Each route in ``SOLVERS`` maps ``(inst, prof)`` to (assignment, cost,
certificate), ``prof`` being the profile of the route's cell that holds the
instance: ``dispatch`` hands over the one its verdict read, and
``solve_class(inst, solver)``, the one public entry to a named route, finds
it by ``_require_profile``, the check against the route's cells in
``triangles._SOLVER_CELLS``.  No route re-tests what
its cell implies (matching-cardinality: no assignment zero-pairs with two
variables; weighted-matching: no assignment is below the maximum M in two
tables, and no pair minimum exceeds M; min0-structure: mu is 0 when a table
is absent, and the non-zero pairs share a variable or carry one value;
trivial: a two-colour cell holds at most five variables; lr: every pivot
signature is one of its two sides).  The routes share three algorithms and
one enumeration: the anchor scan, ``_anchor_scan`` (sac, and min0-structure
when its non-zero pairs share a variable), the pivot scan, ``_solve_lr``
(lr, and min0-structure's single-value case), the matching reduction,
``_matching_route`` (matching-cardinality in the cell {>, 1} with {0, 1}
unaries and M = 1, weighted-matching in the cell {>M, M} with its M), and
``_enumerate``, which serves the tiny instances of trivial and lr and
dispatch's fallback; the layer shares no code with the test kit's oracles.
The routes that add or compare costs (all but trivial) read the instance's
integer costs (``BinaryInstance.integer_costs``: every finite cost times one
common denominator, None for inf) and make a ``Cost`` only of what they
report.  Every answer leaves through ``_result``, which re-evaluates its
assignment on the ``Cost`` tables by ``evaluate_binary``.  The dispatcher
scans the triangles once and reads every applicable scheme's profile from
that scan.  The crisp route needs no consistency propagation: see ``_sac``.
"""

from __future__ import annotations

import itertools
from math import prod

from .costs import INF
from .errors import DEFAULT_BUDGET, ClassViolation, InternalError
from .instances import BinaryInstance, evaluate_binary
from .matching import MatchingGraph, max_weight_matching
from .results import SolveResult, re_evaluated
from .triangles import (
    _SOLVER_CELLS,
    Scheme,
    _lookup_cell,
    has_soft_unaries,
    in_range,
    profile,
    scan_triangles,
    verdict,
)


def _require_profile(inst, solver):
    """The profile of the first of the solver's cells, in table order, that
    holds every observed type; otherwise raise the last violation.  The
    triangles are scanned once, if some cell's scheme admits every cost."""
    scan = scan_triangles(inst)
    err = None
    for scheme, cells in _SOLVER_CELLS.items():
        for cell, sid in cells:
            if sid != solver:
                continue
            try:
                prof = profile(inst, scheme, scan=scan)
            except ClassViolation as exc:
                err = exc
                continue
            stray = prof.observed - cell
            if not stray:
                return prof
            t = sorted(stray)[0]
            err = ClassViolation(
                f"{solver}: triangle type {t!r} outside {sorted(cell)}",
                witness=list(prof.witnesses[t]),
            )
    raise err


def _result(inst, solver, answer, verdicts=()):
    """The route's answer (assignment, cost, certificate) as a SolveResult,
    once the assignment re-evaluates to the cost on the ``Cost`` tables."""
    x, total, cert = answer
    return re_evaluated(inst, SolveResult(x, total, solver, cert, verdicts), evaluate_binary)


def _add(x, y):
    """Sum of two integer costs, None (inf) if either is None."""
    return None if x is None or y is None else x + y


def _key(x):
    """Order of integer costs, with None (inf) above every int."""
    return (1, 0) if x is None else (0, x)


def _enumerate(inst):
    """The first least-cost assignment in product order and its cost, by
    summing every assignment on the integer costs; the first assignment
    and inf when none is finite."""
    ints = inst.integer_costs
    unary = ints.unary
    pairs = [(i, j, rows) for (i, j), rows in ints.binary.items()]
    best_x = best = None
    for x in itertools.product(*(range(len(d)) for d in inst.domains)):
        if best_x is None:
            best_x = x
        total = 0
        for i, a in enumerate(x):
            u = unary[i][a]
            if u is None:
                break
            total += u
        else:
            for i, j, rows in pairs:
                w = rows[x[i]][x[j]]
                if w is None:
                    break
                total += w
            else:
                if best is None or total < best:
                    best_x, best = x, total
    return best_x, ints.cost(best)


# ---------------------------------------------------------------------------
# class routes: (inst, prof) -> (assignment, cost, certificate)


def _anchor_scan(inst, k, tables):
    """The least (total, x, a) over the values a of variable k, each other
    variable taking its least value by unary plus its finite entry in
    ``tables`` with (k, a), 0 where the pair has no table; None when every a
    leaves some variable no finite entry.  Ties go to the least value, then
    to the first a."""
    unary = inst.integer_costs.unary
    best = None
    for a, total in enumerate(unary[k]):
        x = []
        for i, costs in enumerate(unary):
            if i == k:
                x.append(a)
                continue
            table = tables.get((i, k) if i < k else (k, i))
            if table is None:
                row = (0,) * len(costs)
            else:
                row = table[a] if k < i else [r[a] for r in table]
            # flat keys: nested ones made this scan about 10 % slower
            options = [(True, 0, b) if u is None else (False, u + w, b)
                       for b, u, w in zip(range(len(costs)), costs, row) if w is not None]
            if not options:
                break
            inf, cost, b = min(options)
            total = None if total is None or inf else total + cost
            x.append(b)
        else:
            if best is None or _key(total) < _key(best[0]):
                best = (total, tuple(x), a)
    return best


def _sac(inst, prof):
    """Crisp binaries whose triangles avoid the two-zeros-one-inf pattern,
    with arbitrary soft unaries.

    No triangle of the class has exactly one infinite cost, so two values
    that are zero-compatible with the same anchor value of the first
    variable are zero-compatible with each other.  Any per-variable choice
    compatible with an anchor is therefore globally consistent, and the
    optimum is found by scanning anchor values over the full domains and
    taking minimum-cost compatible unaries elsewhere.
    """
    ints = inst.integer_costs
    best = _anchor_scan(inst, 0, ints.binary)
    if best is None:
        return (0,) * inst.n, INF, {"wipeout": True}
    total, x, a = best
    return x, ints.cost(total), {"anchor_value": a}


def _trivial(inst, prof):
    """Classes whose instances are tiny or have no finite solution.

    Crisp instances avoiding the all-zero triangle have cost inf for three
    or more variables.  The two-colour cells (MAXCSP {<, >}, MIN0 {delta0,
    <0, >0}, MAXM {deltaM, <M, >M}) exclude both monochromatic types, so one
    value per variable 2-colours K_n with no monochromatic triangle, and
    R(3, 3) = 6 bounds n by 5: exhaustive search is constant-time.
    """
    if prof.scheme is Scheme.CSP and inst.n >= 3:
        # no all-zero triangle can exist, so no solution has finite cost
        return (0,) * inst.n, INF, {"reason": "no finite solution with n >= 3"}
    x, total = _enumerate(inst)
    return x, total, {"enumerated": prod(len(d) for d in inst.domains)}


def _split_signatures(ints, binary, one, a1, a2, pivot):
    """Per-assignment side labels relative to the two pivot assignments.

    With a costly pivot pair (cost ``one``) the sides are (one, 0) vs
    (0, one); with a cheap one they are (0, 0) vs (one, one).  Entries are
    0 or ``one``, and in the lr cell (and in ``_min0``'s single-value call)
    every triangle holds 0 or 2 of ``one``, so pivot + c1 + c2 is 0 or
    2 * one: a signature that is not the L side's is the R side's.
    """
    sig_l = (one, 0) if pivot == one else (0, 0)
    sides = []
    for i in range(2, len(ints.unary)):
        t1, t2 = binary.get((0, i)), binary.get((1, i))
        row = []
        for b in range(len(ints.unary[i])):
            c1 = t1[a1][b] if t1 is not None else 0
            c2 = t2[a2][b] if t2 is not None else 0
            row.append("L" if (c1, c2) == sig_l else "R")
        sides.append(row)
    return sides


def _lr(inst, prof):
    """Zero/one binaries whose triangles avoid the two-zeros-one-one pattern.

    For every assignment to the first two variables the remaining
    assignments split into two sides with fixed within/across costs, so the
    binary cost depends only on the side count k; the quadratic in k is
    scanned over its whole feasible range (with zero/one unaries its minimum
    provably sits at an end, which is re-verified numerically).
    """
    if inst.n <= 2:
        x, total = _enumerate(inst)
        return x, total, {"enumerated": True}
    ints = inst.integer_costs
    return _solve_lr(inst, ints.binary, ints.den)


def _solve_lr(inst, binary, one):
    """The pivot scan on n >= 3 variables, over tables of the integer
    costs whose entries are 0 and ``one``.  Returns the assignment, its
    cost and the certificate."""
    ints = inst.integer_costs
    n, unary = inst.n, ints.unary
    zero_one_unaries = all(u == 0 or u == one for t in unary for u in t)
    t01 = binary.get((0, 1))
    best = None
    for a1 in range(len(unary[0])):
        for a2 in range(len(unary[1])):
            pivot = t01[a1][a2] if t01 is not None else 0
            sides = _split_signatures(ints, binary, one, a1, a2, pivot)
            base = _add(unary[0][a1], unary[1][a2])
            if base is None:
                continue
            forced_l = 0
            fixed = 0
            fixed_picks = {}
            mixed = []
            feasible = True
            for i, row in enumerate(sides, 2):

                def side_min(side):
                    """The least finite unary on the side, with its least value."""
                    return min(
                        ((u, b) for b, (s, u) in enumerate(zip(row, unary[i]))
                         if s == side and u is not None),
                        default=(None, None),
                    )

                w_l, pick_l = side_min("L")
                w_r, pick_r = side_min("R")
                if w_l is None and w_r is None:
                    feasible = False  # only infinite completions through here
                    break
                if w_r is None:
                    forced_l += 1
                    fixed += w_l
                    fixed_picks[i] = pick_l
                elif w_l is None:
                    fixed += w_r
                    fixed_picks[i] = pick_r
                else:
                    mixed.append((i, w_l, w_r, pick_l, pick_r))
            if not feasible:
                continue
            # choosing k_m of the mixed variables for the L side: sorting by
            # the cost delta makes every k_m take its cheapest prefix
            mixed.sort(key=lambda item: (item[1] - item[2], item[0]))
            m = len(mixed)
            unary_tot = list(itertools.accumulate(
                (w_l - w_r for _, w_l, w_r, _, _ in mixed),
                initial=sum(item[2] for item in mixed),
            ))
            totals = []
            for k_m in range(m + 1):
                k = forced_l + k_m
                if pivot == one:
                    quad = (n - 1) + k * (n - 2 - k)
                else:
                    quad = (k + 2) * (n - 2 - k)
                totals.append(base + fixed + unary_tot[k_m] + quad * one)
            k_best = min(range(m + 1), key=lambda k: (totals[k], k))
            if zero_one_unaries and totals[k_best] < min(totals[0], totals[m]):
                raise InternalError("lr: end-point dominance failed on a zero/one instance")
            if best is None or totals[k_best] < best[0]:
                picks = dict(fixed_picks)
                for idx, (i, _, _, pick_l, pick_r) in enumerate(mixed):
                    picks[i] = pick_l if idx < k_best else pick_r
                x = (a1, a2) + tuple(picks[i] for i in range(2, n))
                best = (totals[k_best], x, forced_l + k_best)
    if best is None:
        return (0,) * n, INF, {"wipeout": True}
    total, x, k = best
    cert = {"pivot": [x[0], x[1]], "k": k, "endpoint_dominance_verified": zero_one_unaries}
    return x, ints.cost(total), cert


def _matching_route(inst, m):
    """The paper's reduction to maximum-weight matching, for M = ``m`` over
    ``inst.integer_costs.den``: each variable's least unary is taken out
    (their sum is the offset), and a pair whose cheapest (a, b) at the
    reduced unaries costs alpha < M is an edge of weight M - alpha.  Returns
    the assignment and its cost, the sorted matching, its weight and the
    offset, the last two as ints over the denominator.
    """
    ints = inst.integer_costs
    n = inst.n
    offset = 0
    reduced = []  # (unary less the variable's minimum, value), finite ones
    for table in ints.unary:
        lo = min(u for u in table if u is not None)
        offset += lo
        reduced.append([(u - lo, a) for a, u in enumerate(table) if u is not None])
    x = [min(r)[1] for r in reduced]
    edges = []
    argmins = {}
    for i in range(n):
        for j in range(i + 1, n):
            table = ints.binary.get((i, j))
            alpha, a, b = min(
                (ua + ub + (0 if table is None else table[a][b]), a, b)
                for ua, a in reduced[i]
                for ub, b in reduced[j]
            )
            argmins[i, j] = (a, b)
            if alpha < m:
                edges.append((i, j, m - alpha))
    matching, weight = max_weight_matching(MatchingGraph(n, tuple(edges)))
    for (i, j) in matching:
        x[i], x[j] = argmins[i, j]
    x = tuple(x)
    total = ints.cost(m * (n * (n - 1) // 2) + offset - weight)
    return x, total, [list(e) for e in sorted(matching)], weight, offset


def _matching_cardinality(inst, prof):
    """Zero/one instances where cheap pairs form a partial matching.

    Every assignment zero-pairs with at most one other variable, so the
    minimum cost is pairs-minus-maximum-matching on the variable graph, plus
    one per all-one unary table: the matching reduction with M = 1.  That is
    not re-tested: zero pairs of (i, a) with j through b and with k through
    c would make the triangle (i, a), (j, b), (k, c) hold two zeros, a type
    outside the cell {>, 1}.
    """
    ints = inst.integer_costs
    for u in itertools.chain.from_iterable(ints.unary):
        if u not in (0, ints.den):
            raise ClassViolation(
                f"matching-cardinality: unary cost {ints.cost(u)} outside {{0, 1}}")
    x, total, matching, _, offset = _matching_route(inst, ints.den)
    cert = {"matching": matching, "matching_size": len(matching),
            "all_one_unary_constant": str(ints.cost(offset))}
    return x, total, cert


def _min0(inst, prof):
    """Finite-valued instances whose normalised triangles are all-zero or
    two-equal-nonzero-plus-zero.

    Either all non-zero normalised costs touch one variable (solved by
    instantiating it) or a single non-zero value occurs (solved as the
    zero/one two-sided class, with that value as the unit).  An absent table counts as cost
    0, which makes the minimum mu 0, so absent tables need no normalising.

    The second case is not re-tested: in the cell {>0, 0} two non-zero
    entries on disjoint pairs have equal values, so values x != y sit only
    on pairs {i, j} and {i, k}, each carrying both; a non-zero pair avoiding
    i must then be {j, k}, and the six triangles over i, j, k contradict
    x != y.
    """
    ints = inst.integer_costs
    n = inst.n
    mu = int(prof.mu.value * ints.den)
    offset = mu * (n * (n - 1) // 2)
    # each table normalised once; an absent table stays absent (mu is 0)
    norm = {pair: tuple(tuple(c - mu for c in row) for row in table)
            for pair, table in ints.binary.items()} if mu else ints.binary
    pairs = [pair for pair, table in norm.items() if any(map(any, table))]
    common = set.intersection(*(set(pair) for pair in pairs)) if pairs else {0}
    if common:
        k = min(common)
        total, x, a = _anchor_scan(inst, k, norm)
        return x, ints.cost(_add(total, offset)), {"case": "anchor-variable", "anchor": [k, a]}
    # one non-zero value: the zero/one lr cell with that value as one
    alpha = next(c for row in norm[pairs[0]] for c in row if c)
    x, inner_cost, inner_cert = _solve_lr(inst, norm, alpha)
    cert = {"case": "single-value"}
    if not inner_cost.is_infinite:
        cert.update(alpha=str(ints.cost(alpha)), inner_k=inner_cert["k"])
    return x, inner_cost + ints.cost(offset), cert


def _weighted_matching(inst, prof):
    """Finite-valued instances whose triangles carry at least two maximum
    costs: reduced to maximum-weight matching.

    An assignment is below M in at most one table, since two such entries
    would give a triangle with fewer than two entries equal to M, outside
    the cell {>M, M}; and at the unary minima a pair costs at most M, so no
    pair minimum exceeds M.  Neither is re-tested.

    The reported certificate satisfies
    ``matching_weight + (cost - unary_offset) == pairs * M`` exactly.
    """
    m_val = prof.m_value
    ints = inst.integer_costs
    n = inst.n
    for i, table in enumerate(ints.unary):
        if all(u is None for u in table):
            return (0,) * n, INF, {"wipeout_variable": i}
    x, total, matching, weight, offset = _matching_route(inst, int(m_val.value * ints.den))
    cert = {"m_value": str(m_val), "matching": matching, "matching_weight": str(ints.cost(weight)),
            "unary_offset": str(ints.cost(offset)), "pair_count": n * (n - 1) // 2}
    return x, total, cert


SOLVERS = {
    "sac": _sac,
    "trivial": _trivial,
    "lr": _lr,
    "matching-cardinality": _matching_cardinality,
    "min0-structure": _min0,
    "weighted-matching": _weighted_matching,
}


# ---------------------------------------------------------------------------
# the public class-solver entry: the route's profile check, the route, the
# re-evaluation


def solve_class(inst: BinaryInstance, solver: str) -> SolveResult:
    """Route ``solver``, a key of ``SOLVERS``, after its profile check."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}: expected one of {sorted(SOLVERS)}")
    return _result(inst, solver, SOLVERS[solver](inst, _require_profile(inst, solver)))


# ---------------------------------------------------------------------------
# dispatch

_SCHEME_ORDER = (Scheme.CSP, Scheme.MAXCSP, Scheme.MAXM, Scheme.MIN0, Scheme.ORDER)


def _applicable(inst, scheme, values):
    """Whether the scheme's range admits the distinct binary costs ``values``."""
    if scheme is Scheme.MAXCSP:
        values = values + tuple(c for t in inst.unary for c in t)
    return all(in_range(scheme, c) for c in values)


def dispatch(inst: BinaryInstance, *, oracle_budget=DEFAULT_BUDGET) -> SolveResult:
    """Classify under every applicable scheme and run the matching route.

    The triangles are scanned once, and every applicable scheme's profile
    is read from that scan.  The route gets the profile of the verdict that
    chose it, and its answer is re-evaluated against the instance.

    Profiles with no implemented solver (or NP-hard cells) fall back to
    ``_enumerate`` within the budget, as solver "oracle", whose answer is
    re-evaluated too; otherwise an explicit unsolved result carrying the
    verdicts is returned.
    """
    soft = has_soft_unaries(inst)
    scan = scan_triangles(inst)
    verdict_docs = []
    route = small_domain_route = None
    for scheme in _SCHEME_ORDER:
        if not _applicable(inst, scheme, scan.values):
            continue
        prof = profile(inst, scheme, scan=scan)
        v = verdict(prof, inst.max_domain, soft)
        verdict_docs.append({"scheme": scheme.value, "observed": sorted(prof.observed), **v.to_doc()})
        if v.kind == "tractable" and route is None:
            route = (v.solver, prof)
        if v.kind == "trivial-small-domain" and small_domain_route is None:
            _, solver = _lookup_cell(scheme, prof.observed)
            if solver is not None:
                small_domain_route = (solver, prof)
    verdicts = tuple(verdict_docs)
    chosen = route or small_domain_route
    if chosen is not None:
        solver, prof = chosen
        return _result(inst, solver, SOLVERS[solver](inst, prof), verdicts)
    space = prod(len(d) for d in inst.domains)
    if space <= oracle_budget:
        x, total = _enumerate(inst)
        cert = {"enumerated": space, "fallback": "no implemented solver for the observed profiles"}
        return _result(inst, "oracle", (x, total, cert), verdicts)
    return SolveResult(None, None, "none",
                       {"reason": f"search space {space} exceeds the oracle budget"},
                       verdicts)
