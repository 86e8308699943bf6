"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Every expected value is either computed by an independent
exhaustive oracle or asserted as an exact structural identity.
"""

import itertools
import random
import time
from fractions import Fraction

import networkx as nx

from helpers import (
    gen_random_crossfree,
    gen_random_laminar,
    gen_random_network,
    gen_random_pair_sets,
    gen_random_renamable,
    network,
    oracle_flow,
)
from vcspkit.binary_solvers import SOLVERS, solve_class
from vcspkit.cfc import (
    LAMINAR,
    check_family,
    crossfree_to_laminar,
    reduce_domains_pairsets,
    solve_cfc,
)
from vcspkit.costs import Cost, ZERO, parse_cost
from vcspkit.flow import Flow, Infeasible, min_convex_cost_flow
from vcspkit.instances import (
    BinaryInstance,
    evaluate_binary,
    evaluate_count,
)
from vcspkit.renaming import recognize_renamable, solve_renamable
from vcspkit.testkit import (
    fixtures,
    gen_full_laminar_tree,
    gen_profile,
    oracle_binary,
    oracle_count,
)
from vcspkit.triangles import ALPHABET, OTHER, Scheme, TriangleProfile, profile, verdict


def _passed(label):
    print(f"[PASS] {label}")


def _in_class_suite(rng, scheme, types, solver, count, n_max):
    for _ in range(count):
        n = rng.randint(2, n_max)
        d = rng.randint(1, 3)
        seed = rng.randrange(2**30)
        inst = gen_profile(n, d, types, scheme, seed)
        res = solve_class(inst, solver)
        want = oracle_binary(inst)
        assert res.cost == want.cost, (scheme, sorted(types), seed, n, d)
        assert evaluate_binary(inst, res.assignment) == res.cost
        yield inst, res


def test_criterion_1_binary_solvers_match_oracle():
    suites = [
        (Scheme.CSP, {">", "0", "inf"}, "sac", 300, 7),
        (Scheme.CSP, {"<", ">", "inf"}, "trivial", 150, 7),
        (Scheme.MAXCSP, {"<", ">"}, "trivial", 75, 5),
        (Scheme.MIN0, {"delta0", "<0", ">0"}, "trivial", 40, 5),
        (Scheme.MAXM, {"deltaM", "<M", ">M"}, "trivial", 40, 5),
        (Scheme.MAXCSP, {">", "0"}, "lr", 300, 7),
        (Scheme.MAXCSP, {">", "1"}, "matching-cardinality", 300, 7),
        (Scheme.MIN0, {">0", "0"}, "min0-structure", 300, 7),
        (Scheme.MAXM, {">M", "M"}, "weighted-matching", 300, 7),
    ]
    start = time.monotonic()
    total = 0
    for scheme, types, solver, count, n_max in suites:
        rng = random.Random(f"{scheme.value}:{sorted(types)}".__hash__() & 0xFFFFFF)
        for _ in _in_class_suite(rng, scheme, types, solver, count, n_max):
            total += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _passed(
        f"criterion 1: {total} in-class instances across 6 solvers match the "
        f"exhaustive oracle exactly ({elapsed:.1f}s)"
    )


def test_criterion_2_cfc_matches_oracle():
    start = time.monotonic()
    rng = random.Random(220)
    solved = {"laminar": 0, "crossfree": 0}
    for kind, gen, minimum in (
        ("laminar", gen_random_laminar, 500),
        ("crossfree", gen_random_crossfree, 500),
    ):
        count = 0
        while count < minimum:
            n = rng.randint(2, 8)
            d = rng.randint(1, 3)
            seed = rng.randrange(2**30)
            if kind == "laminar" and count % 25 == 0:
                inst = gen_full_laminar_tree(n, d, seed)  # r = 2nd - 1
            else:
                inst = gen(n, d, seed)
            res = solve_cfc(inst)
            want = oracle_count(inst)
            assert res.cost == want.cost, (kind, seed, n, d)
            assert evaluate_count(inst, res.assignment) == res.cost
            count += 1
        solved[kind] = count
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s"
    _passed(
        f"criterion 2: {solved['laminar']} laminar + {solved['crossfree']} "
        f"cross-free instances match the oracle exactly ({elapsed:.1f}s)"
    )


def test_criterion_3_matching_identity():
    rng = random.Random(33)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        d = rng.randint(1, 3)
        inst = gen_profile(n, d, {">M", "M"}, Scheme.MAXM, rng.randrange(2**30))
        res = solve_class(inst, "weighted-matching")
        cert = res.certificate
        weight = parse_cost(cert["matching_weight"])
        m_val = parse_cost(cert["m_value"])
        offset = parse_cost(cert["unary_offset"])
        assert weight + (res.cost - offset) == m_val * cert["pair_count"], cert
        checked += 1
    _passed(f"criterion 3: matching identity held exactly on {checked}/300 runs")


def test_criterion_4_ramsey_bound():
    rng = random.Random(441)
    for trial in range(1000):
        binary = {
            (i, j): [[Cost(rng.randint(0, 1))]]
            for i in range(6)
            for j in range(i + 1, 6)
        }
        inst = BinaryInstance.build([["a"]] * 6, binary=binary)
        prof = profile(inst, Scheme.MAXCSP)
        assert not prof.observed <= {"<", ">"}, f"trial {trial}: no single-colour triangle"
    _passed("criterion 4: 1000/1000 six-variable zero/one instances contain a "
            "single-colour triangle")


def test_criterion_5_laminarisation_is_pointwise_exact():
    rng = random.Random(55)
    for trial in range(200):
        n = rng.randint(2, 6)
        d = rng.randint(1, 3)
        inst = gen_random_crossfree(n, d, rng.randrange(2**30))
        lam = crossfree_to_laminar(inst)
        kind, _ = check_family([a.members for a in lam.sets], inst.universe())
        assert kind == LAMINAR
        for x in itertools.product(*(range(len(dm)) for dm in inst.domains)):
            assert evaluate_count(inst, x) == evaluate_count(lam, x), (trial, x)
    _passed("criterion 5: 200 cross-free instances laminarised with pointwise-"
            "equal objectives")


def test_criterion_6_domain_reduction_equivalence():
    rng = random.Random(66)
    for trial in range(100):
        sizes = [rng.choice([2, 3, 4, 5]) for _ in range(rng.randint(1, 3))]
        if not any(s > 3 for s in sizes):
            sizes[rng.randrange(len(sizes))] = rng.choice([4, 5])
        inst = gen_random_pair_sets(sizes, rng.randrange(2**30))
        red = reduce_domains_pairsets(inst)
        assert all(len(dm) <= 3 for dm in red.reduced.domains)
        want = oracle_count(inst)
        got = oracle_count(red.reduced)
        assert got.cost == want.cost, trial
        if not got.cost.is_infinite:
            back = red.back_map(got.assignment)
            assert evaluate_count(inst, back) == want.cost
    _passed("criterion 6: 100 size-<=2-set instances keep their optimum across "
            "the domain reduction, with back-mapped solutions re-evaluating")


def test_criterion_7_renaming():
    table = fixtures()
    ren = recognize_renamable(table["maxsat-overlap"])
    assert ren is not None and ren.flags == (False, True, False, False)
    res = solve_renamable(table["maxsat-overlap"])
    assert res.cost == ZERO
    assert oracle_count(table["maxsat-overlap"]).cost == ZERO
    assert recognize_renamable(table["sat-fan"]) is None
    rng = random.Random(77)
    for trial in range(200):
        inst = gen_random_renamable(rng.randint(2, 5), rng.randrange(2**30))
        got = solve_renamable(inst)
        want = oracle_count(inst)
        assert got.cost == want.cost, trial
    _passed("criterion 7: the overlapping-clause fixture renames exactly its "
            "second constraint to optimum 0; the fan fixture is not renamable; "
            "200 random renamable instances match the oracle")


# -- criterion 8: the dichotomy tables, re-stated independently --------------

def _expected_kind(scheme, s, domain_max, soft):
    if scheme is Scheme.CSP:
        if (not soft and domain_max <= 2) or (soft and domain_max <= 1):
            return "trivial-small-domain"
        return "np-hard" if {"<", ">", "0"} <= s else "tractable"
    if domain_max <= 1:
        return "trivial-small-domain"
    if scheme is Scheme.MAXCSP:
        hard = {"<", ">", "0"} <= s or {"<", ">", "1"} <= s or {">", "0", "1"} <= s
        return "np-hard" if hard else "tractable"
    if scheme is Scheme.ORDER:
        return "tractable" if s <= {"<", "="} else "np-hard"
    if scheme is Scheme.MIN0:
        ok = s <= {"<0", "0"} or s <= {">0", "0"} or s <= {"delta0", "<0", ">0"}
        return "tractable" if ok else "np-hard"
    ok = s <= {"<M", "M"} or s <= {">M", "M"} or s <= {"deltaM", "<M", ">M"}
    return "tractable" if ok else "np-hard"


def test_criterion_8_dichotomy_verdicts():
    checked = 0
    for scheme in Scheme:
        alphabet = sorted(ALPHABET[scheme])
        extra = [frozenset(), frozenset({OTHER})] if scheme in (Scheme.MIN0, Scheme.MAXM) else [frozenset()]
        for r in range(len(alphabet) + 1):
            for combo in itertools.combinations(alphabet, r):
                for residual in extra:
                    s = frozenset(combo) | residual
                    for domain_max in (1, 2, 3):
                        for soft in (False, True):
                            if soft and scheme is not Scheme.CSP:
                                continue
                            prof = TriangleProfile(scheme, s, {})
                            got = verdict(prof, domain_max, soft)
                            expect = _expected_kind(scheme, s, domain_max, soft)
                            if expect == "tractable":
                                assert got.kind in ("tractable", "tractable-unimplemented"), (
                                    scheme, sorted(s), domain_max, soft, got)
                            else:
                                assert got.kind == expect, (scheme, sorted(s), domain_max, soft, got)
                            if got.kind == "tractable":
                                assert got.solver in SOLVERS
                            checked += 1
    _passed(f"criterion 8: verdicts match the dichotomy statements on all "
            f"{checked} (scheme, subset, domain, softness) combinations")


def test_criterion_9_scaling():
    times = []
    for n in (25, 50, 100, 200):
        inst = gen_full_laminar_tree(n, 4, seed=9)
        best = None
        for _ in range(2):
            t0 = time.monotonic()
            res = solve_cfc(inst)
            dt = time.monotonic() - t0
            best = dt if best is None else min(best, dt)
        assert res.cost is not None
        assert best < 2.0, f"n={n} took {best:.2f}s"
        times.append(best)
    for prev, nxt in zip(times, times[1:]):
        ratio = nxt / max(prev, 1e-4)
        assert ratio < 8.0, f"growth ratio {ratio:.1f}"
    shown = ", ".join(f"{t * 1000:.0f}ms" for t in times)
    _passed(f"criterion 9: full-tree solves at n=25..200, d=4 took [{shown}], "
            f"all under 2s with growth ratios below 8")


def test_criterion_10_flow_engine():
    fails = 0
    feasible = 0
    for seed in range(230):
        net = gen_random_network(seed)
        got = min_convex_cost_flow(net)
        want = oracle_flow(net)
        if want is None:
            assert isinstance(got, Infeasible), seed
        else:
            feasible += 1
            assert isinstance(got, Flow) and got.total == want[1], seed
    assert feasible >= 60

    rng = random.Random(1010)
    linear_checked = 0
    for _ in range(60):
        n = rng.randint(2, 7)
        arcs = []
        seen = set()
        for _ in range(rng.randint(1, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (u, v) in seen:
                continue
            seen.add((u, v))
            cap = rng.randint(1, 4)
            per_unit = rng.randint(0, 6)
            table = tuple(Cost(per_unit * k) for k in range(cap + 1))
            arcs.append((u, v, table))
        value = rng.randint(0, 3)
        net = network(n, 0, n - 1, value, arcs)
        ours = min_convex_cost_flow(net)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.nodes[0]["demand"] = -value
        ref.nodes[n - 1]["demand"] = value
        for arc in net.arcs:
            ref.add_edge(arc.tail, arc.head, capacity=arc.hi,
                         weight=int(Fraction(arc.cost.table[1], net.den)) if arc.hi else 0)
        try:
            ref_cost = nx.min_cost_flow_cost(ref)
        except nx.NetworkXUnfeasible:
            assert isinstance(ours, Infeasible)
            continue
        linear_checked += 1
        assert isinstance(ours, Flow) and ours.total == Cost(ref_cost)
    assert linear_checked >= 20
    _passed(f"criterion 10: 230 random networks ({feasible} feasible) match the "
            f"enumeration oracle; {linear_checked} all-linear networks match "
            f"the network-simplex reference")
