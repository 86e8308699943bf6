import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    count_finite_solutions,
    crosses,
    enumerate_feasible_flows,
    gen_random_crossfree,
    gen_random_laminar,
)
from vcspkit.cfc import (
    CROSS_FREE,
    LAMINAR,
    NEITHER,
    build_laminar_forest,
    build_network,
    check_convexity,
    check_family,
    crossfree_to_laminar,
    forest_to_dot,
    solve_cfc,
)
from vcspkit.costs import Cost, INF, ZERO, scale_tables
from vcspkit.errors import ClassViolation
from vcspkit.flow import Infeasible, min_convex_cost_flow
from vcspkit.formats import parse_instance, serialize_instance
from vcspkit.instances import (
    AssignmentSet,
    CountFunction,
    CountInstance,
    evaluate_count,
    integer_count,
)
from vcspkit.testkit import (
    fixtures,
    gen_full_laminar_tree,
    gen_nested_gcc,
    gen_soft_gcc,
    oracle_count,
)

C = Cost


def _family(*sets):
    return [frozenset(s) for s in sets]


def test_disjoint_sets_are_laminar():
    universe = frozenset((0, a) for a in range(4))
    kind, _ = check_family(_family({(0, 0)}, {(0, 1)}, {(0, 2)}), universe)
    assert kind == LAMINAR


def test_pair_grid_fixture_is_laminar():
    inst = fixtures()["pair-grid"]
    kind, _ = check_family([a.members for a in inst.sets], inst.universe())
    assert kind == LAMINAR


def test_disjoint_blocks_fixture_is_laminar():
    inst = fixtures()["sat-blocks"]
    kind, _ = check_family([a.members for a in inst.sets], inst.universe())
    assert kind == LAMINAR


def test_overlapping_clause_sets_are_neither():
    # two clauses sharing one literal with a small union
    inst = fixtures()["maxsat-overlap"]
    kind, witness = check_family([a.members for a in inst.sets], inst.universe())
    assert kind == NEITHER
    assert witness == (0, 1)


def test_overlap_covering_universe_is_cross_free():
    universe = frozenset((i, a) for i in range(2) for a in range(2))
    a = {(0, 0), (0, 1), (1, 0)}
    b = {(0, 0), (1, 0), (1, 1)}
    kind, _ = check_family(_family(a, b), universe)
    assert kind == CROSS_FREE


def _pairwise_kind(family, universe):
    """Reference: the first pair, in index order, that crosses without
    covering the universe makes NEITHER; a covering crossing pair alone
    makes CROSS_FREE."""
    kind = "LAMINAR"
    for i, j in itertools.combinations(range(len(family)), 2):
        a, b = family[i], family[j]
        if a & b and a - b and b - a:
            if a | b != universe:
                return "NEITHER", (i, j)
            kind = "CROSS_FREE"
    return kind, None


def _random_family(rng):
    items = [(i, a) for i in range(rng.randint(1, 4)) for a in range(rng.randint(1, 3))]
    universe = frozenset(items)
    family = []

    def split(part):
        if rng.random() < 0.7:
            family.append(frozenset(part))
        if len(part) > 1:
            rng.shuffle(part)
            cut = rng.randint(1, len(part) - 1)
            split(part[:cut])
            split(part[cut:])

    split(list(items))
    roll = rng.random()
    if roll < 0.4:  # complemented laminar: cross-free
        family = [universe - m if m != universe and rng.random() < 0.5 else m for m in family]
    elif roll < 0.7:  # random extra sets: often neither
        for _ in range(rng.randint(1, 3)):
            family.append(frozenset(rng.sample(items, rng.randint(1, len(items)))))
    if rng.random() < 0.3:
        family.append(universe)
    proper = [m for m in family if m != universe]
    if proper and rng.random() < 0.3:
        family.append(universe - rng.choice(proper))
    rng.shuffle(family)
    return family, universe


def test_check_family_matches_pairwise_reference():
    rng = random.Random(77)
    seen = {"LAMINAR": 0, "CROSS_FREE": 0, "NEITHER": 0}
    for _ in range(2500):
        family, universe = _random_family(rng)
        want = _pairwise_kind(family, universe)
        assert check_family(family, universe) == want, (family, universe)
        seen[want[0]] += 1
    assert min(seen.values()) >= 200, seen


@st.composite
def _ragged_families(draw):
    """Random families over 1-6 variables with 1-4 values each: random sets
    (an empty draw becomes the universe), sometimes the universe or the
    complement of the set before."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    items = [(i, a) for i, d in enumerate(sizes) for a in range(d)]
    universe = frozenset(items)
    family = []
    for _ in range(draw(st.integers(2, 7))):
        roll = draw(st.integers(0, 5))
        if roll == 0:
            family.append(universe)
        elif roll == 1 and family and family[-1] != universe:
            family.append(universe - family[-1])
        else:
            picks = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
            family.append(frozenset(m for m, pick in zip(items, picks) if pick) or universe)
    return family, universe


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_ragged_families())
def test_neither_names_the_first_crossing_pair_on_ragged_domains(family):
    family, universe = family
    first = next(
        ((i, j) for i, j in itertools.combinations(range(len(family)), 2)
         if crosses(family[i], family[j], universe)),
        None,
    )
    kind, witness = check_family(family, universe)
    if first is None:
        assert kind in (LAMINAR, CROSS_FREE) and witness is None
    else:
        assert (kind, witness) == (NEITHER, first)


def _convexity(table):
    """``check_convexity`` on a table of Costs scaled to its own least
    denominator."""
    _, ((ints,),) = scale_tables([[table]])
    return check_convexity(integer_count(ints))


def test_convexity_check():
    ok, _ = _convexity((ZERO, C(1), C(3), C(6)))
    assert ok
    ok, at = _convexity((ZERO, C(2), C(3), C(6)))
    assert not ok and at == 0
    # out-of-bounds penalty shape: slopes -1,-1,0,1,1
    table = (C(2), C(1), ZERO, ZERO, C(1), C(2))
    ok, _ = _convexity(table)
    assert ok


def test_first_nonconvex_set_checks_each_table_once(monkeypatch):
    import vcspkit.cfc as cfc
    import vcspkit.instances as instances

    convex, nonconvex = (ZERO, C(1), C(3)), (ZERO, C(2), C(3))
    members = [{(0, 0), (1, 0)}, {(1, 0), (2, 0)}, {(0, 1), (2, 1)}, {(0, 0), (1, 1)}]
    tables = [convex, convex, nonconvex, nonconvex]
    inst = CountInstance.build(
        [("a", "b")] * 3,
        [AssignmentSet(frozenset(m), CountFunction(t)) for m, t in zip(members, tables)],
    )
    made = _counting(monkeypatch, instances, "integer_count")
    counts = inst.integer_counts.counts
    assert counts[0] is counts[1] and counts[2] is counts[3]
    # convexity is decided once per distinct table, as the view is built
    assert len(made) == 2
    made.clear()
    # sets 2 and 3 share the non-convex table; the earlier one is reported
    assert cfc.first_nonconvex_set(inst) == (2, 0)
    assert made == []
    # a repeated solve builds only its folded arcs' tables, one per distinct
    # sum: the root carries no arc, and the closed (0,) table is built once
    tree = parse_instance(serialize_instance(gen_full_laminar_tree(100, 4, 0)))
    solve_cfc(tree)
    arcs = _counting(monkeypatch, cfc, "integer_count")
    solve_cfc(tree)
    assert sorted(arcs) == [((0, c),) for c in range(1, 6)]
    # with no universe set, no zero table is built for the added root
    pair = CountInstance.build(
        [("a", "b")] * 2, [AssignmentSet(frozenset({(0, 0), (1, 0)}), CountFunction(convex))]
    )
    assert pair.integer_counts
    made.clear()
    arcs.clear()
    assert solve_cfc(pair).cost == oracle_count(pair).cost
    assert made == arcs == []


def _fraction_convexity(table):
    # first differences as Fractions, each slope pair compared directly
    finite = [m for m, c in enumerate(table) if not c.is_infinite]
    for m in finite[:-2]:
        left = table[m + 1].value - table[m].value
        right = table[m + 2].value - table[m + 1].value
        if right < left:
            return False, m
    return True, None


def _random_count_table(rng, den):
    size = rng.randint(0, 8)
    lo = rng.randint(0, size // 2)
    hi = lo - 1 if rng.random() < 0.1 else rng.randint(lo, size)  # lo - 1: empty
    width = hi - lo + 1
    if rng.random() < 0.5:  # convex by construction: sorted slopes
        slopes = sorted(Fraction(rng.randint(-6, 6), den) for _ in range(max(width - 1, 0)))
        values = [Fraction(rng.randint(0, 12), den)]
        for d in slopes:
            values.append(values[-1] + d)
        floor = min(values)
        values = [v - floor for v in values]
    else:
        values = [Fraction(rng.randint(0, 12), den) for _ in range(width)]
    table = [INF] * (size + 1)
    for m, v in zip(range(lo, hi + 1), values):
        table[m] = Cost(v)
    return tuple(table)


def test_convexity_check_matches_fraction_reference():
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    for den in (1, 2, 3, 6):
        for _ in range(300):
            table = _random_count_table(rng, den)
            want = _fraction_convexity(table)
            assert _convexity(table) == want, table
            seen[want[0]] += 1
    assert min(seen.values()) >= 100, seen
    half, third = C(Fraction(1, 2)), C(Fraction(1, 3))
    for table in [
        (INF,), (INF, INF, INF),                      # empty support
        (ZERO,), (INF, third, INF),                   # one point
        (half, third), (INF, third, half, INF),       # two points
        (half, ZERO, third), (INF, ZERO, half, third, INF),
        (C(Fraction(5, 6)), third, ZERO, half, INF),
        (C(Fraction(1, 6)), ZERO, C(Fraction(1, 6))),
    ]:
        assert _convexity(table) == _fraction_convexity(table), table


def test_crossfree_to_laminar_keeps_laminar_instances():
    inst = gen_random_laminar(4, 2, seed=3)
    assert crossfree_to_laminar(inst) is inst


def test_crossfree_to_laminar_folds_oversized_set():
    # two Boolean variables; a 3-assignment set crossing another folds into
    # its complement, which is added with the zero function
    g1 = CountFunction((ZERO, C(1), C(5)))
    big = AssignmentSet(frozenset([(0, 0), (0, 1), (1, 0)]), g1)
    other = AssignmentSet(frozenset([(1, 0), (1, 1)]), CountFunction((ZERO, ZERO)))
    inst = CountInstance.build([["0", "1"], ["0", "1"]], [big, other])
    lam = crossfree_to_laminar(inst)
    members = {aset.members for aset in lam.sets}
    assert frozenset([(1, 1)]) in members
    folded = next(a for a in lam.sets if a.members == frozenset([(1, 1)]))
    # g'(y) = g(n - y) with n = 2
    assert folded.g.table == (C(5), C(1))
    # spot check the solution x = (0, 1): it hits one element of the old set
    assert evaluate_count(inst, (0, 1)) == evaluate_count(lam, (0, 1)) == C(1)


def test_crossfree_to_laminar_preserves_objective_pointwise():
    for seed in range(40):
        rng = random.Random(seed)
        n, d = rng.randint(2, 5), rng.randint(1, 3)
        inst = gen_random_crossfree(n, d, seed)
        lam = crossfree_to_laminar(inst)
        kind, _ = check_family([a.members for a in lam.sets], inst.universe())
        assert kind == LAMINAR
        if lam is not inst:
            u0 = min(inst.universe())
            assert all(u0 not in a.members for a in lam.sets)
        for x in itertools.product(*(range(len(dm)) for dm in inst.domains)):
            assert evaluate_count(inst, x) == evaluate_count(lam, x)


def test_rejects_overlapping_families():
    inst = fixtures()["maxsat-overlap"]
    with pytest.raises(ClassViolation):
        crossfree_to_laminar(inst)


def test_forest_of_singletons_is_a_star():
    universe_sets = [
        AssignmentSet(frozenset([(i, a)]), CountFunction((ZERO, C(1))))
        for i in range(2)
        for a in range(2)
    ]
    inst = CountInstance.build([["0", "1"]] * 2, universe_sets)
    forest = build_laminar_forest(inst)
    assert forest.father == (-1, 0, 0, 0, 0)


def test_forest_of_nested_chain_is_a_path():
    chain = [
        AssignmentSet(frozenset([(0, 0)]), CountFunction((ZERO, ZERO))),
        AssignmentSet(frozenset([(0, 0), (0, 1)]), CountFunction((ZERO, ZERO))),
        AssignmentSet(frozenset([(0, 0), (0, 1), (1, 0)]), CountFunction((ZERO, ZERO, ZERO))),
    ]
    inst = CountInstance.build([["0", "1"]] * 2, chain)
    forest = build_laminar_forest(inst)
    by_members = {aset.members: k for k, aset in enumerate(forest.sets)}
    small = by_members[chain[0].members]
    mid = by_members[chain[1].members]
    large = by_members[chain[2].members]
    assert forest.father[small] == mid
    assert forest.father[mid] == large
    assert forest.father[large] == 0


def test_forest_insertion_is_deterministic_on_ties():
    sets = [
        AssignmentSet(frozenset([(0, 0), (0, 1)]), CountFunction((ZERO, ZERO))),
        AssignmentSet(frozenset([(1, 0), (1, 1)]), CountFunction((ZERO, ZERO))),
    ]
    inst = CountInstance.build([["0", "1"]] * 2, sets)
    a = build_laminar_forest(inst)
    b = build_laminar_forest(inst)
    assert [s.members for s in a.sets] == [s.members for s in b.sets]
    assert a.father == b.father


def test_network_for_single_assignment_instance():
    inst = CountInstance.build([["a"]], [])
    forest = build_laminar_forest(inst)
    net = build_network(forest)
    # source -> variable -> universe/sink: the assignment's arc ends at its
    # minimal set, here the root
    assert net.num_nodes == 3
    assert len(net.arcs) == 2
    assert net.value == 1
    flow = min_convex_cost_flow(net)
    assert flow.amounts == (1, 1)


def test_network_size_bounds():
    for seed in (0, 5, 9):
        inst = gen_random_laminar(4, 3, seed)
        lam = crossfree_to_laminar(inst)
        forest = build_laminar_forest(lam)
        net = build_network(forest)
        n = inst.n
        total_assignments = sum(len(d) for d in inst.domains)
        r = len(forest.sets)
        assert net.num_nodes <= 1 + n + total_assignments + r
        assert len(net.arcs) <= n + 2 * total_assignments + r


def _solve_through_network(inst):
    forest = build_laminar_forest(inst)
    return build_network(forest), solve_cfc(inst)


def test_network_keeps_only_sets_over_two_or_more_variables():
    # source, one node per variable, the root, and one node and arc per
    # non-root set spanning two or more variables; one-variable sets ride
    # on the assignment arcs
    cases = [gen_random_laminar(4, 3, seed) for seed in range(15)]
    cases += [gen_random_crossfree(4, 3, seed) for seed in range(15)]
    cases += [gen_full_laminar_tree(n, d, 1) for n, d in ((1, 3), (2, 2), (9, 4))]
    for inst in cases:
        lam = crossfree_to_laminar(inst)
        if any(a.g.support is None for a in lam.sets):
            continue
        forest = build_laminar_forest(lam)
        net = build_network(forest)
        wide = sum(1 for a in forest.sets[1:] if len({i for i, _ in a.members}) >= 2)
        assignments = sum(len(dom) for dom in inst.domains)
        assert net.num_nodes == 1 + inst.n + 1 + wide
        assert len(net.arcs) == inst.n + assignments + wide
    tree = gen_full_laminar_tree(400, 4, 1)
    net = build_network(build_laminar_forest(tree))
    assert (net.num_nodes, len(net.arcs)) == (1328, 2926)


def test_folded_forced_and_forbidden_sets_match_oracle():
    half, third = C(Fraction(1, 2)), C(Fraction(1, 3))
    sets = [
        # variable 0 must take value 1: the set costs inf at count 0
        AssignmentSet(frozenset([(0, 1)]), CountFunction((INF, half))),
        # variable 1 may not take value 0 or 2: inf at count 1
        AssignmentSet(frozenset([(1, 0), (1, 2)]), CountFunction((third, INF))),
        # nested one-variable sets with fractional costs on variable 2
        AssignmentSet(frozenset([(2, 0), (2, 1)]), CountFunction((C(1), third))),
        AssignmentSet(frozenset([(2, 0)]), CountFunction((ZERO, half))),
        # a kept set over two variables
        AssignmentSet(frozenset([(1, 1), (2, 2)]), CountFunction((C(2), ZERO, C(1)))),
    ]
    inst = CountInstance.build([["a", "b", "c"]] * 3, sets)
    net, res = _solve_through_network(inst)
    want = oracle_count(inst)
    assert res.cost == want.cost == C(Fraction(7, 6))
    assert res.assignment == want.assignment == (1, 1, 1)
    assert evaluate_count(inst, res.assignment) == res.cost
    # assignment arcs n + k in sorted order: windows and folded costs
    windows = [(arc.lo, arc.hi) for arc in net.arcs[3:12]]
    assert windows == [(0, 0), (0, 1), (0, 0), (0, 0), (0, 1), (0, 0), (0, 1), (0, 1), (0, 1)]
    costs = [tuple(C(Fraction(v, net.den)) for v in arc.cost.table) for arc in net.arcs[9:12]]
    assert [table[-1] for table in costs[1:]] == [third, C(1)]
    assert costs[0] == (ZERO, C(Fraction(5, 6)))
    assert net.num_nodes == 1 + 3 + 1 + 1 and len(net.arcs) == 3 + 9 + 1


def test_folded_sets_forbidding_every_value_make_the_instance_infeasible():
    sets = [
        AssignmentSet(frozenset([(1, 0)]), CountFunction((ZERO, INF))),
        AssignmentSet(frozenset([(1, 1), (1, 2)]), CountFunction((C(1), INF))),
        AssignmentSet(frozenset([(0, 0), (1, 0), (1, 1), (1, 2)]), CountFunction((ZERO, C(1), C(3)))),
    ]
    inst = CountInstance.build([["a", "b"], ["a", "b", "c"]], sets)
    net, res = _solve_through_network(inst)
    assert [(arc.lo, arc.hi) for arc in net.arcs[2 + 2:2 + 5]] == [(0, 0)] * 3
    assert oracle_count(inst).cost == INF
    assert res.cost == INF
    # the unroutable demand is variable 1's unit, on the source arc 0 -> 2
    assert res.certificate == {"infeasible": True, "witness_arc": 1}
    assert (net.arcs[1].tail, net.arcs[1].head, net.arcs[1].lo) == (0, 2, 1)


def test_solve_cfc_nests_a_laminar_family_once(monkeypatch):
    import vcspkit.cfc as cfc

    calls = []
    nest = cfc._nest
    monkeypatch.setattr(cfc, "_nest", lambda *args: calls.append(args) or nest(*args))
    inst = gen_full_laminar_tree(6, 3, 0)
    assert solve_cfc(inst).cost == oracle_count(inst).cost
    assert len(calls) == 1


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_cross_free_and_renamed_solves_nest_each_family_once(monkeypatch):
    import vcspkit.cfc as cfc
    import vcspkit.instances as instances
    from vcspkit.renaming import rename_set, solve_renamable

    # a complemented tree: the failed laminarity test, then the rewrite
    base = gen_full_laminar_tree(6, 3, 0)
    universe = base.universe()
    sets = list(base.sets)
    for k in range(1, len(sets), 4):
        members = universe - sets[k].members
        sets[k] = AssignmentSet(members, CountFunction.zero(len({i for i, _ in members})))
    inst = CountInstance.build(base.domains, sets)
    assert check_family([a.members for a in inst.sets], universe)[0] == CROSS_FREE
    nests = _counting(monkeypatch, cfc, "_nest")
    assert solve_cfc(inst).cost == oracle_count(inst).cost
    assert len(nests) == 2
    # a renamed Boolean tree: the renamed family is nested once, and each
    # distinct function of each integer view, the input's and the renamed
    # instance's, is checked for convexity once
    base = gen_full_laminar_tree(5, 2, 0)
    sets = [rename_set(a, base.domains) if k % 2 else a for k, a in enumerate(base.sets)]
    inst = CountInstance.build(base.domains, sets)
    assert check_family([a.members for a in inst.sets], inst.universe())[0] != LAMINAR
    nests.clear()
    views = _counting(monkeypatch, instances, "_integer_counts")
    made = _counting(monkeypatch, instances, "integer_count")
    assert solve_renamable(inst).cost == oracle_count(inst).cost
    assert len(nests) == 1
    assert len(views) == 2
    assert len(made) == sum(len(set(tables)) for (tables,) in views)
    assert len({id(g) for g in inst.integer_counts.counts}) < len(inst.sets)


def test_network_feasible_iff_finite_solution():
    for seed in range(25):
        inst = gen_random_laminar(3, 2, seed)
        lam = crossfree_to_laminar(inst)
        if any(a.g.support is None for a in lam.sets):
            continue
        forest = build_laminar_forest(lam)
        net = build_network(forest)
        feasible = not isinstance(min_convex_cost_flow(net), Infeasible)
        assert feasible == (count_finite_solutions(inst) > 0)


def test_flow_solution_bijection_counts():
    for seed in range(20):
        inst = gen_random_laminar(4, 2, seed + 100)
        lam = crossfree_to_laminar(inst)
        if any(a.g.support is None for a in lam.sets):
            continue
        forest = build_laminar_forest(lam)
        net = build_network(forest)
        n_flows = sum(1 for _ in enumerate_feasible_flows(net))
        assert n_flows == count_finite_solutions(inst)


def test_value_cardinality_instance_matches_oracle():
    # four variables over two values with per-value windows
    inst = gen_soft_gcc(4, 2, [(1, 2), (0, 1)])
    res = solve_cfc(inst)
    want = oracle_count(inst)
    assert res.cost == want.cost
    assert evaluate_count(inst, res.assignment) == res.cost


def test_all_different_window():
    inst = gen_soft_gcc(2, 2, [(0, 1), (0, 1)])
    res = solve_cfc(inst)
    assert res.cost == ZERO
    assert res.assignment[0] != res.assignment[1]


def test_nested_group_cardinalities_match_oracle():
    inst = gen_nested_gcc(
        4, 2,
        groups=[(0, 1, 2, 3), (0, 1), (0,)],
        bounds={
            (0, 0): (1, 2), (0, 1): (0, 3),
            (1, 0): (0, 1), (1, 1): (1, 2),
            (2, 0): (0, 0), (2, 1): (1, 1),
        },
    )
    res = solve_cfc(inst)
    want = oracle_count(inst)
    assert res.cost == want.cost


def test_solve_cfc_random_suites():
    for seed in range(40):
        rng = random.Random(seed)
        n, d = rng.randint(2, 6), rng.randint(1, 3)
        for gen in (gen_random_laminar, gen_random_crossfree):
            inst = gen(n, d, seed)
            res = solve_cfc(inst)
            want = oracle_count(inst)
            assert res.cost == want.cost, (gen.__name__, seed)
            assert evaluate_count(inst, res.assignment) == res.cost


def test_solve_cfc_reports_infeasible_as_infinite_cost():
    # a singleton forced to be hit twice can never be satisfied
    g = CountFunction((INF, INF))  # empty support over one variable
    aset = AssignmentSet(frozenset([(0, 0)]), g)
    inst = CountInstance.build([["a", "b"]], [aset])
    res = solve_cfc(inst)
    assert res.cost == INF
    assert evaluate_count(inst, res.assignment) == INF


def test_empty_support_set_is_reported_by_its_index_in_the_laminar_form():
    universe = frozenset((i, a) for i in range(2) for a in range(2))
    cheap = AssignmentSet(frozenset([(0, 0)]), CountFunction((ZERO, C(1))))
    nowhere = AssignmentSet(frozenset([(0, 1), (1, 0), (1, 1)]), CountFunction((INF,) * 3))
    # laminar: solved as it is
    laminar = CountInstance.build([["0", "1"]] * 2, [cheap, nowhere])
    # cross-free only: the universe set goes into the constant and the set
    # holding u0 = (0, 0) is complemented, so `nowhere` is set 1 of the rewrite
    crossing = AssignmentSet(frozenset([(0, 0), (1, 0)]), CountFunction((ZERO, C(1), C(2))))
    root = AssignmentSet(universe, CountFunction((INF, INF, C(2))))
    crossfree = CountInstance.build([["0", "1"]] * 2, [root, crossing, nowhere])
    for inst in (laminar, crossfree):
        res = solve_cfc(inst)
        assert res.cost == INF
        assert res.certificate == {"empty_support_set": 1}
        assert build_laminar_forest(inst).instance.sets[1] == nowhere
    assert build_laminar_forest(crossfree).instance is not crossfree


def test_universe_set_contributes_constant():
    universe = frozenset((i, a) for i in range(2) for a in range(2))
    root = AssignmentSet(universe, CountFunction((INF, INF, C(3))))
    inst = CountInstance.build([["0", "1"]] * 2, [root])
    res = solve_cfc(inst)
    assert res.cost == C(3)


def test_singleton_injection_cannot_break_family():
    rng = random.Random(1234)
    for seed in range(20):
        inst = gen_random_crossfree(3, 2, seed)
        members_list = [a.members for a in inst.sets]
        kind_before, _ = check_family(members_list, inst.universe())
        assert kind_before in (LAMINAR, CROSS_FREE)
        universe = sorted(inst.universe())
        for _ in range(3):
            singleton = frozenset([rng.choice(universe)])
            kind_after, _ = check_family(members_list + [singleton], inst.universe())
            assert kind_after in (LAMINAR, CROSS_FREE)


def test_forest_dot_export():
    inst = fixtures()["pair-grid"]
    forest = build_laminar_forest(inst)
    dot = forest_to_dot(forest)
    assert "digraph" in dot and "universe" in dot


def test_forest_dot_labels_escape_quotes_and_backslashes():
    inst = CountInstance.build(
        [["a", "b\\"], ["a"]],
        [AssignmentSet(frozenset([(0, 1), (1, 0)]), CountFunction((ZERO, ZERO, C(1))))],
        names=['x"1', "y"],
    )
    dot = forest_to_dot(build_laminar_forest(inst))
    nodes = [line for line in dot.splitlines() if "label=" in line]
    assert len(nodes) == 2
    for line in nodes:
        assert re.fullmatch(r'  s\d+ \[label="(?:[^"\\]|\\.)*", shape=box\];', line), line
    assert 'label="{x\\"1=b\\\\, y=a}"' in dot


_FRACTIONS = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6)])


@st.composite
def _convex_function(draw, size):
    """A convex table over counts 0..size, finite on a drawn window (on
    all counts two times in three, so that most instances stay feasible)."""
    lo, hi = 0, size
    if not draw(st.integers(0, 2)):
        lo = draw(st.integers(0, size))
        hi = draw(st.integers(lo, size))
    slopes = sorted(draw(st.lists(st.integers(-2, 2), min_size=hi - lo, max_size=hi - lo)))
    step = draw(_FRACTIONS) or Fraction(1)
    values = [Fraction(0)]
    for m in slopes:
        values.append(values[-1] + m * step)
    floor = min(values) - draw(_FRACTIONS)
    table = [INF] * (size + 1)
    for m, v in zip(range(lo, hi + 1), values):
        table[m] = C(v - floor)
    return CountFunction(tuple(table))


@st.composite
def _single_variable_rich_instances(draw):
    """Small laminar or cross-free instances whose sets mostly span one
    variable: the universe, listed variable by variable with each
    variable's values in a drawn order, is split recursively, and drawn
    parts become sets; a cross-free instance complements some of them."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    items = [(i, a) for i in range(n) for a in draw(st.permutations(range(d)))]
    parts = []

    def split(part):
        if draw(st.integers(0, 3)):
            parts.append(frozenset(part))
        if len(part) > 1:
            cut = draw(st.integers(1, len(part) - 1))
            split(part[:cut])
            split(part[cut:])

    split(items)
    universe = frozenset(items)
    crossfree = draw(st.booleans())
    sets = []
    for members in parts:
        if crossfree and members != universe and draw(st.booleans()):
            members = universe - members
        s = len({i for i, _ in members})
        sets.append(AssignmentSet(members, draw(_convex_function(s))))
    constant = C(draw(_FRACTIONS))
    return CountInstance.build([[str(v) for v in range(d)]] * n, sets, constant=constant)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_single_variable_rich_instances())
def test_solve_cfc_matches_oracle_on_single_variable_rich_instances(inst):
    res = solve_cfc(inst)
    assert res.cost == oracle_count(inst).cost
    assert evaluate_count(inst, res.assignment) == res.cost
