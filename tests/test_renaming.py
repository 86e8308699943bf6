import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import crosses, gen_random_laminar, gen_random_renamable
from vcspkit.cfc import CROSS_FREE, LAMINAR, check_family, solve_cfc
from vcspkit.costs import Cost, INF, ZERO
from vcspkit.errors import ClassViolation
from vcspkit.instances import (
    AssignmentSet,
    CountFunction,
    CountInstance,
    evaluate_count,
)
from vcspkit.renaming import (
    TwoSatInstance,
    _clauses,
    recognize_renamable,
    rename_set,
    solve_2sat,
    solve_renamable,
)
from vcspkit.testkit import fixtures, gen_full_laminar_tree, oracle_count

C = Cost
BOOL = ("0", "1")


def test_rename_reverses_table():
    aset = AssignmentSet(
        frozenset([(0, 1), (1, 0)]), CountFunction((ZERO, C(1), C(3)))
    )
    out = rename_set(aset, (BOOL, BOOL))
    assert out.members == frozenset([(0, 0), (1, 1)])
    assert out.g.table == (C(3), C(1), ZERO)


def test_rename_is_an_involution():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        members = frozenset((i, rng.randint(0, 1)) for i in rng.sample(range(n), rng.randint(1, n)))
        s = len({v for v, _ in members})
        table = tuple(C(rng.randint(0, 5)) for _ in range(s + 1))
        aset = AssignmentSet(members, CountFunction(table))
        domains = (BOOL,) * n
        assert rename_set(rename_set(aset, domains), domains) == aset


def test_rename_requires_boolean_domains():
    aset = AssignmentSet(frozenset([(0, 0)]), CountFunction((ZERO, ZERO)))
    with pytest.raises(ClassViolation):
        rename_set(aset, (("a", "b", "c"),))


def test_rename_turns_at_least_one_into_at_most_one():
    # requiring one of two literals, renamed, caps the negated pair at one
    clause = AssignmentSet(
        frozenset([(0, 1), (1, 1)]), CountFunction((C(1), ZERO, ZERO))
    )
    out = rename_set(clause, (BOOL, BOOL))
    assert out.members == frozenset([(0, 0), (1, 0)])
    assert out.g.table == (ZERO, ZERO, C(1))


def test_rename_preserves_objective_pointwise():
    rng = random.Random(8)
    for seed in range(20):
        inst = gen_random_laminar(3, 2, seed)
        for k, aset in enumerate(inst.sets):
            sets = list(inst.sets)
            sets[k] = rename_set(aset, inst.domains)
            try:
                flipped = CountInstance.build(inst.domains, sets, constant=inst.constant)
            except Exception:
                continue  # renaming collided with an existing set; fine
            for x in itertools.product(*(range(2) for _ in range(inst.n))):
                assert evaluate_count(inst, x) == evaluate_count(flipped, x)


def test_2sat_simple_cases():
    sat = solve_2sat(TwoSatInstance(2, ((1, 2), (-1, 2))))
    assert sat is not None
    assert sat[1] is True
    unsat = solve_2sat(TwoSatInstance(1, ((1, 1), (-1, -1))))
    assert unsat is None


def test_2sat_prefers_false_when_free():
    model = solve_2sat(TwoSatInstance(3, ((1, -2), (2, -1))))
    assert model == (False, False, False)


def _holds(bits, lit):
    value = bits[abs(lit) - 1]
    return value if lit > 0 else not value


def _satisfies(bits, clauses):
    return all(_holds(bits, a) or _holds(bits, b) for a, b in clauses)


def test_2sat_matches_truth_tables():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(1, 8)
        clauses = tuple(
            (rng.choice([-1, 1]) * rng.randint(1, n), rng.choice([-1, 1]) * rng.randint(1, n))
            for _ in range(rng.randint(1, 12))
        )
        model = solve_2sat(TwoSatInstance(n, clauses))
        satisfiable = any(
            _satisfies(bits, clauses)
            for bits in itertools.product([False, True], repeat=n)
        )
        if model is None:
            assert not satisfiable
        else:
            assert _satisfies(model, clauses)


def test_overlap_fixture_renames_second_constraint():
    inst = fixtures()["maxsat-overlap"]
    ren = recognize_renamable(inst)
    assert ren is not None
    assert ren.flags == (False, True, False, False)
    kind, _ = check_family([a.members for a in ren.renamed.sets], inst.universe())
    assert kind in (LAMINAR, CROSS_FREE)


def test_fan_fixture_is_not_renamable():
    assert recognize_renamable(fixtures()["sat-fan"]) is None


def test_renaming_model_is_post_verified(monkeypatch):
    import vcspkit.renaming as renaming

    # without clauses the 2-SAT model renames nothing, and the fan's own
    # family is not cross-free
    monkeypatch.setattr(renaming, "_clauses", lambda members, universe: [])
    assert recognize_renamable(fixtures()["sat-fan"]) is None


def test_already_crossfree_instance_needs_no_renaming():
    inst = gen_random_laminar(3, 2, seed=5)
    ren = recognize_renamable(inst)
    assert ren is not None
    assert not any(ren.flags)


def test_negation_symmetry_of_incomplete_overlap():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 4)
        universe = frozenset((i, a) for i in range(n) for a in range(2))
        def rand_set():
            k = rng.randint(1, 2 * n - 1)
            return frozenset(rng.sample(sorted(universe), k))
        a, b = rand_set(), rand_set()
        neg = lambda s: frozenset((i, 1 - v) for i, v in s)
        assert crosses(neg(a), b, universe) == crosses(a, neg(b), universe)


def test_solve_renamable_maxsat_fixture():
    inst = fixtures()["maxsat-overlap"]
    res = solve_renamable(inst)
    assert res.cost == ZERO
    assert oracle_count(inst).cost == ZERO
    assert res.certificate["renamed_constraints"] == [1]


def test_solve_renamable_single_constraint():
    aset = AssignmentSet(frozenset([(0, 1), (1, 1)]), CountFunction((C(1), ZERO, ZERO)))
    inst = CountInstance.build([BOOL, BOOL], [aset])
    assert solve_renamable(inst).cost == solve_cfc(inst).cost


def test_solve_renamable_matches_oracle():
    for seed in range(30):
        inst = gen_random_renamable(4, seed)
        res = solve_renamable(inst)
        want = oracle_count(inst)
        assert res.cost == want.cost, seed
        assert evaluate_count(inst, res.assignment) == res.cost


def test_solve_renamable_rejects_an_instance_that_is_not_renamable():
    with pytest.raises(ClassViolation) as info:
        solve_renamable(fixtures()["sat-fan"])
    assert str(info.value) == "instance is not renamable cross-free"


def _pairwise_clauses(members, universe):
    # every pair of sets tested, i < j, in index order
    negated = [frozenset((v, 1 - a) for v, a in ms) for ms in members]
    clauses = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if crosses(members[i], members[j], universe):
                clauses += [(i + 1, j + 1), (-(i + 1), -(j + 1))]
            if crosses(negated[i], members[j], universe):
                clauses += [(-(i + 1), j + 1), (i + 1, -(j + 1))]
    return clauses


def _random_boolean_family(rng):
    n = rng.randint(2, 5)
    literals = [(v, a) for v in range(n) for a in range(2)]
    sets = set()
    for _ in range(rng.randint(2, 7)):
        sets.add(frozenset(rng.sample(literals, rng.randint(1, 2 * n - 1))))
    members = sorted(sets, key=sorted)
    return members, frozenset(literals)


def test_clauses_match_pairwise_reference():
    for seed in range(300):
        inst = gen_random_renamable(3 + seed % 5, seed)
        members = [a.members for a in inst.sets]
        want = _pairwise_clauses(members, inst.universe())
        assert _clauses(members, inst.universe()) == want, seed
    fan = fixtures()["sat-fan"]
    members = [a.members for a in fan.sets]
    want = _pairwise_clauses(members, fan.universe())
    assert _clauses(members, fan.universe()) == want
    assert solve_2sat(TwoSatInstance(len(members), tuple(want))) is None


def test_clauses_match_pairwise_reference_without_renaming():
    rng = random.Random(29)
    unsatisfiable = 0
    for _ in range(400):
        members, universe = _random_boolean_family(rng)
        want = _pairwise_clauses(members, universe)
        assert _clauses(members, universe) == want, members
        if solve_2sat(TwoSatInstance(len(members), tuple(want))) is None:
            unsatisfiable += 1
    assert unsatisfiable >= 50, unsatisfiable


@st.composite
def _boolean_instances(draw):
    """Small Boolean instances, most of them renamable: a laminar family
    over the literals (a recursive split, so sets may hold both values of
    one variable), each set negated or not, and sometimes one more set.
    Tables are finite on a window, on all counts two times in three; an
    instance's tables are convex two times in three, else concave."""
    n = draw(st.integers(1, 4))
    literals = draw(st.permutations([(v, a) for v in range(n) for a in range(2)]))
    parts = []

    def split(part):
        if draw(st.integers(0, 2)):
            parts.append(frozenset(part))
        if len(part) > 1:
            cut = draw(st.integers(1, len(part) - 1))
            split(part[:cut])
            split(part[cut:])

    split(literals)
    parts = [frozenset((i, 1 - a) for i, a in p) if draw(st.booleans()) else p for p in parts]
    if not parts or not draw(st.integers(0, 3)):
        parts.append(frozenset(draw(st.lists(st.sampled_from(literals), min_size=1, max_size=4))))
    convex = draw(st.integers(0, 2)) > 0
    sets = []
    for members in parts:
        s = len({v for v, _ in members})
        lo, hi = 0, s
        if not draw(st.integers(0, 2)):
            lo = draw(st.integers(0, s))
            hi = draw(st.integers(lo, s))
        steps = draw(st.lists(st.integers(-2, 2), min_size=hi - lo, max_size=hi - lo))
        values = [0]
        for step in sorted(steps, reverse=not convex):
            values.append(values[-1] + step)
        den = draw(st.sampled_from([1, 2, 3]))
        table = [INF] * (s + 1)
        for m, v in zip(range(lo, hi + 1), values):
            table[m] = C(Fraction(v - min(values), den))
        sets.append(AssignmentSet(members, CountFunction(tuple(table))))
    return CountInstance.build([BOOL] * n, sets)


def _first_nonconvex(inst):
    for k, aset in enumerate(inst.sets):
        lo, hi = aset.g.support or (0, -1)
        values = [aset.g.table[m].value for m in range(lo, hi + 1)]
        for m in range(len(values) - 2):
            if values[m + 2] - values[m + 1] < values[m + 1] - values[m]:
                return k, lo + m
    return None


def _crossfree_after(inst, flags):
    members = [
        frozenset((i, 1 - a) for i, a in aset.members) if flag else aset.members
        for aset, flag in zip(inst.sets, flags)
    ]
    return check_family(members, inst.universe())[0] in (LAMINAR, CROSS_FREE)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_boolean_instances())
def test_solve_renamable_matches_oracle_or_reports_why_not(inst):
    for aset in inst.sets:
        g, m, s = aset.g, len(aset.members), aset.var_count
        n = inst.n
        for t in (m, n, s):
            # the old renaming and complement formulas
            assert g.reflected(t, s).table == tuple(
                g.table[t - z] if 0 <= t - z <= s else INF for z in range(s + 1)
            )
            assert g.reflected(t, n).table == tuple(
                g.table[t - y] if 0 <= t - y <= g.size else INF for y in range(n + 1)
            )
    bad = _first_nonconvex(inst)
    if bad is not None:
        k, at = bad
        with pytest.raises(ClassViolation) as info:
            solve_renamable(inst)
        assert str(info.value) == f"count function of set {k} is not convex (violated at count {at})"
        assert info.value.witness == [k, at]
        return
    ren = recognize_renamable(inst)
    if ren is None:
        assert not any(
            _crossfree_after(inst, flags)
            for flags in itertools.product([False, True], repeat=len(inst.sets))
        )
        return
    res = solve_renamable(inst)
    assert res.cost == oracle_count(inst).cost
    assert evaluate_count(inst, res.assignment) == res.cost


@st.composite
def _xor_equality_systems(draw):
    """The clauses ``_clauses`` emits, for random pairs of distinct flags: an
    xor pair (i, j), (-i, -j) or an equality pair (-i, j), (i, -j), the
    clauses and their two literals shuffled."""
    n = draw(st.integers(1, 12))
    clauses = []
    if n > 1:
        pairs = st.tuples(st.integers(1, n), st.integers(1, n - 1), st.booleans())
        for i, step, xor in draw(st.lists(pairs, max_size=20)):
            j = (i + step - 1) % n + 1
            clauses += [(i, j), (-i, -j)] if xor else [(-i, j), (i, -j)]
    clauses = draw(st.permutations(clauses))
    flips = draw(st.lists(st.booleans(), min_size=len(clauses), max_size=len(clauses)))
    return n, tuple((b, a) if flip else (a, b) for (a, b), flip in zip(clauses, flips))


def _parity_components(n, clauses):
    """Each flag's component root and its parity against it, by breadth-first
    search over the xor and equality pairs; None when some cycle is odd."""
    edges = [[] for _ in range(n)]
    for a, b in clauses:
        # (a, b) and (-a, -b) ask for different flags, (-a, b) for equal ones
        differ = (a > 0) == (b > 0)
        edges[abs(a) - 1].append((abs(b) - 1, differ))
        edges[abs(b) - 1].append((abs(a) - 1, differ))
    root = [None] * n
    parity = [False] * n
    for r in range(n):
        if root[r] is not None:
            continue
        root[r] = r
        queue = [r]
        for v in queue:
            for w, differ in edges[v]:
                if root[w] is None:
                    root[w], parity[w] = r, parity[v] ^ differ
                    queue.append(w)
                elif parity[w] != parity[v] ^ differ:
                    return None
    return root, parity


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_xor_equality_systems())
def test_2sat_model_sets_each_components_least_flag_false(system):
    n, clauses = system
    model = solve_2sat(TwoSatInstance(n, clauses))
    components = _parity_components(n, clauses)
    if components is None:
        assert model is None
        return
    assert model is not None and _satisfies(model, clauses)
    root, parity = components
    # the all-false preference: each component's least flag is False, so
    # every flag is its parity against that flag
    assert list(model) == parity
    assert all(not model[r] for r in set(root))


def _negated(ms):
    return frozenset((v, 1 - a) for v, a in ms)


@st.composite
def _wide_boolean_families(draw):
    """Boolean families on 33-130 variables, so member masks run past bits
    64 and 128: runs of consecutive literals (holding both literals of the
    variables inside), random sets near the top variable, the universe,
    renamings and complements of earlier sets, and sets disjoint from an
    earlier one."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(33, 130))
    literals = [(v, a) for v in range(n) for a in range(2)]
    universe = frozenset(literals)
    start = rng.randrange(2 * n)
    family = [frozenset(literals[start:])]  # holds (n - 1, 1), the top bit
    for _ in range(draw(st.integers(2, 9))):
        kind = draw(st.sampled_from(
            ["run", "run", "top", "top", "universe", "renamed", "complement", "disjoint"]
        ))
        if kind == "run":
            lo = rng.randrange(2 * n)
            members = frozenset(literals[lo:rng.randint(lo + 1, 2 * n)])
        elif kind == "top":
            window = literals[rng.randrange(2 * n - 4):]
            members = frozenset(rng.sample(window, rng.randint(1, len(window))))
        elif kind == "universe":
            members = universe
        elif kind == "renamed":
            members = _negated(rng.choice(family))
        else:
            members = universe - rng.choice(family)
            if kind == "disjoint" and members:
                members = frozenset(rng.sample(sorted(members), rng.randint(1, len(members))))
        if members:
            family.append(members)
    return family, universe


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_wide_boolean_families())
def test_clauses_match_pairwise_reference_past_one_machine_word(family):
    members, universe = family
    assert _clauses(members, universe) == _pairwise_clauses(members, universe)


def _renamed_tree(n, seed):
    """``gen_full_laminar_tree(n, 2, seed)`` and that tree with half its sets
    renamed, as the benchmark's renamed trees are drawn."""
    base = gen_full_laminar_tree(n, 2, seed)
    rng = random.Random(seed)
    sets = list(base.sets)
    for k in rng.sample(range(len(sets)), round(0.5 * len(sets))):
        sets[k] = rename_set(sets[k], base.domains)
    return base, CountInstance.build(base.domains, sets)


@pytest.mark.parametrize("seed", range(5))
def test_renamed_full_tree_matches_reference_clauses(seed):
    base, inst = _renamed_tree(200, seed)
    members = [a.members for a in inst.sets]
    want = _pairwise_clauses(members, inst.universe())
    assert _clauses(members, inst.universe()) == want
    ren = recognize_renamable(inst)
    assert ren.flags == solve_2sat(TwoSatInstance(len(members), tuple(want)))
    assert solve_renamable(inst).cost == solve_cfc(base).cost
