import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from helpers import gen_random_crossfree, gen_random_renamable
from vcspkit.costs import Cost, INF, ZERO, scale_tables
from vcspkit.errors import InstanceError
from vcspkit.instances import (
    AssignmentSet,
    BinaryInstance,
    CountFunction,
    CountInstance,
    evaluate_binary,
    evaluate_count,
)
from vcspkit.testkit import gen_profile, oracle_count
from vcspkit.triangles import _SOLVER_CELLS


def _random_binary(rng, n, d):
    unary = {i: [Cost(rng.randint(0, 5)) for _ in range(d)] for i in range(n)}
    binary = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.8:
                binary[(i, j)] = [
                    [Cost(Fraction(rng.randint(0, 8), rng.randint(1, 3))) for _ in range(d)]
                    for _ in range(d)
                ]
    return BinaryInstance.build([[str(v) for v in range(d)]] * n, unary=unary, binary=binary)


def test_integer_costs_map_back_to_every_cost():
    # binary denominators 1 and 2 only, unary ones 1, 2, 3 and 6, so the
    # common denominator often comes from the unaries alone
    binary_pool = [ZERO, Cost(1), Cost(4), Cost(Fraction(1, 2)), Cost(Fraction(5, 2)), INF]
    unary_pool = binary_pool + [Cost(Fraction(1, 3)), Cost(Fraction(7, 3)), Cost(Fraction(5, 6))]
    rng = random.Random(612)
    dens = set()
    for _ in range(400):
        n = rng.randint(1, 4)
        domains = [[str(v) for v in range(rng.randint(1, 3))] for _ in range(n)]
        unary = {i: [rng.choice(unary_pool) for _ in dom] for i, dom in enumerate(domains)}
        binary = {
            (i, j): [[rng.choice(binary_pool) for _ in domains[j]] for _ in domains[i]]
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.7
        }
        inst = BinaryInstance.build(domains, unary=unary, binary=binary)
        ints = inst.integer_costs
        assert inst.integer_costs is ints
        assert set(ints.binary) == set(inst.binary)
        tables = [(inst.unary, ints.unary)]
        tables += [(inst.binary[pair], ints.binary[pair]) for pair in inst.binary]
        finite = []
        for costs, scaled in tables:
            assert len(scaled) == len(costs)
            for row, scaled_row in zip(costs, scaled):
                assert len(scaled_row) == len(row)
                for c, v in zip(row, scaled_row):
                    assert (v is None) == c.is_infinite
                    assert v is None or type(v) is int
                    assert ints.cost(v) == c
                    if not c.is_infinite:
                        finite.append(c.value)
        # the least d > 0 that makes every finite cost an integer
        least = next(d for d in range(1, 7) if all((x * d).denominator == 1 for x in finite))
        assert ints.den == least
        dens.add(least)
    assert dens == {1, 2, 3, 6}


def test_integer_costs_equal_lcm_scaled_tables_on_generated_instances():
    # every solver's cells of the dichotomy, as generated and
    # with a few entries redrawn from fractions whose denominators first
    # show up in later tables, so the common denominator grows mid-way
    pool = [Cost(Fraction(1, 2)), Cost(Fraction(2, 3)), Cost(Fraction(3, 4)),
            Cost(Fraction(7, 5)), Cost(Fraction(5, 6)), INF]
    rng = random.Random(1313)
    checked = set()
    for scheme, cells in _SOLVER_CELLS.items():
        for cell, solver in cells:
            if solver is None:
                continue
            for seed in range(3):
                inst = gen_profile(5, 3, sorted(cell), scheme, seed)
                tables = {i: [list(inst.unary[i])] for i in range(inst.n)}
                tables.update({pair: [list(row) for row in t] for pair, t in inst.binary.items()})
                for rows in tables.values():
                    for row in rows:
                        for b in range(len(row)):
                            if rng.random() < 0.1:
                                row[b] = rng.choice(pool)
                redrawn = BinaryInstance.build(
                    inst.domains,
                    unary={i: tables[i][0] for i in range(inst.n)},
                    binary={pair: tables[pair] for pair in inst.binary},
                )
                for case in (inst, redrawn):
                    costs = [c for t in (case.unary, *case.binary.values()) for row in t for c in row]
                    den = lcm(*(c.value.denominator for c in costs if not c.is_infinite))

                    def scaled(table):
                        return tuple(
                            tuple(None if c.is_infinite else int(c.value * den) for c in row)
                            for row in table
                        )

                    ints = case.integer_costs
                    assert ints.den == den
                    assert ints.unary == scaled(case.unary)
                    assert dict(ints.binary) == {p: scaled(t) for p, t in case.binary.items()}
                    checked.add(den)
    assert 1 in checked and 60 in checked and len(checked) >= 4, checked


def test_all_zero_instance_evaluates_to_zero():
    inst = BinaryInstance.build([["a", "b"], ["a", "b"]])
    assert evaluate_binary(inst, (0, 1)) == ZERO


def test_single_term_sum():
    inst = BinaryInstance.build(
        [["a"], ["b"]],
        unary={0: [Cost(1)]},
        binary={(0, 1): [[Cost(3)]]},
    )
    assert evaluate_binary(inst, (0, 0)) == Cost(4)


def test_evaluate_binary_matches_independent_recount():
    rng = random.Random(99)
    for _ in range(60):
        n, d = rng.randint(1, 4), rng.randint(1, 3)
        inst = _random_binary(rng, n, d)
        x = tuple(rng.randrange(d) for _ in range(n))
        # term-by-term recount, written independently of evaluate_binary
        expected = Fraction(0)
        for i in range(n):
            expected += inst.unary[i][x[i]].value
        for i in range(n):
            for j in range(i + 1, n):
                table = inst.binary.get((i, j))
                if table is not None:
                    expected += table[x[i]][x[j]].value
        assert evaluate_binary(inst, x) == Cost(expected)


def test_solution_validation():
    inst = BinaryInstance.build([["a", "b"], ["a"]])
    with pytest.raises(InstanceError):
        evaluate_binary(inst, (0,))
    with pytest.raises(InstanceError):
        evaluate_binary(inst, (0, 1))


def test_instance_shape_validation():
    with pytest.raises(InstanceError):
        BinaryInstance.build([[]])
    with pytest.raises(InstanceError):
        BinaryInstance.build([["a"], ["b"]], binary={(1, 0): [[ZERO]]})
    with pytest.raises(InstanceError):
        BinaryInstance.build([["a"], ["b"]], binary={(0, 5): [[ZERO]]})
    with pytest.raises(InstanceError):
        BinaryInstance.build([["a"], ["b", "c"]], binary={(0, 1): [[ZERO]]})


def test_count_function_support():
    g = CountFunction((INF, Cost(2), Cost(3), INF))
    assert g.support == (1, 2)
    assert g.size == 3
    empty = CountFunction((INF, INF))
    assert empty.support is None


def test_count_function_rejects_gaps():
    with pytest.raises(InstanceError):
        CountFunction((ZERO, INF, ZERO))


def test_count_instance_merges_duplicates():
    members = frozenset([(0, 0), (1, 1)])
    one = AssignmentSet(members, CountFunction((ZERO, Cost(1), Cost(2))))
    other = AssignmentSet(members, CountFunction((Cost(1), Cost(1), Cost(1))))
    inst = CountInstance.build([["a", "b"], ["a", "b"]], [one, other])
    assert len(inst.sets) == 1
    assert inst.sets[0].g.table == (Cost(1), Cost(2), Cost(3))


def test_evaluate_count_basics():
    inst = CountInstance.build([["a", "b"]], [], constant=Cost(0))
    assert evaluate_count(inst, (0,)) == ZERO
    # a set holding every value of one variable is always hit exactly once
    full = AssignmentSet(frozenset([(0, 0), (0, 1)]), CountFunction((INF, ZERO)))
    inst = CountInstance.build([["a", "b"]], [full])
    assert evaluate_count(inst, (0,)) == ZERO
    assert evaluate_count(inst, (1,)) == ZERO


def test_cardinality_penalty_counts_overuse():
    # one value capped at 1 over four variables; using it 3 times costs 2
    n = 4
    members = frozenset((i, 0) for i in range(n))
    table = [ZERO if m <= 1 else Cost(m - 1) for m in range(n + 1)]
    inst = CountInstance.build(
        [["d", "e"]] * n, [AssignmentSet(members, CountFunction(tuple(table)))]
    )
    assert evaluate_count(inst, (0, 0, 0, 1)) == Cost(2)


def test_evaluate_count_invariant_under_reordering_and_merging():
    rng = random.Random(5)
    from helpers import gen_random_laminar

    for seed in range(15):
        inst = gen_random_laminar(3, 2, seed)
        perm = list(inst.sets)
        rng.shuffle(perm)
        shuffled = CountInstance.build(
            inst.domains, perm, names=inst.names, constant=inst.constant
        )
        # duplicate one set by splitting its function into two halves
        if inst.sets:
            first = inst.sets[0]
            zero = AssignmentSet(first.members, CountFunction.zero(first.var_count))
            doubled = CountInstance.build(
                inst.domains,
                list(inst.sets) + [zero],
                names=inst.names,
                constant=inst.constant,
            )
        for x in _all_solutions(inst):
            base = evaluate_count(inst, x)
            assert evaluate_count(shuffled, x) == base
            if inst.sets:
                assert evaluate_count(doubled, x) == base


def _all_solutions(inst):
    import itertools

    return itertools.product(*(range(len(d)) for d in inst.domains))


_COSTS = st.sampled_from(
    [ZERO, Cost(1), Cost(Fraction(1, 2)), Cost(Fraction(7, 3)), Cost(Fraction(5, 6)), INF]
)


@st.composite
def _binary_instances_with_solutions(draw):
    """Small binary instances with fractional and infinite costs, some unary
    and binary tables absent, and one solution."""
    n = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 3)) for _ in range(n)]
    unary = {i: [draw(_COSTS) for _ in range(sizes[i])] for i in range(n) if draw(st.booleans())}
    binary = {
        (i, j): [[draw(_COSTS) for _ in range(sizes[j])] for _ in range(sizes[i])]
        for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
    }
    inst = BinaryInstance.build([[str(v) for v in range(k)] for k in sizes], unary=unary, binary=binary)
    return inst, tuple(draw(st.integers(0, k - 1)) for k in sizes)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_binary_instances_with_solutions())
def test_evaluate_binary_equals_a_plain_fraction_sum(case):
    inst, x = case
    terms = [inst.unary[i][a] for i, a in enumerate(x)]
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            table = inst.binary.get((i, j))
            terms.append(ZERO if table is None else table[x[i]][x[j]])
    want = INF if any(t.is_infinite for t in terms) else Cost(sum((t.value for t in terms), Fraction(0)))
    assert evaluate_binary(inst, x) == want


_SCALES = st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 4)])
_CONSTANTS = st.sampled_from([ZERO, Cost(3), Cost(Fraction(1, 6)), Cost(Fraction(9, 4)), INF])


@st.composite
def _fractional_count_instances(draw):
    """A random cross-free instance, or a renamable Boolean one, with each
    function scaled by a drawn fraction (``inf`` entries stay ``inf``) and a
    drawn constant."""
    n = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**30))
    if draw(st.booleans()):
        base = gen_random_renamable(n, seed)
    else:
        base = gen_random_crossfree(n, draw(st.integers(1, 3)), seed)
    sets = []
    for aset in base.sets:
        q = draw(_SCALES)
        sets.append(AssignmentSet(aset.members, CountFunction(tuple(c * q for c in aset.g.table))))
    return CountInstance.build(base.domains, sets, constant=draw(_CONSTANTS))


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_fractional_count_instances())
def test_integer_counts_scale_the_tables(inst):
    view = inst.integer_counts
    assert inst.integer_counts is view
    den, (tables, ((constant,),)) = scale_tables(([a.g.table for a in inst.sets], ((inst.constant,),)))
    assert (view.den, [g.table for g in view.counts], view.constant) == (den, list(tables), constant)
    for aset, g in zip(inst.sets, view.counts):
        assert g.support == aset.g.support
        finite = [c.value for c in aset.g.table if not c.is_infinite]
        assert [Fraction(m, den) for m in g.slopes] == [b - a for a, b in zip(finite, finite[1:])]


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(_fractional_count_instances())
def test_oracle_count_is_the_least_evaluate_count(inst):
    # the oracle adds the integer view; evaluate_count adds the Cost tables
    assert oracle_count(inst).cost == min(evaluate_count(inst, x) for x in _all_solutions(inst))
