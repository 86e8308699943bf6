import itertools
import random
from fractions import Fraction

import pytest

from helpers import gen_random_crossfree, gen_random_laminar
from vcspkit.costs import Cost, INF, ZERO
from vcspkit.errors import BudgetExceeded, GenerationError
from vcspkit.formats import serialize_instance
from vcspkit.instances import BinaryInstance, evaluate_binary
from vcspkit.testkit import (
    fixtures,
    gen_matching_encoding,
    gen_maxcut,
    gen_nested_gcc,
    gen_profile,
    gen_soft_gcc,
    oracle_binary,
    oracle_count,
)
from vcspkit.triangles import ALPHABET, OTHER, Scheme, profile

C = Cost


def test_oracle_binary_basics():
    inst = BinaryInstance.build([["a", "b"]], unary={0: [C(2), C(1)]})
    res = oracle_binary(inst)
    assert res.cost == C(1) and res.assignment == (1,)
    # all-infinite crisp pair
    inst = BinaryInstance.build(
        [["a"], ["b"]], binary={(0, 1): [[INF]]}
    )
    assert oracle_binary(inst).cost == INF


def test_oracle_budget_enforced():
    inst = BinaryInstance.build([["a", "b"]] * 4)
    with pytest.raises(BudgetExceeded):
        oracle_binary(inst, budget=15)
    with pytest.raises(BudgetExceeded):
        oracle_count(gen_random_laminar(4, 2, 0), budget=15)


def test_oracle_binary_prefers_lexicographic_optimum():
    inst = BinaryInstance.build([["a", "b"], ["a", "b"]])
    assert oracle_binary(inst).assignment == (0, 0)


def test_oracle_binary_matches_fraction_enumeration():
    # reference: Fraction sums over every assignment, first optimum kept
    pool = [0, 1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(5, 6), Fraction(7, 3), None]
    rng = random.Random(2024)
    for _ in range(320):
        n = rng.randint(1, 4)
        domains = [["v"] * rng.randint(1, 3) for _ in range(n)]

        def draw():
            v = rng.choice(pool)
            return INF if v is None else C(Fraction(v))

        unary = {i: [draw() for _ in domains[i]] for i in range(n)}
        binary = {
            (i, j): [[draw() for _ in domains[j]] for _ in domains[i]]
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.8
        }
        inst = BinaryInstance.build(domains, unary=unary, binary=binary)
        want_x, want = (0,) * n, None
        for x in itertools.product(*(range(len(d)) for d in domains)):
            costs = [unary[i][a] for i, a in enumerate(x)]
            costs += [t[x[i]][x[j]] for (i, j), t in sorted(binary.items())]
            if any(c.is_infinite for c in costs):
                continue
            total = sum((c.value for c in costs), Fraction(0))
            if want is None or total < want:
                want_x, want = x, total
        res = oracle_binary(inst)
        assert res.cost == (INF if want is None else C(want))
        assert res.assignment == want_x


def test_oracle_count_constant_only():
    inst = gen_soft_gcc(3, 2, [(0, 3), (0, 3)])
    res = oracle_count(inst)
    assert res.cost == ZERO


def test_generator_outputs_are_certified_in_class():
    cases = [
        (Scheme.CSP, {">", "0", "inf"}),
        (Scheme.CSP, {"<", ">", "inf"}),
        (Scheme.MAXCSP, {">", "0"}),
        (Scheme.MAXCSP, {">", "1"}),
        (Scheme.MAXCSP, {"<", ">"}),
        (Scheme.MAXCSP, {"<", "0", "1"}),
        (Scheme.ORDER, {"<", "="}),
        (Scheme.MIN0, {">0", "0"}),
        (Scheme.MIN0, {"delta0", "<0", ">0"}),
        (Scheme.MAXM, {">M", "M"}),
        (Scheme.MAXM, {"deltaM", "<M", ">M"}),
    ]
    for scheme, types in cases:
        n = 5
        inst = gen_profile(n, 2, types, scheme, seed=13)
        assert profile(inst, scheme).observed <= types


def test_generation_is_seed_deterministic():
    def build(seed):
        return serialize_instance(gen_profile(5, 3, {">", "0"}, Scheme.MAXCSP, seed))

    assert build(5) == build(5)
    assert build(5) != build(6)


@pytest.mark.parametrize("scheme", [Scheme.MIN0, Scheme.MAXM])
def test_anchored_generation_targets_the_other_type(scheme):
    # no construction covers the whole alphabet, so rejection sampling meets
    # it; its random tables hold triangles with no cost at the anchor
    target = ALPHABET[scheme] | {OTHER}
    observed = set()
    for seed in range(4):
        inst = gen_profile(5, 2, target, scheme, seed)
        got = profile(inst, scheme).observed
        assert got <= target
        observed |= got
        again = gen_profile(5, 2, target, scheme, seed)
        assert serialize_instance(again) == serialize_instance(inst)
    assert OTHER in observed


def test_two_sided_zero_one_generation_fails_on_six_variables():
    with pytest.raises(GenerationError):
        gen_profile(6, 1, {"<", ">"}, Scheme.MAXCSP, seed=0)


def test_maxcut_single_edge_and_cycle():
    inst = gen_maxcut(2, [(0, 1)])
    assert oracle_binary(inst).cost == ZERO
    # 5-cycle: four of five edges can be cut
    c5 = gen_maxcut(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert oracle_binary(c5).cost == C(1)


def test_maxcut_triangle_is_not_triangle_free():
    k3 = gen_maxcut(3, [(0, 1), (0, 2), (1, 2)])
    assert "1" in profile(k3, Scheme.MAXCSP).observed


def test_matching_encoding_single_edge():
    inst = gen_matching_encoding(2, [(0, 1)])
    res = oracle_binary(inst)
    # pairs - matching = 1 - 1
    assert res.cost == ZERO


def test_matching_encoding_empty_graph_is_constant():
    inst = gen_matching_encoding(3, [])
    vals = {evaluate_binary(inst, x) for x in [(0, 0, 0)]}
    assert vals == {C(3)}


def test_nested_gcc_requires_nested_groups():
    with pytest.raises(GenerationError):
        gen_nested_gcc(3, 2, groups=[(0, 1), (1, 2)], bounds={})


def test_random_family_generators_have_valid_output():
    from vcspkit.cfc import CROSS_FREE, LAMINAR, check_family

    for seed in range(10):
        lam = gen_random_laminar(4, 2, seed)
        kind, _ = check_family([a.members for a in lam.sets], lam.universe())
        assert kind == LAMINAR
        cf = gen_random_crossfree(4, 2, seed)
        kind, _ = check_family([a.members for a in cf.sets], cf.universe())
        assert kind in (LAMINAR, CROSS_FREE)


def test_fixture_names():
    table = fixtures()
    assert set(table) == {"maxsat-overlap", "sat-fan", "sat-blocks", "pair-grid"}
