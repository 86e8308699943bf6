import itertools
import random

import pytest

from helpers import gen_random_pair_sets
from vcspkit.cfc import reduce_domains_pairsets
from vcspkit.costs import Cost, ZERO
from vcspkit.errors import ClassViolation
from vcspkit.instances import (
    AssignmentSet,
    CountFunction,
    CountInstance,
    evaluate_count,
)
from vcspkit.testkit import oracle_count

C = Cost


def test_small_domains_are_untouched():
    inst = gen_random_pair_sets([2, 3], seed=0)
    red = reduce_domains_pairsets(inst)
    assert red.reduced.domains == inst.domains
    assert red.back_map((1, 2)) == (1, 2)


def test_rejects_large_sets():
    members = frozenset([(0, 0), (1, 0), (2, 0)])
    inst = CountInstance.build(
        [["a", "b"]] * 3, [AssignmentSet(members, CountFunction((ZERO,) * 4))]
    )
    with pytest.raises(ClassViolation):
        reduce_domains_pairsets(inst)


def test_single_wide_variable_yields_staircases():
    inst = CountInstance.build([[f"a{k}" for k in range(5)]], [])
    red = reduce_domains_pairsets(inst)
    assert red.reduced.n == 5
    assert all(len(d) <= 3 for d in red.reduced.domains)
    assert len(red.reduced.sets) == 4  # one coupling per chain step
    finite = []
    for x in itertools.product(*(range(len(d)) for d in red.reduced.domains)):
        if not evaluate_count(red.reduced, x).is_infinite:
            finite.append(x)
    # exactly one finite assignment per original value
    assert len(finite) == 5
    assert sorted(red.back_map(x)[0] for x in finite) == [0, 1, 2, 3, 4]


def test_reduction_preserves_optimum_and_back_maps():
    for seed in range(50):
        rng = random.Random(seed)
        sizes = [rng.choice([2, 3, 4, 5]) for _ in range(rng.randint(1, 3))]
        if not any(s > 3 for s in sizes):
            sizes.append(rng.choice([4, 5]))
        inst = gen_random_pair_sets(sizes, seed)
        red = reduce_domains_pairsets(inst)
        assert all(len(d) <= 3 for d in red.reduced.domains)
        want = oracle_count(inst)
        got = oracle_count(red.reduced)
        assert got.cost == want.cost, seed
        if not got.cost.is_infinite:
            back = red.back_map(got.assignment)
            assert evaluate_count(inst, back) == want.cost
