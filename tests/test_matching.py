import random
from fractions import Fraction

import pytest

from helpers import brute_force_max_weight_matching
from vcspkit.costs import Cost
from vcspkit.errors import InstanceError
from vcspkit.matching import (
    MatchingGraph,
    max_weight_matching,
)


def test_single_edge():
    g = MatchingGraph(2, ((0, 1, Cost(5)),))
    matching, total = max_weight_matching(g)
    assert matching == {(0, 1)}
    assert total == Cost(5)


def test_triangle_takes_heaviest_edge():
    g = MatchingGraph(3, ((0, 1, Cost(3)), (0, 2, Cost(3)), (1, 2, Cost(5))))
    matching, total = max_weight_matching(g)
    assert matching == {(1, 2)}
    assert total == Cost(5)


def test_graph_validation():
    with pytest.raises(InstanceError):
        MatchingGraph(2, ((0, 0, Cost(1)),))
    with pytest.raises(InstanceError):
        MatchingGraph(2, ((0, 1, Cost(1)), (1, 0, Cost(2))))


def _random_graph(rng, max_nodes=10):
    n = rng.randint(2, max_nodes)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, Cost(Fraction(rng.randint(0, 30), rng.randint(1, 5)))))
    return MatchingGraph(n, tuple(edges))


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(2024)
    for _ in range(120):
        g = _random_graph(rng)
        matching, total = max_weight_matching(g)
        # output is a matching: no shared vertices
        seen = [v for e in matching for v in e]
        assert len(seen) == len(set(seen))
        _, best = brute_force_max_weight_matching(g)
        assert total == best


def test_cardinality_special_case():
    # 6-cycle: perfect matching of size 3
    pairs = [(i, (i + 1) % 6) for i in range(6)]
    g = MatchingGraph(6, tuple((u, v, Cost(1)) for u, v in pairs))
    matching, total = max_weight_matching(g)
    assert len(matching) == 3
    assert total == Cost(3)
