"""Maximum-weight matching on general graphs with exact rational weights."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .costs import Cost, cost_sum
from .errors import InstanceError


@dataclass(frozen=True)
class MatchingGraph:
    """Undirected graph with finite non-negative rational edge weights."""

    num_vertices: int
    edges: Tuple[Tuple[int, int, Cost], ...]

    def __post_init__(self):
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise InstanceError(f"self-loop on vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise InstanceError(f"edge ({u}, {v}) outside vertex range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InstanceError(f"duplicate edge {key}")
            seen.add(key)
            if w.is_infinite:
                raise InstanceError("matching weights must be finite")


def max_weight_matching(g: MatchingGraph):
    """A matching of maximum total weight (not necessarily perfect).

    Returns ``(matching, total)`` where matching is a frozenset of (u, v)
    pairs with u < v.  Exact: weights are fed to the blossom search as
    rationals, never floats.
    """
    import networkx as nx  # on first use: importing it dominates CLI start-up

    graph = nx.Graph()
    graph.add_nodes_from(range(g.num_vertices))
    for u, v, w in g.edges:
        graph.add_edge(u, v, weight=w.value)
    mate = nx.max_weight_matching(graph, maxcardinality=False)
    matching = frozenset((min(u, v), max(u, v)) for u, v in mate)
    total = cost_sum(Cost(graph[u][v]["weight"]) for u, v in matching)
    # only non-negative weights are admitted, so dropping any negative-value
    # pairing never arises; an empty matching has weight zero
    return matching, total

