"""Seeded random-graph generators for desk-scale experiments.

Real-corpus downloads are optional (see scripts/fetch_datasets.py); the
experiment harness and the test suite only rely on these generators.
"""

from __future__ import annotations

import random
from itertools import combinations

from .edgelist import EdgeList, normalize_edges

__all__ = ["barabasi_albert", "complete_graph", "cycle_graph", "erdos_renyi"]


def erdos_renyi(node_count: int, edge_probability: float, seed: int) -> EdgeList:
    """G(n, p): every unordered node pair is an edge independently with
    probability ``edge_probability``."""
    if node_count < 0:
        raise ValueError(f"node count must be >= 0, got {node_count}")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {edge_probability}")
    rng = random.Random(seed)
    pairs = [
        pair for pair in combinations(range(node_count), 2) if rng.random() < edge_probability
    ]
    return EdgeList(normalize_edges(pairs))


def barabasi_albert(node_count: int, attach_count: int, seed: int) -> EdgeList:
    """Preferential attachment: each new node links to ``attach_count``
    distinct existing nodes chosen proportionally to degree."""
    if attach_count < 1:
        raise ValueError(f"attach count must be >= 1, got {attach_count}")
    if node_count <= attach_count:
        raise ValueError(
            f"node count must exceed attach count, got {node_count} <= {attach_count}"
        )
    rng = random.Random(seed)
    targets = list(range(attach_count))
    repeated: list[int] = []
    pairs: list[tuple[int, int]] = []
    for source in range(attach_count, node_count):
        pairs.extend((source, target) for target in targets)
        repeated.extend(targets)
        repeated.extend([source] * attach_count)
        chosen: set[int] = set()
        while len(chosen) < attach_count:
            chosen.add(rng.choice(repeated))
        targets = sorted(chosen)
    return EdgeList(normalize_edges(pairs))


def cycle_graph(node_count: int) -> EdgeList:
    """Cycle on ``node_count`` nodes; every node has degree 2."""
    if node_count < 3:
        raise ValueError(f"cycle needs >= 3 nodes, got {node_count}")
    pairs = [(i, (i + 1) % node_count) for i in range(node_count)]
    return EdgeList(normalize_edges(pairs))


def complete_graph(node_count: int) -> EdgeList:
    if node_count < 0:
        raise ValueError(f"node count must be >= 0, got {node_count}")
    return EdgeList(normalize_edges(combinations(range(node_count), 2)))
