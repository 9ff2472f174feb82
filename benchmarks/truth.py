"""Exact graph counts made without ``tristream.oracle``.

The oracle ranks nodes by degree and intersects forward-neighbour hash sets.
This module uses another algorithm on another structure, so the two can only
agree by both being right: an edge iterator over sorted neighbour lists.
For every edge (u, v) the triangles through it are the common neighbours of
u and v, found by binary search of each member of the shorter list in the
longer one.  Every triangle is met once from each of its three edges.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable


def exact_counts(edges: Iterable[tuple[int, int]]) -> dict[str, int]:
    """N, M, triangles, wedges and shared-triangle pairs of a simple graph.

    ``edges`` must hold each undirected edge once and no self-loop; a
    repeated edge or a loop raises ValueError, since the counts would be
    wrong for it.
    """
    edges = list(edges)
    adjacency: dict[int, list[int]] = {}
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        if u == v or key in seen:
            raise ValueError(f"edge ({u}, {v}) is a loop or a repeat")
        seen.add(key)
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    for neighbours in adjacency.values():
        neighbours.sort()

    through_edges = 0
    shared_pairs = 0
    for u, v in edges:
        short, long = adjacency[u], adjacency[v]
        if len(short) > len(long):
            short, long = long, short
        size = len(long)
        count = 0
        for w in short:
            at = bisect_left(long, w)
            if at < size and long[at] == w:
                count += 1
        through_edges += count
        shared_pairs += count * (count - 1) // 2
    if through_edges % 3:
        raise AssertionError("edge-iterator triangle tally is not a multiple of 3")
    return {
        "N": len(adjacency),
        "M": len(edges),
        "triangles": through_edges // 3,
        "wedges": sum(len(n) * (len(n) - 1) // 2 for n in adjacency.values()),
        "shared_pairs": shared_pairs,
    }
