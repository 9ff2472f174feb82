"""Exact ground-truth graph statistics.

The graph is its neighbor-set dict alone.  The triangles through an edge are
the common neighbors of its endpoints, counted by one set intersection per
edge, each edge visited once from its smaller endpoint.  Summing over the
edges sees every triangle three times, and the same per-edge counts give the
pairs of triangles that share an edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .edgelist import EdgeList, NodeId

__all__ = ["GraphStats", "build_adjacency", "compute_stats"]


@dataclass(frozen=True)
class GraphStats:
    """Exact counts: N, M, triangles, wedges, shared-triangle pairs, clustering.

    ``clustering`` is 3 * triangles / wedges, defined as 0 when the graph has
    no wedges.
    """

    node_count: int
    edge_count: int
    triangles: int
    wedges: int
    shared_pairs: int
    clustering: float


def build_adjacency(edge_list: EdgeList) -> dict[NodeId, set[NodeId]]:
    """Symmetric neighbor-set dict of a normalized edge list; raises ValueError
    on a self-loop or a repeated edge, which the counts below would miscount."""
    adjacency: dict[NodeId, set[NodeId]] = {}
    get = adjacency.get
    for u, v in edge_list.edges:
        neighbors = get(u)
        if neighbors is None:
            adjacency[u] = {v}
        else:
            neighbors.add(v)
        neighbors = get(v)
        if neighbors is None:
            adjacency[v] = {u}
        else:
            neighbors.add(u)
    degree_sum = sum(map(len, adjacency.values()))
    if degree_sum != 2 * edge_list.edge_count:
        raise ValueError(
            f"edge list is not normalized: degree sum {degree_sum} is not twice its "
            f"{edge_list.edge_count} edges (a self-loop or a repeated edge)"
        )
    return adjacency


def compute_stats(adjacency: dict[NodeId, set[NodeId]]) -> GraphStats:
    """Exact counts of a neighbor-set dict, visiting each edge once from its smaller endpoint."""
    # Triangles through each edge; each triangle is seen from its three edges.
    per_edge = [len(neighbors & adjacency[v])
                for u, neighbors in adjacency.items() for v in neighbors if u < v]
    through = sum(per_edge)
    triangles = through // 3
    # Length-two paths: sum over nodes of d(d-1)/2.
    wedges = sum(len(neighbors) * (len(neighbors) - 1) // 2 for neighbors in adjacency.values())
    # Unordered pairs of triangles sharing an edge: sum over edges of t(t-1)/2,
    # taken as (sum of t*t - sum of t) / 2.
    shared = (sum(map(mul, per_edge, per_edge)) - through) // 2
    clustering = 3.0 * triangles / wedges if wedges > 0 else 0.0
    return GraphStats(
        node_count=len(adjacency),
        edge_count=len(per_edge),
        triangles=triangles,
        wedges=wedges,
        shared_pairs=shared,
        clustering=clustering,
    )
