"""Exact ground-truth graph statistics.

The triangles through an edge are the common neighbors of its endpoints,
counted by one set intersection per edge.  Summing over the edges sees
every triangle three times, and the same per-edge counts give the pairs of
triangles that share an edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .edgelist import Edge, EdgeList, NodeId

__all__ = ["AdjacencyGraph", "GraphStats", "build_adjacency", "compute_stats"]


@dataclass(frozen=True)
class AdjacencyGraph:
    """Symmetric hash-indexed adjacency and the normalized edges it was built
    from; read-only after construction."""

    adjacency: dict[NodeId, set[NodeId]]
    edges: tuple[Edge, ...]

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


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


def build_adjacency(edge_list: EdgeList) -> AdjacencyGraph:
    """Adjacency of a normalized edge list; raises ValueError on a self-loop
    or a repeated edge, which the counts below would miscount."""
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
    return AdjacencyGraph(adjacency=adjacency, edges=edge_list.edges)


def compute_stats(graph: AdjacencyGraph) -> GraphStats:
    adjacency = graph.adjacency
    # Triangles through each edge; each triangle is seen from its three edges.
    per_edge = [len(adjacency[u] & adjacency[v]) for u, v in graph.edges]
    through = sum(per_edge)
    triangles = through // 3
    # Length-two paths: sum over nodes of d(d-1)/2.
    wedges = sum(len(neighbors) * (len(neighbors) - 1) // 2 for neighbors in adjacency.values())
    # Unordered pairs of triangles sharing an edge: sum over edges of t(t-1)/2,
    # taken as (sum of t*t - sum of t) / 2.
    shared = (sum(map(mul, per_edge, per_edge)) - through) // 2
    clustering = 3.0 * triangles / wedges if wedges > 0 else 0.0
    return GraphStats(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        triangles=triangles,
        wedges=wedges,
        shared_pairs=shared,
        clustering=clustering,
    )
