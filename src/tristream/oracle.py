"""Exact ground-truth graph statistics.

The graph is a dict of neighbor lists alone.  The triangles through an edge
are the common neighbors of its endpoints.  Each edge is counted once, from
its endpoint of larger (degree, id): that endpoint's neighbors go into one
set, and the other endpoint's list is probed against it, so one set is alive
at a time (Latapy, "Main-memory triangle computations for very large (sparse
(power-law)) graphs", TCS 407, 2008).  Summing over the edges sees every
triangle three times, and the same per-edge counts give the pairs of
triangles that share an edge.
"""

from __future__ import annotations

from collections import defaultdict
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


def build_adjacency(edge_list: EdgeList) -> dict[NodeId, list[NodeId]]:
    """Symmetric neighbor-list dict of an edge list, each list in stream
    order.  A self-loop or a repeated edge shows as a repeated neighbor,
    which ``compute_stats`` refuses."""
    adjacency: defaultdict[NodeId, list[NodeId]] = defaultdict(list)
    for u, v in edge_list.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    # A lookup of an absent node raises KeyError, as on a plain dict.
    adjacency.default_factory = None
    return adjacency


def compute_stats(adjacency: dict[NodeId, list[NodeId]]) -> GraphStats:
    """Exact counts of a neighbor-list dict, visiting each edge once from its
    endpoint of larger (degree, id); raises ValueError on a repeated neighbor
    (a self-loop or a repeated edge), which the counts would miscount."""
    # Triangles through each edge; each triangle is seen from its three edges.
    per_edge: list[int] = []
    count = per_edge.append
    for u, neighbors in adjacency.items():
        degree = len(neighbors)
        members = set(neighbors)
        if len(members) != degree:
            raise ValueError(
                f"edge list is not normalized: node {u} has a repeated neighbor "
                f"(a self-loop or a repeated edge)"
            )
        for v in neighbors:
            others = adjacency[v]
            if len(others) < degree or len(others) == degree and v < u:
                count(len(members.intersection(others)))
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
