"""Exact ground-truth graph statistics.

Triangle counting uses the forward (degree-ordered neighbor intersection)
algorithm, which also yields per-edge triangle counts so shared-triangle
pairs come out of the same enumeration for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .edgelist import Edge, EdgeList, NodeId, make_edge


@dataclass(frozen=True)
class AdjacencyGraph:
    """Symmetric hash-indexed adjacency; read-only after construction."""

    adjacency: dict[NodeId, set[NodeId]]
    node_count: int
    edge_count: int


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
    adjacency: dict[NodeId, set[NodeId]] = {}
    for u, v in edge_list.edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return AdjacencyGraph(
        adjacency=adjacency,
        node_count=len(adjacency),
        edge_count=edge_list.edge_count,
    )


def _triangle_census(graph: AdjacencyGraph) -> tuple[int, dict[Edge, int]]:
    """Count each triangle exactly once and tally how many contain each edge.

    Edges are oriented from lower to higher (degree, id) rank; each triangle
    is found at its lowest-ranked edge via forward-neighbor intersection.
    """
    adjacency = graph.adjacency
    ordered = sorted(adjacency, key=lambda node: (len(adjacency[node]), node))
    rank = {node: position for position, node in enumerate(ordered)}
    forward = {
        node: {other for other in neighbors if rank[other] > rank[node]}
        for node, neighbors in adjacency.items()
    }
    total = 0
    per_edge: dict[Edge, int] = {}
    for u in ordered:
        forward_u = forward[u]
        for v in forward_u:
            common = forward_u & forward[v]
            if not common:
                continue
            total += len(common)
            per_edge[make_edge(u, v)] = per_edge.get(make_edge(u, v), 0) + len(common)
            for w in common:
                per_edge[make_edge(u, w)] = per_edge.get(make_edge(u, w), 0) + 1
                per_edge[make_edge(v, w)] = per_edge.get(make_edge(v, w), 0) + 1
    return total, per_edge


def count_wedges(graph: AdjacencyGraph) -> int:
    """Number of length-two paths: sum over nodes of d(d-1)/2."""
    return sum(
        degree * (degree - 1) // 2
        for degree in (len(neighbors) for neighbors in graph.adjacency.values())
    )


def compute_stats(graph: AdjacencyGraph) -> GraphStats:
    triangles, per_edge = _triangle_census(graph)
    wedges = count_wedges(graph)
    # Unordered pairs of triangles sharing an edge: sum over edges of t(t-1)/2.
    shared = sum(count * (count - 1) // 2 for count in per_edge.values())
    clustering = 3.0 * triangles / wedges if wedges > 0 else 0.0
    return GraphStats(
        node_count=graph.node_count,
        edge_count=graph.edge_count,
        triangles=triangles,
        wedges=wedges,
        shared_pairs=shared,
        clustering=clustering,
    )
