"""Independent brute-force oracles for the test suite.

Everything here enumerates exhaustively and stays deliberately independent
of the package's counting code paths, so it can vouch for them.
"""

from __future__ import annotations

from itertools import combinations

from tristream import EdgeList, EstimateResult, ParseError, make_edge


def _adjacency(edges: EdgeList) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges.edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def brute_node_count(edges: EdgeList) -> int:
    return len(_adjacency(edges))


def brute_edge_count(edges: EdgeList) -> int:
    """Adjacent node pairs, by scanning every pair of nodes."""
    adj = _adjacency(edges)
    return sum(1 for a, b in combinations(sorted(adj), 2) if b in adj[a])


def brute_triangles(edges: EdgeList) -> list[tuple[int, int, int]]:
    """All triangles, by scanning every node triple."""
    adj = _adjacency(edges)
    nodes = sorted(adj)
    return [
        (a, b, c)
        for a, b, c in combinations(nodes, 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    ]


def brute_triangle_count(edges: EdgeList) -> int:
    return len(brute_triangles(edges))


def brute_wedge_count(edges: EdgeList) -> int:
    """All length-two paths, by scanning neighbor pairs around every center."""
    adj = _adjacency(edges)
    total = 0
    for center in adj:
        total += sum(1 for _ in combinations(sorted(adj[center]), 2))
    return total


def brute_shared_pair_count(edges: EdgeList) -> int:
    """Pairs of triangles with a common edge, by scanning all triangle pairs."""
    triangles = brute_triangles(edges)
    return sum(
        1
        for first, second in combinations(triangles, 2)
        if len(set(first) & set(second)) == 2
    )


def reference_pes_run(stream: EdgeList, p: float, pool_size: int, rng) -> EstimateResult:
    """Priority edge sampling as first written: one ``sorted()`` neighbor
    scan per stream edge, one reservoir offer per candidate wedge, and a
    linear scan of the slots to close wedges.

    Draws from ``rng`` in the estimator's protocol: one ``uniform()`` per
    stream edge for the subgraph, then, per candidate offered to a full
    pool, one ``uniform()`` and, when it is admitted, one ``randrange()``.
    """
    adjacency: dict[int, set[int]] = {}
    subgraph_edges = 0
    slots: list[list] = []  # [outer pair (a <= b), center, closed]
    candidates = 0

    def offer(outer1: int, center: int, outer2: int) -> None:
        nonlocal candidates
        candidates += 1
        wedge = [(min(outer1, outer2), max(outer1, outer2)), center, False]
        if len(slots) < pool_size:
            slots.append(wedge)
        elif rng.uniform() < pool_size / candidates:
            slots[rng.randrange(pool_size)] = wedge

    for edge in stream.edges:
        x, y = edge
        if rng.uniform() < p:
            adjacency.setdefault(x, set()).add(y)
            adjacency.setdefault(y, set()).add(x)
            subgraph_edges += 1
        for slot in slots:
            if slot[0] == (x, y):
                slot[2] = True
        for c in sorted(adjacency.get(x, ())):
            if c != y:
                offer(y, x, c)
        for c in sorted(adjacency.get(y, ())):
            if c != x:
                offer(x, y, c)

    q = 1.0 if candidates <= pool_size else pool_size / candidates
    closed = sum(1 for slot in slots if slot[2])
    return EstimateResult(
        method="pes",
        estimate=closed / (p * q),
        p=p,
        q=q,
        triangles_observed=closed,
        candidate_wedges=candidates,
        subgraph_edges=subgraph_edges,
        pool_size=len(slots),
        sample_size=subgraph_edges + len(slots),
        estimated_rse=closed**-0.5 if closed else None,
    )


def reference_normalize_edges(pairs) -> tuple[tuple[int, int], ...]:
    """Normalization as first written: a seen-set beside an out-list."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for a, b in pairs:
        if a == b:
            continue
        edge = make_edge(a, b)
        if edge not in seen:
            seen.add(edge)
            out.append(edge)
    return tuple(out)


def reference_parse_edge_text(text: str) -> EdgeList:
    """Parsing as first written: every line's endpoints into a list, then
    a second pass to normalize them."""
    pairs: list[tuple[int, int]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", "%")):
            continue
        tokens = stripped.split()
        if len(tokens) < 2:
            raise ParseError(line_number, f"expected two integer endpoints, got {stripped!r}")
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(line_number, f"non-integer endpoint in {stripped!r}") from None
        if a < 0 or b < 0:
            raise ParseError(line_number, f"negative node id in {stripped!r}")
        pairs.append((a, b))
    return EdgeList(reference_normalize_edges(pairs))
