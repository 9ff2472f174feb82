from __future__ import annotations

import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristream import (
    EdgeList,
    barabasi_albert,
    build_adjacency,
    complete_graph,
    compute_stats,
    erdos_renyi,
    make_edge,
    parse_edge_text,
    serialize_edge_list,
)

import reference


def test_toy_adjacency(toy_edges):
    graph = build_adjacency(toy_edges)
    # Each neighbour list is in stream order.
    assert graph[6] == [1, 7, 8, 9, 10, 11]
    assert graph[9] == [6, 8, 10]
    assert len(graph) == 11
    assert sum(len(n) for n in graph.values()) == 2 * 13


def test_empty_graph():
    graph = build_adjacency(EdgeList(()))
    assert graph == {}
    stats = compute_stats(graph)
    assert (stats.triangles, stats.wedges, stats.shared_pairs) == (0, 0, 0)
    assert stats.clustering == 0.0


def test_single_edge():
    graph = build_adjacency(EdgeList((make_edge(1, 2),)))
    assert graph == {1: [2], 2: [1]}
    # An absent node reads as on a plain dict, and no lookup inserts it.
    with pytest.raises(KeyError):
        graph[3]
    assert graph.get(3) is None
    assert graph == {1: [2], 2: [1]}
    stats = compute_stats(graph)
    assert (stats.wedges, stats.triangles) == (0, 0)


def test_toy_counts(toy_edges, toy_stats):
    # Triangles {1,2,3}, {6,8,9}, {6,9,10}; only edge (6,9) sits in two.
    assert toy_stats.triangles == 3
    assert toy_stats.wedges == 32
    assert toy_stats.shared_pairs == 1
    assert toy_stats.clustering == 0.28125
    assert reference.brute_triangle_count(toy_edges) == 3
    assert reference.brute_shared_pair_count(toy_edges) == 1


@pytest.mark.parametrize(
    "edges",
    [
        ((1, 2), (2, 3), (1, 3), (1, 1)),  # a self-loop
        ((1, 2), (2, 3), (1, 3), (1, 2)),  # a repeated edge
        ((1, 2), (2, 3), (1, 3), (2, 1)),  # a repeat in the other orientation
    ],
)
def test_unnormalized_edge_list_rejected(edges):
    # Counted as given, the self-loop read as triangles=2 and clustering=1.2,
    # and the repeat as M=4 with wedges=3.
    with pytest.raises(ValueError, match="not normalized"):
        compute_stats(build_adjacency(EdgeList(edges)))


def test_star_is_triangle_free():
    star = parse_edge_text("0 1\n0 2\n0 3\n0 4\n0 5\n")
    graph = build_adjacency(star)
    stats = compute_stats(graph)
    assert stats.triangles == 0
    assert stats.wedges == 10
    assert stats.shared_pairs == 0


def test_complete_graphs():
    k5 = build_adjacency(complete_graph(5))
    stats = compute_stats(k5)
    assert stats.triangles == 10
    assert stats.wedges == 30
    assert stats.shared_pairs == 30
    assert stats.clustering == 1.0
    # Brute force confirms 6 for K4: four triangles, every pair shares an edge.
    k4_edges = complete_graph(4)
    assert reference.brute_shared_pair_count(k4_edges) == 6
    assert compute_stats(build_adjacency(k4_edges)).shared_pairs == 6


graph_cases = st.tuples(
    st.integers(min_value=2, max_value=18),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.05, max_value=0.7),
)


# Labels 37 apart and descending, so no input is a contiguous 0..n-1 range.
spaced_labels = st.integers(min_value=0, max_value=15).map(lambda i: 1000 - 37 * i)
label_pairs = st.tuples(spaced_labels, spaced_labels)


@st.composite
def hub_graphs(draw):
    """A star, or a clique missing some edges, plus a few arbitrary pairs."""
    nodes = draw(st.lists(spaced_labels, min_size=2, max_size=14, unique=True))
    hub = nodes[0]
    if draw(st.booleans()):
        pairs = [(hub, leaf) for leaf in nodes[1:]]
    else:
        clique = list(combinations(nodes, 2))
        missing = draw(st.sets(st.sampled_from(clique), max_size=len(clique) // 4))
        pairs = [pair for pair in clique if pair not in missing]
    return pairs + draw(st.lists(label_pairs, max_size=12))


oracle_graphs = st.one_of(
    graph_cases.map(lambda case: erdos_renyi(case[0], edge_probability=case[2], seed=case[1])),
    st.one_of(st.lists(label_pairs, max_size=60), hub_graphs()).map(
        lambda pairs: EdgeList(reference.reference_normalize_edges(pairs))
    ),
)


@given(oracle_graphs)
@settings(max_examples=100, deadline=None)
def test_counts_match_brute_force(edges):
    graph = build_adjacency(edges)
    stats = compute_stats(graph)
    assert len(graph) == stats.node_count == reference.brute_node_count(edges)
    assert (
        sum(map(len, graph.values()))
        == 2 * stats.edge_count
        == 2 * reference.brute_edge_count(edges)
    )
    assert stats.triangles == reference.brute_triangle_count(edges)
    assert stats.wedges == reference.brute_wedge_count(edges)
    assert stats.shared_pairs == reference.brute_shared_pair_count(edges)
    # The census walks the dict, whose insertion order follows the stream.
    assert compute_stats(build_adjacency(EdgeList(edges.edges[::-1]))) == stats
    # Reversing the label order flips every (degree, id) tie-break.
    top = max((node for edge in edges.edges for node in edge), default=0)
    mirrored = EdgeList(tuple(make_edge(top - u, top - v) for u, v in edges.edges))
    assert compute_stats(build_adjacency(mirrored)) == stats


def test_oracle_holds_less_than_the_edge_list():
    # A set per node held ~1.5 times the edge list's own holdings; lists and
    # one set at a time hold under half of them.
    text = serialize_edge_list(barabasi_albert(3000, 8, seed=1))
    tracemalloc.start()
    try:
        edges = parse_edge_text(text)
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        stats = compute_stats(build_adjacency(edges))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.edge_count == edges.edge_count
    assert peak - held < held


@given(graph_cases)
@settings(max_examples=50, deadline=None)
def test_stats_invariants(case):
    nodes, seed, density = case
    stats = compute_stats(build_adjacency(erdos_renyi(nodes, density, seed)))
    assert 3 * stats.triangles <= stats.wedges or stats.wedges == 0
    assert 0.0 <= stats.clustering <= 1.0
    assert stats.shared_pairs <= stats.triangles * (stats.triangles - 1) // 2


@given(graph_cases, st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_adding_edge_is_monotone(case, pick_seed):
    nodes, seed, density = case
    edges = erdos_renyi(nodes, density, seed)
    present = set(edges.edges)
    absent = [
        make_edge(u, v)
        for u in range(nodes)
        for v in range(u + 1, nodes)
        if make_edge(u, v) not in present
    ]
    if not absent:
        return
    extra = absent[pick_seed % len(absent)]
    before = compute_stats(build_adjacency(edges))
    after = compute_stats(build_adjacency(EdgeList(edges.edges + (extra,))))
    assert after.triangles >= before.triangles
    assert after.wedges >= before.wedges
    assert after.shared_pairs >= before.shared_pairs
