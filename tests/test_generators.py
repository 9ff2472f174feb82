from __future__ import annotations

import pytest

from tristream import barabasi_albert, complete_graph, cycle_graph, erdos_renyi


def test_erdos_renyi_deterministic_and_simple():
    first = erdos_renyi(30, 0.3, seed=4)
    second = erdos_renyi(30, 0.3, seed=4)
    assert first == second
    assert erdos_renyi(30, 0.3, seed=5) != first
    assert len(set(first.edges)) == first.edge_count
    assert all(u != v for u, v in first.edges)
    assert all(u < v for u, v in first.edges)


def test_erdos_renyi_extremes():
    assert erdos_renyi(10, 0.0, seed=1).edge_count == 0
    full = erdos_renyi(10, 1.0, seed=1)
    assert full.edge_count == 45


def test_erdos_renyi_validation():
    with pytest.raises(ValueError):
        erdos_renyi(-1, 0.5, seed=0)
    with pytest.raises(ValueError):
        erdos_renyi(10, 1.5, seed=0)


def test_barabasi_albert_shape():
    graph = barabasi_albert(50, 3, seed=2)
    assert graph == barabasi_albert(50, 3, seed=2)
    assert graph.node_count == 50
    assert graph.edge_count == (50 - 3) * 3
    assert all(u != v for u, v in graph.edges)
    degrees: dict[int, int] = {}
    for u, v in graph.edges:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    # Every non-seed node attaches to exactly 3 older nodes.
    assert all(degrees[node] >= 3 for node in range(3, 50))


def test_barabasi_albert_validation():
    with pytest.raises(ValueError):
        barabasi_albert(5, 0, seed=0)
    with pytest.raises(ValueError):
        barabasi_albert(3, 3, seed=0)


def test_cycle_and_complete():
    cycle = cycle_graph(20)
    assert cycle.node_count == 20
    assert cycle.edge_count == 20
    assert complete_graph(5).edge_count == 10
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        complete_graph(-1)
