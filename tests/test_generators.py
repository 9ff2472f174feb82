from __future__ import annotations

import hashlib

import pytest

from tristream import (
    barabasi_albert,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    serialize_edge_list,
)

from reference import reference_normalize_edges


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


def _generator_grid():
    for nodes in (0, 1, 2, 5, 20):
        for probability in (0.0, 0.3, 1.0):
            for seed in (0, 1):
                yield erdos_renyi(nodes, probability, seed)
    for nodes in range(13):
        yield complete_graph(nodes)
    for nodes in range(3, 21):
        yield cycle_graph(nodes)
    for nodes in range(2, 15):
        for attach in range(1, nodes):
            for seed in (0, 1):
                yield barabasi_albert(nodes, attach, seed)
    yield barabasi_albert(300, 4, seed=7)


def test_generators_emit_normalized_edge_lists():
    # Nothing normalizes a generator's output after it, and a reversed edge
    # makes pes_run's pair index miss the wedges it closes without an error.
    for graph in _generator_grid():
        assert all(u < v for u, v in graph.edges), graph
        assert graph.edges == reference_normalize_edges(graph.edges), graph


# SHA-256 of serialize_edge_list over the graphs below, in order.  The
# benchmark inputs and their exact counts are built from these generators, so
# it moves only with a deliberate change of a generator's edges or order.
PINNED_GENERATOR_DIGEST = "7a28a74350c5b84603f7bff1073f59d1c4968ad3d846efb60bb87438a94935a3"


def test_generator_edge_lists_match_pinned_digest():
    digest = hashlib.sha256()
    graphs = (
        erdos_renyi(40, 0.3, seed=7),
        erdos_renyi(200, 0.1, seed=5),
        barabasi_albert(300, 4, seed=7),
        barabasi_albert(1000, 8, seed=1),
        barabasi_albert(3000, 8, seed=1),
        cycle_graph(20),
        complete_graph(12),
    )
    for graph in graphs:
        digest.update(serialize_edge_list(graph).encode())
    assert digest.hexdigest() == PINNED_GENERATOR_DIGEST
