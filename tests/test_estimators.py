from __future__ import annotations

import hashlib
from copy import deepcopy
from dataclasses import astuple
from statistics import fmean, stdev

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tristream import (
    EdgeList,
    ScriptedSource,
    SeededSource,
    WedgePool,
    barabasi_albert,
    build_adjacency,
    compute_stats,
    cycle_graph,
    erdos_renyi,
    make_edge,
    mix_seed,
    nes_run,
    pes_run,
    shuffle_stream,
)

from conftest import TOY_REPLAY_DECISIONS, TOY_REPLAY_SLOT_PICKS

import reference


def audit_pool(step, edge, incidence, pool):
    """An ``on_step`` hook that re-verifies the pool bookkeeping after each edge."""
    pool.audit()


# ---------------------------------------------------------------------------
# Scripted replay of the worked trace (p=0.2, pool capacity 2).
# ---------------------------------------------------------------------------


def test_scripted_replay_final_state(toy_replay_stream):
    rng = ScriptedSource(TOY_REPLAY_DECISIONS, TOY_REPLAY_SLOT_PICKS)
    result = pes_run(toy_replay_stream, 0.2, 2, rng, on_step=audit_pool)
    assert result.candidate_wedges == 8
    assert result.q == 0.25
    assert result.triangles_observed == 1
    assert result.estimate == 20.0
    assert result.subgraph_edges == 2
    assert result.pool_size == 2
    assert result.sample_size == 4
    assert result.estimated_rse == 1.0
    assert rng.exhausted


def test_scripted_replay_pool_trace(toy_replay_stream):
    rng = ScriptedSource(TOY_REPLAY_DECISIONS, TOY_REPLAY_SLOT_PICKS)
    snapshots: dict[int, tuple] = {}

    def hook(step, edge, subgraph, pool):
        snapshots[step] = (
            tuple(pool.wedge_keys()),
            tuple(pool.closed),
            pool.candidate_count,
        )

    pes_run(toy_replay_stream, 0.2, 2, rng, on_step=hook)
    assert snapshots[3] == (((7, 6, 8),), (False,), 1)
    assert snapshots[4] == (((7, 6, 8), (1, 6, 8)), (False, False), 2)
    # Candidate (8,6,11) is counted but not admitted.
    assert snapshots[5] == (((7, 6, 8), (1, 6, 8)), (False, False), 3)
    assert snapshots[9] == (((8, 6, 10), (1, 6, 8)), (False, False), 4)
    assert snapshots[10] == (((8, 6, 10), (1, 6, 8)), (False, False), 5)
    assert snapshots[11] == (((8, 6, 10), (8, 6, 9)), (False, False), 6)
    assert snapshots[12] == (((2, 1, 3), (8, 6, 9)), (False, False), 7)
    # The last edge closes (9,6,8) but the wedge stays in the pool.
    assert snapshots[13] == (((2, 1, 3), (8, 6, 9)), (False, True), 8)


# ---------------------------------------------------------------------------
# Subgraph and wedge primitives.
# ---------------------------------------------------------------------------


def test_pes_incidence_is_sorted_sampled_neighbors():
    stream = EdgeList(((6, 8), (1, 3), (1, 2), (0, 1)))
    seen = {}

    def hook(step, edge, incidence, pool):
        seen[step] = {node: list(neighbors) for node, neighbors in incidence.items()}

    result = pes_run(stream, 1.0, 10, SeededSource(0), on_step=hook)
    assert seen[1] == {6: [8], 8: [6]}
    assert seen[3][1] == [2, 3]
    assert seen[4][1] == [0, 2, 3]
    assert seen[4][0] == [1] and seen[4][2] == [1]
    assert result.subgraph_edges == 4


def test_pool_rejects_bad_capacity():
    with pytest.raises(ValueError):
        WedgePool(0)


def path_stream(edge_count: int) -> EdgeList:
    """(1, 2), (2, 3), ...: at p = 1 every edge after the first forms exactly
    one candidate, centered on its smaller endpoint."""
    return EdgeList(tuple((node, node + 1) for node in range(1, edge_count + 1)))


def test_pool_monotone_replacement_probability():
    qs = []

    def record(step, edge, incidence, pool):
        if step > 1:
            qs.append(pool.retention_probability())

    result = pes_run(path_stream(41), 1.0, 3, SeededSource(0), on_step=record)
    assert qs == sorted(qs, reverse=True)
    assert qs[:4] == [1.0, 1.0, 1.0, 3 / 4]
    assert result.candidate_wedges == 40
    assert result.q == 3 / 40


class _FixedDraw:
    """Draws ``value`` from every ``uniform()`` and slot 0 from ``randrange``."""

    def __init__(self, value: float):
        self.value = value

    def uniform(self) -> float:
        return self.value

    def randrange(self, n: int) -> int:
        return 0


@pytest.mark.parametrize(
    "capacity, count, draw, admitted",
    [
        # 1/49 draws exactly q: rejected, though 1/49 * 49 rounds below 1.
        (1, 49, 1 / 49, False),
        # Just below q = 3/13: admitted, though draw * 13 rounds up to 3.
        (3, 13, 0.23076923076923075, True),
    ],
)
def test_pool_compares_draw_with_probability(capacity, count, draw, admitted):
    # The last edge of the path forms candidate number ``count``, offered
    # to a full pool with the draw under test.
    keys = {}

    def record(step, edge, incidence, pool):
        keys[step] = pool.wedge_keys()

    result = pes_run(path_stream(count + 1), 1.0, capacity, _FixedDraw(draw), on_step=record)
    assert result.q == capacity / count
    assert (keys[count + 1] != keys[count]) == admitted


def test_pool_stale_index_entries_close_nothing():
    # Capacity 1, p = 0.5.  Wedge (1,6,3) replaces (1,5,3) in the one slot,
    # which stays filed under (1, 3); (2,7,4) then takes the slot and
    # unfiles it, so edge (1, 3) finds nothing to close.  (2,9,4) replaces
    # (2,7,4) under the same pair (2, 4), and edge (2, 4) closes the slot
    # once.  Every other candidate is rejected.
    stream = EdgeList((
        (1, 5), (3, 5), (1, 6), (3, 6), (2, 7), (4, 7), (1, 3), (2, 9), (4, 9), (2, 4),
    ))
    decisions = [
        True,                # (1,5) joins the subgraph
        False,               # (3,5): candidate (1,5,3) fills the pool
        True, False,         # (1,6) joins; candidate (5,1,6) rejected
        False, True,         # (3,6): candidate (1,6,3) replaces the slot
        True,                # (2,7) joins
        False, True,         # (4,7): candidate (2,7,4) replaces the slot
        False, False, False,  # (1,3) closes nothing; (3,1,5), (3,1,6) rejected
        True, False,         # (2,9) joins; candidate (7,2,9) rejected
        False, True,         # (4,9): candidate (2,9,4) replaces the slot
        False, False, False,  # (2,4) closes the slot; (4,2,7), (4,2,9) rejected
    ]
    rng = ScriptedSource(decisions, [0, 0, 0])
    states = {}

    def record(step, edge, incidence, pool):
        pool.audit()
        states[step] = (pool.wedge_keys(), list(pool.closed), pool.closed_count)

    result = pes_run(stream, 0.5, 1, rng, on_step=record)
    assert states[4] == ([(1, 6, 3)], [False], 0)
    assert states[7] == ([(2, 7, 4)], [False], 0)
    assert states[10] == ([(2, 9, 4)], [True], 1)
    assert result.triangles_observed == 1
    assert rng.exhausted


def test_pool_wedge_admitted_after_its_edge_stays_open():
    # (1,5) joins, (3,5) forms wedge (1,5,3) and (1,3) closes it; (3,6)
    # joins, and (1,6) then forms (1,6,3), whose edge has passed.
    stream = EdgeList(((1, 5), (3, 5), (1, 3), (3, 6), (1, 6)))
    rng = ScriptedSource([True, False, False, True, False])
    states = {}

    def record(step, edge, incidence, pool):
        pool.audit()
        states[step] = (dict(zip(pool.wedge_keys(), pool.closed)), pool.closed_count)

    pes_run(stream, 0.5, 10, rng, on_step=record)
    assert states[3] == ({(1, 5, 3): True, (3, 1, 5): False}, 1)
    # Edge (1, 3) has passed; a later wedge on that pair can never close.
    assert states[5][0][(1, 6, 3)] is False and states[5][1] == 1
    assert rng.exhausted


# Each corruption breaks one bookkeeping invariant through slot ``slot``;
# those marked as needing an open slot change nothing a closed one holds.
def _add_center(pool, slot):
    pool.centers.append(pool.centers[slot])


def _add_open_slot(pool, slot):
    pool.pairs.append(pool.pairs[slot])
    pool.centers.append(pool.centers[slot])
    pool.closed.append(False)


def _reverse_pair(pool, slot):
    pool.pairs[slot] = pool.pairs[slot][::-1]


def _unfile(pool, slot):
    del pool._by_pair[pool.pairs[slot]]


def _close_chained_slot(pool, slot):
    pool.closed[slot] = True


def _chain_cycle(pool, slot):
    pool._chain[slot] = slot


def _drop_link(pool, slot):
    del pool._chain[slot]


def _file_extra_pair(pool, slot):
    pool._by_pair[(-2, -1)] = slot


CORRUPTIONS = {  # id: (corruption, needs an open slot, audit's message at slot 0 of the path)
    "slot_lists_out_of_step": (_add_center, False, "slot lists out of step"),
    "occupancy_drift": (_add_open_slot, False, "occupancy drift"),
    "non_canonical_pair": (_reverse_pair, False, "non-canonical"),
    "unfiled_open_slot": (_unfile, True, r"\(1, 3\): index chains None, open slots are \[0\]"),
    "closed_slot_on_chain": (
        _close_chained_slot, True, r"\(1, 3\): index chains \[0\], open slots are None"
    ),
    "chain_cycle": (
        _chain_cycle, True, r"\(1, 3\): index chains \[0, 0\], open slots are \[0\]"
    ),
    "chain_links_out_of_step": (_drop_link, False, "chain links out of step"),
    "index_over_pool": (
        _file_extra_pair, False, r"\(-2, -1\): index chains \[0\], open slots are None"
    ),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_pool_audit_catches_corruption(case):
    corrupt, _, message = CORRUPTIONS[case]
    caught = []

    def corrupt_and_audit(step, edge, incidence, pool):
        if step == 2:
            caught.append(pool.wedge_keys())
            pool.audit()
            corrupt(pool, 0)
            with pytest.raises(RuntimeError, match=message):
                pool.audit()

    pes_run(path_stream(2), 1.0, 4, SeededSource(0), on_step=corrupt_and_audit)
    assert caught == [[(1, 2, 3)]]


def test_pool_chains_many_open_slots_under_one_pair():
    # K(2, n) with p = 1: every node b on the big side centers a wedge on
    # the outer pair (1, 2), so that pair's chain grows long and, in the
    # smaller pool, loses slots from its middle to replacements.  The edge
    # (1, 2), streamed last, closes every slot still on it; the larger pool
    # also keeps the candidates that edge forms, so it evicts none of them.
    n = 12
    for seed in range(6):
        stream = EdgeList(
            shuffle_stream(
                EdgeList(tuple(make_edge(a, b) for a in (1, 2) for b in range(3, n + 3))), seed
            ).edges
            + ((1, 2),)
        )
        for capacity in (n * n // 2, n * n + 2 * n):
            held = []  # slots holding pair (1, 2) before its edge arrives

            def record(step, edge, incidence, pool):
                pool.audit()
                if step == 2 * n:
                    held.append(pool.pairs.count((1, 2)))

            result = pes_run(stream, 1.0, capacity, SeededSource(seed), on_step=record)
            if capacity > n * n:
                assert held == [n] and result.triangles_observed == n
            assert 2 <= held[0] and result.triangles_observed <= held[0]


def test_pool_retention_clamped_while_filling():
    qs = []

    def record(step, edge, incidence, pool):
        qs.append(pool.retention_probability())

    result = pes_run(path_stream(5), 1.0, 10, SeededSource(0), on_step=record)
    assert result.candidate_wedges == 4
    assert qs[-1] == result.q == 1.0


def test_eviction_of_closed_wedge_decrements_count():
    # Triangle stream with p=1, capacity 1: the closing edge also forms two
    # new candidates, the first of which evicts the just-closed wedge.
    stream = EdgeList((make_edge(1, 2), make_edge(2, 3), make_edge(1, 3)))
    rng = ScriptedSource([True, True, True, True, False], [0])
    states = []

    def record(step, edge, incidence, pool):
        pool.audit()
        states.append((pool.closed_count, tuple(pool.wedge_keys())))

    result = pes_run(stream, 1.0, 1, rng, on_step=record)
    assert states[1] == (0, ((1, 2, 3),))
    assert states[2] == (0, ((2, 1, 3),))
    assert result.triangles_observed == 0
    assert result.estimate == 0.0
    assert result.candidate_wedges == 3
    assert result.estimated_rse is None
    assert rng.exhausted


# ---------------------------------------------------------------------------
# Estimator contracts.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad_p", [0.0, -0.1, 1.5])
def test_invalid_probability_rejected(bad_p, toy_edges):
    with pytest.raises(ValueError, match="p"):
        nes_run(toy_edges, bad_p, SeededSource(0))
    with pytest.raises(ValueError, match="p"):
        pes_run(toy_edges, bad_p, 4, SeededSource(0))


def test_invalid_pool_rejected(toy_edges):
    with pytest.raises(ValueError, match="pool must be >= 1"):
        pes_run(toy_edges, 0.5, 0, SeededSource(0))


def test_full_sampling_recovers_exact_count(toy_edges, toy_stats):
    for seed in range(5):
        stream = shuffle_stream(toy_edges, seed)
        nes = nes_run(stream, 1.0, SeededSource(seed))
        assert nes.estimate == toy_stats.triangles
        assert nes.triangles_observed == toy_stats.triangles
        pes = pes_run(stream, 1.0, toy_stats.wedges, SeededSource(seed))
        assert pes.estimate == toy_stats.triangles
        assert pes.q == 1.0
        assert pes.candidate_wedges == toy_stats.wedges


def test_triangle_free_graph_estimates_zero():
    star = EdgeList(tuple(make_edge(0, leaf) for leaf in range(1, 8)))
    nes = nes_run(star, 0.7, SeededSource(3))
    assert nes.estimate == 0.0
    assert nes.estimated_rse is None
    pes = pes_run(star, 0.7, 5, SeededSource(3))
    assert pes.estimate == 0.0
    assert pes.triangles_observed == 0
    assert pes.estimated_rse is None


def test_sample_size_accounting():
    graph = erdos_renyi(30, 0.3, seed=1)
    stream = shuffle_stream(graph, 5)
    nes = nes_run(stream, 0.5, SeededSource(5))
    assert nes.sample_size == nes.subgraph_edges
    assert nes.q is None and nes.pool_size is None and nes.candidate_wedges is None
    pes = pes_run(stream, 0.5, 20, SeededSource(5))
    assert pes.sample_size == pes.subgraph_edges + pes.pool_size
    assert pes.pool_size == min(20, pes.candidate_wedges)


def test_runs_are_deterministic_bit_for_bit():
    graph = erdos_renyi(40, 0.25, seed=9)
    stream = shuffle_stream(graph, 11)
    first = pes_run(stream, 0.4, 30, SeededSource(77))
    second = pes_run(stream, 0.4, 30, SeededSource(77))
    assert first == second
    assert nes_run(stream, 0.4, SeededSource(77)) == nes_run(stream, 0.4, SeededSource(77))


# SHA-256 of the results and pool snapshots below.  Any change to the draws,
# the candidate order or the slot bookkeeping changes it, so it moves only
# with a deliberate change of the sampling protocol.
PINNED_PES_DIGEST = "fe8901f324d7be27fc3f6fff9d1e349d3236fc591b6db4de0f0faef846da2b9a"


def test_pes_run_snapshots_match_pinned_digest():
    # Each stream is shuffled by mix_seed(seed); every 97th edge records the
    # wedge keys, closed flags, both counters and the sorted subgraph.
    digest = hashlib.sha256()
    graphs = (
        erdos_renyi(200, 0.08, seed=1),
        barabasi_albert(400, 5, seed=2),
        erdos_renyi(60, 0.3, seed=3),
    )
    for graph in graphs:
        for p in (0.3, 1.0):
            for capacity in (1, 50, 1000, 10**6):
                for seed in (0, 1):
                    snapshots = []

                    def snapshot(step, edge, incidence, pool):
                        if step % 97 == 0:
                            snapshots.append((
                                step,
                                tuple(pool.wedge_keys()),
                                tuple(pool.closed),
                                pool.candidate_count,
                                pool.closed_count,
                                tuple(sorted((node, tuple(ns)) for node, ns in incidence.items())),
                            ))

                    stream = shuffle_stream(graph, mix_seed(seed))
                    result = pes_run(stream, p, capacity, SeededSource(seed), on_step=snapshot)
                    digest.update(repr((astuple(result), snapshots)).encode())
    assert digest.hexdigest() == PINNED_PES_DIGEST


@given(
    st.integers(min_value=3, max_value=14),
    st.floats(min_value=0.1, max_value=0.8),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_full_sampling_candidate_count_equals_wedges(nodes, density, seed):
    edges = erdos_renyi(nodes, density, seed)
    stream = shuffle_stream(edges, seed + 1)
    result = pes_run(stream, 1.0, 10_000, SeededSource(seed))
    assert result.candidate_wedges == reference.brute_wedge_count(edges)


# Random normalized streams over ten nodes, so that wedges, closures and
# evictions are frequent.  Labels 11 apart make a set of neighbors iterate
# out of ascending order, which the candidate order must not follow.
nodes = st.sampled_from(range(0, 110, 11))
streams = st.lists(st.tuples(nodes, nodes), min_size=5, max_size=60).map(
    lambda pairs: EdgeList(reference.reference_normalize_edges(pairs))
)


@given(
    streams,
    st.sampled_from([0.2, 0.3, 0.5, 0.75, 1.0]),
    st.integers(min_value=1, max_value=16),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200, deadline=None)
def test_pes_run_equals_per_candidate_reference(stream, p, capacity, seed):
    result = pes_run(stream, p, capacity, SeededSource(seed), on_step=audit_pool)
    assert result == reference.reference_pes_run(stream, p, capacity, SeededSource(seed))


class _CountingSource:
    """Forwards to another source and counts the draws of each kind."""

    def __init__(self, inner):
        self.inner = inner
        self.uniforms = 0
        self.picks = 0

    def uniform(self) -> float:
        self.uniforms += 1
        return self.inner.uniform()

    def randrange(self, n: int) -> int:
        self.picks += 1
        return self.inner.randrange(n)


@given(
    streams,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_scripted_source_consumes_one_decision_per_edge_and_late_candidate(
    stream, capacity, seed
):
    # Every stream edge asks one subgraph question and every candidate
    # offered to a full pool one more; a candidate count never exceeds the
    # graph's wedge count, which bounds the script length needed.
    script = SeededSource(seed)
    length = stream.edge_count + reference.brute_wedge_count(stream)
    decisions = [script.uniform() < 0.5 for _ in range(length)]
    picks = [script.randrange(capacity) for _ in range(length)]
    counted = _CountingSource(ScriptedSource(decisions, picks))
    result = pes_run(stream, 0.5, capacity, counted, on_step=audit_pool)
    late_candidates = max(0, result.candidate_wedges - capacity)
    assert counted.uniforms == stream.edge_count + late_candidates
    # Replaying exactly the consumed prefix repeats the run and uses it up.
    replay = ScriptedSource(decisions[: counted.uniforms], picks[: counted.picks])
    assert pes_run(stream, 0.5, capacity, replay) == result
    assert replay.exhausted


def test_pool_bookkeeping_audit_over_random_runs():
    for seed in range(8):
        graph = erdos_renyi(25, 0.4, seed=seed)
        stream = shuffle_stream(graph, seed)
        pes_run(stream, 0.6, 15, SeededSource(seed), on_step=audit_pool)


@given(
    st.sampled_from(sorted(CORRUPTIONS)),
    st.integers(min_value=4, max_value=16),
    st.floats(min_value=0.2, max_value=0.8),
    st.sampled_from([0.3, 0.5, 1.0]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_pool_audit_catches_corruption_anywhere(case, nodes, density, p, capacity, seed, at,
                                                pick):
    # The audit passes after every step of an ER run; a copy of the pool,
    # corrupted at the first step from ``at`` on that has a slot to corrupt,
    # fails it.
    corrupt, needs_open, _ = CORRUPTIONS[case]
    stream = shuffle_stream(erdos_renyi(nodes, density, seed), seed)
    first_step = 1 + int(at * (stream.edge_count - 1))
    corrupted = []

    def audit_and_corrupt(step, edge, incidence, pool):
        pool.audit()
        slots = [i for i in range(len(pool)) if not (needs_open and pool.closed[i])]
        if step >= first_step and slots and not corrupted:
            copy = deepcopy(pool)
            corrupt(copy, slots[pick % len(slots)])
            with pytest.raises(RuntimeError):
                copy.audit()
            corrupted.append(step)

    pes_run(stream, p, capacity, SeededSource(seed), on_step=audit_and_corrupt)
    assume(corrupted)


def test_reservoir_retention_uniformity_light():
    # Fixed stream, p=1: candidate arrivals are deterministic, only the
    # pool decisions vary.  Each of the 20 wedges should finish in the
    # 5-slot pool about a quarter of the time.
    stream = cycle_graph(20)
    runs = 3000
    counts: dict[tuple, int] = {}
    final: list[tuple] = []

    def grab(step, edge, subgraph, pool):
        if step == stream.edge_count:
            final.extend(pool.wedge_keys())

    for i in range(runs):
        final.clear()
        pes_run(stream, 1.0, 5, SeededSource(40_000 + i), on_step=grab)
        for key in final:
            counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 20
    for key, count in counts.items():
        assert abs(count / runs - 0.25) <= 0.035, (key, count / runs)


def test_unbiasedness_light():
    graph = erdos_renyi(30, 0.4, seed=21)
    truth = compute_stats(build_adjacency(graph))
    runs = 400

    nes_estimates = []
    pes_estimates = []
    for i in range(runs):
        stream = shuffle_stream(graph, mix_seed(9_000 + i))
        nes_estimates.append(nes_run(stream, 0.5, SeededSource(9_000 + i)).estimate)
        pes_estimates.append(pes_run(stream, 0.5, 60, SeededSource(9_000 + i)).estimate)

    for estimates in (nes_estimates, pes_estimates):
        error = abs(fmean(estimates) - truth.triangles)
        limit = 3 * stdev(estimates) / runs**0.5
        assert error <= limit, (error, limit)
