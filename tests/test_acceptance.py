"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, in the assertion.
"""

from __future__ import annotations

import time
from statistics import fmean, pvariance, stdev

from tristream import (
    PesParams,
    ScriptedSource,
    SeededSource,
    barabasi_albert,
    build_adjacency,
    calibrate_pes_pool,
    compute_stats,
    cycle_graph,
    erdos_renyi,
    mix_seed,
    nes_run,
    pes_run,
    pes_variance,
    ratio_experiment,
    rse_sweep,
    shuffle_stream,
)

from conftest import TOY_REPLAY_DECISIONS, TOY_REPLAY_SLOT_PICKS

import reference


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] C{number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_c01_scripted_replay_exact(toy_replay_stream):
    # Warm-up run compiles everything touched by the hot path.
    pes_run(toy_replay_stream, 0.2, 2,
            ScriptedSource(TOY_REPLAY_DECISIONS, TOY_REPLAY_SLOT_PICKS))
    rng = ScriptedSource(TOY_REPLAY_DECISIONS, TOY_REPLAY_SLOT_PICKS)
    start = time.perf_counter()
    result = pes_run(toy_replay_stream, 0.2, 2, rng)
    elapsed = time.perf_counter() - start
    exact = (
        result.candidate_wedges == 8
        and result.q == 0.25
        and result.triangles_observed == 1
        and result.estimate == 20.0
        and rng.exhausted
    )
    report(1, "scripted-replay", exact and elapsed < 1e-3,
           f"estimate={result.estimate}, {elapsed * 1e6:.0f} us")


def test_c02_oracle_equivalence_200_graphs():
    start = time.perf_counter()
    checked = 0
    for index in range(200):
        nodes = 2 + (index * 7) % 29          # 2..30
        density = 0.05 + (index % 13) * 0.05  # 0.05..0.65
        edges = erdos_renyi(nodes, density, seed=10_000 + index)
        graph = build_adjacency(edges)
        stats = compute_stats(graph)
        assert stats.triangles == reference.brute_triangle_count(edges), index
        assert stats.wedges == reference.brute_wedge_count(edges), index
        assert stats.shared_pairs == reference.brute_shared_pair_count(edges), index
        checked += 1
    elapsed = time.perf_counter() - start
    report(2, "oracle-equivalence", checked == 200 and elapsed < 10.0,
           f"200 graphs, {elapsed:.1f} s")


def test_c03_full_sampling_exactness():
    start = time.perf_counter()
    for index in range(50):
        nodes = 5 + (index * 11) % 96         # 5..100
        density = 0.03 + (index % 7) * 0.025
        edges = erdos_renyi(nodes, density, seed=20_000 + index)
        truth = compute_stats(build_adjacency(edges))
        stream = shuffle_stream(edges, mix_seed(index))
        nes = nes_run(stream, 1.0, SeededSource(index))
        assert nes.estimate == truth.triangles, index
        pes = pes_run(stream, 1.0, max(1, truth.wedges), SeededSource(index))
        assert pes.estimate == truth.triangles, index
    elapsed = time.perf_counter() - start
    report(3, "full-sampling-exactness", elapsed < 5.0, f"50 graphs, {elapsed:.1f} s")


def _unbiasedness_check(edges, method: str, base_seed: int) -> tuple[bool, str, float]:
    truth = compute_stats(build_adjacency(edges))
    runs = 1000
    start = time.perf_counter()
    estimates = []
    for i in range(runs):
        stream = shuffle_stream(edges, mix_seed(base_seed + i))
        rng = SeededSource(base_seed + i)
        if method == "nes":
            estimates.append(nes_run(stream, 0.5, rng).estimate)
        else:
            estimates.append(pes_run(stream, 0.5, 100, rng).estimate)
    elapsed = time.perf_counter() - start
    error = abs(fmean(estimates) - truth.triangles)
    limit = 3 * stdev(estimates) / runs**0.5
    return error <= limit, f"|mu-D|={error:.2f} vs 3SE={limit:.2f}", elapsed


def test_c04_unbiasedness_two_graphs():
    er = erdos_renyi(50, 0.3, seed=11)
    ba = barabasi_albert(200, 5, seed=3)
    ok = True
    details = []
    for name, edges, base in (("er", er, 50_000), ("ba", ba, 60_000)):
        for method in ("nes", "pes"):
            passed, detail, elapsed = _unbiasedness_check(edges, method, base)
            ok = ok and passed and elapsed < 60.0
            details.append(f"{name}/{method} {detail} {elapsed:.0f}s")
    report(4, "unbiasedness", ok, "; ".join(details))


def _sweep_check(edges, method: str, base_seed: int) -> tuple[bool, str, float]:
    start = time.perf_counter()
    rep = rse_sweep(edges, [0.1, 0.2, 0.3, 0.4], method, 1000, base_seed)
    elapsed = time.perf_counter() - start
    qualifying = [row for row in rep if row.mean_triangles_observed >= 25]
    gaps = [
        abs(row.observed_rse - row.predicted_rse) / row.predicted_rse
        for row in qualifying
    ]
    ok = bool(qualifying) and all(gap <= 0.25 for gap in gaps)
    detail = ", ".join(
        f"t={row.target_rse}: obs={row.observed_rse:.3f} pred={row.predicted_rse:.3f}"
        for row in qualifying
    )
    return ok, detail, elapsed


def test_c05_pes_rse_theory_desk_scale():
    edges = erdos_renyi(50, 0.6, seed=42)
    ok, detail, elapsed = _sweep_check(edges, "pes", 70_000)
    report(5, "pes-rse-theory", ok and elapsed < 300.0, f"{detail}; {elapsed:.0f} s")


def test_c06_nes_rse_theory_desk_scale():
    edges = erdos_renyi(300, 0.06, seed=13)
    ok, detail, elapsed = _sweep_check(edges, "nes", 80_000)
    report(6, "nes-rse-theory", ok and elapsed < 300.0, f"{detail}; {elapsed:.0f} s")


def test_c07_probability_ratio_two_graphs():
    start = time.perf_counter()
    ok = True
    details = []
    for name, edges, seed in (
        ("er", erdos_renyi(200, 0.1, seed=5), 90_000),
        ("ba", barabasi_albert(300, 6, seed=9), 91_000),
    ):
        rep = ratio_experiment(edges, 0.2, 300, seed, input_name=name)
        gap = abs(rep.observed_probability_ratio - rep.predicted_ratio) / rep.predicted_ratio
        ok = ok and not rep.saturated and gap <= 0.30
        details.append(
            f"{name}: obs={rep.observed_probability_ratio:.3f} "
            f"pred={rep.predicted_ratio:.3f} gap={gap:.1%}"
        )
    elapsed = time.perf_counter() - start
    report(7, "nes-pes-ratio", ok and elapsed < 300.0,
           "; ".join(details) + f"; {elapsed:.0f} s")


def test_c08_reservoir_retention():
    # Cycle of 20 nodes: exactly 20 wedges, all candidates under p=1, so a
    # 5-slot pool must retain each with frequency 5/20 = 0.25.
    stream = cycle_graph(20)
    runs = 10_000
    start = time.perf_counter()
    counts: dict[tuple, int] = {}
    final: list[tuple] = []

    def grab(step, edge, subgraph, pool):
        if step == 20:
            final.extend(pool.wedge_keys())

    for i in range(runs):
        final.clear()
        result = pes_run(stream, 1.0, 5, SeededSource(100_000 + i), on_step=grab)
        assert result.candidate_wedges == 20
        for key in final:
            counts[key] = counts.get(key, 0) + 1
    elapsed = time.perf_counter() - start
    frequencies = [counts.get(key, 0) / runs for key in counts]
    ok = (
        len(counts) == 20
        and all(abs(freq - 0.25) <= 0.02 for freq in frequencies)
        and elapsed < 30.0
    )
    report(8, "reservoir-retention", ok,
           f"freq in [{min(frequencies):.3f}, {max(frequencies):.3f}], {elapsed:.0f} s")


def test_c09_pool_rule_worked_number():
    size = calibrate_pes_pool(0.2, 0.05)
    report(9, "pool-size-rule", size == 500, f"calibrate_pes_pool(0.2, 0.05) = {size}")


def test_c10_variance_consistency():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for index in range(20):
        nodes = 20 + (index % 5) * 2
        edges = erdos_renyi(nodes, 0.5, seed=900 + index)
        truth = compute_stats(build_adjacency(edges))
        p = 0.5
        pool = max(1, int(0.15 * p * truth.wedges))
        params = PesParams(p=p, pool=pool)
        predicted = pes_variance(truth, params)
        if p * predicted.q > 0.1:
            continue  # tolerance applies only in the small-pq regime
        assert predicted.total >= 0.0
        estimates = []
        for j in range(2000):
            seed = 200_000 + index * 10_000 + j
            stream = shuffle_stream(edges, mix_seed(seed))
            estimates.append(pes_run(stream, p, pool, SeededSource(seed)).estimate)
        empirical = pvariance(estimates)
        gap = abs(empirical - predicted.total) / predicted.total
        worst = max(worst, gap)
        ok = ok and gap <= 0.30
    elapsed = time.perf_counter() - start
    report(10, "variance-consistency", ok and elapsed < 600.0,
           f"worst gap {worst:.1%} over 20 graphs, {elapsed:.0f} s")
