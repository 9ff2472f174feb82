from __future__ import annotations

import csv
import io
import math
import os
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tristream import (
    EdgeList,
    ExperimentConfig,
    GraphStats,
    InfeasibleError,
    SeededSource,
    erdos_renyi,
    make_edge,
    mix_seed,
    nes_run,
    ratio_experiment,
    run_experiment,
    rse_sweep,
    shuffle_stream,
    write_summary_csv,
)
from tristream import harness
from tristream.analysis import _required_triangles
from tristream.harness import (
    SHUFFLE_MODES,
    SWEEP_CSV_COLUMNS,
    ratio_csv_row,
    summary_csv_row,
    sweep_csv_rows,
    write_csv,
)


@pytest.fixture(scope="module")
def small_graph() -> EdgeList:
    return erdos_renyi(30, 0.4, seed=21)


def read_summary_csv(path) -> list[dict[str, object]]:
    """Parse a summary CSV back into typed values (exact float round-trip)."""
    int_columns = {
        "pool", "runs", "base_seed",
        "oracle_nodes", "oracle_edges", "oracle_triangles",
        "oracle_wedges", "oracle_shared_pairs",
    }
    text_columns = {"method", "shuffle"}
    rows: list[dict[str, object]] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for raw in csv.DictReader(handle):
            row: dict[str, object] = {}
            for key, value in raw.items():
                if value == "":
                    row[key] = None
                elif key in text_columns:
                    row[key] = value
                elif key in int_columns:
                    row[key] = int(value)
                else:
                    row[key] = float(value)
            rows.append(row)
    return rows


def config(**overrides) -> ExperimentConfig:
    base = dict(method="nes", p=0.5, runs=50, base_seed=100, shuffle="per-run", jobs=1)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        config(method="bogus")
    with pytest.raises(ValueError):
        config(shuffle="sometimes")
    with pytest.raises(ValueError):
        config(method="pes")  # no pool
    with pytest.raises(ValueError):
        config(runs=0)
    with pytest.raises(ValueError):
        config(jobs=0)


def test_seed_schedule_is_index_based(small_graph):
    summary = run_experiment(small_graph, config())
    # Run i is reproducible standalone from base_seed + i.
    index = 7
    run_seed = 100 + index
    stream = shuffle_stream(small_graph, mix_seed(run_seed))
    standalone = nes_run(stream, 0.5, SeededSource(run_seed))
    assert summary.results[index] == standalone


def test_summary_fields(small_graph):
    summary = run_experiment(small_graph, config())
    assert len(summary.results) == 50
    assert summary.mean_estimate == pytest.approx(
        fmean(r.estimate for r in summary.results)
    )
    assert summary.predicted_rse == pytest.approx(
        summary.mean_triangles_observed**-0.5
    )
    assert summary.stats.triangles > 0


def test_single_run_is_infeasible(small_graph, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran before the run count was checked")

    monkeypatch.setattr(harness, "compute_stats", refuse)
    with pytest.raises(InfeasibleError, match="insufficient runs"):
        run_experiment(small_graph, config(runs=1))


@pytest.mark.parametrize("study", ["compare", "sweep"])
def test_too_few_runs_refused_before_the_oracle(small_graph, monkeypatch, study):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran before the run count was checked")

    monkeypatch.setattr(harness, "compute_stats", refuse)
    with pytest.raises(InfeasibleError, match="insufficient runs: .* got k = 1"):
        if study == "compare":
            ratio_experiment(small_graph, 0.3, 1, 0)
        else:
            rse_sweep(small_graph, [0.3], "pes", 1, 0)


def test_triangle_free_graph_is_infeasible():
    star = EdgeList(tuple(make_edge(0, leaf) for leaf in range(1, 9)))
    with pytest.raises(InfeasibleError, match="no triangles"):
        run_experiment(star, config())


@st.composite
def hand_built_stats(draw) -> GraphStats:
    """Counts far beyond any graph the oracle could count, up to 10**400
    triangles, so that the calibrations' floats underflow and overflow and
    some counts do not convert to float at all."""
    triangles = draw(st.integers(1, 10**400))
    wedges = triangles + draw(st.integers(0, 10**400))
    return GraphStats(node_count=10, edge_count=draw(st.integers(1, 10**400)),
                      triangles=triangles, wedges=wedges, shared_pairs=0,
                      clustering=min(1.0, 3 * triangles / wedges))


def accepted_target(target: float) -> bool:
    try:
        _required_triangles(target)
    except ValueError:
        return False
    return True


@given(
    st.sampled_from(harness.METHODS),
    hand_built_stats(),
    st.floats(min_value=5e-324, allow_infinity=False).filter(accepted_target),
)
# The priority p, 1e-300 / 1e300, underflows to 0.0.
@example("pes", GraphStats(node_count=10, edge_count=10**6, triangles=10**300,
                           wedges=10**6, shared_pairs=0, clustering=0.3), 1e150)
# edge_count / wedges underflows to 0.0, and the priority p divides by it.
@example("pes", GraphStats(node_count=10, edge_count=1, triangles=1,
                           wedges=10**400, shared_pairs=0, clustering=0.0), 0.3)
# A triangle count past float range does not convert to float.
@example("nes", GraphStats(node_count=10, edge_count=10, triangles=10**400,
                           wedges=10**400, shared_pairs=0, clustering=1.0), 0.3)
@settings(max_examples=300, deadline=None)
def test_calibrated_config_returns_a_config_or_refuses(method, stats, target):
    try:
        calibrated = harness.calibrated_config(method, stats, target, runs=2)
    except InfeasibleError:
        return
    assert isinstance(calibrated, ExperimentConfig)
    assert calibrated.method == method


def test_config_rejects_what_a_run_would():
    # The estimators' own p rule, so no run of a valid config can fail.
    for p in (2.0, 0.0, math.nan, 5e-324):
        with pytest.raises(ValueError, match="sampling probability"):
            config(p=p)
    with pytest.raises(ValueError, match="pool must be >= 1"):
        config(method="pes", pool=0)
    # A naive run has no pool, so a summary must not report one.
    with pytest.raises(ValueError, match="nes takes no pool size"):
        config(method="nes", pool=5)
    # random.Random seeds with |seed|: base seed -3 would rerun seeds 3, 2, 1.
    with pytest.raises(ValueError, match="base seed must be >= 0"):
        config(base_seed=-1)


def test_parallel_equals_serial(small_graph):
    for method, pool in (("nes", None), ("pes", 30)):
        for shuffle in SHUFFLE_MODES:
            serial = run_experiment(small_graph, config(method=method, pool=pool, shuffle=shuffle))
            parallel = run_experiment(
                small_graph, config(method=method, pool=pool, shuffle=shuffle, jobs=2)
            )
            assert serial.results == parallel.results, (method, shuffle)
            assert serial.observed_rse == parallel.observed_rse, (method, shuffle)


def test_jobs_capped_at_runs_and_cores(small_graph, monkeypatch):
    pools: list[int] = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor without starting a process:
        records the worker count, runs the initializer here, maps serially."""

        def __init__(self, max_workers, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(harness, "_worker_task", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    serial = run_experiment(small_graph, config(runs=3))
    assert run_experiment(small_graph, config(runs=3, jobs=64)).results == serial.results
    assert pools == [3]
    run_experiment(small_graph, config(runs=50, jobs=64))
    assert pools == [3, 8]
    # An unknown core count runs serially.
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_experiment(small_graph, config(runs=50, jobs=64))
    assert pools == [3, 8]


def test_fixed_shuffle_reuses_one_order(small_graph):
    summary = run_experiment(small_graph, config(shuffle="fixed", runs=5))
    expected_stream = shuffle_stream(small_graph, mix_seed(100))
    standalone = nes_run(expected_stream, 0.5, SeededSource(100 + 2))
    assert summary.results[2] == standalone


def test_fixed_mode_repeats_identically_and_csv_bytes_match(small_graph, tmp_path):
    paths = []
    for attempt in range(2):
        summary = run_experiment(small_graph, config(shuffle="fixed"))
        path = tmp_path / f"summary{attempt}.csv"
        write_summary_csv(summary, path)
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_summary_csv_round_trip(small_graph, tmp_path):
    summary = run_experiment(small_graph, config(method="pes", pool=25))
    path = tmp_path / "summary.csv"
    write_summary_csv(summary, path)
    assert read_summary_csv(path) == [summary_csv_row(summary)]


def test_observed_rse_lands_near_target_for_calibrated_pes():
    graph = erdos_renyi(100, 0.2, seed=17)
    from tristream import build_adjacency, calibrate_pes, compute_stats

    stats = compute_stats(build_adjacency(graph))
    cal = calibrate_pes(stats, 0.2)
    summary = run_experiment(
        graph,
        ExperimentConfig(method="pes", p=cal.p, pool=cal.pool, runs=1000, base_seed=55),
    )
    assert 0.15 <= summary.observed_rse <= 0.25


def test_mean_converges_as_runs_double(small_graph):
    first = run_experiment(small_graph, config(runs=200))
    second = run_experiment(small_graph, config(runs=400))
    se = first.observed_rse * first.stats.triangles / 200**0.5
    assert abs(second.mean_estimate - first.mean_estimate) <= 4 * se


# ---------------------------------------------------------------------------
# Ratio experiment.
# ---------------------------------------------------------------------------


def test_ratio_experiment_refuses_triangle_free():
    star = EdgeList(tuple(make_edge(0, leaf) for leaf in range(1, 9)))
    with pytest.raises(InfeasibleError, match="triangle count = 0"):
        ratio_experiment(star, 0.2, 50, 1)


def test_ratio_experiment_marks_saturated(toy_edges):
    report = ratio_experiment(toy_edges, 0.2, 50, 1)
    assert report.saturated  # tiny graph clamps the naive calibration at p=1
    assert report.nes_summary.config.p == 1.0


def test_ratio_experiment_at_unit_prediction_boundary():
    # K5 with the target chosen so the naive probability equals M/wedges:
    # the predicted ratio is then exactly 1, and with both methods running
    # the same edge probability the observed ratio sits next to it.
    k5 = erdos_renyi(5, 1.0, seed=0)
    target = 3 / 10**0.5  # 1/(target*sqrt(10)) == 10/30 == M/wedges
    report = ratio_experiment(k5, target, 300, 11)
    assert report.predicted_ratio == pytest.approx(1.0, rel=1e-12)
    assert abs(report.observed_probability_ratio - 1.0) <= 0.30


def test_ratio_experiment_tracks_prediction():
    graph = erdos_renyi(120, 0.15, seed=3)
    report = ratio_experiment(graph, 0.25, 150, 42, input_name="er120")
    assert not report.saturated
    relative_gap = (
        abs(report.observed_probability_ratio - report.predicted_ratio)
        / report.predicted_ratio
    )
    assert relative_gap <= 0.30
    assert report.observed_size_ratio > 0
    assert report.input_name == "er120"


def test_ratio_csv_written():
    graph = erdos_renyi(60, 0.25, seed=8)
    report = ratio_experiment(graph, 0.3, 60, 5, input_name="er60")
    out = io.StringIO()
    row = ratio_csv_row(report)
    write_csv(out, row.keys(), [row])
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("input,nodes,edges")


# ---------------------------------------------------------------------------
# Sweep.
# ---------------------------------------------------------------------------


def test_sweep_empty_targets(small_graph, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran for a sweep with no targets")

    monkeypatch.setattr(harness, "compute_stats", refuse)
    assert rse_sweep(small_graph, [], "nes", 50, 9) == ()
    # With no target to run, one run is not refused.
    assert rse_sweep(small_graph, [], "pes", 1, 9) == ()


def test_sweep_refuses_an_unusable_target_before_any_run(small_graph, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an experiment ran before every target was calibrated")

    monkeypatch.setattr(harness, "run_experiment", refuse)
    with pytest.raises(InfeasibleError, match=r"target RSE 1e\+150"):
        rse_sweep(small_graph, [0.3, 1e150], "pes", 50, 0)


def test_sweep_single_target_minimum_runs(small_graph):
    rows = rse_sweep(small_graph, [0.3], "nes", 2, 9)
    assert len(rows) == 1
    assert rows[0].target_rse == 0.3


def test_sweep_rows_and_csv(small_graph):
    sweep = rse_sweep(small_graph, [0.2, 0.4], "pes", 80, 31)
    assert [row.target_rse for row in sweep] == [0.2, 0.4]
    rows = sweep_csv_rows(sweep)
    assert tuple(rows[0]) == SWEEP_CSV_COLUMNS
    out = io.StringIO()
    write_csv(out, SWEEP_CSV_COLUMNS, rows)
    lines = out.getvalue().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 3


def test_write_csv_rejects_row_without_column():
    out = io.StringIO()
    write_csv(out, ("a", "b"), [{"b": 2, "a": 1}])
    assert out.getvalue() == "a,b\n1,2\n"
    with pytest.raises(KeyError, match="'b'"):
        write_csv(io.StringIO(), ("a", "b"), [{"a": 1}])


def test_sweep_rejects_unknown_method(small_graph):
    with pytest.raises(ValueError, match="method"):
        rse_sweep(small_graph, [0.2], "gps", 10, 0)


def test_sweep_triangle_free_graph():
    star = EdgeList(tuple(make_edge(0, leaf) for leaf in range(1, 9)))
    # Empty targets succeed on any graph; non-empty targets need triangles.
    assert rse_sweep(star, [], "nes", 10, 0) == ()
    with pytest.raises(InfeasibleError, match="triangle count = 0"):
        rse_sweep(star, [0.2], "nes", 10, 0)
