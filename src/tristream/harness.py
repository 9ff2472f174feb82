"""Repeated-run experiment drivers with CSV reporting.

The protocol: k independent runs with an index-based seed schedule
(run i uses base_seed + i), observed RSE over the k estimates, and the
predicted RSE evaluated at the mean identified-triangle count.  Runs are
independent tasks sharing only the immutable parsed edge list, so they can
execute in parallel without changing any reported number.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from statistics import fmean
from typing import IO, Any, Collection, Iterable, Mapping, Sequence

from .analysis import (
    VarianceBreakdown,
    _required_triangles,
    calibrate_nes,
    calibrate_pes,
    nes_pes_ratio,
    observed_rse,
    pes_rse_simple,
)
from .edgelist import EdgeList, shuffle_stream
from .estimators import EstimateResult, _check_probability, nes_run, pes_run
from .oracle import GraphStats, build_adjacency, compute_stats
from .randomness import SeededSource, mix_seed

__all__ = ["ExperimentConfig", "InfeasibleError", "RatioReport", "RunSummary", "SweepRow",
           "ratio_experiment", "run_experiment", "rse_sweep", "single_run", "write_summary_csv"]

METHODS = ("nes", "pes")
SHUFFLE_MODES = ("per-run", "fixed")


class InfeasibleError(RuntimeError):
    """The experiment cannot run as configured (no triangles, too few runs
    or an unusable calibration)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One seeded experiment, checked in full here so that no run of it can
    fail on its parameters."""

    method: str
    p: float
    pool: int | None = None
    runs: int = 1000
    base_seed: int = 0
    shuffle: str = "per-run"
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.shuffle not in SHUFFLE_MODES:
            raise ValueError(f"shuffle must be one of {SHUFFLE_MODES}, got {self.shuffle!r}")
        _check_probability(self.p)
        if self.method == "pes" and self.pool is None:
            raise ValueError("pes needs a pool size")
        if self.method == "pes" and self.pool < 1:
            raise ValueError(f"pool must be >= 1, got {self.pool}")
        if self.method == "nes" and self.pool is not None:
            raise ValueError(f"nes takes no pool size, got pool = {self.pool}")
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        # random.Random seeds with |seed|, so seed -s would repeat run s.
        if self.base_seed < 0:
            raise ValueError(f"base seed must be >= 0, got {self.base_seed}")


@dataclass(frozen=True)
class RunSummary:
    config: ExperimentConfig
    stats: GraphStats
    results: tuple[EstimateResult, ...]
    mean_estimate: float
    observed_rse: float
    mean_triangles_observed: float
    mean_sample_size: float
    predicted_rse: float | None


@dataclass(frozen=True)
class RatioReport:
    """Naive-vs-priority comparison at one target RSE on one graph."""

    input_name: str
    target_rse: float
    saturated: bool
    nes_summary: RunSummary
    pes_summary: RunSummary
    observed_size_ratio: float
    observed_probability_ratio: float
    predicted_ratio: float


@dataclass(frozen=True)
class SweepRow:
    target_rse: float
    observed_rse: float
    predicted_rse: float | None
    mean_triangles_observed: float
    mean_sample_size: float


# Kept apart from the row function: an empty sweep still prints its header.
SWEEP_CSV_COLUMNS = tuple(field.name for field in fields(SweepRow))


def single_run(stream: EdgeList, config: ExperimentConfig, index: int = 0) -> EstimateResult:
    """Run ``index`` of the experiment, seeded with ``base_seed + index``.

    Under ``shuffle="per-run"`` the run streams its own permutation of
    ``stream``, seeded by ``mix_seed`` of the run seed; under ``"fixed"`` it
    takes ``stream`` in the order given.
    """
    run_seed = config.base_seed + index
    if config.shuffle == "per-run":
        stream = shuffle_stream(stream, mix_seed(run_seed))
    rng = SeededSource(run_seed)
    if config.method == "nes":
        return nes_run(stream, config.p, rng)
    return pes_run(stream, config.p, config.pool, rng)


# The stream and config of the experiment a worker process serves, set once
# per worker by _init_worker so that each task sends only its run index.
_worker_task: tuple[EdgeList, ExperimentConfig] | None = None


def _init_worker(stream: EdgeList, config: ExperimentConfig) -> None:
    global _worker_task
    _worker_task = (stream, config)


def _worker_run(index: int) -> EstimateResult:
    assert _worker_task is not None, "worker process was not initialized"
    return single_run(*_worker_task, index)


def _execute_runs(stream: EdgeList, config: ExperimentConfig) -> tuple[EstimateResult, ...]:
    # The pool starts every worker at once, so more workers than runs or
    # cores would only add processes; results do not depend on the count.
    workers = min(config.jobs, config.runs, os.cpu_count() or 1)
    if workers <= 1:
        return tuple(single_run(stream, config, index) for index in range(config.runs))
    chunksize = max(1, config.runs // (workers * 8))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(stream, config)
    ) as executor:
        return tuple(executor.map(_worker_run, range(config.runs), chunksize=chunksize))


def _require_runs(runs: int) -> None:
    if runs < 2:
        raise InfeasibleError(f"insufficient runs: observed RSE needs k >= 2, got k = {runs}")


def run_experiment(
    edges: EdgeList, config: ExperimentConfig, *, stats: GraphStats | None = None
) -> RunSummary:
    """Execute k seeded runs and summarize them against the exact oracle.

    ``stats`` short-circuits the oracle when the caller already computed it.
    """
    _require_runs(config.runs)
    truth = stats if stats is not None else compute_stats(build_adjacency(edges))
    if truth.triangles == 0:
        raise InfeasibleError("observed RSE undefined: graph has no triangles")
    stream = edges
    if config.shuffle == "fixed":
        # One shared random order, derived from the base seed.
        stream = shuffle_stream(edges, mix_seed(config.base_seed))
    results = _execute_runs(stream, config)
    estimates = [result.estimate for result in results]
    mean_triangles = fmean(result.triangles_observed for result in results)
    return RunSummary(
        config=config,
        stats=truth,
        results=results,
        mean_estimate=fmean(estimates),
        observed_rse=observed_rse(estimates, truth.triangles),
        mean_triangles_observed=mean_triangles,
        mean_sample_size=fmean(result.sample_size for result in results),
        predicted_rse=pes_rse_simple(mean_triangles),
    )


def calibrated_config(method: str, truth: GraphStats, target_rse: float,
                      **experiment: Any) -> ExperimentConfig:
    """An experiment of ``method`` calibrated to ``target_rse`` on ``truth``:
    the naive p from :func:`calibrate_nes`, or the priority (p, pool) from
    :func:`calibrate_pes`, with the other ``ExperimentConfig`` fields taken
    from ``experiment``.  A calibration clamped at the p = 1 boundary shows
    as ``p == 1.0``.  Every calibrating subcommand comes through here, and
    here a triangle-free graph, a p so small that ``p * p`` is 0, or counts
    past float range (an ArithmeticError) are refused with InfeasibleError;
    a target that no calibration accepts raises ValueError."""
    if truth.triangles == 0:
        raise InfeasibleError("calibration refused: graph has no triangles (triangle count = 0)")
    _required_triangles(target_rse)
    try:
        if method == "nes":
            p, pool = calibrate_nes(target_rse, truth.triangles).value, None
        else:
            cal = calibrate_pes(truth, target_rse)
            p, pool = cal.p, cal.pool
        _check_probability(p)
    except (ValueError, ArithmeticError) as err:
        raise InfeasibleError(f"calibration refused for target RSE {target_rse}: {err}") from None
    return ExperimentConfig(method=method, p=p, pool=pool, **experiment)


def ratio_experiment(
    edges: EdgeList,
    target_rse: float,
    runs: int,
    base_seed: int,
    *,
    jobs: int = 1,
    shuffle: str = "per-run",
    input_name: str = "",
) -> RatioReport:
    """Calibrate both estimators to ``target_rse``, run k trials of each on
    identically ordered streams, and compare against the predicted ratio.

    The observed probability ratio is measured from the runs as the ratio of
    mean subgraph sizes (each estimates p * M).  A calibration clamped at
    p = 1 marks the report saturated: the ratio is not meaningful there.
    Too few runs are refused before the oracle runs.
    """
    _require_runs(runs)
    truth = compute_stats(build_adjacency(edges))
    common = dict(runs=runs, base_seed=base_seed, shuffle=shuffle, jobs=jobs)
    nes = calibrated_config("nes", truth, target_rse, **common)
    pes = calibrated_config("pes", truth, target_rse, **common)
    nes_summary = run_experiment(edges, nes, stats=truth)
    pes_summary = run_experiment(edges, pes, stats=truth)
    mean_subgraph_nes = fmean(r.subgraph_edges for r in nes_summary.results)
    mean_subgraph_pes = fmean(r.subgraph_edges for r in pes_summary.results)
    if mean_subgraph_pes == 0:
        raise InfeasibleError(
            f"ratio undefined: the priority runs sampled no edge at p = {pes.p:.6g}"
        )
    return RatioReport(
        input_name=input_name,
        target_rse=target_rse,
        saturated=nes.p == 1.0 or pes.p == 1.0,
        nes_summary=nes_summary,
        pes_summary=pes_summary,
        observed_size_ratio=nes_summary.mean_sample_size / pes_summary.mean_sample_size,
        observed_probability_ratio=mean_subgraph_nes / mean_subgraph_pes,
        predicted_ratio=nes_pes_ratio(truth.edge_count, truth.wedges, nes.p),
    )


def rse_sweep(
    edges: EdgeList,
    targets: Sequence[float],
    method: str,
    runs: int,
    base_seed: int,
    *,
    jobs: int = 1,
    shuffle: str = "per-run",
) -> tuple[SweepRow, ...]:
    """One calibrated experiment per target RSE; empty targets yield no
    rows without running the oracle.  Too few runs are refused before the
    oracle runs, and an unusable target before any experiment runs."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if not targets:
        return ()
    _require_runs(runs)
    truth = compute_stats(build_adjacency(edges))
    common = dict(runs=runs, base_seed=base_seed, shuffle=shuffle, jobs=jobs)
    configs = [calibrated_config(method, truth, target, **common) for target in targets]
    rows: list[SweepRow] = []
    for target, config in zip(targets, configs):
        summary = run_experiment(edges, config, stats=truth)
        rows.append(
            SweepRow(
                target_rse=target,
                observed_rse=summary.observed_rse,
                predicted_rse=summary.predicted_rse,
                mean_triangles_observed=summary.mean_triangles_observed,
                mean_sample_size=summary.mean_sample_size,
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# CSV emission.  Each table is one row function returning a dict in column
# order, whose keys are the table's columns; every table, on stdout or in a
# file, goes through write_csv.  Floats are serialized with 17 significant
# digits so that parsing an emitted file reproduces every numeric field
# exactly.
# ---------------------------------------------------------------------------


def format_csv_value(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(handle: IO[str], columns: Collection[str],
              rows: Iterable[Mapping[str, object]]) -> None:
    """Write a header line, then each row's values for ``columns``, to an
    open text stream; a row without one of the columns raises KeyError."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_csv_value(row[column]) for column in columns])


def stats_csv_row(stats: GraphStats) -> dict[str, object]:
    return dict(N=stats.node_count, M=stats.edge_count, triangles=stats.triangles,
                wedges=stats.wedges, shared_pairs=stats.shared_pairs,
                clustering=stats.clustering)


def estimate_csv_row(result: EstimateResult) -> dict[str, object]:
    """The result's fields; the naive method has no reservoir, so its row
    leaves out the pool columns."""
    row = asdict(result)
    if result.method == "nes":
        for column in ("q", "candidate_wedges", "pool_size"):
            del row[column]
    return row


def summary_csv_row(summary: RunSummary) -> dict[str, object]:
    config, truth = summary.config, summary.stats
    return dict(
        method=config.method, p=config.p, pool=config.pool, runs=config.runs,
        base_seed=config.base_seed, shuffle=config.shuffle,
        mean_estimate=summary.mean_estimate,
        observed_rse=summary.observed_rse,
        mean_triangles_observed=summary.mean_triangles_observed,
        mean_sample_size=summary.mean_sample_size,
        predicted_rse=summary.predicted_rse,
        oracle_nodes=truth.node_count, oracle_edges=truth.edge_count,
        oracle_triangles=truth.triangles, oracle_wedges=truth.wedges,
        oracle_shared_pairs=truth.shared_pairs, oracle_clustering=truth.clustering,
    )


def write_summary_csv(summary: RunSummary, path: str | Path) -> None:
    row = summary_csv_row(summary)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write_csv(handle, row.keys(), [row])


def sweep_csv_rows(rows: Iterable[SweepRow]) -> list[dict[str, object]]:
    return [asdict(row) for row in rows]


def ratio_csv_row(report: RatioReport) -> dict[str, object]:
    truth, nes, pes = report.nes_summary.stats, report.nes_summary, report.pes_summary
    return dict(
        input=report.input_name,
        nodes=truth.node_count, edges=truth.edge_count, triangles=truth.triangles,
        wedges=truth.wedges, clustering=truth.clustering,
        size_times_clustering=truth.node_count * truth.clustering,
        target_rse=report.target_rse, runs=nes.config.runs,
        nes_p=nes.config.p, pes_p=pes.config.p, pes_pool=pes.config.pool,
        saturated=report.saturated,
        nes_observed_rse=nes.observed_rse, pes_observed_rse=pes.observed_rse,
        nes_mean_sample_size=nes.mean_sample_size, pes_mean_sample_size=pes.mean_sample_size,
        observed_size_ratio=report.observed_size_ratio,
        observed_probability_ratio=report.observed_probability_ratio,
        predicted_ratio=report.predicted_ratio,
    )


def calibrate_csv_row(target_rse: float, nes: ExperimentConfig, pes: ExperimentConfig,
                      pool_rule: int, variance: VarianceBreakdown | None,
                      rse_full: float | None) -> dict[str, object]:
    """Calibrated parameters of both methods, each clamped when its p is 1,
    and, when the theory applies, the predicted variance terms; absent
    predictions stay None."""
    return dict(
        target_rse=target_rse, nes_p=nes.p, nes_clamped=nes.p == 1.0,
        pes_p=pes.p, pes_pool=pes.pool, pes_clamped=pes.p == 1.0, pool_rule_n=pool_rule,
        predicted_var_total=variance.total if variance else None,
        predicted_var_unit=variance.term_unit if variance else None,
        predicted_var_shared=variance.term_shared if variance else None,
        predicted_var_indep=variance.term_indep if variance else None,
        predicted_rse_full=rse_full,
    )
