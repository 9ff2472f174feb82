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
from dataclasses import asdict, dataclass, fields
from functools import partial
from math import ceil
from pathlib import Path
from statistics import fmean
from typing import IO, Any, Collection, Iterable, Iterator, Mapping, Sequence

from .analysis import (
    VarianceBreakdown,
    _check_pool,
    _check_probability,
    _required_triangles,
    calibrate_nes,
    calibrate_pes,
    nes_pes_ratio,
    observed_rse,
    pes_rse_simple,
)
from .edgelist import EdgeList, shuffle_stream
from .estimators import EstimateResult, nes_run, pes_run
from .oracle import GraphStats, build_adjacency, compute_stats
from .randomness import SeededSource, mix_seed

__all__ = ["ExperimentConfig", "InfeasibleError", "RatioReport", "RunSummary", "SweepRow",
           "ratio_experiment", "run_experiment", "rse_sweep", "single_run", "write_summary_csv"]

METHODS = ("nes", "pes")
SHUFFLE_MODES = ("per-run", "fixed")


class InfeasibleError(RuntimeError):
    """The experiment cannot run as configured (no triangles, too few runs
    or an unusable calibration)."""


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")


def _check_settings(runs: int, jobs: int, base_seed: int, shuffle: str) -> None:
    """ExperimentConfig's checks of the settings that do not depend on the
    method, apart so that a caller holding only these can refuse them
    before any work."""
    if shuffle not in SHUFFLE_MODES:
        raise ValueError(f"shuffle must be one of {SHUFFLE_MODES}, got {shuffle!r}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # random.Random seeds with |seed|, so seed -s would repeat run s.
    if base_seed < 0:
        raise ValueError(f"base seed must be >= 0, got {base_seed}")


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
        _check_method(self.method)
        if self.method == "pes":
            if self.pool is None:
                raise ValueError("pes needs a pool size")
            _check_pool(self.pool)
        if self.method == "nes" and self.pool is not None:
            raise ValueError(f"nes takes no pool size, got pool = {self.pool}")
        _check_probability(self.p)
        _check_settings(self.runs, self.jobs, self.base_seed, self.shuffle)


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
    run = partial(single_run, stream, config)
    # The pool starts every worker at once, so more workers than runs or
    # cores would only add processes; results do not depend on the count.
    workers = min(config.jobs, config.runs, os.cpu_count() or 1)
    if workers <= 1:
        results = tuple(map(run, range(config.runs)))
    else:
        # Imported here: it pulls in multiprocessing, which serial runs never use.
        from concurrent.futures import ProcessPoolExecutor

        # One chunk of run indices per worker, so the stream is sent once to each.
        with ProcessPoolExecutor(workers) as executor:
            results = tuple(executor.map(run, range(config.runs),
                                         chunksize=ceil(config.runs / workers)))
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
    an unknown method or a target that no calibration accepts raises
    ValueError, the method before any calibration runs."""
    _check_method(method)
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


def _calibrated_summaries(edges: EdgeList, plan: Sequence[tuple[str, float]], runs: int,
                          base_seed: int, jobs: int, shuffle: str) -> Iterator[RunSummary]:
    """One calibrated experiment per ``(method, target_rse)`` of ``plan``,
    in order, on one exact oracle.  Bad settings are refused first; an empty
    plan then yields none without the oracle, too few runs are refused
    before it, and an unusable calibration before any run.  The experiments
    run as the iterator is read, so a caller that reads it once holds one
    summary at a time."""
    _check_settings(runs, jobs, base_seed, shuffle)
    if not plan:
        return iter(())
    _require_runs(runs)
    truth = compute_stats(build_adjacency(edges))
    configs = [calibrated_config(method, truth, target, runs=runs, base_seed=base_seed,
                                 shuffle=shuffle, jobs=jobs) for method, target in plan]
    return (run_experiment(edges, config, stats=truth) for config in configs)


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
    """
    nes_summary, pes_summary = _calibrated_summaries(
        edges, [("nes", target_rse), ("pes", target_rse)], runs, base_seed, jobs, shuffle
    )
    nes, pes, truth = nes_summary.config, pes_summary.config, nes_summary.stats
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
    """One calibrated experiment of ``method`` per target RSE."""
    _check_method(method)
    summaries = _calibrated_summaries(
        edges, [(method, target) for target in targets], runs, base_seed, jobs, shuffle
    )
    # map drops each summary once its row is made, before the next one runs.
    return tuple(map(_sweep_row, targets, summaries))


def _sweep_row(target_rse: float, summary: RunSummary) -> SweepRow:
    return SweepRow(target_rse, summary.observed_rse, summary.predicted_rse,
                    summary.mean_triangles_observed, summary.mean_sample_size)


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
