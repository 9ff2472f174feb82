"""Traced rounds: the public calls a subcommand makes, each inside a span.

The spans are recorded here, around calls into the program, not inside it.
A traced round has up to two roots.  ``cli`` replays the subcommand's own
sequence of calls, so its self time is the glue between layers and its wall
time, set against the untraced command, gives the tracing overhead.
``replay`` is extra work made only for the split and the checks: it derives
the parameters with the analysis layer and replays every run of the
experiment serially, shuffle then ``pes_run``, with the seeds the harness uses.
"""

from __future__ import annotations

import resource
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from checks import check_replayed_run, check_stats_line
from workloads import Prepared


def cpu_now() -> float:
    """CPU seconds of this process plus its reaped child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Tracer:
    """Spans kept in memory until the run ends.

    A span is [name, round, parent index, start, end, cpu at start, cpu at end].
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.round, self._open[-1] if self._open else None, 0.0, 0.0,
                  cpu_now(), 0.0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[3] = perf_counter()
        try:
            yield
        finally:
            record[4] = perf_counter()
            record[6] = cpu_now()
            self._open.pop()

    def totals(self, round_id: int) -> tuple[dict, dict, dict]:
        """Wall time, self time and CPU time per span name within one round."""
        covered: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record[1] == round_id and record[2] is not None:
                covered[record[2]] += record[4] - record[3]
        wall: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        cpu: dict[str, float] = defaultdict(float)
        for index, record in enumerate(self.spans):
            if record[1] != round_id:
                continue
            duration = record[4] - record[3]
            wall[record[0]] += duration
            own[record[0]] += duration - covered[index]
            cpu[record[0]] += record[6] - record[5]
        return wall, own, cpu

    def records(self) -> list[dict]:
        keys = ("name", "round", "parent", "start", "end", "cpu_start", "cpu_end")
        return [dict(zip(keys, record)) for record in self.spans]


def _stats_line(stats) -> str:
    return (f"N={stats.node_count} M={stats.edge_count} triangles={stats.triangles} "
            f"wedges={stats.wedges} shared_pairs={stats.shared_pairs} "
            f"clustering={format(stats.clustering, '.12g')}")


def traced_round(job: Prepared, index: int, tracer: Tracer, untraced: dict) -> tuple[dict, list[str]]:
    """Run round ``index`` traced; return its counts and its problems.

    ``untraced`` holds the untraced command's parsed output for the same
    round, which the traced calls must reproduce exactly.
    """
    from tristream.analysis import (PesParams, calibrate_nes, calibrate_pes,
                                    calibrate_pes_pool, pes_rse_full, pes_variance)
    from tristream.edgelist import load_edge_list, shuffle_stream
    from tristream.estimators import pes_run
    from tristream.harness import ExperimentConfig, run_experiment, write_summary_csv
    from tristream.oracle import build_adjacency, compute_stats
    from tristream.randomness import SeededSource, mix_seed

    workload, truth = job.workload, job.truth
    target = workload.target_rse
    tracer.round = index
    counts: dict[str, float] = {}
    with tracer.span("cli"):
        with tracer.span("edgelist.load"):
            edges = load_edge_list(job.input)
        with tracer.span("oracle.adjacency"):
            graph = build_adjacency(edges)
        with tracer.span("oracle.census"):
            stats = compute_stats(graph)
        if workload.command == "calibrate":
            with tracer.span("analysis.calibrate"):
                nes_cal = calibrate_nes(target, stats.triangles)
                pes_cal = calibrate_pes(stats, target)
                pool_rule = calibrate_pes_pool(target, stats.clustering, wedge_cap=stats.wedges)
                params = PesParams(p=pes_cal.p, pool=pes_cal.pool)
                variance = pes_variance(stats, params)
                rse_full = pes_rse_full(stats, params)
        else:
            config = ExperimentConfig(method=workload.method, p=job.p, pool=job.pool,
                                      runs=workload.runs, base_seed=job.base_seed(index))
            with tracer.span("harness.experiment"):
                summary = run_experiment(edges, config, stats=stats)
            with tracer.span("harness.csv_write"):
                write_summary_csv(summary, workload.csv_path.with_suffix(".traced.csv"))
    problems = check_stats_line(_stats_line(stats), truth)
    if workload.command == "calibrate":
        traced = {"nes_p": nes_cal.value, "pes_p": pes_cal.p, "pes_pool": pes_cal.pool,
                  "pool_rule_n": pool_rule, "predicted_var_total": variance.total,
                  "predicted_rse_full": rse_full}
        problems += [f"traced {key}={value!r} but the command printed {untraced[key]!r}"
                     for key, value in traced.items() if value != untraced.get(key)]
        return counts, problems

    if summary.mean_estimate != untraced.get("mean_estimate"):
        problems.append(f"traced mean_estimate {summary.mean_estimate!r} but the command "
                        f"wrote {untraced.get('mean_estimate')!r}")
    p, pool = job.p, job.pool
    with tracer.span("replay"):
        with tracer.span("analysis.calibrate"):
            cal = calibrate_pes(stats, target)
            derived = (cal.p, cal.pool)
            params = PesParams(p=cal.p, pool=cal.pool)
            pes_variance(stats, params)
            pes_rse_full(stats, params)
        results = []
        for run in range(workload.runs):
            seed = config.base_seed + run
            with tracer.span("edgelist.shuffle"):
                stream = shuffle_stream(edges, mix_seed(seed))
            with tracer.span("estimators.pes_run"):
                results.append(pes_run(stream, p, pool, SeededSource(seed)))
    if derived[0] != p or derived[1] != pool:
        problems.append(f"the analysis layer calibrates {derived}, the workload runs {(p, pool)}")
    for result, expected in zip(results, summary.results):
        problems += check_replayed_run(result, expected, p=p, pool=pool)
    candidates = sum(r.candidate_wedges for r in results)
    counts["estimators.pes_closed"] = sum(r.triangles_observed for r in results)
    counts["estimators.pes_candidates"] = candidates
    counts["estimators.pes_admissions"] = sum(r.subgraph_edges for r in results)
    counts["estimators.pes_q"] = sum(r.pool_size for r in results) / candidates
    return counts, problems
