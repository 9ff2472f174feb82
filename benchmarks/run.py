"""Benchmark of the ``tristream`` command, end to end and layer by layer.

    python3 benchmarks/run.py --workload pes-ba --seed 1 --seconds 55 --trace 0

runs one workload: it writes the input, then runs whole rounds until
``--seconds`` have passed, in batches, each batch in a fresh process.  A
round times ``setup_s`` (one ``load_edge_list``), runs the subcommand through
``tristream.cli.main`` with stdout captured and checks its output.  The
end-to-end times are those of the run's fastest round (fastest set-up
load for ``setup_s``); README.md says why.  With ``--trace 1`` each
round is followed, in the same process, by a traced round with the same
seeds, and the per-layer metrics are printed instead.  The last stdout line is one JSON
object.  ``--workload all`` runs every workload, each in its own process.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from workloads import WORK, WORKLOADS, Prepared, Workload, import_path

HERE = Path(__file__).resolve().parent

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("edges_per_s", "edges/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("edgelist.load_s", "s"),
    ("edgelist.load_edges_per_s", "edges/s"),
    ("edgelist.shuffle_s", "s"),
    ("edgelist.shuffle_edges_per_s", "edges/s"),
    ("oracle.adjacency_s", "s"),
    ("oracle.census_s", "s"),
    ("oracle.edges_per_s", "edges/s"),
    ("analysis.calibrate_s", "s"),
    ("estimators.pes_run_s", "s"),
    ("estimators.pes_edges_per_s", "edges/s"),
    ("estimators.pes_candidates_per_s", "candidates/s"),
    ("estimators.pes_candidates", "count"),
    ("estimators.pes_admissions", "count"),
    ("estimators.pes_closed", "count"),
    ("estimators.pes_q", "ratio"),
    ("harness.experiment_s", "s"),
    ("harness.csv_write_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Rounds run in batches, each batch in a fresh process.
ROUNDS_PER_PROCESS = 8

# A time is the best round's, as the end-to-end times are; so is a rate.
BEST = {"s": min, "edges/s": max, "candidates/s": max}

# Counts come from round 0, which every run has, so they repeat exactly
# for a given --seed however many rounds the run fits in.
COUNT_METRICS = {"estimators.pes_candidates", "estimators.pes_admissions",
                 "estimators.pes_closed", "estimators.pes_q"}


class Tally:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def prepare(workload: Workload, seed: int) -> Prepared:
    """Write the input in a child process, so generating the graph and its
    exact counts never runs in a measured process."""
    command = [sys.executable, str(HERE / "workloads.py"), "--prepare", workload.name,
               "--seed", str(seed)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"input preparation failed:\n{done.stderr}")
    info = json.loads(done.stdout.splitlines()[-1])
    return Prepared(workload, seed, info["input"], info["truth"])


def run_command(argv: list[str]) -> dict:
    """One subcommand through ``tristream.cli.main``, stdout captured."""
    from tracing import cpu_now
    from tristream.cli import main

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    cpu0, start = cpu_now(), perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # an uncaught fault is one failed operation
        code, err = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
    wall, cpu = perf_counter() - start, cpu_now() - cpu0
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "wall": wall, "cpu": cpu}


def check_round(job: Prepared, index: int, run: dict, tally: Tally, outputs: list) -> dict:
    """Count one round and check its output; return the values it printed."""
    from checks import CALIBRATE_COLUMNS, check_calibrate, check_evaluate

    workload = job.workload
    tally.attempted += 1 + workload.runs
    if run["code"] != 0:
        tally.failed += 1 + workload.runs
        print(f"round {index} failed with exit {run['code']}: {run['stderr'].strip()}",
              file=sys.stderr)
        return {}
    if workload.command == "calibrate":
        tally.problems += check_calibrate(run["stdout"], job.truth, workload.target_rse)
        row = dict(zip(CALIBRATE_COLUMNS, run["stdout"].splitlines()[-1].split(",")))
        parsed = {}
        for key, kind in (("nes_p", float), ("pes_p", float), ("pes_pool", int),
                          ("pool_rule_n", int), ("predicted_var_total", float),
                          ("predicted_rse_full", float)):
            with contextlib.suppress(ValueError, KeyError):
                parsed[key] = kind(row[key])
        return parsed
    problems, output = check_evaluate(
        run["stdout"], workload.csv_path.read_text(), job.truth, method=workload.method,
        p=job.p, runs=workload.runs, base_seed=job.base_seed(index))
    tally.problems += problems
    if output is None:
        return {}
    outputs.append(output)
    return {"mean_estimate": output.mean_estimate}


def setup_time(job: Prepared, tally: Tally) -> float:
    """One ``load_edge_list`` of the input, timed and checked."""
    from tristream.edgelist import load_edge_list

    gc.collect()
    start = perf_counter()
    edges = load_edge_list(job.input)
    elapsed = perf_counter() - start
    if (edges.node_count, edges.edge_count) != (job.truth["N"], job.truth["M"]):
        tally.problems.append(f"load_edge_list gave N={edges.node_count} "
                              f"M={edges.edge_count}, the graph has {job.truth}")
    return elapsed


def one_round(job: Prepared, index: int, traced: bool) -> dict:
    """Round ``index`` in this process: the set-up load, the subcommand, its
    checks and, when ``traced``, the traced round with the same seeds."""
    from tracing import Tracer, traced_round

    tally, outputs = Tally(), []
    load = setup_time(job, tally)
    run = run_command(job.argv(index))
    record = {"load": load, "wall": run["wall"], "cpu": run["cpu"],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    printed = check_round(job, index, run, tally, outputs)
    if traced:
        gc.collect()
        tally.attempted += 1 + job.workload.runs
        tracer = Tracer()
        counts, problems = traced_round(job, index, tracer, printed)
        tally.problems += problems
        record.update(layers=_layer_metrics(job, tracer, index, counts),
                      self_times=tracer.totals(index)[1], spans=tracer.records())
    record.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                  output=asdict(outputs[0]) if outputs else None)
    return record


def rounds_in_child(job: Prepared, first: int, traced: bool) -> list[dict]:
    """Run ``ROUNDS_PER_PROCESS`` rounds from ``first`` on in a fresh
    process, so the rounds of a run are spread over many processes, each
    with its own memory layout."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", job.workload.name,
               "--seed", str(job.seed), "--trace", str(int(traced)),
               "--round", str(first), "--prepared",
               json.dumps({"input": job.input, "truth": job.truth})]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"rounds from {first}: process exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(job: Prepared, seconds: float, traced: bool) -> dict:
    """Whole rounds until ``seconds`` have passed, then the run's metrics."""
    from checks import EvaluateOutput, check_unbiased

    tally, records = Tally(), []
    deadline = perf_counter() + seconds
    while not records or perf_counter() < deadline:
        for record in rounds_in_child(job, len(records), traced):
            print(f"round {len(records)}: wall {record['wall']:.4f} s, cpu {record['cpu']:.4f} s, "
                  f"peak rss {record['peak_rss_mb']:.1f} MiB", file=sys.stderr)
            records.append(record)
            tally.attempted += record["attempted"]
            tally.failed += record["failed"]
            tally.problems += record["problems"]
    print(f"{len(records)} rounds", file=sys.stderr)
    outputs = [EvaluateOutput(**r["output"]) for r in records if r["output"]]
    tally.problems += check_unbiased(outputs, job.truth["triangles"])
    for problem in dict.fromkeys(tally.problems):
        print(f"check failed: {problem}", file=sys.stderr)

    wall = min(r["wall"] for r in records)
    if not traced:
        values = {
            "wall_s": wall,
            "cpu_s": min(r["cpu"] for r in records),
            "edges_per_s": job.edges_per_round / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
            "setup_s": min(r["load"] for r in records),
        }
        return tally.result({name: (values[name], unit) for name, unit in END_TO_END})
    layers = [r["layers"] for r in records]
    metrics = {}
    for name, unit in PER_LAYER:
        if name in COUNT_METRICS:
            value = layers[0].get(name, 0)
        elif name == "trace.overhead_s":
            value = min(r["traced_wall"] for r in layers) - wall
        else:
            value = BEST[unit](r[name] for r in layers)
        metrics[name] = (value, unit)
    _write_trace(job, [span for r in records for span in r["spans"]])
    _print_split(job, [r["self_times"] for r in records], wall, metrics["trace.overhead_s"][0])
    return tally.result(metrics)


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _layer_metrics(job: Prepared, tracer, index: int, counts: dict) -> dict:
    wall, own, _ = tracer.totals(index)
    edges, runs = job.truth["M"], job.workload.runs
    metrics = dict(counts)
    metrics.update({
        "edgelist.load_s": wall["edgelist.load"],
        "edgelist.load_edges_per_s": _rate(edges, wall["edgelist.load"]),
        "edgelist.shuffle_s": wall["edgelist.shuffle"],
        "edgelist.shuffle_edges_per_s": _rate(runs * edges, wall["edgelist.shuffle"]),
        "oracle.adjacency_s": wall["oracle.adjacency"],
        "oracle.census_s": wall["oracle.census"],
        "oracle.edges_per_s": _rate(edges, wall["oracle.adjacency"] + wall["oracle.census"]),
        "analysis.calibrate_s": wall["analysis.calibrate"],
        "estimators.pes_run_s": wall["estimators.pes_run"],
        "estimators.pes_edges_per_s": _rate(runs * edges, wall["estimators.pes_run"]),
        "estimators.pes_candidates_per_s": _rate(counts.get("estimators.pes_candidates", 0),
                                                 wall["estimators.pes_run"]),
        "harness.experiment_s": wall["harness.experiment"],
        "harness.csv_write_s": wall["harness.csv_write"],
        "cli.self_s": own["cli"],
        "traced_wall": wall["cli"],
    })
    return metrics


def _write_trace(job: Prepared, spans: list[dict]) -> None:
    path = WORK / f"trace-{job.workload.name}-seed{job.seed}.json"
    path.write_text(json.dumps({"workload": job.workload.name, "seed": job.seed,
                                "spans": spans}) + "\n")
    print(f"spans written to {path}", file=sys.stderr)


def _print_split(job: Prepared, self_times: list[dict], wall: float, overhead: float) -> None:
    """Least self time of each layer under the ``cli`` root over the rounds,
    against the untraced wall time; the sum differs from it by the tracing
    overhead."""
    layers = ("edgelist.load", "oracle.adjacency", "oracle.census", "analysis.calibrate",
              "harness.experiment", "harness.csv_write", "cli")
    print(f"{job.workload.name}: traced command split over {len(self_times)} rounds "
          f"(untraced wall_s {wall:.4f} s)", file=sys.stderr)
    total = 0.0
    for layer in layers:
        value = min(own.get(layer, 0.0) for own in self_times)
        total += value
        print(f"  {layer:<20} self {value:9.4f} s  {100 * value / wall:6.2f} %", file=sys.stderr)
    print(f"  {'sum':<20}      {total:9.4f} s; tracing overhead {overhead:+.4f} s",
          file=sys.stderr)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    combined = Tally()
    metrics = {}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        combined.attempted += result["attempted"]
        combined.failed += result["failed"]
        if not result["correct"]:
            combined.problems.append(name)
        for metric, entry in result["metrics"].items():
            print(f"{name:<14} {metric:<34} {entry['value']:>16.6g} {entry['unit']}")
            metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(json.dumps(combined.result(metrics)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--prepared", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_path()
    except FileNotFoundError as err:
        print(f"error: {err}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.round is not None:
        info = json.loads(args.prepared)
        job = Prepared(workload, args.seed, info["input"], info["truth"])
        rounds = range(args.round, args.round + ROUNDS_PER_PROCESS)
        print(json.dumps([one_round(job, index, bool(args.trace)) for index in rounds]))
        return 0
    result = measure(prepare(workload, args.seed), args.seconds, bool(args.trace))
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
