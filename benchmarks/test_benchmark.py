"""Tests of the benchmark itself: every workload runs briefly, and every
output check fails when it is fed a deliberately wrong output.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from workloads import WORKLOADS, Prepared, import_path, prepare

import_path()

from checks import (  # noqa: E402
    EvaluateOutput,
    check_calibrate,
    check_evaluate,
    check_replayed_run,
    check_stats_line,
    check_unbiased,
)
from run import END_TO_END, PER_LAYER  # noqa: E402
from tracing import Tracer  # noqa: E402
from truth import exact_counts  # noqa: E402
from tristream import cli  # noqa: E402
from tristream.edgelist import EdgeList, load_edge_list  # noqa: E402
from tristream.estimators import pes_run  # noqa: E402
from tristream.generators import barabasi_albert, complete_graph, erdos_renyi  # noqa: E402
from tristream.oracle import build_adjacency, compute_stats  # noqa: E402
from tristream.randomness import SeededSource  # noqa: E402

HERE = Path(__file__).resolve().parent


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_clean(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "4",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = dict(PER_LAYER if trace else END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pes-ba", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("edges", [
    barabasi_albert(300, 4, 2).edges,
    erdos_renyi(80, 0.2, 3).edges,
    complete_graph(7).edges,
])
def test_truth_agrees_with_the_oracle(edges):
    stats = compute_stats(build_adjacency(EdgeList(edges)))
    assert exact_counts(edges) == {
        "N": stats.node_count, "M": stats.edge_count, "triangles": stats.triangles,
        "wedges": stats.wedges, "shared_pairs": stats.shared_pairs,
    }


def test_truth_worked_example_and_bad_input():
    # K5: C(5,3) triangles, 5 * C(4,2) wedges, each edge in 3 triangles.
    assert exact_counts(complete_graph(5).edges) == {
        "N": 5, "M": 10, "triangles": 10, "wedges": 30, "shared_pairs": 30}
    with pytest.raises(ValueError):
        exact_counts([(1, 2), (2, 1)])


@pytest.fixture(scope="module")
def pes_job() -> Prepared:
    workload = WORKLOADS["pes-ba"]
    info = prepare(workload, seed=2)
    return Prepared(workload, 2, info["input"], info["truth"])


def test_stats_check_catches_a_count_off_by_one(pes_job):
    truth = pes_job.truth
    line = _cli(["stats", "--input", pes_job.input]).splitlines()[0]
    assert check_stats_line(line, truth) == []
    wrong = line.replace(f"triangles={truth['triangles']}", f"triangles={truth['triangles'] + 1}")
    assert check_stats_line(wrong, truth)
    assert check_stats_line(line, dict(truth, wedges=truth["wedges"] - 1))


def test_evaluate_check_catches_wrong_outputs(pes_job):
    job = pes_job
    stdout = _cli(job.argv(0))
    csv_text = job.workload.csv_path.read_text()
    kwargs = dict(method="pes", p=job.p, runs=job.workload.runs, base_seed=job.base_seed(0))
    problems, output = check_evaluate(stdout, csv_text, job.truth, **kwargs)
    assert problems == [] and output is not None

    T = job.truth["triangles"]
    wrong_csv = csv_text.replace(f",{T},", f",{T + 1},")
    assert check_evaluate(stdout, wrong_csv, job.truth, **kwargs)[0]
    mean = csv_text.splitlines()[1].split(",")[6]
    scaled = csv_text.replace(mean, repr(float(mean) * 1.1))
    assert check_evaluate(stdout, scaled, job.truth, **kwargs)[0]
    assert check_evaluate(stdout, csv_text, job.truth, **dict(kwargs, base_seed=7))[0]


def test_unbiasedness_check_catches_a_scaled_estimate():
    T = 1000
    fair = [EvaluateOutput(200, 1003.0, 0.2), EvaluateOutput(200, 990.0, 0.21)]
    assert check_unbiased(fair, T) == []
    assert check_unbiased([replace(out, mean_estimate=out.mean_estimate * 1.1) for out in fair], T)


def test_calibrate_check_catches_each_wrong_output():
    workload = WORKLOADS["calibrate-gz"]
    info = prepare(workload, seed=3)
    truth = info["truth"]
    stdout = _cli(["calibrate", "--input", info["input"], "--target-rse", repr(workload.target_rse)])
    assert check_calibrate(stdout, truth, workload.target_rse) == []
    lines = stdout.splitlines()
    fields = lines[3].split(",")

    def with_field(index: int, value: str) -> str:
        row = list(fields)
        row[index] = value
        return "\n".join(lines[:3] + [",".join(row)])

    for index in (1, 3, 7, 8, 9, 10, 11):  # every float column but the target
        scaled = with_field(index, repr(float(fields[index]) * 1.1))
        assert check_calibrate(scaled, truth, workload.target_rse), lines[2].split(",")[index]
    assert check_calibrate(with_field(4, str(int(fields[4]) + 1)), truth, workload.target_rse)
    assert check_calibrate(with_field(6, str(int(fields[6]) + 1)), truth, workload.target_rse)
    assert check_calibrate(stdout, dict(truth, triangles=truth["triangles"] + 1),
                           workload.target_rse)


def test_replay_check_catches_a_wrong_estimate(pes_job):
    stream = load_edge_list(pes_job.input)
    result = pes_run(stream, pes_job.p, pes_job.pool, SeededSource(5))
    assert result.q < 1.0
    ok = dict(p=pes_job.p, pool=pes_job.pool)
    assert check_replayed_run(result, result, **ok) == []
    scaled = replace(result, estimate=result.estimate * 1.1)
    assert check_replayed_run(scaled, scaled, **ok)
    assert check_replayed_run(result, scaled, **ok)
    assert check_replayed_run(replace(result, q=result.q * 1.1), result, **ok)


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
        with tracer.span("inner"):
            sum(range(10000))
    wall, own, _ = tracer.totals(0)
    assert math.isclose(own["outer"], wall["outer"] - wall["inner"], abs_tol=1e-12)
    assert own["inner"] == pytest.approx(wall["inner"])
    assert [span["parent"] for span in tracer.records()] == [None, 0, 0]


def test_rounds_form_one_seed_consecutive_experiment(pes_job):
    runs = pes_job.workload.runs
    assert [pes_job.base_seed(i) for i in range(3)] == [
        pes_job.base_seed(0) + i * runs for i in range(3)]


def test_benchmark_json_names_every_metric_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
