"""Every committed performance record (``BENCH_*.json`` at the repository
root) states its machine, its commits, its graphs and, for each workload and
end-to-end metric that ``BENCHMARK.json`` names, a parent and a change value."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")
TRACED_LAYERS = ("edgelist.load_s", "oracle.adjacency_s", "oracle.census_s", "edgelist.shuffle_s")
DURATIONS = tuple(f"test_c{n:02d}" for n in range(4, 11))


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_spread(spread: dict, where: str) -> None:
    assert all(_is_number(spread.get(key)) for key in ("q1", "median", "q3")), where
    assert spread["q1"] <= spread["median"] <= spread["q3"], where


def test_a_record_is_committed():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_machine_commits_and_graphs(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    assert machine["cpu_model"] and isinstance(machine["cpu_model"], str)
    assert isinstance(machine["nproc"], int) and machine["nproc"] >= 1
    assert re.fullmatch(r"3\.\d+\.\d+", machine["python"])
    assert re.fullmatch(r"[0-9a-f]{40}", record["commits"]["parent"])
    assert record["commits"]["change"]
    seeds = record["benchmark"]["seeds"]
    assert len(seeds) >= 10 and all(isinstance(seed, int) for seed in seeds)
    for name in (workload["name"] for workload in _benchmark()["workloads"]):
        graph = record["workloads"][name]["graph"]
        assert isinstance(graph["generator"], str)
        assert all(isinstance(graph[key], int) for key in ("seed", "N", "M")), name


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_has_both_sides_of_every_metric(path):
    record = json.loads(path.read_text())
    benchmark = _benchmark()
    metrics = [metric["name"] for metric in benchmark["end_to_end"]]
    for workload in (workload["name"] for workload in benchmark["workloads"]):
        measured = record["workloads"][workload]
        for metric in metrics:
            for side in SIDES:
                _check_spread(measured["end_to_end"][metric][side], f"{workload} {metric} {side}")
        for layer in TRACED_LAYERS:
            assert all(_is_number(measured["per_layer"][layer][side]) for side in SIDES), layer
    for side in SIDES:
        large = record["large_input"][side]
        for layer in ("load_ms", "adjacency_ms", "census_ms"):
            _check_spread(large[layer], f"large input {layer} {side}")
        tier1 = record["tier1"][side]
        assert _is_number(tier1["wall_s"])
        assert sorted(tier1["durations_s"]) == list(DURATIONS)
        faults = record["page_faults"][side]
        assert _is_number(faults["load_minflt"]) and _is_number(faults["command_minflt"])
