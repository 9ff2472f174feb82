"""The benchmark's workloads and the inputs they run on.

Each workload is one ``tristream`` subcommand on one generated graph.  The
graph is fixed by its generator parameters and generator seed, so its exact
counts can be cached; the benchmark's ``--seed`` picks the line order of the
edge file and the seeds of the estimator runs.

Run as a script to prepare inputs or to rebuild the truth cache:

    python3 benchmarks/workloads.py --rebuild-truth
    python3 benchmarks/workloads.py --prepare pes-ba --seed 1
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"


def import_path() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; raise if it is absent."""
    src = ROOT / "src"
    if not (src / "tristream" / "cli.py").is_file():
        raise FileNotFoundError(f"no tristream sources under {src}")
    sys.path.insert(0, str(src))


@dataclass(frozen=True)
class GraphSpec:
    """A Barabasi-Albert graph: ``nodes`` nodes, each attached by ``attach`` edges."""

    nodes: int
    attach: int
    seed: int

    @property
    def label(self) -> str:
        return f"BA({self.nodes}, {self.attach}) seed {self.seed}"

    def edges(self) -> tuple[tuple[int, int], ...]:
        from tristream.generators import barabasi_albert

        return barabasi_albert(self.nodes, self.attach, self.seed).edges


@dataclass(frozen=True)
class Workload:
    name: str
    graph: GraphSpec
    command: str  # "evaluate" or "calibrate"
    target_rse: float
    method: str | None = None
    runs: int = 0
    gzip: bool = False

    @property
    def input_path(self) -> Path:
        return WORK / (f"{self.name}.txt.gz" if self.gzip else f"{self.name}.txt")

    @property
    def csv_path(self) -> Path:
        return WORK / f"{self.name}.csv"


# A command of ~0.1 s: on a shared host the fastest of many short rounds is
# steadier than that of a few long ones (README.md, "How a run works").
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("pes-ba", GraphSpec(1000, 8, 1), "evaluate", 0.2, method="pes", runs=2),
        Workload("calibrate-gz", GraphSpec(3000, 8, 1), "calibrate", 0.1, gzip=True),
    )
}


def parameters(workload: Workload, truth: dict[str, int]) -> tuple[float | None, int | None]:
    """Edge probability and pool of a PES ``evaluate`` workload, from the
    exact counts by the README's calibration rules (written out here, so the
    workload does not move when the program's calibration code changes)."""
    triangles, edges, wedges = truth["triangles"], truth["M"], truth["wedges"]
    target = workload.target_rse
    if workload.method == "pes":
        q_protocol = min(1.0, edges / wedges)
        p = min(1.0, (1.0 / (target * target)) / (q_protocol * triangles))
        return p, min(wedges, max(1, round(p * edges)))
    return None, None


@dataclass(frozen=True)
class Prepared:
    """A workload with its input written and its parameters fixed for one seed."""

    workload: Workload
    seed: int
    input: str
    truth: dict[str, int]

    @property
    def p(self) -> float | None:
        return parameters(self.workload, self.truth)[0]

    @property
    def pool(self) -> int | None:
        return parameters(self.workload, self.truth)[1]

    @property
    def edges_per_round(self) -> int:
        """Edges one subcommand handles: runs x M for evaluate, M for calibrate."""
        return max(1, self.workload.runs) * self.truth["M"]

    def base_seed(self, round_index: int) -> int:
        """Round i runs seeds base_seed(i) .. base_seed(i) + runs - 1, so the
        rounds of one benchmark run together form one seed-consecutive
        experiment."""
        return self.seed * 100_000 + round_index * max(1, self.workload.runs)

    def argv(self, round_index: int) -> list[str]:
        workload = self.workload
        if workload.command == "calibrate":
            return ["calibrate", "--input", self.input, "--target-rse", repr(workload.target_rse)]
        return ["evaluate", "--input", self.input, "--method", workload.method,
                "--p", repr(self.p), "--pool", str(self.pool), "--runs", str(workload.runs),
                "--seed", str(self.base_seed(round_index)), "--csv", str(workload.csv_path)]


def _canonical_text(edges: tuple[tuple[int, int], ...]) -> bytes:
    return "".join(f"{u} {v}\n" for u, v in edges).encode()


def _truth(spec: GraphSpec, edges, digest: str, rebuild: bool) -> dict[str, int]:
    from truth import exact_counts

    path = WORK / "truth" / f"{digest[:20]}.json"
    if path.is_file() and not rebuild:
        return json.loads(path.read_text())["counts"]
    counts = exact_counts(edges)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"graph": spec.label, "sha256": digest, "counts": counts}
    path.write_text(json.dumps(record, indent=1) + "\n")
    return counts


def prepare(workload: Workload, seed: int, rebuild: bool = False) -> dict:
    """Write the workload's edge file, its lines in a ``seed``-shuffled
    order, and return its path with the graph's exact counts."""
    edges = workload.graph.edges()
    digest = hashlib.sha256(_canonical_text(edges)).hexdigest()
    truth = _truth(workload.graph, edges, digest, rebuild)
    order = list(edges)
    random.Random(seed).shuffle(order)
    data = _canonical_text(tuple(order))
    if workload.gzip:
        data = gzip.compress(data, compresslevel=6, mtime=0)
    workload.input_path.parent.mkdir(parents=True, exist_ok=True)
    workload.input_path.write_bytes(data)
    return {"input": str(workload.input_path), "truth": truth}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--prepare", metavar="WORKLOAD")
    action.add_argument("--rebuild-truth", action="store_true",
                        help="recompute the exact counts of every workload graph")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    import_path()
    if args.prepare:
        print(json.dumps(prepare(WORKLOADS[args.prepare], args.seed)))
        return 0
    for workload in WORKLOADS.values():
        truth = prepare(workload, args.seed, rebuild=True)["truth"]
        print(f"{workload.name}: {workload.graph.label}: {truth}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
