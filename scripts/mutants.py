#!/usr/bin/env python3
"""Re-run a fixed table of hand-made mutants against the test suite.

Each row of ``MUTANTS`` names a source file, an exact text that occurs in it
once, the text that replaces it, and the tests expected to fail on the
result.  The script copies the repository's files (tracked, plus untracked
ones that are not ignored) to a temporary directory, checks that the
unmutated copy passes every listed test, then applies one row at a time and
runs that row's tests with ``-x``.  A row whose tests still pass survived.
Each of the 31 rows is killed by a failing test within seconds; a row whose
tests run past five times the baseline's time (a mutant that makes a loop
endless) is also counted as killed, with "timeout" in its line.  The last
line gives the run's wall time.

The exit status is 0 when every mutant is killed, and 1 when one survives,
a row's text is not found exactly once, or the baseline fails.  Mutation
analysis: DeMillo, Lipton and Sayward, "Hints on Test Data Selection",
IEEE Computer, 1978.

Usage:
    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # for the baseline, which sets each row's timeout
ROW_TIMEOUT_FACTOR = 5


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


EDGELIST = "src/tristream/edgelist.py"
ORACLE = "src/tristream/oracle.py"
GENERATORS = "src/tristream/generators.py"
ESTIMATORS = "src/tristream/estimators.py"
ANALYSIS = "src/tristream/analysis.py"
RANDOMNESS = "src/tristream/randomness.py"
HARNESS = "src/tristream/harness.py"
CLI = "src/tristream/cli.py"
GENERATOR_TESTS = (
    "tests/test_generators.py::test_generators_emit_normalized_edge_lists",
    "tests/test_generators.py::test_generator_edge_lists_match_pinned_digest",
)
ESTIMATOR_TESTS = ("tests/test_estimators.py",)
AUDIT_CASE = "tests/test_estimators.py::test_pool_audit_catches_corruption[{}]"

# Each condition of WedgePool.audit, and a corruption case that it catches.
AUDIT_CONDITIONS = (
    ("len(self.centers) != size or len(self.closed) != size", "slot_lists_out_of_step"),
    ("size != expected_size", "occupancy_drift"),
    ("not a < b", "non_canonical_pair"),
    ("len(self._chain) != size", "chain_links_out_of_step"),
    ("chained.get(pair) != open_slots.get(pair)", "unfiled_open_slot"),
)

MUTANTS = (
    Mutant(
        "parse splits on newline only",
        EDGELIST,
        "text[start:end].splitlines()",
        'text[start:end].split("\\n")',
        ("tests/test_edgelist.py::test_parser_matches_two_pass_reference",),
    ),
    Mutant(
        "parse chunk ends before its newline",
        EDGELIST,
        "end = size if end < 0 else end + 1",
        "end = size if end < 0 else end",
        ("tests/test_edgelist.py::test_parser_matches_two_pass_reference",),
    ),
    Mutant(
        "parse keeps a repeat's last place",
        EDGELIST,
        "            if a < b:\n"
        "                first[a, b] = None\n"
        "            elif b < a:\n"
        "                first[b, a] = None\n",
        "            if a < b:\n"
        "                first.pop((a, b), None)\n"
        "                first[a, b] = None\n"
        "            elif b < a:\n"
        "                first.pop((b, a), None)\n"
        "                first[b, a] = None\n",
        ("tests/test_edgelist.py::test_parse_preserves_first_occurrence_order",),
    ),
    Mutant(
        "parse keeps self-loops",
        EDGELIST,
        "            elif b < a:\n",
        "            else:\n",
        ("tests/test_edgelist.py::test_parse_drops_self_loops_and_duplicates",),
    ),
    Mutant(
        "load never detects gzip",
        EDGELIST,
        "if data[:2] == _GZIP_MAGIC:",
        "if False:",
        ("tests/test_edgelist.py::test_parse_gzip_detected_by_magic_bytes",),
    ),
    Mutant(
        "load keeps the byte-order mark",
        EDGELIST,
        'data.decode("utf-8-sig")',
        'data.decode("utf-8")',
        ("tests/test_edgelist.py::test_load_skips_byte_order_mark",),
    ),
    Mutant(
        "census counts an equal-degree edge from both ends",
        ORACLE,
        "len(others) == degree and v < u",
        "len(others) == degree",
        ("tests/test_oracle.py::test_counts_match_brute_force",),
    ),
    Mutant(
        "census accepts a repeated neighbor",
        ORACLE,
        "if len(members) != degree:",
        "if False:",
        ("tests/test_oracle.py::test_unnormalized_edge_list_rejected",),
    ),
    Mutant(
        "BA emits each edge newer endpoint first",
        GENERATORS,
        "edges.extend((target, source) for target in targets)",
        "edges.extend((source, target) for target in targets)",
        GENERATOR_TESTS,
    ),
    Mutant(
        "cycle emits its closing edge reversed",
        GENERATORS,
        "make_edge(i, (i + 1) % node_count)",
        "(i, (i + 1) % node_count)",
        GENERATOR_TESTS,
    ),
    Mutant(
        "reservoir draw compares with <=",
        ESTIMATORS,
        "if uniform() < capacity / count:",
        "if uniform() <= capacity / count:",
        ("tests/test_exact_expectation.py",),
    ),
    Mutant(
        "reservoir keeps with capacity / (t + 1)",
        ESTIMATORS,
        "if uniform() < capacity / count:",
        "if uniform() < capacity / (count + 1):",
        ("tests/test_exact_expectation.py",),
    ),
    Mutant(
        "randrange accepts r == n",
        RANDOMNESS,
        "while r >= n:",
        "while r > n:",
        ("tests/test_randomness.py",),
    ),
    Mutant(
        "shuffle rejects j == i",
        EDGELIST,
        "while j > i:",
        "while j >= i:",
        ("tests/test_edgelist.py",),
    ),
    Mutant(
        "unlink cuts a mid-chain slot's tail",
        ESTIMATORS,
        "chain[head] = chain[index]",
        "chain[head] = -1",
        ESTIMATOR_TESTS,
    ),
    Mutant(
        "unlink drops a chain whose head is replaced",
        ESTIMATORS,
        "elif chain[index] != -1:",
        "elif False:",
        ESTIMATOR_TESTS,
    ),
    Mutant(
        "close stops after the chain head",
        ESTIMATORS,
        "            closed[index] = True\n"
        "            index = chain[index]\n",
        "            closed[index] = True\n"
        "            index = -1\n",
        ESTIMATOR_TESTS,
    ),
    Mutant(
        "a replaced closed slot stays closed",
        ESTIMATORS,
        "                        closed[index] = False\n",
        "                        pass\n",
        ESTIMATOR_TESTS,
    ),
    Mutant(
        "no candidate_count write-back before on_step",
        ESTIMATORS,
        "            pool.candidate_count = count\n"
        "            on_step(",
        "            on_step(",
        ESTIMATOR_TESTS,
    ),
    Mutant(
        "no candidate_count write-back at the end of the run",
        ESTIMATORS,
        "    pool.candidate_count = count\n"
        "    closed_count = pool.closed_count\n",
        "    closed_count = pool.closed_count\n",
        ESTIMATOR_TESTS,
    ),
    Mutant(
        "compare and sweep check their settings after the oracle",
        HARNESS,
        "    _check_settings(runs, jobs, base_seed, shuffle)\n"
        "    if not plan:\n"
        "        return []\n"
        "    _require_runs(runs)\n"
        "    truth = compute_stats(build_adjacency(edges))\n",
        "    if not plan:\n"
        "        return []\n"
        "    _require_runs(runs)\n"
        "    truth = compute_stats(build_adjacency(edges))\n"
        "    _check_settings(runs, jobs, base_seed, shuffle)\n",
        ("tests/test_harness.py::test_bad_setting_refused_before_the_oracle",),
    ),
    Mutant(
        "--csv may name the input file",
        CLI,
        "if target.exists() and Path(input_path).exists() and target.samefile(input_path):",
        "if False:",
        ("tests/test_cli.py::test_csv_naming_the_input_is_refused",),
    ),
    Mutant(
        "evaluate stages --csv before its config",
        CLI,
        "    config = ExperimentConfig(\n"
        "        method=args.method, p=args.p, pool=args.pool, runs=args.runs,"
        " base_seed=args.seed,\n"
        "        shuffle=args.shuffle, jobs=args.jobs,\n"
        "    )\n"
        "    with _staged_csv(args.csv, args.input) as csv_file:\n",
        "    with _staged_csv(args.csv, args.input) as csv_file:\n"
        "        config = ExperimentConfig(\n"
        "            method=args.method, p=args.p, pool=args.pool, runs=args.runs,\n"
        "            base_seed=args.seed, shuffle=args.shuffle, jobs=args.jobs,\n"
        "        )\n",
        ("tests/test_cli.py::test_bad_number_refused_before_reading_input",),
    ),
    Mutant(
        "pool check accepts an empty pool",
        ANALYSIS,
        "if pool < 1:",
        "if pool < 0:",
        ("tests/test_estimators.py::test_invalid_pool_rejected",
         "tests/test_harness.py::test_config_rejects_what_a_run_would"),
    ),
    Mutant(
        "audit walks a chain one slot short",
        ESTIMATORS,
        "len(slots) <= size:",
        "len(slots) < size:",
        (AUDIT_CASE.format("chain_cycle"),),
    ),
    Mutant(
        "calibrate prints no note where the variance theory refuses",
        CLI,
        'note = f"variance prediction unavailable: {err}"',
        "note = None",
        ("tests/test_cli.py::test_calibrate_notes_unavailable_variance_prediction",),
    ),
    *(
        Mutant(f"audit misses {case}", ESTIMATORS, f"if {condition}:", "if False:",
               (AUDIT_CASE.format(case),))
        for condition, case in AUDIT_CONDITIONS
    ),
)


def _copy_repository(dest: Path) -> None:
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _run_tests(copy: Path, tests: tuple[str, ...], timeout: float) -> int | None:
    """Pytest's exit status on ``tests`` in the copy, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    run_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="tristream-mutants-") as tmp:
        copy = Path(tmp)
        _copy_repository(copy)
        for mutant in MUTANTS:
            found = (copy / mutant.path).read_text(encoding="utf-8").count(mutant.old)
            if found != 1:
                print(f"error: {mutant.name}: old text occurs {found} times in {mutant.path}")
                return 1
        every_test = tuple(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        start = time.perf_counter()
        status = _run_tests(copy, every_test, TIMEOUT_S)
        baseline_s = time.perf_counter() - start
        print(f"baseline   {baseline_s:6.1f} s  exit {status}")
        if status != 0:
            print("error: the unmutated copy fails the listed tests")
            return 1
        row_timeout = ROW_TIMEOUT_FACTOR * baseline_s
        survivors = 0
        for mutant in MUTANTS:
            target = copy / mutant.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            status = _run_tests(copy, mutant.tests, row_timeout)
            target.write_text(original, encoding="utf-8")
            # Exit 1 is a failed test and 2 a failed collection; both kill.
            killed = status is None or status in (1, 2)
            survivors += not killed
            verdict = "killed  " if killed else "SURVIVED"
            detail = "timeout" if status is None else f"exit {status}"
            print(f"{verdict} {time.perf_counter() - start:6.1f} s  {detail}  {mutant.name}")
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed "
              f"in {time.perf_counter() - run_start:.1f} s")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
