#!/usr/bin/env python3
"""Re-run a fixed table of hand-made mutants against the test suite.

Each row of ``MUTANTS`` names a source file, an exact text that occurs in it
once, the text that replaces it, and the tests expected to fail on the
result.  The script copies the repository's files (tracked, plus untracked
ones that are not ignored) to a temporary directory, checks that the
unmutated copy passes every listed test, then applies one row at a time and
runs that row's tests with ``-x``.  A row whose tests still pass survived.
Every row is killed by a failing test within seconds; a row whose
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
JOBS_TEST = "tests/test_harness.py::test_jobs_capped_at_runs_and_cores"
CHAIN_TEST = "tests/test_estimators.py::test_pool_chains_many_open_slots_under_one_pair"
FULL_DEVICE_TEST = "tests/test_cli.py::test_csv_write_to_a_full_device_prints_nothing"
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
        "parse splits the whole text as one chunk",
        EDGELIST,
        'end = text.find("\\n", start + _CHUNK)',
        "end = -1",
        ("tests/test_edgelist.py::test_parse_holds_one_chunk_of_lines_at_a_time",),
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
        "adjacency inserts an absent node on lookup",
        ORACLE,
        "    adjacency.default_factory = None\n",
        "",
        ("tests/test_oracle.py::test_single_edge",),
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
        "if not uniform() < capacity / count:",
        "if not uniform() <= capacity / count:",
        ("tests/test_exact_expectation.py",),
    ),
    Mutant(
        "reservoir keeps with capacity / (t + 1)",
        ESTIMATORS,
        "if not uniform() < capacity / count:",
        "if not uniform() < capacity / (count + 1):",
        ("tests/test_exact_expectation.py",),
    ),
    Mutant(
        "the capacity-th candidate draws",
        ESTIMATORS,
        "if count > capacity:",
        "if count >= capacity:",
        ("tests/test_estimators.py::test_pool_at_the_wedge_count_boundary",),
    ),
    Mutant(
        "filing keeps a replaced slot's old center",
        ESTIMATORS,
        "                centers[index] = center\n",
        "",
        ("tests/test_estimators.py::test_pool_stale_index_entries_close_nothing",),
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
        (CHAIN_TEST,),
    ),
    Mutant(
        "unlink drops a chain whose head is replaced",
        ESTIMATORS,
        "elif chain[index] != -1:",
        "elif False:",
        (CHAIN_TEST,),
    ),
    Mutant(
        "close stops after the chain head",
        ESTIMATORS,
        "            closed[index] = True\n"
        "            index = chain[index]\n",
        "            closed[index] = True\n"
        "            index = -1\n",
        (CHAIN_TEST,),
    ),
    Mutant(
        "a replaced closed slot stays closed",
        ESTIMATORS,
        "                        closed[index] = False\n",
        "                        pass\n",
        ("tests/test_estimators.py::test_eviction_of_closed_wedge_decrements_count",),
    ),
    Mutant(
        "no candidate_count write-back before on_step",
        ESTIMATORS,
        "            pool.candidate_count = count\n"
        "            on_step(",
        "            on_step(",
        ("tests/test_estimators.py::test_scripted_replay_pool_trace",),
    ),
    Mutant(
        "no candidate_count write-back at the end of the run",
        ESTIMATORS,
        "    pool.candidate_count = count\n"
        "    closed_count = pool.closed_count\n",
        "    closed_count = pool.closed_count\n",
        ("tests/test_exact_expectation.py::"
         "test_pes_exactly_unbiased_in_every_order_of_a_pendant_triangle",),
    ),
    Mutant(
        "compare and sweep check their settings after the oracle",
        HARNESS,
        "    _check_settings(runs, jobs, base_seed, shuffle)\n"
        "    if not plan:\n"
        "        return iter(())\n"
        "    _require_runs(runs)\n"
        "    truth = compute_stats(build_adjacency(edges))\n",
        "    if not plan:\n"
        "        return iter(())\n"
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
        "--csv stages under the pid alone",
        CLI,
        "os.urandom(8).hex()",
        "os.getpid()",
        ("tests/test_cli.py::test_stale_staged_file_does_not_block_csv",),
    ),
    Mutant(
        "--csv stages and replaces a target that is not a regular file",
        CLI,
        "in_place = Path(csv_path).exists() and not Path(csv_path).is_file()",
        "in_place = False",
        ("tests/test_cli.py::test_csv_to_a_fifo_writes_in_place",),
    ),
    # "with handle:" then "yield handle" occurs twice, so each row starts a line earlier.
    Mutant(
        "--csv leaves the staged file open",
        CLI,
        "    try:\n        with handle:\n            yield handle\n",
        "    try:\n        yield handle\n",
        ("tests/test_cli.py::test_csv_replaces_existing_file_on_success",),
    ),
    Mutant(
        "--csv leaves a file written in place open",
        CLI,
        "    if in_place:\n        with handle:\n            yield handle\n",
        "    if in_place:\n        yield handle\n",
        ("tests/test_cli.py::test_csv_to_a_fifo_writes_in_place",),
    ),
    Mutant(
        "--csv is written after stdout",
        CLI,
        "    if csv_file is not None:\n"
        "        write_csv(csv_file, columns, rows)\n"
        "        csv_file.flush()\n"
        "    for line in lines:\n"
        "        print(line)\n"
        "    if table_on_stdout:\n"
        "        write_csv(sys.stdout, columns, rows)\n",
        "    for line in lines:\n"
        "        print(line)\n"
        "    if table_on_stdout:\n"
        "        write_csv(sys.stdout, columns, rows)\n"
        "    if csv_file is not None:\n"
        "        write_csv(csv_file, columns, rows)\n",
        (FULL_DEVICE_TEST, "tests/test_cli.py::test_failed_csv_write_prints_nothing"),
    ),
    Mutant(
        "--csv is not flushed before stdout",
        CLI,
        "        csv_file.flush()\n",
        "",
        (FULL_DEVICE_TEST,),
    ),
    Mutant(
        "workers take one run index per task",
        HARNESS,
        "chunksize=ceil(config.runs / workers)",
        "chunksize=1",
        (JOBS_TEST,),
    ),
    Mutant(
        "worker count not capped at the run count",
        HARNESS,
        "min(config.jobs, config.runs, os.cpu_count() or 1)",
        "min(config.jobs, os.cpu_count() or 1)",
        (JOBS_TEST,),
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
        "RSE refuses a one-triangle graph",
        ANALYSIS,
        "    if stats.triangles <= 0:\n        raise ValueError(\"RSE undefined",
        "    if stats.triangles <= 1:\n        raise ValueError(\"RSE undefined",
        ("tests/test_analysis.py::test_rse_full_requires_triangles",),
    ),
    Mutant(
        "pool theory accepts one expected candidate",
        ANALYSIS,
        "if candidates <= 1.0:",
        "if candidates < 1.0:",
        ("tests/test_analysis.py::test_variance_domain_errors",),
    ),
    Mutant(
        "calibrated pool may round to empty",
        ANALYSIS,
        "pool = max(1, round(p * stats.edge_count))",
        "pool = max(0, round(p * stats.edge_count))",
        ("tests/test_analysis.py::test_calibrate_pes_pool_is_at_least_one",),
    ),
    Mutant(
        "pool rule returns a zero wedge cap",
        ANALYSIS,
        "return max(1, wedge_cap)",
        "return max(0, wedge_cap)",
        ("tests/test_analysis.py::test_calibrate_pes_pool_cap_and_domain",),
    ),
    Mutant(
        "ratio refuses a single edge",
        ANALYSIS,
        "if edge_count < 1:",
        "if edge_count <= 1:",
        ("tests/test_analysis.py::test_nes_pes_ratio_examples",),
    ),
    Mutant(
        "ratio refuses a single wedge",
        ANALYSIS,
        "if wedges < 1:",
        "if wedges <= 1:",
        ("tests/test_analysis.py::test_nes_pes_ratio_examples",),
    ),
    Mutant(
        "audit accepts a pair of one node",
        ESTIMATORS,
        "if not a < b:",
        "if not a <= b:",
        (AUDIT_CASE.format("pair_of_one_node"),),
    ),
    Mutant(
        "audit follows a chain link past the pool",
        ESTIMATORS,
        "0 <= index < size",
        "0 <= index <= size",
        (AUDIT_CASE.format("chain_link_past_pool"),),
    ),
    Mutant(
        "audit follows a chain link below the pool",
        ESTIMATORS,
        "0 <= index < size",
        "index < size",
        (AUDIT_CASE.format("chain_link_below_pool"),),
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
