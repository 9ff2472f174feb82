"""Command-line interface.

One binary, six subcommands: stats, estimate, evaluate, compare, sweep,
calibrate.  Results go to stdout, diagnostics to stderr.  All randomness
flows from --seed, so identical argv gives byte-identical stdout.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
input), 3 experiment infeasible (e.g. no triangles for compare/calibrate).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from contextlib import contextmanager
from enum import IntEnum
from pathlib import Path
from typing import IO, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .analysis import (
    PesParams,
    _required_triangles,
    calibrate_pes_pool,
    pes_rse_full,
    pes_variance,
)
from .edgelist import ParseError, load_edge_list
from .harness import (
    METHODS,
    SHUFFLE_MODES,
    SWEEP_CSV_COLUMNS,
    ExperimentConfig,
    InfeasibleError,
    calibrate_csv_row,
    calibrated_config,
    estimate_csv_row,
    ratio_csv_row,
    ratio_experiment,
    run_experiment,
    rse_sweep,
    single_run,
    stats_csv_row,
    summary_csv_row,
    sweep_csv_rows,
    write_csv,
)
from .oracle import build_adjacency, compute_stats


class ExitStatus(IntEnum):
    OK = 0
    USAGE_ERROR = 1
    DATA_ERROR = 2
    INFEASIBLE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits on its own; raise instead so main() owns the exit code.
    def error(self, message: str):  # noqa: D102 - argparse override
        raise _UsageError(message)


def _fmt(value: object) -> str:
    """Human-readable value: shortest float form, 'unavailable' for None."""
    if value is None:
        return "unavailable"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _line(row: Mapping[str, object], keys: Iterable[str] = ()) -> str:
    """``column=value`` pairs of one table row, for ``keys`` (default: every
    column) in order."""
    return " ".join(f"{key}={_fmt(row[key])}" for key in keys or row)


def _checked(convert: Callable[[str], float], accept: Callable[[float], bool],
             rule: str) -> Callable[[str], float]:
    """An argparse ``type=`` that converts a value and rejects it unless
    ``accept`` holds, so a bad number fails as a usage error."""
    def parse(text: str) -> float:
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse's "invalid float value" names it
    return parse


_count = _checked(int, lambda value: value >= 1, "must be >= 1")
_seed = _checked(int, lambda value: value >= 0, "must be >= 0")
_probability = _checked(float, lambda value: 0.0 < value <= 1.0, "must lie in (0, 1]")


def _target_rse(text: str) -> float:
    """An argparse ``type=`` accepting exactly the targets the calibration does."""
    try:
        value = float(text)
        _required_triangles(value)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return value


def _parse_targets(text: str) -> list[float]:
    return [_target_rse(token) for token in text.split(",") if token.strip()]


@contextmanager
def _staged_csv(csv_path: str | None) -> Iterator[IO[str] | None]:
    """A temporary file beside ``csv_path`` that replaces it when the block
    succeeds and is removed when it fails; None without a path.

    The temporary file is created on entry, before any input is read or
    estimator run, so an unwritable target fails first, and a failed
    command leaves an existing file at ``csv_path`` untouched.
    """
    if csv_path is None:
        yield None
        return
    target = Path(os.path.realpath(csv_path))
    if target.is_dir():
        raise IsADirectoryError(f"--csv target is a directory: {csv_path}")
    staged = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        handle = open(staged, "x", newline="", encoding="utf-8")
    except OSError as err:
        raise OSError(err.errno, f"cannot write --csv file: {err.strerror}", csv_path) from None
    try:
        with handle:
            yield handle
        if target.exists():
            shutil.copymode(target, staged)
        os.replace(staged, target)
    finally:
        staged.unlink(missing_ok=True)


def _report(csv_file: IO[str] | None, lines: Sequence[str], columns: Collection[str],
            rows: Sequence[Mapping[str, object]], *, table_on_stdout: bool = False,
            note: str | None = None) -> int:
    """Print ``lines`` (then the table, with ``table_on_stdout``), write the
    table to ``csv_file`` and print ``note`` to stderr."""
    for line in lines:
        print(line)
    if table_on_stdout:
        write_csv(sys.stdout, columns, rows)
    if csv_file is not None:
        write_csv(csv_file, columns, rows)
    if note:
        print(f"note: {note}", file=sys.stderr)
    return ExitStatus.OK


def _cmd_stats(args: argparse.Namespace, csv_file: IO[str] | None) -> int:
    row = stats_csv_row(compute_stats(build_adjacency(load_edge_list(args.input))))
    return _report(None, [_line(row)], row.keys(), [row], table_on_stdout=True)


def _require_pool(args: argparse.Namespace) -> None:
    if args.method == "pes" and args.pool is None:
        raise _UsageError("--pool is required with --method pes")
    if args.method == "nes" and args.pool is not None:
        raise _UsageError("--pool is only valid with --method pes")


def _cmd_estimate(args: argparse.Namespace, csv_file: IO[str] | None) -> int:
    _require_pool(args)
    # Run 0 of the experiment seeded by --seed; "fixed" keeps the file order.
    config = ExperimentConfig(
        method=args.method, p=args.p, pool=args.pool, runs=1, base_seed=args.seed,
        shuffle="fixed" if args.shuffle == "none" else "per-run",
    )
    row = estimate_csv_row(single_run(load_edge_list(args.input), config))
    return _report(csv_file, [_line(row)], row.keys(), [row])


def _cmd_evaluate(args: argparse.Namespace, csv_file: IO[str] | None) -> int:
    _require_pool(args)
    config = ExperimentConfig(
        method=args.method, p=args.p, pool=args.pool, runs=args.runs, base_seed=args.seed,
        shuffle=args.shuffle, jobs=args.jobs,
    )
    summary = run_experiment(load_edge_list(args.input), config)
    row = summary_csv_row(summary)
    setup = ["method", "p", "pool", "runs", "base_seed", "shuffle"]
    if config.pool is None:
        setup.remove("pool")
    lines = [
        _line(row, setup),
        _line(stats_csv_row(summary.stats)),
        _line(row, ("mean_estimate", "observed_rse", "mean_triangles_observed",
                    "mean_sample_size", "predicted_rse")),
    ]
    return _report(csv_file, lines, row.keys(), [row])


def _cmd_compare(args: argparse.Namespace, csv_file: IO[str] | None) -> int:
    edges = load_edge_list(args.input)
    report = ratio_experiment(
        edges,
        args.target_rse,
        args.runs,
        args.seed,
        jobs=args.jobs,
        shuffle=args.shuffle,
        input_name=str(args.input),
    )
    row = ratio_csv_row(report)
    lines = [
        _line(row, ("target_rse", "runs", "nes_p", "pes_p", "pes_pool", "saturated")),
        _line(stats_csv_row(report.nes_summary.stats)),
        _line(row, ("nes_observed_rse", "pes_observed_rse", "observed_size_ratio",
                    "observed_probability_ratio", "predicted_ratio")),
    ]
    note = "calibration clamped at p = 1; ratios are not meaningful" if report.saturated else None
    return _report(csv_file, lines, row.keys(), [row], note=note)


def _cmd_sweep(args: argparse.Namespace, csv_file: IO[str] | None) -> int:
    edges = load_edge_list(args.input)
    rows = rse_sweep(
        edges, args.targets, args.method, args.runs, args.seed,
        jobs=args.jobs, shuffle=args.shuffle,
    )
    return _report(csv_file, [], SWEEP_CSV_COLUMNS, sweep_csv_rows(rows), table_on_stdout=True)


def _cmd_calibrate(args: argparse.Namespace, csv_file: IO[str] | None) -> int:
    edges = load_edge_list(args.input)
    stats = compute_stats(build_adjacency(edges))
    # Refused as compare refuses it, in the same order: NES, then PES.
    nes = calibrated_config("nes", stats, args.target_rse)
    pes = calibrated_config("pes", stats, args.target_rse)
    pool_rule = calibrate_pes_pool(args.target_rse, stats.clustering, wedge_cap=stats.wedges)
    variance = rse_full = note = None
    try:
        params = PesParams(p=pes.p, pool=pes.pool)
        variance = pes_variance(stats, params)
        rse_full = pes_rse_full(stats, params)
    except ValueError as err:
        note = f"variance prediction unavailable: {err}"
    row = calibrate_csv_row(args.target_rse, nes, pes, pool_rule, variance, rse_full)
    lines = [
        _line(stats_csv_row(stats)),
        _line(row, ("nes_p", "nes_clamped", "pes_p", "pes_pool", "pes_clamped", "pool_rule_n")),
    ]
    return _report(csv_file, lines, row.keys(), [row], table_on_stdout=True, note=note)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tristream",
        description="Streaming triangle estimation over randomly ordered edge streams.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser, *, csv: bool = True) -> None:
        sub.add_argument("--input", required=True, help="edge-list file (optionally gzip)")
        if csv:
            sub.add_argument("--csv", default=None, help="also write results to this CSV file")

    def experiment(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=_seed, default=0)
        sub.add_argument("--runs", type=_count, default=1000)
        sub.add_argument("--jobs", type=_count, default=1)
        sub.add_argument("--shuffle", choices=SHUFFLE_MODES, default="per-run")

    stats_cmd = commands.add_parser("stats", help="exact graph statistics")
    common(stats_cmd, csv=False)
    stats_cmd.set_defaults(handler=_cmd_stats)

    estimate_cmd = commands.add_parser("estimate", help="single estimator run")
    common(estimate_cmd)
    estimate_cmd.add_argument("--method", required=True, choices=METHODS)
    estimate_cmd.add_argument("--p", required=True, type=_probability,
                              help="edge sampling probability")
    estimate_cmd.add_argument("--pool", type=_count, default=None,
                              help="wedge pool capacity (pes)")
    estimate_cmd.add_argument("--seed", type=_seed, default=0)
    estimate_cmd.add_argument("--shuffle", choices=("per-run", "none"), default="per-run")
    estimate_cmd.set_defaults(handler=_cmd_estimate)

    evaluate_cmd = commands.add_parser("evaluate", help="k seeded runs with summary")
    common(evaluate_cmd)
    evaluate_cmd.add_argument("--method", required=True, choices=METHODS)
    evaluate_cmd.add_argument("--p", required=True, type=_probability)
    evaluate_cmd.add_argument("--pool", type=_count, default=None)
    experiment(evaluate_cmd)
    evaluate_cmd.set_defaults(handler=_cmd_evaluate)

    compare_cmd = commands.add_parser("compare", help="naive-vs-priority ratio study")
    common(compare_cmd)
    compare_cmd.add_argument("--target-rse", required=True, type=_target_rse)
    experiment(compare_cmd)
    compare_cmd.set_defaults(handler=_cmd_compare)

    sweep_cmd = commands.add_parser("sweep", help="observed vs predicted RSE per target")
    common(sweep_cmd)
    sweep_cmd.add_argument("--method", required=True, choices=METHODS)
    sweep_cmd.add_argument("--targets", required=True, type=_parse_targets,
                           help="comma-separated target RSEs, e.g. 0.1,0.2,0.3,0.4")
    experiment(sweep_cmd)
    sweep_cmd.set_defaults(handler=_cmd_sweep)

    calibrate_cmd = commands.add_parser("calibrate", help="recommended parameters for a target RSE")
    common(calibrate_cmd)
    calibrate_cmd.add_argument("--target-rse", required=True, type=_target_rse)
    calibrate_cmd.set_defaults(handler=_cmd_calibrate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with _staged_csv(getattr(args, "csv", None)) as csv_file:
            return args.handler(args, csv_file)
    except SystemExit as exc:  # --help paths
        return ExitStatus.OK if exc.code in (0, None) else ExitStatus.USAGE_ERROR
    except (ParseError, OSError) as err:  # ParseError before its base ValueError
        print(f"error: {err}", file=sys.stderr)
        return ExitStatus.DATA_ERROR
    except InfeasibleError as err:
        print(f"error: {err}", file=sys.stderr)
        return ExitStatus.INFEASIBLE
    except (_UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return ExitStatus.USAGE_ERROR


def entry_point() -> None:
    sys.exit(int(main()))


if __name__ == "__main__":
    entry_point()
