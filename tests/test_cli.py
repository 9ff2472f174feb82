from __future__ import annotations

import codecs
import contextlib
import errno
import gzip
import io
import math
import os
import stat
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tristream
from tristream import (
    ExperimentConfig,
    SeededSource,
    barabasi_albert,
    cli,
    load_edge_list,
    nes_run,
    pes_run,
    run_experiment,
    serialize_edge_list,
)
from tristream.cli import main
from tristream.harness import estimate_csv_row

from conftest import TOY_TEXT

TOY_GRAPH_FILE = Path(__file__).parents[1] / "data" / "toy_graph.txt"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_failure(expected_code: int, code: int, out: str, err: str) -> None:
    """``expected_code`` with nothing on stdout and exactly one ``error:`` line."""
    assert (code, out) == (expected_code, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_data_error(code: int, out: str, err: str) -> None:
    assert_failure(2, code, out, err)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_toy_graph(capsys, toy_file):
    code, out, err = run_cli(capsys, "stats", "--input", str(toy_file))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "N=11 M=13 triangles=3 wedges=32 shared_pairs=1 clustering=0.28125"
    )
    assert lines[1] == "N,M,triangles,wedges,shared_pairs,clustering"
    assert lines[2] == "11,13,3,32,1,0.28125"
    assert err == ""


def test_stats_gzip_input(capsys, tmp_path):
    path = tmp_path / "toy.txt.gz"
    path.write_bytes(gzip.compress(TOY_TEXT.encode()))
    code, out, _ = run_cli(capsys, "stats", "--input", str(path))
    assert code == 0
    assert "triangles=3" in out


def test_stats_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "stats", "--input", str(tmp_path / "nope.txt"))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_stats_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\nnot numbers\n")
    code, _, err = run_cli(capsys, "stats", "--input", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("damage", ["truncated", "zeroed"])
def test_stats_corrupt_gzip(capsys, tmp_path, damage):
    # Truncation ends the deflate stream early (EOFError); these zeroed bytes
    # break it mid-way (zlib.error) before the CRC is ever checked.
    data = bytearray(gzip.compress(serialize_edge_list(barabasi_albert(2000, 8, seed=1)).encode()))
    if damage == "truncated":
        del data[20000:]
    else:
        data[5000:5100] = bytes(100)
    path = tmp_path / "bad.txt.gz"
    path.write_bytes(bytes(data))
    code, out, err = run_cli(capsys, "stats", "--input", str(path))
    assert_data_error(code, out, err)
    assert "corrupt gzip data" in err


def test_stats_non_utf8_input(capsys, tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"1 2\n\xff\xfe 3\n")
    code, out, err = run_cli(capsys, "stats", "--input", str(path))
    assert_data_error(code, out, err)
    assert err == "error: line 2: not UTF-8 text\n"


def test_stats_non_utf8_line_counted_as_the_parser_counts(capsys, tmp_path):
    # A lone carriage return ends a line for the parser, so the bad byte
    # sits on line 2.
    path = tmp_path / "cr.txt"
    path.write_bytes(b"1 2\r\xff 3\r")
    code, out, err = run_cli(capsys, "stats", "--input", str(path))
    assert_data_error(code, out, err)
    assert err == "error: line 2: not UTF-8 text\n"


# Bytes that split, comment, mark or wrap lines, or that only look like
# numbers, drawn as whole tokens so that they meet each other.
RAW_TOKENS = [bytes([byte]) for byte in b"0123456789 \t\n\r#%-_\x00\x0b\x1c"] + [
    "\x85".encode(), "\u2028".encode(), codecs.BOM_UTF8, b"\x1f\x8b",
]
raw_file = st.one_of(st.binary(), st.lists(st.sampled_from(RAW_TOKENS)).map(b"".join))


@pytest.fixture(scope="module")
def raw_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("raw-bytes")


@given(data=raw_file, cut=st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_stats_any_bytes_exit_cleanly(raw_dir, data, cut):
    # The same bytes plain, gzip-wrapped, and gzip-wrapped but cut short.
    packed = gzip.compress(data)
    for name, content in (("plain", data), ("gzip", packed), ("cut", packed[: cut % len(packed)])):
        path = raw_dir / name
        path.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["stats", "--input", str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert "Traceback" not in out + err
        if code != 0:
            assert_data_error(code, out, err)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_full_sampling_is_exact(capsys, toy_file):
    code, out, _ = run_cli(
        capsys, "estimate", "--method", "pes", "--p", "1.0", "--pool", "1000",
        "--seed", "7", "--input", str(toy_file), "--shuffle", "none",
    )
    assert code == 0
    assert "estimate=3 " in out
    assert "method=pes" in out
    assert "candidate_wedges=32" in out


def test_estimate_rejects_bad_probability(capsys, toy_file):
    code, out, err = run_cli(
        capsys, "estimate", "--method", "pes", "--p", "0", "--pool", "4",
        "--input", str(toy_file),
    )
    assert code == 1
    assert "p" in err
    assert out == ""


def refused_before_reading(capsys, monkeypatch, tmp_path, commands: tuple[str, ...],
                           *argv: str) -> list[str]:
    """The stderr of each of ``commands`` on its ``CSV_COMMANDS`` arguments
    followed by ``argv``, each of which must be refused as a usage error
    before reading its input, with --csv naming an existing file (left
    untouched) or a file in a missing directory (left uncreated)."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{argv} was checked after reading the input")

    monkeypatch.setattr(cli, "load_edge_list", refuse)
    target = tmp_path / "out.csv"
    target.write_text("earlier results\n")
    errors = []
    for command in commands:
        for csv_path in (target, tmp_path / "missing" / "out.csv"):
            code, out, err = run_cli(
                capsys, command, *CSV_COMMANDS[command], *argv,
                "--input", str(TOY_GRAPH_FILE), "--csv", str(csv_path),
            )
            assert_failure(1, code, out, err)
            errors.append(err)
    assert target.read_text() == "earlier results\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]
    return errors


def test_estimate_requires_pool_for_pes(capsys, monkeypatch, tmp_path):
    errors = refused_before_reading(
        capsys, monkeypatch, tmp_path, ("estimate", "evaluate"), "--method", "pes"
    )
    assert errors == ["error: pes needs a pool size\n"] * 4


def test_estimate_rejects_pool_for_nes(capsys, monkeypatch, tmp_path):
    errors = refused_before_reading(
        capsys, monkeypatch, tmp_path, ("estimate", "evaluate"), "--pool", "4"
    )
    assert errors == ["error: nes takes no pool size, got pool = 4\n"] * 4


def test_estimate_deterministic_stdout(capsys, toy_file):
    argv = (
        "estimate", "--method", "pes", "--p", "0.4", "--pool", "8",
        "--seed", "123", "--input", str(toy_file),
    )
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_estimate_nes_omits_pool_fields(capsys, toy_file):
    code, out, _ = run_cli(
        capsys, "estimate", "--method", "nes", "--p", "1.0",
        "--seed", "3", "--input", str(toy_file),
    )
    assert code == 0
    assert "q=" not in out
    assert "pool_size=" not in out
    assert "estimate=3 " in out


def test_estimate_triangle_free_reports_unavailable(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("0 1\n0 2\n0 3\n")
    code, out, _ = run_cli(
        capsys, "estimate", "--method", "nes", "--p", "1.0", "--input", str(path)
    )
    assert code == 0
    assert "estimate=0 " in out
    assert "estimated_rse=unavailable" in out


def test_estimate_csv_row(capsys, toy_file, tmp_path):
    csv_path = tmp_path / "est.csv"
    code, _, _ = run_cli(
        capsys, "estimate", "--method", "pes", "--p", "1.0", "--pool", "50",
        "--seed", "1", "--input", str(toy_file), "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("method,estimate,p,q,")
    assert lines[1].startswith("pes,3,1,")


ESTIMATE_METHODS = {"nes": [], "pes": ["--pool", "6"]}


@pytest.mark.parametrize("method", ESTIMATE_METHODS)
def test_estimate_is_run_zero_of_an_experiment(capsys, method):
    code, out, _ = run_cli(
        capsys, "estimate", "--method", method, "--p", "0.6", *ESTIMATE_METHODS[method],
        "--seed", "41", "--input", str(TOY_GRAPH_FILE),
    )
    config = ExperimentConfig(method=method, p=0.6, pool=6 if method == "pes" else None,
                              runs=2, base_seed=41)
    run_zero = run_experiment(load_edge_list(TOY_GRAPH_FILE), config).results[0]
    assert code == 0
    assert out == cli._line(estimate_csv_row(run_zero)) + "\n"


@pytest.mark.parametrize("method", ESTIMATE_METHODS)
def test_estimate_shuffle_none_streams_the_file_order(capsys, method):
    code, out, _ = run_cli(
        capsys, "estimate", "--method", method, "--p", "0.6", *ESTIMATE_METHODS[method],
        "--seed", "5", "--shuffle", "none", "--input", str(TOY_GRAPH_FILE),
    )
    edges = load_edge_list(TOY_GRAPH_FILE)
    if method == "nes":
        result = nes_run(edges, 0.6, SeededSource(5))
    else:
        result = pes_run(edges, 0.6, 6, SeededSource(5))
    assert code == 0
    assert out == cli._line(estimate_csv_row(result)) + "\n"


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_flag(capsys, toy_file):
    code, _, err = run_cli(capsys, "stats", "--input", str(toy_file), "--bogus")
    assert code == 1
    assert err != ""


def test_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["estimate", "--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# evaluate / compare / sweep / calibrate
# ---------------------------------------------------------------------------


def test_evaluate_writes_summary(capsys, tmp_path):
    from tristream import erdos_renyi, serialize_edge_list

    path = tmp_path / "er.txt"
    path.write_text(serialize_edge_list(erdos_renyi(30, 0.4, seed=21)))
    csv_path = tmp_path / "summary.csv"
    code, out, _ = run_cli(
        capsys, "evaluate", "--input", str(path), "--method", "nes", "--p", "0.5",
        "--runs", "40", "--seed", "9", "--csv", str(csv_path),
    )
    assert code == 0
    assert "observed_rse=" in out
    assert "mean_estimate=" in out
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("method,p,pool,runs,base_seed,shuffle,mean_estimate")


def test_evaluate_insufficient_runs(capsys, toy_file):
    code, _, err = run_cli(
        capsys, "evaluate", "--input", str(toy_file), "--method", "nes",
        "--p", "0.5", "--runs", "1",
    )
    assert code == 3
    assert "insufficient runs" in err


def test_compare_triangle_free_exits_infeasible(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("0 1\n0 2\n0 3\n0 4\n")
    code, _, err = run_cli(
        capsys, "compare", "--input", str(path), "--target-rse", "0.2", "--runs", "10"
    )
    assert code == 3
    assert "triangle count = 0" in err


def test_compare_on_toy_reports_saturated(capsys, toy_file):
    code, out, err = run_cli(
        capsys, "compare", "--input", str(toy_file), "--target-rse", "0.2",
        "--runs", "20", "--seed", "4",
    )
    assert code == 0
    assert "saturated=true" in out
    assert "not meaningful" in err


def test_sweep_stdout_and_csv(capsys, tmp_path):
    from tristream import erdos_renyi, serialize_edge_list

    path = tmp_path / "er.txt"
    path.write_text(serialize_edge_list(erdos_renyi(30, 0.4, seed=21)))
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--input", str(path), "--method", "nes",
        "--targets", "0.2,0.4", "--runs", "30", "--seed", "2", "--csv", str(csv_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "target_rse,observed_rse,predicted_rse,mean_triangles_observed,mean_sample_size"
    assert len(lines) == 3
    assert csv_path.read_text().splitlines()[0] == lines[0]


def test_sweep_empty_targets_succeeds(capsys, toy_file):
    code, out, _ = run_cli(
        capsys, "sweep", "--input", str(toy_file), "--method", "nes",
        "--targets", "", "--runs", "10",
    )
    assert code == 0
    assert len(out.splitlines()) == 1  # header only


def test_calibrate_toy(capsys, toy_file):
    code, out, _ = run_cli(
        capsys, "calibrate", "--input", str(toy_file), "--target-rse", "0.2"
    )
    assert code == 0
    assert "nes_p=1 nes_clamped=true" in out
    assert "pool_rule_n=32" in out  # heuristic capped at the wedge count
    assert "target_rse,nes_p" in out


def test_calibrate_triangle_free_exits_infeasible(capsys, tmp_path):
    path = tmp_path / "path.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    code, _, err = run_cli(
        capsys, "calibrate", "--input", str(path), "--target-rse", "0.2"
    )
    assert code == 3
    assert "triangle count = 0" in err


@pytest.mark.parametrize("text, target", [
    ("0 1\n1 2\n0 2\n", "2"),  # p * wedges = 0.75 <= 1
    ("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n", "0.9"),  # q = 1.08 > 1
])
def test_calibrate_notes_unavailable_variance_prediction(capsys, tmp_path, text, target):
    path = tmp_path / "triangles.txt"
    path.write_text(text)
    csv_path = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, "calibrate", "--input", str(path), "--target-rse", target,
                             "--csv", str(csv_path))
    assert code == 0
    stats_line, parameter_line, *table = out.splitlines()
    assert stats_line.startswith("N=") and parameter_line.startswith("nes_p=")
    header, row = (line.split(",") for line in table)
    predictions = dict(zip(header, row))
    columns = header[header.index("predicted_var_total"):]
    assert columns[-1] == "predicted_rse_full"
    assert all(predictions[column] == "" for column in columns)
    assert csv_path.read_text() == "\n".join(table) + "\n"
    assert err.startswith("note: variance prediction unavailable:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Numeric arguments
# ---------------------------------------------------------------------------

BAD_NUMBERS = [
    # An infinite target crashed the calibration; nan ran and printed nan.
    ("compare", "--target-rse", "inf"),
    ("compare", "--target-rse", "nan"),
    ("compare", "--target-rse", "0"),
    # 1 / target**2 overflows (1e-300) or vanishes (1e308).
    ("calibrate", "--target-rse", "1e-300"),
    ("calibrate", "--target-rse", "1e308"),
    ("calibrate", "--target-rse", "nan"),
    ("calibrate", "--target-rse=-0.5"),
    ("sweep", "--method", "nes", "--targets", "0.1,nan"),
    ("sweep", "--method", "nes", "--targets", "0.1,inf"),
    ("sweep", "--method", "nes", "--targets", "0,0.1"),
    ("sweep", "--method", "nes", "--targets", "0.1,x"),
    ("estimate", "--method", "nes", "--p", "nan"),
    ("estimate", "--method", "nes", "--p", "1.5"),
    # In range, but p * p is 0, so no estimate can be scaled.
    ("estimate", "--method", "nes", "--p", "5e-324"),
    ("estimate", "--method", "pes", "--p", "0.5", "--pool", "0"),
    ("evaluate", "--method", "nes", "--p", "0.5", "--runs", "0"),
    ("evaluate", "--method", "nes", "--p", "0.5", "--runs", "2.5"),
    ("evaluate", "--method", "nes", "--p", "0.5", "--jobs", "0"),
    ("evaluate", "--method", "pes", "--p", "0.5", "--pool", "-1"),
    ("evaluate", "--method", "nes", "--p", "5e-324"),
    # random.Random seeds with |seed|, so a negative seed repeats another's draws.
    ("estimate", "--method", "nes", "--p", "0.5", "--seed", "-1"),
    ("evaluate", "--method", "nes", "--p", "0.5", "--seed", "-1"),
    ("compare", "--target-rse", "0.3", "--seed", "-1"),
    ("sweep", "--method", "nes", "--targets", "0.3", "--seed", "-1"),
]


@pytest.mark.parametrize("argv", BAD_NUMBERS, ids=" ".join)
def test_bad_number_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--input", str(TOY_GRAPH_FILE))
    assert_failure(1, code, out, err)


# Later flags override the CSV_COMMANDS ones; every command that takes the
# number is checked.
@pytest.mark.parametrize("commands, argv", [
    (("estimate", "evaluate"), ("--p", "5e-324")),
    (("estimate", "evaluate"), ("--method", "pes", "--pool", "0")),
    (("evaluate", "compare", "sweep"), ("--runs", "0")),
    (("evaluate", "compare", "sweep"), ("--jobs", "0")),
    (("estimate", "evaluate", "compare", "sweep"), ("--seed", "-1")),
], ids=["p 5e-324", "pes pool 0", "runs 0", "jobs 0", "seed -1"])
def test_bad_number_refused_before_reading_input(capsys, monkeypatch, tmp_path, commands, argv):
    refused_before_reading(capsys, monkeypatch, tmp_path, commands, *argv)


@pytest.mark.parametrize("argv", [
    ("compare", "--target-rse", "1e160"),
    ("calibrate", "--target-rse", "1e160"),
    ("sweep", "--method", "nes", "--targets", "0.3,1e160"),
], ids=" ".join)
def test_target_out_of_calibration_range_refused_before_reading_input(
    capsys, monkeypatch, argv
):
    # 1 / 1e160**2 is 0, so no calibration can meet the target.
    def refuse(*args, **kwargs):
        raise AssertionError(f"{argv[0]} read its input before checking the target")

    monkeypatch.setattr(cli, "load_edge_list", refuse)
    code, out, err = run_cli(capsys, *argv, "--input", str(TOY_GRAPH_FILE))
    assert_failure(1, code, out, err)
    assert "target RSE 1e+160 is out of range" in err


@pytest.mark.parametrize("argv", [
    ("compare", "--target-rse", "1e150", "--runs", "3"),
    ("sweep", "--method", "pes", "--targets", "1e150"),
    ("calibrate", "--target-rse", "1e150"),
], ids=" ".join)
def test_target_calibrated_to_unusable_p_is_infeasible(capsys, tmp_path, argv):
    # The priority calibration gives p ~ 8e-301, whose p * p is 0.
    target = tmp_path / "out.csv"
    target.write_text("earlier results\n")
    code, out, err = run_cli(capsys, *argv, "--input", str(TOY_GRAPH_FILE), "--csv", str(target))
    assert_failure(3, code, out, err)
    assert "target RSE 1e+150" in err
    assert target.read_text() == "earlier results\n"


def test_compare_with_no_sampled_priority_edge_is_infeasible(capsys):
    # At target 50 the priority p is ~3e-4, so five runs on 13 edges keep
    # none and the size ratios would divide by zero.
    code, out, err = run_cli(
        capsys, "compare", "--input", str(TOY_GRAPH_FILE), "--target-rse", "50", "--runs", "5"
    )
    assert_failure(3, code, out, err)
    assert "sampled no edge" in err


special_floats = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e308, -1.0]
)
any_float = st.one_of(special_floats, st.floats())
any_int = st.one_of(
    st.integers(-3, 8), st.integers(2**63, 2**70), st.integers(max_value=-(2**63))
)


def mostly(in_range: st.SearchStrategy, anything: st.SearchStrategy) -> st.SearchStrategy:
    """Draws in range three times in four, so that whole commands also run."""
    return st.integers(0, 3).flatmap(lambda pick: anything if pick == 0 else in_range)


some_float = mostly(st.floats(min_value=0.05, max_value=1.0), any_float)
some_count = mostly(st.integers(min_value=1, max_value=40), any_int)


@st.composite
def numeric_argv(draw) -> list[str]:
    """argv for one subcommand on the toy graph with arbitrary numbers; at
    most 5 runs, since a huge run count is a valid but endless experiment."""
    command = draw(st.sampled_from(["stats", "estimate", "evaluate", "compare", "sweep",
                                    "calibrate"]))
    argv = [command, "--input", str(TOY_GRAPH_FILE)]

    def number(flag: str, values: st.SearchStrategy) -> None:
        argv.append(f"{flag}={draw(values)!r}")

    method = draw(st.sampled_from(["nes", "pes"]))
    if command in ("estimate", "evaluate", "sweep"):
        argv += ["--method", method]
    if command in ("estimate", "evaluate"):
        number("--p", some_float)
        if method == "pes" or draw(st.booleans()):
            number("--pool", some_count)
    if command in ("compare", "calibrate"):
        number("--target-rse", some_float)
    if command == "sweep":
        targets = draw(st.lists(some_float, max_size=3))
        argv.append("--targets=" + ",".join(repr(target) for target in targets))
    if command not in ("stats", "calibrate"):
        number("--seed", any_int)
    if command in ("evaluate", "compare", "sweep"):
        number("--runs", st.integers(min_value=-2, max_value=5))
        number("--jobs", some_count)
    return argv


@given(numeric_argv())
@settings(max_examples=150, deadline=None)
def test_any_number_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if code != 0:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# --csv targets
# ---------------------------------------------------------------------------

CSV_COMMANDS = {
    "estimate": ["--method", "nes", "--p", "0.5"],
    "evaluate": ["--method", "nes", "--p", "0.5", "--runs", "5"],
    "compare": ["--target-rse", "0.3", "--runs", "5"],
    "sweep": ["--method", "nes", "--targets", "0.3", "--runs", "5"],
    "calibrate": ["--target-rse", "0.2"],
}


# The function each command spends its work in, named as the CLI imports it.
CSV_COMMAND_WORK = {
    "estimate": "single_run",
    "evaluate": "run_experiment",
    "compare": "ratio_experiment",
    "sweep": "rse_sweep",
    "calibrate": "compute_stats",
}


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_unwritable_csv_prints_nothing(capsys, toy_file, tmp_path, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} did its work before checking --csv")

    monkeypatch.setattr(cli, CSV_COMMAND_WORK[command], refuse)
    # A missing directory, and a directory in place of the file.
    for target in (tmp_path / "missing" / "out.csv", tmp_path):
        code, out, err = run_cli(
            capsys, command, "--input", str(toy_file), *CSV_COMMANDS[command], "--csv", str(target)
        )
        assert_data_error(code, out, err)
    assert not (tmp_path / "missing").exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["toy.txt"]


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_csv_naming_the_input_is_refused(capsys, toy_file, tmp_path, command):
    link = tmp_path / "link.txt"
    link.symlink_to(toy_file)
    for target in (toy_file, link):
        code, out, err = run_cli(
            capsys, command, "--input", str(toy_file), *CSV_COMMANDS[command], "--csv", str(target)
        )
        assert_data_error(code, out, err)
        assert "--csv target is the input file" in err
    assert toy_file.read_text() == TOY_TEXT
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.txt", "toy.txt"]


def test_failed_experiment_leaves_csv_untouched(capsys, toy_file, tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("earlier results\n")
    code, out, err = run_cli(
        capsys, "evaluate", "--input", str(toy_file), "--method", "nes", "--p", "0.5",
        "--runs", "1", "--csv", str(target),
    )
    assert (code, out) == (3, "")
    assert "insufficient runs" in err
    assert target.read_text() == "earlier results\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "toy.txt"]


def test_csv_replaces_existing_file_on_success(capsys, toy_file, tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("earlier results\n")
    code, out, _ = run_cli(
        capsys, "calibrate", "--input", str(toy_file), "--target-rse", "0.2", "--csv", str(target)
    )
    assert code == 0
    assert target.read_text() == "\n".join(out.splitlines()[2:]) + "\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "toy.txt"]


def test_stale_staged_file_does_not_block_csv(capsys, toy_file, tmp_path):
    # A file a killed run left behind, under the name a pid alone would give.
    stray = tmp_path / f".out.csv.{os.getpid()}.tmp"
    stray.write_text("stray\n")
    target = tmp_path / "out.csv"
    code, _, err = run_cli(
        capsys, "calibrate", "--input", str(toy_file), "--target-rse", "0.2", "--csv", str(target)
    )
    assert (code, err) == (0, "")
    assert stray.read_text() == "stray\n"
    plain = tmp_path / "plain.csv"
    with open(plain, "w"):
        pass
    assert target.stat().st_mode == plain.stat().st_mode


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_csv_to_a_fifo_writes_in_place(capsys, toy_file, tmp_path):
    argv = ("estimate", "--input", str(toy_file), *CSV_COMMANDS["estimate"], "--csv")
    regular = tmp_path / "out.csv"
    assert run_cli(capsys, *argv, str(regular))[0] == 0
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run_cli(capsys, *argv, str(fifo))[0] == 0
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == regular.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "out.fifo", "toy.txt"]


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_csv_write_to_a_full_device_prints_nothing(capsys, toy_file, command):
    code, out, err = run_cli(
        capsys, command, "--input", str(toy_file), *CSV_COMMANDS[command], "--csv", "/dev/full"
    )
    assert_data_error(code, out, err)


@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_failed_csv_write_prints_nothing(capsys, toy_file, tmp_path, monkeypatch, command):
    write_csv = cli.write_csv

    def fail_on_the_file(handle, columns, rows):
        if handle is not sys.stdout:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        write_csv(handle, columns, rows)

    monkeypatch.setattr(cli, "write_csv", fail_on_the_file)
    target = tmp_path / "out.csv"
    target.write_text("earlier results\n")
    code, out, err = run_cli(
        capsys, command, "--input", str(toy_file), *CSV_COMMANDS[command], "--csv", str(target)
    )
    assert_data_error(code, out, err)
    assert target.read_text() == "earlier results\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "toy.txt"]


# ---------------------------------------------------------------------------
# Refusal order
# ---------------------------------------------------------------------------

# Each command's bad number and a part of the message that refuses it.
BAD_NUMBER = {
    "estimate": (("--p", "5e-324"), "p * p is 0"),
    "evaluate": (("--p", "5e-324"), "p * p is 0"),
    "compare": (("--seed", "-1"), "base seed must be >= 0"),
    "sweep": (("--runs", "0"), "runs must be >= 1"),
    "calibrate": (("--target-rse", "0"), "target RSE must be finite and positive"),
}

# The documented order: of two faults, the first listed here is reported.
FAULTS = ("bad number", "csv is input", "unwritable csv", "missing input", "triangle-free")
# A --csv path that is the input exists, and so does a triangle-free input.
EXCLUSIVE = ({"csv is input", "unwritable csv"}, {"csv is input", "missing input"},
             {"missing input", "triangle-free"})
FAULT_PAIRS = [pair for pair in combinations(FAULTS, 2) if set(pair) not in EXCLUSIVE]


@pytest.mark.parametrize("faults", FAULT_PAIRS, ids=" + ".join)
@pytest.mark.parametrize("command", CSV_COMMANDS)
def test_first_fault_in_order_is_reported(capsys, monkeypatch, tmp_path, command, faults):
    reads = []
    monkeypatch.setattr(cli, "load_edge_list",
                        lambda path: reads.append(path) or load_edge_list(path))
    graph = tmp_path / "graph.txt"
    graph.write_text("0 1\n0 2\n0 3\n0 4\n" if "triangle-free" in faults else TOY_TEXT)
    original = graph.read_bytes()
    input_path = tmp_path / "absent.txt" if "missing input" in faults else graph
    csv_path = tmp_path / "out.csv"
    if "csv is input" in faults:
        csv_path = input_path
    if "unwritable csv" in faults:
        csv_path = tmp_path / "missing" / "out.csv"
    bad_argv, bad_message = BAD_NUMBER[command]
    code, out, err = run_cli(
        capsys, command, *CSV_COMMANDS[command], *(bad_argv if "bad number" in faults else ()),
        "--input", str(input_path), "--csv", str(csv_path),
    )
    expected_code, message = {
        "bad number": (1, bad_message),
        "csv is input": (2, "--csv target is the input file"),
        "unwritable csv": (2, "cannot write --csv file"),
        "missing input": (2, "absent.txt"),
    }[faults[0]]
    assert_failure(expected_code, code, out, err)
    assert message in err
    assert len(reads) == (faults[0] == "missing input")
    assert graph.read_bytes() == original
    assert [path.name for path in tmp_path.iterdir()] == ["graph.txt"]


# ---------------------------------------------------------------------------
# python -m
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module", ["tristream", "tristream.cli"])
def test_python_m_matches_main(capsys, module):
    argv = ["stats", "--input", str(TOY_GRAPH_FILE)]
    code, out, err = run_cli(capsys, *argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(tristream.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (completed.returncode, completed.stdout, completed.stderr) == (code, out, err)
    assert out.startswith("N=11 M=13 triangles=3")


def test_import_leaves_process_pool_unloaded():
    # Only --jobs > 1 needs the process pool, so importing the CLI must not
    # pay for multiprocessing.  Nor may it load anything outside the standard
    # library: the package has no runtime dependencies.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(tristream.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    probe = (
        "import sys; before = set(sys.modules); import tristream.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules))); "
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'tristream'}))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (completed.returncode, completed.stdout, completed.stderr) == (0, "[]\n[]\n", "")
