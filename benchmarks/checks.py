"""Output checks: every subcommand's output against the exact counts and the
method's defining formulas, never against a stored copy of earlier output.

Each check returns a list of problems; an empty list means the output holds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

STATS_KEYS = ("N", "M", "triangles", "wedges", "shared_pairs")


def key_values(line: str) -> dict[str, str]:
    """``a=1 b=x`` -> {"a": "1", "b": "x"}; tokens without ``=`` are skipped."""
    return dict(token.split("=", 1) for token in line.split() if "=" in token)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_stats_line(line: str, truth: dict[str, int]) -> list[str]:
    """The ``N=.. M=.. triangles=..`` line equals the exact counts."""
    printed = key_values(line)
    problems = [
        f"{key}={printed.get(key)} but the exact count is {truth[key]}"
        for key in STATS_KEYS
        if printed.get(key) != str(truth[key])
    ]
    clustering = format(3.0 * truth["triangles"] / truth["wedges"], ".12g")
    if printed.get("clustering") != clustering:
        problems.append(f"clustering={printed.get('clustering')}, expected {clustering}")
    return problems


@dataclass(frozen=True)
class EvaluateOutput:
    """What one ``evaluate`` printed and wrote, at full precision from its CSV."""

    runs: int
    mean_estimate: float
    observed_rse: float


def check_evaluate(
    stdout: str, csv_text: str, truth: dict[str, int], *, method: str, p: float,
    runs: int, base_seed: int,
) -> tuple[list[str], EvaluateOutput | None]:
    lines = stdout.splitlines()
    if len(lines) != 3:
        return [f"evaluate printed {len(lines)} lines, expected 3"], None
    problems: list[str] = []
    config = key_values(lines[0])
    expected = {"method": method, "p": format(p, ".12g"), "runs": str(runs),
                "base_seed": str(base_seed), "shuffle": "per-run"}
    for key, value in expected.items():
        if config.get(key) != value:
            problems.append(f"evaluate echoed {key}={config.get(key)}, asked for {value}")
    problems += check_stats_line(lines[1], truth)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != 1:
        return problems + [f"summary CSV has {len(rows)} rows, expected 1"], None
    row = rows[0]
    for key, column in zip(STATS_KEYS, ("oracle_nodes", "oracle_edges", "oracle_triangles",
                                        "oracle_wedges", "oracle_shared_pairs")):
        if row[column] != str(truth[key]):
            problems.append(f"CSV {column}={row[column]} but the exact count is {truth[key]}")
    printed = key_values(lines[2])
    for key in ("mean_estimate", "observed_rse", "mean_triangles_observed"):
        if printed.get(key) != format(float(row[key]), ".12g"):
            problems.append(f"stdout {key}={printed.get(key)} disagrees with CSV {row[key]}")
    mean_observed = float(row["mean_triangles_observed"])
    if mean_observed > 0 and not _close(float(row["predicted_rse"]), mean_observed ** -0.5):
        problems.append(f"predicted_rse {row['predicted_rse']} != mean_triangles_observed ** -0.5")
    output = EvaluateOutput(runs, float(row["mean_estimate"]), float(row["observed_rse"]))
    return problems, output


def check_unbiased(outputs: list[EvaluateOutput], triangles: int) -> list[str]:
    """|mean - T| <= 4 * observed_rse * T / sqrt(runs), over every run of
    every round (rounds use consecutive seed blocks, so together they are
    one experiment; their pooled population variance is exact)."""
    if not outputs:
        return []
    total = sum(out.runs for out in outputs)
    mean = sum(out.mean_estimate * out.runs for out in outputs) / total
    variance = sum(
        out.runs * ((out.observed_rse * triangles) ** 2 + (out.mean_estimate - mean) ** 2)
        for out in outputs
    ) / total
    rse = math.sqrt(variance) / triangles
    limit = 4.0 * rse * triangles / math.sqrt(total)
    if abs(mean - triangles) > limit:
        return [f"mean estimate {mean:.6g} over {total} runs is {abs(mean - triangles):.6g} "
                f"from T={triangles}, beyond 4 standard errors ({limit:.6g})"]
    return []


CALIBRATE_COLUMNS = (
    "target_rse", "nes_p", "nes_clamped", "pes_p", "pes_pool", "pes_clamped",
    "pool_rule_n", "predicted_var_total", "predicted_var_unit", "predicted_var_shared",
    "predicted_var_indep", "predicted_rse_full",
)

# predicted_rse_full is the README's intermediate approximation of
# sqrt(predicted_var_total) / T: it drops the independent-pair term and
# reads q'^2 as q^2.  On the benchmark graphs the two differ by < 0.1 %.
RSE_APPROXIMATION_TOLERANCE = 0.01


def check_calibrate(stdout: str, truth: dict[str, int], target: float) -> list[str]:
    """Every ``calibrate`` output satisfies its defining formula."""
    lines = stdout.splitlines()
    if len(lines) != 4 or lines[2] != ",".join(CALIBRATE_COLUMNS):
        return [f"calibrate printed an unexpected layout: {lines!r}"]
    problems = check_stats_line(lines[0], truth)
    row = dict(zip(CALIBRATE_COLUMNS, lines[3].split(",")))
    T, M, W, S = truth["triangles"], truth["M"], truth["wedges"], truth["shared_pairs"]
    try:
        nes_p, pes_p = float(row["nes_p"]), float(row["pes_p"])
        pool, pool_rule = int(row["pes_pool"]), int(row["pool_rule_n"])
        total, unit, shared, indep, rse_full = (
            float(row[key]) for key in ("predicted_var_total", "predicted_var_unit",
                                        "predicted_var_shared", "predicted_var_indep",
                                        "predicted_rse_full"))
    except ValueError as err:
        return problems + [f"calibrate CSV row does not parse: {err}"]

    def expect(name: str, got: float, want: float, rel: float = 1e-12) -> None:
        if not _close(got, want, rel):
            problems.append(f"{name}={got!r}, its formula gives {want!r}")

    expect("target_rse", float(row["target_rse"]), target, 0.0)
    raw_nes = 1.0 / (target * math.sqrt(T))
    expect("nes_p", nes_p, min(1.0, raw_nes))
    raw_pes = (1.0 / (target * target)) / (min(1.0, M / W) * T)
    expect("pes_p", pes_p, min(1.0, raw_pes))
    if row["nes_clamped"] != str(raw_nes >= 1.0).lower():
        problems.append(f"nes_clamped={row['nes_clamped']} for a raw p of {raw_nes!r}")
    if row["pes_clamped"] != str(raw_pes >= 1.0).lower():
        problems.append(f"pes_clamped={row['pes_clamped']} for a raw p of {raw_pes!r}")
    if pool != min(W, max(1, round(pes_p * M))):
        problems.append(f"pes_pool={pool}, but round(pes_p * M) = {round(pes_p * M)}")
    if pool_rule != min(W, math.ceil((1.0 / (target * target)) / (3.0 * T / W))):
        problems.append(f"pool_rule_n={pool_rule} does not match ceil(target**-2 / clustering)")
    line1 = key_values(lines[1])
    for key in ("nes_p", "pes_p"):
        if line1.get(key) != format(float(row[key]), ".12g"):
            problems.append(f"stdout {key}={line1.get(key)} disagrees with CSV {row[key]}")

    x = pes_p * W
    q = pool / x
    q2 = (pool * pool - pool) / (x * x - x)
    pq = pes_p * q
    expect("predicted_var_unit", unit, T * (1.0 - pq) / pq, 1e-9)
    expect("predicted_var_shared", shared, 2.0 * S * (q2 - pes_p * q * q) / (5.0 * pes_p * q * q), 1e-9)
    expect("predicted_var_indep", indep, (T * T - 2 * S - T) * (q2 - q * q) / (q * q), 1e-9)
    expect("predicted_var_total", total, unit + shared + indep)
    expect("predicted_rse_full", rse_full,
           math.sqrt((1.0 - pq + (2.0 * S / (5.0 * T)) * (q - pq)) / (T * pq)), 1e-9)
    if total > 0:
        expect("predicted_rse_full", rse_full, math.sqrt(total) / T, RSE_APPROXIMATION_TOLERANCE)
    return problems


def check_replayed_run(result, expected, *, p: float, pool: int) -> list[str]:
    """One replayed PES run: equal to ``run_experiment``'s run bit for bit,
    and its estimate equal to closed / (p * q)."""
    problems = []
    if result != expected:
        problems.append(f"replayed run {result} differs from run_experiment's {expected}")
    closed = result.triangles_observed
    candidates = result.candidate_wedges
    q = pool / candidates if candidates > pool else 1.0
    if result.q != q:
        problems.append(f"q={result.q!r} but pool / candidate_wedges = {q!r}")
    if result.estimate != closed / (p * result.q):
        problems.append(f"PES estimate {result.estimate!r} != closed / (p * q)")
    return problems
