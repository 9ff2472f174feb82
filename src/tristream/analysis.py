"""Analytic predictors: estimator variance, RSE approximations, calibration.

All formulas evaluate exact ground-truth statistics (from the oracle) at a
parameter choice, so predicted accuracy can be compared against observed
accuracy over repeated runs.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .oracle import GraphStats


@dataclass(frozen=True)
class PesParams:
    """Priority-sampling parameters: edge probability ``p`` and pool capacity."""

    p: float
    pool: int

    def __post_init__(self) -> None:
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.pool < 1:
            raise ValueError(f"pool must be >= 1, got {self.pool}")


@dataclass(frozen=True)
class VarianceBreakdown:
    """Predicted variance of the priority estimator, term by term.

    ``term_unit`` is the per-triangle Bernoulli contribution, ``term_shared``
    the covariance of triangle pairs sharing an edge, ``term_indep`` the
    (negative) reservoir covariance of unrelated triangle pairs.
    """

    term_unit: float
    term_shared: float
    term_indep: float
    total: float
    q: float
    q_prime_sq: float
    phi_prime: float


class CalibrationResult(NamedTuple):
    value: float


@dataclass(frozen=True)
class PesCalibration:
    """Parameters for a priority-sampling run sized to a target RSE.

    Uses the pool = expected-subgraph-size convention (pool = round(p * M),
    capped at the wedge count), under which the expected retention
    probability is about M / wedges and the expected number of identified
    triangles is target_rse ** -2.
    """

    p: float
    pool: int
    expected_q: float


def _saturated_q(stats: GraphStats, params: PesParams) -> tuple[float, float]:
    """Expected candidate count x = p * wedges and retention q = pool / x,
    checked against the saturated-reservoir assumption of the theory."""
    candidates = params.p * stats.wedges
    if candidates <= 1.0:
        raise ValueError(
            "pool theory undefined for sub-unit expected candidates "
            f"(p * wedges = {candidates:.6g} <= 1)"
        )
    q = params.pool / candidates
    if q > 1.0:
        raise ValueError(
            "pool larger than expected candidate count "
            f"(q = {q:.6g} > 1); theory assumes a saturated reservoir"
        )
    return candidates, q


def pes_variance(stats: GraphStats, params: PesParams) -> VarianceBreakdown:
    """Predicted variance of the priority estimator.

    With x = p * wedges the expected candidate count, q = pool / x, and
    q'^2 = (pool^2 - pool) / (x^2 - x):

        var = triangles * (1 - pq) / (pq)
            + 2 * shared_pairs * (q'^2 - p q^2) / (5 p q^2)
            + phi' * (q'^2 - q^2) / q^2

    where phi' = triangles^2 - 2 * shared_pairs - triangles counts ordered
    pairs of edge-disjoint triangles.  Requires a saturated reservoir in
    expectation (q <= 1); q = 1 is accepted as the boundary case.
    """
    candidates, q = _saturated_q(stats, params)
    pool = params.pool
    q_prime_sq = (pool * pool - pool) / (candidates * candidates - candidates)
    phi_prime = stats.triangles**2 - 2 * stats.shared_pairs - stats.triangles
    p = params.p
    pq = p * q
    term_unit = stats.triangles * (1.0 - pq) / pq
    term_shared = 2.0 * stats.shared_pairs * (q_prime_sq - p * q * q) / (5.0 * p * q * q)
    term_indep = phi_prime * (q_prime_sq - q * q) / (q * q)
    return VarianceBreakdown(
        term_unit=term_unit,
        term_shared=term_shared,
        term_indep=term_indep,
        total=term_unit + term_shared + term_indep,
        q=q,
        q_prime_sq=q_prime_sq,
        phi_prime=phi_prime,
    )


def pes_rse_full(stats: GraphStats, params: PesParams) -> float:
    """Intermediate RSE approximation for the priority estimator:

        sqrt( (1 - pq + (2 * shared / (5 * triangles)) * (q - pq))
              / (triangles * pq) )
    """
    if stats.triangles <= 0:
        raise ValueError("RSE undefined for a graph without triangles")
    _, q = _saturated_q(stats, params)
    p = params.p
    pq = p * q
    shared_weight = 2.0 * stats.shared_pairs / (5.0 * stats.triangles)
    inner = (1.0 - pq + shared_weight * (q - pq)) / (stats.triangles * pq)
    return math.sqrt(inner)


def pes_rse_simple(triangles_observed: float) -> float | None:
    """Estimated RSE from the identified-triangle count alone: count ** -0.5.

    Returns None (unavailable) when no triangle was observed.  Accepts a
    float so a mean count over repeated runs can be plugged in.
    """
    if triangles_observed < 0:
        raise ValueError(f"triangle count must be >= 0, got {triangles_observed}")
    if triangles_observed == 0:
        return None
    return triangles_observed**-0.5


def observed_rse(estimates: Sequence[float], truth: float) -> float:
    """Observed RSE of repeated estimates against the exact count:

        (1 / truth) * sqrt( (1/k) * sum (estimate_i - mean)^2 )

    Population normalization (divide by k, not k - 1), deliberately.
    """
    if len(estimates) < 2:
        raise ValueError(f"insufficient runs: observed RSE needs k >= 2, got {len(estimates)}")
    if truth <= 0:
        raise ValueError(f"truth must be positive, got {truth}")
    return statistics.pstdev(estimates) / truth


def _required_triangles(target_rse: float) -> float:
    """target_rse ** -2, the identified-triangle count a target RSE asks for.

    Raises ValueError unless ``target_rse`` is finite and positive and
    1 / target_rse**2 is a finite positive number.
    """
    if not (math.isfinite(target_rse) and target_rse > 0):
        raise ValueError(f"target RSE must be finite and positive, got {target_rse}")
    square = target_rse * target_rse
    required = 1.0 / square if square > 0 else math.inf
    if not 0.0 < required < math.inf:
        raise ValueError(
            f"target RSE {target_rse} is out of range: 1 / target_rse**2 = {required}"
        )
    return required


def calibrate_nes(target_rse: float, truth_triangles: int) -> CalibrationResult:
    """Edge probability for the naive method so about target_rse ** -2
    triangles are identified: p = 1 / (target_rse * sqrt(triangles)),
    clamped into (0, 1].  A clamped calibration shows as ``value == 1.0``:
    accuracy cannot be bought past full sampling.  A value too small for any
    run is refused by :func:`tristream.harness.calibrated_config`."""
    _required_triangles(target_rse)
    if truth_triangles <= 0:
        raise ValueError("calibration needs a graph with triangles")
    return CalibrationResult(value=min(1.0, 1.0 / (target_rse * math.sqrt(truth_triangles))))


def calibrate_pes_pool(
    target_rse: float, clustering: float, wedge_cap: int | None = None
) -> int:
    """Minimum pool size to identify about target_rse ** -2 triangles.

    Only a ``clustering`` fraction of pooled wedges can close, so
    n = ceil(target_rse ** -2 / clustering).  ``wedge_cap`` (the graph's
    wedge count, when known) bounds the result: a pool larger than the
    wedge count is wasted.
    """
    required = _required_triangles(target_rse)
    if clustering <= 0:
        raise ValueError("pool size unbounded for triangle-free graphs (clustering = 0)")
    if clustering > 1:
        raise ValueError(f"clustering must be in (0, 1], got {clustering}")
    size = required / clustering
    if wedge_cap is not None and size > wedge_cap:
        return max(1, wedge_cap)
    if size == math.inf:
        raise ValueError(f"pool size for target RSE {target_rse} overflows")
    return math.ceil(size)


def calibrate_pes(stats: GraphStats, target_rse: float) -> PesCalibration:
    """(p, pool) for a priority-sampling run targeting ``target_rse``.

    Follows the pool = expected-subgraph-size convention: pool = round(p*M)
    so the expected retention probability is min(1, M / wedges), and p is
    chosen so the expected identified-triangle count is target_rse ** -2.
    """
    required = _required_triangles(target_rse)
    if stats.triangles <= 0:
        raise ValueError("calibration needs a graph with triangles")
    q_protocol = min(1.0, stats.edge_count / stats.wedges)
    p = min(1.0, required / (q_protocol * stats.triangles))
    pool = max(1, round(p * stats.edge_count))
    pool = min(pool, stats.wedges)
    expected_q = min(1.0, pool / (p * stats.wedges))
    return PesCalibration(p=p, pool=pool, expected_q=expected_q)


def nes_pes_ratio(edge_count: int, wedges: int, p_nes: float) -> float:
    """Predicted ratio between the naive and priority edge probabilities
    needed for equal RSE, under pool = expected subgraph size:

        p_nes / p_pes ~= M / (p_nes * wedges)
    """
    if edge_count < 1:
        raise ValueError(f"edge count must be >= 1, got {edge_count}")
    if wedges < 1:
        raise ValueError(f"wedge count must be >= 1, got {wedges}")
    if not 0.0 < p_nes <= 1.0:
        raise ValueError(f"p_nes must be in (0, 1], got {p_nes}")
    return edge_count / (p_nes * wedges)
