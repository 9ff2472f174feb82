from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tristream import (
    GraphStats,
    PesParams,
    build_adjacency,
    calibrate_nes,
    calibrate_pes,
    calibrate_pes_pool,
    compute_stats,
    cycle_graph,
    erdos_renyi,
    nes_pes_ratio,
    observed_rse,
    pes_rse_full,
    pes_rse_simple,
    pes_variance,
)


def stats_for(nodes: int, density: float, seed: int) -> GraphStats:
    return compute_stats(build_adjacency(erdos_renyi(nodes, density, seed)))


# ---------------------------------------------------------------------------
# Variance predictor.
# ---------------------------------------------------------------------------


def test_variance_worked_example(toy_stats):
    # p=1/2, pool=4 on the toy stats: q=1/4, q'^2=1/20, phi'=4, and the
    # terms are exactly 21, 6/25, -4/5 (checked by hand with rationals).
    breakdown = pes_variance(toy_stats, PesParams(p=0.5, pool=4))
    assert breakdown.q == pytest.approx(0.25)
    assert breakdown.q_prime_sq == pytest.approx(0.05)
    assert breakdown.phi_prime == 4
    assert breakdown.term_unit == pytest.approx(21.0)
    assert breakdown.term_shared == pytest.approx(0.24)
    assert breakdown.term_indep == pytest.approx(-0.8)
    assert breakdown.total == pytest.approx(20.44)


def test_variance_zero_for_triangle_free():
    stats = GraphStats(
        node_count=6, edge_count=5, triangles=0, wedges=10, shared_pairs=0, clustering=0.0
    )
    breakdown = pes_variance(stats, PesParams(p=0.5, pool=2))
    assert breakdown.term_unit == 0.0
    assert breakdown.term_shared == 0.0
    assert breakdown.term_indep == 0.0
    assert breakdown.total == 0.0


def test_variance_unit_term_vanishes_under_certain_sampling():
    stats = GraphStats(
        node_count=10, edge_count=20, triangles=1, wedges=40, shared_pairs=0, clustering=0.075
    )
    breakdown = pes_variance(stats, PesParams(p=1.0, pool=40))
    assert breakdown.q == 1.0
    assert breakdown.term_unit == pytest.approx(0.0)


def test_variance_domain_errors(toy_stats):
    with pytest.raises(ValueError, match="sub-unit expected candidates"):
        pes_variance(toy_stats, PesParams(p=0.01, pool=1))
    with pytest.raises(ValueError, match="saturated"):
        pes_variance(toy_stats, PesParams(p=0.5, pool=20))


def test_params_validation():
    with pytest.raises(ValueError):
        PesParams(p=0.0, pool=4)
    with pytest.raises(ValueError):
        PesParams(p=0.5, pool=0)


@given(
    st.integers(min_value=8, max_value=26),
    st.floats(min_value=0.2, max_value=0.8),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_variance_nonnegative_on_valid_grids(nodes, density, seed, p, pool_fraction):
    stats = stats_for(nodes, density, seed)
    expected_candidates = p * stats.wedges
    if expected_candidates <= 1.0:
        return
    pool = max(1, int(pool_fraction * expected_candidates))
    breakdown = pes_variance(stats, PesParams(p=p, pool=pool))
    assert breakdown.total >= -1e-9 * max(1.0, breakdown.term_unit)


# ---------------------------------------------------------------------------
# RSE approximations.
# ---------------------------------------------------------------------------


def test_rse_full_reduces_without_shared_pairs():
    stats = GraphStats(
        node_count=20, edge_count=60, triangles=50, wedges=400, shared_pairs=0, clustering=0.375
    )
    params = PesParams(p=0.5, pool=40)
    q = 40 / (0.5 * 400)
    expected = math.sqrt((1 - 0.5 * q) / (50 * 0.5 * q))
    assert pes_rse_full(stats, params) == pytest.approx(expected)


def test_rse_full_worked_example(toy_stats):
    # Hand-computed with exact rationals: sqrt((1 - 1/8 + (2/15)(1/8)) / (3/8)).
    assert pes_rse_full(toy_stats, PesParams(p=0.5, pool=4)) == pytest.approx(
        1.5420044674960502
    )


def test_rse_full_vanishes_under_certain_sampling():
    stats = GraphStats(
        node_count=10, edge_count=20, triangles=4, wedges=40, shared_pairs=0, clustering=0.3
    )
    assert pes_rse_full(stats, PesParams(p=1.0, pool=40)) == pytest.approx(0.0)


def test_rse_full_requires_triangles(toy_stats):
    empty = GraphStats(
        node_count=5, edge_count=6, triangles=0, wedges=8, shared_pairs=0, clustering=0.0
    )
    with pytest.raises(ValueError, match="triangle"):
        pes_rse_full(empty, PesParams(p=0.5, pool=2))


def test_rse_simple_values():
    assert pes_rse_simple(25) == pytest.approx(0.2)
    assert pes_rse_simple(1) == 1.0
    assert pes_rse_simple(0) is None
    assert pes_rse_simple(100) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        pes_rse_simple(-1)


def test_simple_rse_tracks_full_variance_in_big_sparse_regime():
    # Large-ish sparse graphs with small p and q: the shared and reservoir
    # corrections are ignorable, so count**-0.5 and sqrt(var)/triangles
    # agree within 10 percent relative.
    stats = stats_for(200, 0.13, 31)
    for p in (0.05, 0.08, 0.1):
        for q_target in (0.05, 0.1):
            pool = max(1, round(q_target * p * stats.wedges))
            expected_triangles = pool * stats.triangles / stats.wedges
            if expected_triangles < 25:
                continue
            breakdown = pes_variance(stats, PesParams(p=p, pool=pool))
            full = math.sqrt(breakdown.total) / stats.triangles
            simple = pes_rse_simple(expected_triangles)
            assert abs(full - simple) / simple <= 0.10, (p, q_target, full, simple)


# ---------------------------------------------------------------------------
# Observed RSE.
# ---------------------------------------------------------------------------


def test_observed_rse_zero_for_constant_estimates():
    assert observed_rse([42.0, 42.0, 42.0], 42.0) == 0.0


def test_observed_rse_symmetric_two_point_case():
    truth = 37.0
    assert observed_rse([0.0, 2 * truth], truth) == pytest.approx(1.0)


def test_observed_rse_uses_population_normalization():
    # Divide by k, not k-1: for {0, 2} around mean 1 the result is 1, not sqrt(2).
    assert observed_rse([0.0, 2.0], 1.0) == pytest.approx(1.0)


def test_observed_rse_domain_errors():
    with pytest.raises(ValueError, match="insufficient runs"):
        observed_rse([1.0], 1.0)
    with pytest.raises(ValueError, match="positive"):
        observed_rse([1.0, 2.0], 0.0)


@given(
    st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=30),
    st.floats(min_value=0.1, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=60, deadline=None)
def test_observed_rse_scale_equivariant(estimates, truth, scale):
    base = observed_rse(estimates, truth)
    scaled = observed_rse([scale * value for value in estimates], scale * truth)
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# Calibration.
# ---------------------------------------------------------------------------


def test_calibrate_nes_examples():
    assert calibrate_nes(0.2, 625).value == 0.2
    # Raw value lands exactly on the p = 1 boundary: clamped, so p == 1.
    assert calibrate_nes(0.1, 100).value == 1.0
    assert calibrate_nes(0.2, 3).value == 1.0


def test_calibrate_nes_domain():
    with pytest.raises(ValueError):
        calibrate_nes(0.0, 10)
    with pytest.raises(ValueError):
        calibrate_nes(0.2, 0)
    # Without its own check, calibrate_pes would divide by zero here.
    square = compute_stats(build_adjacency(cycle_graph(4)))
    with pytest.raises(ValueError, match="triangles"):
        calibrate_pes(square, 0.2)


def test_calibrate_pes_pool_examples():
    assert calibrate_pes_pool(0.2, 0.05) == 500
    assert calibrate_pes_pool(0.2, 1.0) == 25
    assert calibrate_pes_pool(0.1, 0.28125) == 356


def test_calibrate_pes_pool_cap_and_domain():
    assert calibrate_pes_pool(0.2, 0.05, wedge_cap=300) == 300
    with pytest.raises(ValueError, match="unbounded"):
        calibrate_pes_pool(0.2, 0.0)
    with pytest.raises(ValueError):
        calibrate_pes_pool(0.2, 1.5)
    with pytest.raises(ValueError):
        calibrate_pes_pool(-0.1, 0.5)


@given(
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=0.05, max_value=0.5),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_calibrate_pes_pool_monotone(rse_a, rse_b, c_a, c_b):
    lo_rse, hi_rse = sorted((rse_a, rse_b))
    lo_c, hi_c = sorted((c_a, c_b))
    assert calibrate_pes_pool(lo_rse, lo_c) >= calibrate_pes_pool(hi_rse, lo_c)
    assert calibrate_pes_pool(lo_rse, lo_c) >= calibrate_pes_pool(lo_rse, hi_c)


def test_calibrate_pes_matches_protocol():
    stats = stats_for(100, 0.2, 17)
    cal = calibrate_pes(stats, 0.2)
    assert cal.p < 1.0
    assert cal.pool == round(cal.p * stats.edge_count)
    # Expected identified triangles p * q * triangles comes out at target**-2.
    q = min(1.0, cal.pool / (cal.p * stats.wedges))
    expected = cal.p * q * stats.triangles
    assert expected == pytest.approx(25.0, rel=0.02)


def test_calibrate_pes_clamps_on_tiny_graph(toy_stats):
    cal = calibrate_pes(toy_stats, 0.2)
    assert cal.p == 1.0


@pytest.mark.parametrize(
    "target", [math.nan, math.inf, -math.inf, 0.0, -0.1, 5e-324, 1e-300, 1e155, 1e308]
)
def test_calibrations_reject_unusable_target(toy_stats, target):
    # Subnormal and tiny targets overflow 1 / target**2; huge ones send it to 0.
    with pytest.raises(ValueError, match="target RSE"):
        calibrate_nes(target, toy_stats.triangles)
    with pytest.raises(ValueError, match="target RSE"):
        calibrate_pes(toy_stats, target)
    with pytest.raises(ValueError, match="target RSE"):
        calibrate_pes_pool(target, toy_stats.clustering, wedge_cap=toy_stats.wedges)


def test_calibrate_pes_pool_overflow_needs_cap():
    # 1 / target**2 is finite here but the division by clustering is not.
    assert calibrate_pes_pool(1e-154, 0.28125, wedge_cap=32) == 32
    with pytest.raises(ValueError, match="overflows"):
        calibrate_pes_pool(1e-154, 0.28125)


def test_nes_pes_ratio_examples(toy_stats):
    assert nes_pes_ratio(32, 32, 1.0) == 1.0
    assert nes_pes_ratio(13, 32, 0.5) == pytest.approx(0.8125)
    base = nes_pes_ratio(13, 32, 0.5)
    assert nes_pes_ratio(13, 64, 0.5) == pytest.approx(base / 2)
    with pytest.raises(ValueError):
        nes_pes_ratio(0, 32, 0.5)
    with pytest.raises(ValueError):
        nes_pes_ratio(13, 0, 0.5)
    with pytest.raises(ValueError):
        nes_pes_ratio(13, 32, 0.0)
