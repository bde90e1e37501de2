"""Sampling primitives checked against independent brute-force oracles."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hgbench.config import default_params
from hgbench.errors import InfeasibleError
from hgbench.sampling import (
    MAX_SIZE_CANDIDATES,
    sample_community_sizes,
    sample_degrees,
    stochastic_round,
    stochastic_round_array,
    truncated_power_law,
)


# ---------------------------------------------------------------- oracles

def oracle_pmf(exponent: float, lo: int, hi: int) -> np.ndarray:
    """Probability of each k in [lo, hi] by direct summation of the normalizer."""
    norm = sum(k ** -exponent for k in range(lo, hi + 1))
    return np.array([k ** -exponent / norm for k in range(lo, hi + 1)])


def oracle_mean(exponent: float, lo: int, hi: int) -> float:
    p = oracle_pmf(exponent, lo, hi)
    return float(sum(k * pk for k, pk in zip(range(lo, hi + 1), p)))


# ---------------------------------------------------------------- power law

def test_pmf_matches_direct_summation():
    for exponent, lo, hi in [(2.5, 5, 50), (1.5, 50, 181), (3.0, 1, 7), (0.5, 2, 9)]:
        table = truncated_power_law(exponent, lo, hi)
        np.testing.assert_allclose(table.pmf, oracle_pmf(exponent, lo, hi), rtol=1e-12)
        assert table.pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert table.mean == pytest.approx(oracle_mean(exponent, lo, hi), rel=1e-12)


def test_degenerate_support_always_returns_lo():
    table = truncated_power_law(2.5, 5, 5)
    rng = np.random.default_rng(0)
    assert np.all(table.sample(rng, 1000) == 5)


def test_empirical_pmf_within_three_standard_errors():
    exponent, lo, hi = 2.5, 5, 10
    table = truncated_power_law(exponent, lo, hi)
    rng = np.random.default_rng(20240817)
    draws = table.sample(rng, 1_000_000)
    counts = np.bincount(draws, minlength=hi + 1)[lo:]
    p = oracle_pmf(exponent, lo, hi)
    emp = counts / len(draws)
    se = np.sqrt(p * (1 - p) / len(draws))
    assert np.all(np.abs(emp - p) <= 3 * se)


def test_empirical_mean_within_three_standard_errors():
    exponent, lo, hi = 1.5, 50, 100
    table = truncated_power_law(exponent, lo, hi)
    rng = np.random.default_rng(7)
    draws = table.sample(rng, 1_000_000)
    mu = oracle_mean(exponent, lo, hi)
    var = sum(k * k * pk for k, pk in zip(range(lo, hi + 1), oracle_pmf(exponent, lo, hi))) - mu * mu
    assert abs(draws.mean() - mu) <= 3 * math.sqrt(var / len(draws))


def test_chi_square_goodness_of_fit():
    # 10^6 draws over [5, 50] must not be rejected at significance 1e-3
    table = truncated_power_law(2.5, 5, 50)
    rng = np.random.default_rng(123)
    draws = table.sample(rng, 1_000_000)
    counts = np.bincount(draws, minlength=51)[5:]
    expected = oracle_pmf(2.5, 5, 50) * len(draws)
    _, pvalue = stats.chisquare(counts, expected)
    assert pvalue > 1e-3


def test_ccdf_is_reverse_cumulative_pmf():
    table = truncated_power_law(2.5, 5, 20)
    ccdf = table.ccdf()
    p = oracle_pmf(2.5, 5, 20)
    np.testing.assert_allclose(ccdf, p[::-1].cumsum()[::-1], rtol=1e-12)
    assert ccdf[0] == pytest.approx(1.0, abs=1e-12)


def test_invalid_support_rejected():
    with pytest.raises(ValueError):
        truncated_power_law(2.5, 10, 5)
    with pytest.raises(ValueError):
        truncated_power_law(2.5, 0, 5)


# ---------------------------------------------------------------- rounding

def test_integral_value_never_moves():
    rng = np.random.default_rng(0)
    assert all(stochastic_round(3.0, rng) == 3 for _ in range(100))


def test_fractional_value_mean_matches():
    rng = np.random.default_rng(5)
    vals = [stochastic_round(2.25, rng) for _ in range(100_000)]
    assert set(vals) <= {2, 3}
    se = math.sqrt(0.25 * 0.75 / len(vals))
    assert abs(np.mean(vals) - 2.25) <= 3 * se


def test_array_rounding_matches_expectation_and_support():
    rng = np.random.default_rng(11)
    values = np.full(100_000, 1.4)
    out = stochastic_round_array(values, rng)
    assert set(np.unique(out)) <= {1, 2}
    se = math.sqrt(0.4 * 0.6 / len(values))
    assert abs(out.mean() - 1.4) <= 3 * se
    whole = np.arange(5, dtype=float)
    np.testing.assert_array_equal(stochastic_round_array(whole, rng), np.arange(5))


# ---------------------------------------------------------------- degrees

def test_degrees_sorted_and_bounded():
    p = default_params(1000, seed=3)
    rng = np.random.default_rng(p.seed)
    deg = sample_degrees(p, rng)
    assert len(deg) == 1000
    assert np.all(np.diff(deg) <= 0)
    assert deg.min() >= p.min_degree and deg.max() <= p.max_degree


def test_degrees_degenerate_support():
    p = dataclasses.replace(default_params(500), min_degree=7, max_degree=7, min_size=8)
    deg = sample_degrees(p, np.random.default_rng(0))
    assert np.all(deg == 7)


def test_degree_ccdf_tracks_table():
    # lighter version of the acceptance check: n = 10^5, 4 standard errors
    p = default_params(100_000, seed=12)
    rng = np.random.default_rng(p.seed)
    deg = sample_degrees(p, rng)
    table = truncated_power_law(p.gamma, p.min_degree, p.max_degree)
    analytic = table.ccdf()
    counts = np.bincount(deg, minlength=p.max_degree + 1)
    emp = counts[::-1].cumsum()[::-1][p.min_degree:] / p.n
    se = np.sqrt(analytic * (1 - analytic) / p.n)
    assert np.all(np.abs(emp - analytic) <= 4 * se + 1e-12)


def test_degrees_deterministic():
    p = default_params(2000, seed=99)
    a = sample_degrees(p, np.random.default_rng(p.seed))
    b = sample_degrees(p, np.random.default_rng(p.seed))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- community sizes

def test_single_forced_community():
    p = dataclasses.replace(default_params(50), n=50, min_size=50, max_size=50)
    sizes = sample_community_sizes(p, np.random.default_rng(0))
    np.testing.assert_array_equal(sizes, [50])


def test_infeasible_band_raises_before_sampling():
    # 2 communities need >= 100 nodes, 1 community holds <= 60: nothing sums to 70
    p = dataclasses.replace(default_params(1024), n=70, min_size=50, max_size=60)
    with pytest.raises(InfeasibleError):
        sample_community_sizes(p, np.random.default_rng(0))


def _assert_valid_sizes(sizes, n, s, big_s):
    assert sizes.sum() == n
    assert sizes.min() >= s and sizes.max() <= big_s
    assert np.all(np.diff(sizes) <= 0)


@pytest.mark.slow
def test_sizes_sum_exact_many_seeds_small():
    p = dataclasses.replace(default_params(100), min_size=10, max_size=60)
    for seed in range(10_000):
        sizes = sample_community_sizes(p, np.random.default_rng(seed))
        _assert_valid_sizes(sizes, 100, 10, 60)


@pytest.mark.slow
def test_sizes_sum_exact_many_seeds_default():
    p = default_params(1024)
    for seed in range(10_000):
        sizes = sample_community_sizes(p, np.random.default_rng(seed))
        _assert_valid_sizes(sizes, 1024, 50, 181)


@pytest.mark.slow
def test_sizes_sum_exact_large_n():
    p = default_params(100_000)
    for seed in range(300):
        sizes = sample_community_sizes(p, np.random.default_rng(seed))
        _assert_valid_sizes(sizes, p.n, p.min_size, p.max_size)


def test_overlong_candidate_is_trimmed_then_nudged_up():
    # at beta 50 nearly every size is 10, so a candidate first reaches 105
    # with 11 sizes (110); at most 105 // 10 = 10 fit, and the 10 left sum
    # to about 100, which the passes nudge up one at a time
    p = dataclasses.replace(default_params(105), min_size=10, max_size=20, beta=50.0)
    for seed in range(5):
        sizes = sample_community_sizes(p, np.random.default_rng(seed))
        assert sizes.tolist() == [11] * 5 + [10] * 5, seed


def test_sizes_deterministic():
    p = default_params(4096, seed=5)
    a = sample_community_sizes(p, np.random.default_rng(p.seed))
    b = sample_community_sizes(p, np.random.default_rng(p.seed))
    np.testing.assert_array_equal(a, b)


def test_candidate_cap_is_pinned():
    assert MAX_SIZE_CANDIDATES == 1000


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sizes_property_random_feasible_bands(data):
    n = data.draw(st.integers(min_value=20, max_value=3000))
    s = data.draw(st.integers(min_value=2, max_value=max(2, n // 2)))
    big_s = data.draw(st.integers(min_value=s, max_value=n))
    beta = data.draw(st.floats(min_value=1.01, max_value=2.5))
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    p = dataclasses.replace(
        default_params(max(n, 64)), n=n, beta=beta, min_size=s, max_size=big_s,
        min_degree=1, max_degree=1, q=(1.0,), max_edge_size=1,
        w=None, seed=seed)
    feasible = (n // s >= 1) and (-(-n // big_s) <= n // s)
    if not feasible:
        with pytest.raises(InfeasibleError):
            sample_community_sizes(p, np.random.default_rng(seed))
    else:
        sizes = sample_community_sizes(p, np.random.default_rng(seed))
        _assert_valid_sizes(sizes, n, s, big_s)
