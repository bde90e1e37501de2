"""Degree splitting and community placement, checked against direct-evaluation oracles."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from hgbench.assignment import (
    admissibility_table,
    assign_communities,
    log_binomial,
    precompute_feasibility,
    split_degrees,
)
from hgbench.config import GeneratorParams, build_weight_matrix, default_params
from hgbench.errors import InfeasibleError
from hgbench.sampling import sample_community_sizes, sample_degrees


# ---------------------------------------------------------------- oracles

def is_admissible(y, z, j, consts):
    """Direct evaluation of the admissibility bound for one node split and community."""
    lhs = y * consts.slope_y[j] + z * consts.slope_z[j]
    with np.errstate(divide="ignore"):
        return bool(np.all(np.log(lhs) <= consts.log_cap[j]))


def oracle_constants(n, cj, q, w, max_edge_size):
    """Brute-force (slope_y, slope_z, cap) per (c, d) with exact integer caps."""
    b = cj / n
    out = {}
    for d in range(2, max_edge_size + 1):
        if q[d - 1] == 0:
            continue
        lo = d // 2 + 1
        for c in range(lo, d + 1):
            a = sum(
                q[d - 1] * w.values[f, d] * math.comb(d - f, c - f)
                * b ** (c - f) * (1 - b) ** (d - c)
                for f in range(lo, c + 1)
            )
            bb = q[d - 1] * math.comb(d - 1, c - 1) * b ** (c - 1) * (1 - b) ** (d - c)
            cap = math.comb(cj - 1, c - 1) * math.comb(n - cj, d - c)
            out[(c, d)] = (a, bb, cap)
    return out


def params_for(n, max_edge_size, q, model="majority", **overrides):
    base = dict(
        n=n, gamma=2.5, min_degree=1, max_degree=n, beta=1.5,
        min_size=2, max_size=n, xi=0.2, max_edge_size=max_edge_size,
        q=q, w=build_weight_matrix(model, max_edge_size), seed=0,
    )
    base.update(overrides)
    return GeneratorParams(**base)


# ---------------------------------------------------------------- splitting

def test_split_extremes():
    rng = np.random.default_rng(0)
    degrees = np.array([5, 9, 40])
    y, z = split_degrees(degrees, 0.0, rng)
    np.testing.assert_array_equal(z, 0)
    np.testing.assert_array_equal(y, degrees)
    y, z = split_degrees(degrees, 1.0, rng)
    np.testing.assert_array_equal(z, degrees)
    np.testing.assert_array_equal(y, 0)


def test_split_integral_product_is_deterministic():
    rng = np.random.default_rng(1)
    degrees = np.full(1000, 10)
    y, z = split_degrees(degrees, 0.2, rng)
    np.testing.assert_array_equal(z, 2)
    np.testing.assert_array_equal(y, 8)


def test_split_mean_matches_noise_share():
    rng = np.random.default_rng(2)
    degrees = np.full(1_000_000, 7)
    y, z = split_degrees(degrees, 0.2, rng)
    np.testing.assert_array_equal(y + z, degrees)
    assert set(np.unique(z)) <= {1, 2}
    se = math.sqrt(0.4 * 0.6 / len(degrees))
    assert abs(z.mean() - 1.4) <= 3 * se


# ---------------------------------------------------------------- log binomial

def test_log_binomial_matches_exact_integers():
    # m, k and m - k cross the table/series seam of log(x!) at x = 32
    for m in range(0, 201):
        for k in range(0, m + 1):
            assert log_binomial(m, k) == pytest.approx(math.log(math.comb(m, k)), abs=1e-10)
    assert log_binomial(5, 6) == -np.inf
    assert log_binomial(5, -1) == -np.inf
    big = log_binomial(10**6, 500)
    assert big == pytest.approx(math.log(math.comb(10**6, 500)), rel=1e-12)


def assert_near_exact(got, m, k):
    exact = math.log(math.comb(m, k))
    assert abs(float(got) - exact) <= 1e-8 * max(1.0, abs(exact)), (m, k)


def test_log_binomial_large_m_small_k():
    rng = np.random.default_rng(8)
    for m in rng.integers(0, 10**7, size=2000, endpoint=True).tolist():
        for k in (0, 1, 2, 3, 5, 10, 40, 80):
            if k <= m:
                assert_near_exact(log_binomial(m, k), m, k)


def test_log_binomial_shapes_and_range():
    scalar = log_binomial(7, 3)
    assert np.ndim(scalar) == 0
    assert float(scalar) == pytest.approx(math.log(35), abs=1e-12)
    table = log_binomial(np.arange(5, 10)[:, None], np.arange(-1, 7)[None, :])
    assert table.shape == (5, 8)
    for i, m in enumerate(range(5, 10)):
        for j, k in enumerate(range(-1, 7)):
            if 0 <= k <= m:
                assert_near_exact(table[i, j], m, k)
            else:
                assert table[i, j] == -np.inf
    assert log_binomial(0, 1) == -np.inf


# ---------------------------------------------------------------- constants

def test_pair_size_two_constants_frozen():
    # single edge size 2, community of 10 in a population of 100
    p = params_for(100, 2, (0.0, 1.0))
    consts = precompute_feasibility(np.array([10]), p)
    assert consts.column_count == 1
    assert consts.pair_d[0] == 2 and consts.pair_c[0] == 2
    assert consts.slope_y[0, 0] == pytest.approx(1.0)
    assert consts.slope_z[0, 0] == pytest.approx(0.1)
    assert consts.log_cap[0, 0] == pytest.approx(math.log(9))


def test_pair_size_three_mixed_weights_frozen():
    p = params_for(100, 3, (0.0, 0.0, 1.0))
    w = p.w  # majority on size 3 gives 0.5 / 0.5
    assert w.values[2, 3] == 0.5 and w.values[3, 3] == 0.5
    consts = precompute_feasibility(np.array([50]), p)
    col = {(c, d): t for t, (c, d) in enumerate(zip(consts.pair_c, consts.pair_d))}
    t = col[(2, 3)]
    assert consts.slope_y[0, t] == pytest.approx(0.25)


@pytest.mark.parametrize("n,cj,model,L", [
    (300, 20, "majority", 6),
    (300, 150, "linear", 6),
    (300, 299, "strict", 5),
    (100, 3, "majority", 8),   # community smaller than large counts: caps hit zero
    (1000, 50, "linear", 12),
])
def test_constants_match_bruteforce(n, cj, model, L):
    q = tuple(0.0 if d == 0 else 1.0 / (L - 1) for d in range(L))
    p = params_for(n, L, q, model)
    consts = precompute_feasibility(np.array([cj]), p)
    want = oracle_constants(n, cj, p.normalized_q(), p.w, L)
    assert consts.column_count == len(want)
    for t in range(consts.column_count):
        c, d = int(consts.pair_c[t]), int(consts.pair_d[t])
        a, b, cap = want[(c, d)]
        assert consts.slope_y[0, t] == pytest.approx(a, rel=1e-9, abs=1e-300)
        assert consts.slope_z[0, t] == pytest.approx(b, rel=1e-9, abs=1e-300)
        if cap == 0:
            assert consts.log_cap[0, t] == -np.inf
        else:
            assert consts.log_cap[0, t] == pytest.approx(math.log(cap), rel=1e-9)


def test_column_count_grows_quadratically():
    for L in (40, 80):
        q = tuple(0.0 if d == 0 else 1.0 / (L - 1) for d in range(L))
        p = params_for(100_000, L, q, min_size=5000, max_size=10_000)
        consts = precompute_feasibility(np.array([5000, 7000]), p)
        expect = sum(-(-d // 2) for d in range(2, L + 1))
        assert consts.column_count == expect
    assert expect == 1639  # L = 80


def test_zero_share_sizes_are_skipped():
    p = params_for(100, 5, (0.0, 1.0, 0.0, 0.0, 0.0))
    consts = precompute_feasibility(np.array([10, 20]), p)
    assert set(consts.pair_d.tolist()) == {2}


# ---------------------------------------------------------------- admissibility

def test_admissible_examples_size_two():
    p = params_for(100, 2, (0.0, 1.0))
    consts = precompute_feasibility(np.array([10]), p)
    assert is_admissible(5, 5, 0, consts)      # 5*1.0 + 5*0.1 = 5.5 <= 9
    assert not is_admissible(10, 0, 0, consts)  # 10 > 9
    assert is_admissible(0, 0, 0, consts)       # zero load always fits


def test_whole_population_community_accepts_everyone():
    p = params_for(100, 5, (0.0, 0.25, 0.25, 0.25, 0.25))
    consts = precompute_feasibility(np.array([100]), p)
    for y, z in [(0, 0), (50, 50), (100, 0), (0, 100)]:
        assert is_admissible(y, z, 0, consts)


def test_table_agrees_with_direct_evaluation():
    # memo transparency: the batched table must equal one-at-a-time evaluation
    p = params_for(500, 6, (0.0, 0.2, 0.2, 0.2, 0.2, 0.2))
    sizes = np.array([250, 150, 60, 25, 15])
    consts = precompute_feasibility(sizes, p)
    y_vals = np.array([0, 1, 5, 17, 40, 120, 300])
    z_vals = np.array([0, 3, 2, 11, 10, 30, 200])
    table = admissibility_table(y_vals, z_vals, consts)
    for u in range(len(y_vals)):
        for j in range(len(sizes)):
            assert table[u, j] == is_admissible(int(y_vals[u]), int(z_vals[u]), j, consts)


# ---------------------------------------------------------------- placement

def test_single_community_takes_all():
    p = params_for(200, 2, (0.0, 1.0))
    sizes = np.array([200])
    consts = precompute_feasibility(sizes, p)
    y = np.full(200, 2, dtype=np.int64)
    z = np.zeros(200, dtype=np.int64)
    got = assign_communities(y, z, sizes, consts, np.random.default_rng(0))
    np.testing.assert_array_equal(got.member_of, 0)


def test_equal_halves_fill_exactly():
    p = params_for(1024, 2, (0.0, 1.0))
    sizes = np.array([512, 512])
    consts = precompute_feasibility(sizes, p)
    y = np.full(1024, 6, dtype=np.int64)
    z = np.full(1024, 1, dtype=np.int64)
    got = assign_communities(y, z, sizes, consts, np.random.default_rng(3))
    counts = np.bincount(got.member_of, minlength=2)
    np.testing.assert_array_equal(counts, [512, 512])


def test_capacities_respected_and_everyone_admissible():
    p = default_params(2048, seed=11)
    rng = np.random.default_rng(p.seed)
    degrees = sample_degrees(p, rng)
    sizes = sample_community_sizes(p, rng)
    y, z = split_degrees(degrees, p.xi, rng)
    consts = precompute_feasibility(sizes, p)
    got = assign_communities(y, z, sizes, consts, rng)
    counts = np.bincount(got.member_of, minlength=len(sizes))
    np.testing.assert_array_equal(counts, sizes)
    # post-hoc: every node satisfies the bound for its own community
    for node in range(0, 2048, 37):
        assert is_admissible(int(y[node]), int(z[node]), int(got.member_of[node]), consts)


def test_hundred_seeds_default_all_place():
    p = default_params(1024)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        degrees = sample_degrees(p, rng)
        sizes = sample_community_sizes(p, rng)
        y, z = split_degrees(degrees, p.xi, rng)
        consts = precompute_feasibility(sizes, p)
        got = assign_communities(y, z, sizes, consts, rng)
        np.testing.assert_array_equal(np.bincount(got.member_of, minlength=len(sizes)), sizes)


def test_overloaded_node_raises_naming_the_node():
    # every community too small for a heavy node: y * 1.0 > cap for all j
    p = params_for(100, 2, (0.0, 1.0))
    sizes = np.array([50, 50])
    consts = precompute_feasibility(sizes, p)
    y = np.full(100, 1, dtype=np.int64)
    z = np.zeros(100, dtype=np.int64)
    y[17] = 90  # cap is C(49,1)*C(50,0) = 49 < 90
    with pytest.raises(InfeasibleError, match=r"y=90"):
        assign_communities(y, z, sizes, consts, np.random.default_rng(0))


def test_first_dealt_node_is_spots_proportional():
    # all-admissible tail: the highest-degree node must land proportionally to spots
    p = params_for(100, 2, (0.0, 1.0))
    sizes = np.array([60, 40])
    consts = precompute_feasibility(sizes, p)
    y = np.full(100, 3, dtype=np.int64)
    z = np.zeros(100, dtype=np.int64)
    hits = 0
    trials = 2000
    for seed in range(trials):
        got = assign_communities(y, z, sizes, consts, np.random.default_rng(seed))
        hits += got.member_of[0] == 0
    se = math.sqrt(0.6 * 0.4 / trials)
    assert abs(hits / trials - 0.6) <= 4 * se


def test_blocked_node_placement_is_proportional_among_admissible():
    # node 0 is too heavy for the small community, so it must go to one of the
    # two big ones proportionally to their spots
    p = params_for(300, 2, (0.0, 1.0))
    sizes = np.array([150, 100, 50])
    consts = precompute_feasibility(sizes, p)
    y = np.full(300, 2, dtype=np.int64)
    z = np.zeros(300, dtype=np.int64)
    y[0] = 80  # caps: 149, 99, 49 -> only communities 0 and 1 admit it
    assert not is_admissible(80, 0, 2, consts)
    hits = 0
    trials = 2000
    for seed in range(trials):
        got = assign_communities(y, z, sizes, consts, np.random.default_rng(seed))
        assert got.member_of[0] in (0, 1)
        hits += got.member_of[0] == 0
    se = math.sqrt(0.6 * 0.4 / trials)
    assert abs(hits / trials - 0.6) <= 4 * se


def test_assignment_deterministic():
    p = default_params(4096, seed=21)
    def run():
        rng = np.random.default_rng(p.seed)
        degrees = sample_degrees(p, rng)
        sizes = sample_community_sizes(p, rng)
        y, z = split_degrees(degrees, p.xi, rng)
        consts = precompute_feasibility(sizes, p)
        return assign_communities(y, z, sizes, consts, rng).member_of
    np.testing.assert_array_equal(run(), run())
