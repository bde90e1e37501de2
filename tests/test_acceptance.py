"""Release gates: ten end-to-end checks, each printing one verdict line.

Every test prints ``CRITERION NN <name>: PASS|FAIL (<measured vs target>)``
straight to the terminal (bypassing capture) before asserting, so a full run
always displays all ten verdicts.  Reference statistics, tolerances, and
runtime budgets are pinned inside each test; seeds are frozen so the whole
suite is reproducible.
"""
from __future__ import annotations

import filecmp
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import pytest

from hgbench.cli import main
from hgbench.config import (
    GeneratorParams,
    build_weight_matrix,
    default_params,
    lowest_majority_count,
    modularity_weights,
    validate,
)
from hgbench.generation import generate
from hgbench.metrics import (
    graph_modularity,
    hypergraph_modularity,
    two_section,
    type_histogram,
)
from hgbench.sampling import truncated_power_law
from hgbench.structures import Hypergraph

pytestmark = pytest.mark.slow


def verdict(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    """Print the one-line pass/fail verdict for a gate, bypassing capture."""
    with capsys.disabled():
        print(f"CRITERION {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
              flush=True)


# ---------------------------------------------------------------------------
# Shared expensive runs


@dataclass
class SmallSweep:
    communities: np.ndarray   # number of ground-truth communities per seed
    edges: np.ndarray         # number of hyperedges per seed
    volume_shares: np.ndarray  # (seeds, 5) per-size share of slot volume, size 1..5
    seconds: float


@pytest.fixture(scope="module")
def sweep_1024():
    """100 frozen-seed runs at n=1024 with the default parameterization."""
    t0 = perf_counter()
    communities, edges, shares = [], [], []
    for seed in range(100):
        res = generate(default_params(1024, seed=seed))
        communities.append(res.assignment.community_count)
        edges.append(res.hypergraph.edge_count)
        sizes = res.hypergraph.sizes()
        per_size = np.bincount(sizes, weights=sizes.astype(float), minlength=6)[1:6]
        shares.append(per_size / res.hypergraph.volume)
    return SmallSweep(
        np.array(communities, dtype=float),
        np.array(edges, dtype=float),
        np.array(shares),
        perf_counter() - t0,
    )


@pytest.fixture(scope="module")
def run_million():
    """One timed run at n=10**6 with the default parameterization."""
    params = default_params(10**6, seed=0)
    t0 = perf_counter()
    res = generate(params)
    return params, res, perf_counter() - t0


def degree_ccdf_max_deviation(res, params) -> float:
    """Largest |empirical - analytic| degree CCDF gap in binomial standard errors."""
    table = truncated_power_law(params.gamma, params.min_degree, params.max_degree)
    model = table.ccdf()
    counts = np.bincount(res.profiles.sampled_degree, minlength=params.max_degree + 2)
    empirical = counts[::-1].cumsum()[::-1][params.min_degree: params.max_degree + 1]
    empirical = empirical / params.n
    se = np.sqrt(model * (1.0 - model) / params.n)
    gaps = np.abs(empirical - model) / np.where(se > 0, se, np.inf)
    return float(gaps.max())


# ---------------------------------------------------------------------------
# The ten gates


def test_criterion_01_community_counts(sweep_1024, capsys):
    mean = float(sweep_1024.communities.mean())
    std = float(sweep_1024.communities.std(ddof=1))
    ok = (abs(mean - 11.03) <= 0.5 and abs(std - 1.29) <= 0.5
          and sweep_1024.seconds < 30.0)
    verdict(capsys, 1, "community-counts", ok,
            f"mean={mean:.2f} target 11.03+-0.5, std={std:.2f} target 1.29+-0.5, "
            f"{sweep_1024.seconds:.1f}s < 30s")
    assert abs(mean - 11.03) <= 0.5
    assert abs(std - 1.29) <= 0.5
    assert sweep_1024.seconds < 30.0


def test_criterion_02_edge_counts(sweep_1024, capsys):
    t0 = perf_counter()
    big = np.array([generate(default_params(65536, seed=seed)).hypergraph.edge_count
                    for seed in range(20)], dtype=float)
    seconds = sweep_1024.seconds + (perf_counter() - t0)
    mean_small = float(sweep_1024.edges.mean())
    mean_big = float(big.mean())
    ok = (abs(mean_small - 2969) <= 0.02 * 2969
          and abs(mean_big - 248123) <= 0.02 * 248123
          and seconds < 300.0)
    verdict(capsys, 2, "edge-counts", ok,
            f"n=1024 mean={mean_small:.0f} target 2969+-2%, "
            f"n=65536 mean={mean_big:.0f} target 248123+-2%, {seconds:.0f}s < 300s")
    assert abs(mean_small - 2969) <= 0.02 * 2969
    assert abs(mean_big - 248123) <= 0.02 * 248123
    assert seconds < 300.0


def test_criterion_03_degree_ccdf(run_million, capsys):
    params, res, _ = run_million
    dev_large = degree_ccdf_max_deviation(res, params)
    small_params = default_params(1000, seed=0)
    dev_small = degree_ccdf_max_deviation(generate(small_params), small_params)
    ok = dev_large <= 3.0 and dev_small <= 5.0
    verdict(capsys, 3, "degree-ccdf", ok,
            f"n=10^6 max gap {dev_large:.2f} SE <= 3, "
            f"n=1000 max gap {dev_small:.2f} SE <= 5")
    assert dev_large <= 3.0
    assert dev_small <= 5.0


def test_criterion_04_volume_shares(sweep_1024, capsys):
    shares = np.zeros((10, 5))
    for seed in range(10):
        res = generate(default_params(2**17, seed=seed))
        sizes = res.hypergraph.sizes()
        per_size = np.bincount(sizes, weights=sizes.astype(float), minlength=6)[1:6]
        shares[seed] = per_size / res.hypergraph.volume
    dev_large = float(np.abs(shares.mean(axis=0)[1:] - 0.25).max())
    dev_small = float(np.abs(sweep_1024.volume_shares.mean(axis=0)[1:] - 0.25).max())
    ok = dev_large <= 0.01 and dev_small <= 0.04
    verdict(capsys, 4, "volume-shares", ok,
            f"n=2^17 max share deviation {dev_large:.4f} <= 0.01, "
            f"n=2^10 max share deviation {dev_small:.4f} <= 0.04")
    assert dev_large <= 0.01
    assert dev_small <= 0.04


def test_criterion_05_type_fractions(capsys):
    res = generate(default_params(2**17, seed=1, w=build_weight_matrix("strict", 5)))
    hist = type_histogram(res.hypergraph, res.assignment)
    sizes = res.hypergraph.sizes()
    problems = []
    for d in range(2, 6):
        edge_total = int((sizes == d).sum())
        no_majority = hist.get((0, d), 0) / edge_total
        homogeneous = hist.get((d, d), 0) / edge_total
        if abs(no_majority - 0.2) > 0.03:
            problems.append(f"(0,{d})={no_majority:.3f} not in 0.2+-0.03")
        if abs(homogeneous - 0.8) > 0.03:
            problems.append(f"({d},{d})={homogeneous:.3f} not in 0.8+-0.03")
        for c in range(lowest_majority_count(d), d):
            partial = hist.get((c, d), 0) / edge_total
            if partial >= 0.02:
                problems.append(f"({c},{d})={partial:.3f} not < 0.02")
    ok = not problems
    verdict(capsys, 5, "type-fractions", ok,
            "all windows met" if ok else "; ".join(problems))
    assert not problems, "; ".join(problems)


def test_criterion_06_modularity_exactness(capsys):
    # a) single-part score of a generated hypergraph is exactly zero
    res = generate(default_params(1024, seed=0))
    u = modularity_weights("majority", 5)
    single = abs(hypergraph_modularity(
        res.hypergraph, np.zeros(1024, dtype=np.int64), u))
    # b) two disjoint triangles split into their components score exactly one half
    triangles = Hypergraph.from_edge_lists(
        6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
    halves = np.array([0, 0, 0, 1, 1, 1])
    q_triangles = graph_modularity(two_section(triangles), halves)
    # c) with only size-2 edges the hypergraph score equals the graph score
    pair_params = default_params(
        512, seed=2, max_edge_size=2, q=(0.0, 1.0),
        w=build_weight_matrix("majority", 2))
    pair_res = generate(pair_params)
    q_hyper = hypergraph_modularity(
        pair_res.hypergraph, pair_res.assignment, modularity_weights("majority", 2))
    q_graph = graph_modularity(two_section(pair_res.hypergraph), pair_res.assignment)
    gap = abs(q_hyper - q_graph)
    ok = single <= 1e-12 and q_triangles == 0.5 and gap <= 1e-9
    verdict(capsys, 6, "modularity-exactness", ok,
            f"single-part |q|={single:.1e} <= 1e-12, "
            f"two-triangles q={q_triangles} == 0.5, "
            f"size-2 agreement gap {gap:.1e} <= 1e-9")
    assert single <= 1e-12
    assert q_triangles == 0.5
    assert gap <= 1e-9


def test_criterion_07_modularity_values(capsys):
    # Centres: the ground-truth scores of the unrepaired (simple=False)
    # hypergraphs for seeds 0-2, a stage the repair pass does not touch; the
    # repair keeps community edges internal, so it must not move them far.
    two_section_scores = {}
    majority_q = []
    for model in ("strict", "linear", "majority"):
        scores = []
        for seed in range(10):
            res = generate(default_params(
                10**4, seed=seed, w=build_weight_matrix(model, 5)))
            scores.append(graph_modularity(two_section(res.hypergraph),
                                           res.assignment))
            if model == "majority" and seed < 3:
                majority_q.append(hypergraph_modularity(
                    res.hypergraph, res.assignment,
                    modularity_weights("majority", 5)))
        two_section_scores[model] = np.array(scores)
    mean_q = float(np.mean(majority_q))
    mean_g = float(two_section_scores["majority"][:3].mean())
    inversions = int(
        (two_section_scores["strict"] <= two_section_scores["linear"]).sum()
        + (two_section_scores["linear"] <= two_section_scores["majority"]).sum())
    ok = (abs(mean_q - 0.762) <= 0.03 and abs(mean_g - 0.544) <= 0.03
          and inversions <= 1)
    verdict(capsys, 7, "modularity-values", ok,
            f"majority-valued score {mean_q:.4f} target 0.762+-0.03, "
            f"pairwise-graph score {mean_g:.4f} target 0.544+-0.03, "
            f"ordering inversions {inversions} <= 1 over 10 seeds")
    assert abs(mean_q - 0.762) <= 0.03
    assert abs(mean_g - 0.544) <= 0.03
    assert inversions <= 1


def test_criterion_08_simplicity(capsys):
    worst_bumped = 0
    multiset_edges = 0
    duplicate_edges = 0
    bad_deltas = 0
    smallest_active = 2  # smallest edge size with positive share in the defaults
    for seed in range(100):
        res = generate(default_params(2**13, seed=seed))
        hg = res.hypergraph
        sizes = hg.sizes()
        for d in np.unique(sizes):
            d = int(d)
            idx = np.nonzero(sizes == d)[0]
            rows = hg.members[hg.offsets[idx][:, None] + np.arange(d)]
            multiset_edges += int(((rows[:, 1:] == rows[:, :-1]).any(axis=1)).sum())
            order = np.lexsort(rows.T[::-1])
            srows = rows[order]
            if len(srows) > 1:
                duplicate_edges += int((srows[1:] == srows[:-1]).all(axis=1).sum())
        delta = hg.degrees() - res.profiles.sampled_degree
        bad_deltas += int(((delta != 0) & (delta != 1)).sum())
        worst_bumped = max(worst_bumped, int(np.count_nonzero(delta)))
    ok = (multiset_edges == 0 and duplicate_edges == 0 and bad_deltas == 0
          and worst_bumped <= smallest_active - 1)
    verdict(capsys, 8, "simplicity", ok,
            f"multiset edges {multiset_edges}, duplicate edges {duplicate_edges}, "
            f"non 0/+1 incidence deltas {bad_deltas}, "
            f"max adjusted nodes per run {worst_bumped} <= {smallest_active - 1} "
            f"over 100 seeds at n=2^13")
    assert multiset_edges == 0
    assert duplicate_edges == 0
    assert bad_deltas == 0
    assert worst_bumped <= smallest_active - 1


def test_criterion_09_performance(run_million, capsys):
    _, _, seconds = run_million

    def scaling_params(max_edge_size: int) -> GeneratorParams:
        n = 10**5
        q = (0.0,) + (1.0 / (max_edge_size - 1),) * (max_edge_size - 1)
        params = GeneratorParams(
            n=n, gamma=2.5, min_degree=5, max_degree=int(n**0.5),
            beta=1.5, min_size=5000, max_size=int(n**0.75),
            xi=0.2, max_edge_size=max_edge_size, q=q,
            w=build_weight_matrix("majority", max_edge_size), simple=True, seed=0)
        validate(params)
        return params

    # alternate the two sizes, so that a swing in host speed hits both sides
    runs = {40: [], 80: []}
    params = {size: scaling_params(size) for size in runs}
    for _ in range(3):
        for size, times in runs.items():
            times.append(generate(params[size]).timings["assignment"])
    ratio = min(runs[80]) / min(runs[40])
    ok = seconds < 60.0 and ratio >= 3.0
    verdict(capsys, 9, "performance", ok,
            f"n=10^6 generation {seconds:.1f}s < 60s, "
            f"assignment-phase time ratio L=80/L=40 {ratio:.2f} >= 3")
    assert seconds < 60.0
    assert ratio >= 3.0


def test_criterion_10_determinism(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n = 2048\nseed = 11\nxi = 0.25\n")
    first = tmp_path / "first" / "graph"
    second = tmp_path / "second" / "graph"
    code_first = main(["--config", str(config), "--out", str(first)])
    code_second = main(["--config", str(config), "--out", str(second)])
    edges_equal = filecmp.cmp(f"{first}.edges", f"{second}.edges", shallow=False)
    assign_equal = filecmp.cmp(f"{first}.assign", f"{second}.assign", shallow=False)
    ok = code_first == 0 and code_second == 0 and edges_equal and assign_equal
    verdict(capsys, 10, "determinism", ok,
            f"exit codes {code_first}/{code_second}, edges identical {edges_equal}, "
            f"assignments identical {assign_equal}")
    assert code_first == 0 and code_second == 0
    assert edges_equal
    assert assign_equal
