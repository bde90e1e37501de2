"""Closed-form modularity oracles, histogram cases, and CCDF sanity."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgbench.assignment import log_binomial
from hgbench.config import (
    WEIGHT_MODELS,
    build_weight_matrix,
    default_params,
    lowest_majority_count,
    modularity_weights,
)
from hgbench.errors import UndefinedInputError
from hgbench.generation import generate
from hgbench.metrics import (
    ccdf_report,
    census,
    graph_modularity,
    hypergraph_modularity,
    two_section,
    type_histogram,
)
from hgbench.structures import Hypergraph


def hg_from(n, edges):
    return Hypergraph.from_edge_lists(n, edges)


def sorted_label_runs(hg, labels):
    """Reference path: per edge size d, the run lengths of equal labels in each
    edge's sorted label row, and the longest run of every edge."""
    parts = np.unique(np.asarray(labels), return_inverse=True)[1]
    sizes = hg.sizes()
    for d in np.unique(sizes):
        d = int(d)
        idx = np.flatnonzero(sizes == d)
        rows = np.sort(parts[hg.members[hg.offsets[idx][:, None] + np.arange(d)]], axis=1)
        starts = np.ones(rows.shape, dtype=bool)
        starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
        pos = np.flatnonzero(starts.ravel())
        lengths = np.diff(pos, append=rows.size)
        row_start = np.zeros(len(idx), dtype=np.int64)
        np.cumsum(starts.sum(axis=1)[:-1], out=row_start[1:])
        yield d, lengths, np.maximum.reduceat(lengths, row_start)


def reference_hypergraph_modularity(hg, labels, u):
    uniq, parts = np.unique(np.asarray(labels), return_inverse=True)
    p = np.bincount(parts[hg.members], minlength=len(uniq)).astype(np.float64) / hg.volume
    total = 0.0
    for d, lengths, longest in sorted_label_runs(hg, labels):
        if d < 2:
            continue
        observed = np.bincount(lengths, minlength=d + 1)
        for c in range(lowest_majority_count(d), d + 1):
            ucd = u.values[c, d]
            if ucd == 0.0:
                continue
            if c == d:
                null = float((p ** d).sum())
            else:
                with np.errstate(divide="ignore"):
                    logpmf = (log_binomial(d, c) + c * np.log(p)
                              + (d - c) * np.log1p(-p))
                null = float(np.exp(logpmf).sum())
            total += ucd * (int(observed[c]) - len(longest) * null) / hg.edge_count
    return float(total)


def reference_type_histogram(hg, labels):
    out = {}
    for d, _, longest in sorted_label_runs(hg, labels):
        counts = np.bincount(np.where(2 * longest > d, longest, 0), minlength=d + 1)
        if d > 1:
            out[(0, d)] = int(counts[0])
        for c in range(lowest_majority_count(d), d + 1):
            out[(c, d)] = int(counts[c])
    return out


@st.composite
def labelled_multi_hypergraphs(draw):
    """Edges of sizes 1-9 that may repeat slots and each other, plus one
    arbitrary integer label per node (few distinct values or many)."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=9),
        max_size=30))
    label = st.one_of(st.integers(min_value=-2, max_value=2),
                      st.integers(min_value=-2**62, max_value=2**62))
    labels = draw(st.lists(label, min_size=n, max_size=n))
    return hg_from(n, edges), np.asarray(labels, dtype=np.int64)


class TestCensusEquivalence:
    @given(case=labelled_multi_hypergraphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_sorted_run_reference(self, case):
        hg, labels = case
        cen = census(hg, labels)
        hist = cen.type_histogram()
        assert hist == reference_type_histogram(hg, labels)
        assert list(hist) == sorted(hist, key=lambda key: key[::-1])  # the report's order
        assert type_histogram(hg, labels) == reference_type_histogram(hg, labels)
        if hg.edge_count:
            for name in WEIGHT_MODELS:
                u = modularity_weights(name, 9)
                expected = reference_hypergraph_modularity(hg, labels, u)
                assert cen.hypergraph_modularity(u) == expected
                assert hypergraph_modularity(hg, labels, u) == expected

    @given(case=labelled_multi_hypergraphs())
    @settings(max_examples=300, deadline=None)
    def test_pairwise_equals_two_section_modularity(self, case):
        hg, labels = case
        graph = two_section(hg)
        cen = census(hg, labels)
        if graph.total_weight == 0:
            with pytest.raises(UndefinedInputError):
                cen.pairwise_modularity()
        else:
            assert cen.pairwise_modularity() == graph_modularity(graph, labels)

    def test_all_singleton_edges_leave_pairwise_undefined(self):
        cen = census(hg_from(3, [[0, 0], [1], [2, 2, 2]]), [0, 1, 1])
        with pytest.raises(UndefinedInputError):
            cen.pairwise_modularity()

    def test_generated_hypergraph_matches_every_path(self):
        res = generate(default_params(2000, seed=3, simple=False))
        hg, labels = res.hypergraph, res.assignment.member_of
        cen = census(hg, labels)
        assert cen.pairwise_modularity() == graph_modularity(two_section(hg), labels)
        assert cen.type_histogram() == reference_type_histogram(hg, labels)
        for name in WEIGHT_MODELS:
            u = modularity_weights(name, 5)
            assert cen.hypergraph_modularity(u) == reference_hypergraph_modularity(hg, labels, u)


class TestTwoSection:
    def test_triangle_expands_to_three_pairs(self):
        ts = two_section(hg_from(4, [[1, 2, 3]]))
        pairs = set(zip(ts.pair_u.tolist(), ts.pair_v.tolist()))
        assert pairs == {(1, 2), (1, 3), (2, 3)}
        assert (ts.weight == 1).all()
        assert ts.total_weight == 3

    def test_parallel_edges_accumulate_weight(self):
        ts = two_section(hg_from(3, [[1, 2], [1, 2]]))
        assert ts.pair_u.tolist() == [1]
        assert ts.pair_v.tolist() == [2]
        assert ts.weight.tolist() == [2]

    def test_repeated_slots_collapse_within_one_edge(self):
        ts = two_section(hg_from(4, [[1, 1, 2], [3, 3, 3]]))
        assert ts.total_weight == 1
        assert (ts.pair_u[0], ts.pair_v[0]) == (1, 2)

    def test_singletons_contribute_nothing(self):
        ts = two_section(hg_from(3, [[0], [1], [2]]))
        assert ts.total_weight == 0

    def test_empty(self):
        ts = two_section(hg_from(3, []))
        assert ts.total_weight == 0
        assert (ts.degree == 0).all()

    def test_degrees_are_weighted(self):
        ts = two_section(hg_from(4, [[0, 1], [0, 1], [0, 2]]))
        assert ts.degree.tolist() == [3, 2, 1, 0]


class TestGraphModularity:
    def test_two_disjoint_triangles(self):
        hg = hg_from(6, [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]])
        q = graph_modularity(two_section(hg), [0, 0, 0, 1, 1, 1])
        assert q == pytest.approx(0.5, abs=0)

    def test_single_part_is_zero(self):
        hg = hg_from(5, [[0, 1], [2, 3], [1, 4]])
        q = graph_modularity(two_section(hg), np.zeros(5, dtype=int))
        assert q == 0.0

    def test_four_cycle_opposite_pairs(self):
        hg = hg_from(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        q = graph_modularity(two_section(hg), [0, 0, 1, 1])
        assert q == pytest.approx(0.0, abs=1e-15)

    def test_zero_edges_rejected(self):
        with pytest.raises(UndefinedInputError):
            graph_modularity(two_section(hg_from(3, [])), [0, 1, 2])

    def test_relabeling_invariance(self):
        res = generate(default_params(256, seed=5))
        ts = two_section(res.hypergraph)
        labels = res.assignment.member_of
        shuffled = (labels * 7 + 3) % 1000 + 40
        assert graph_modularity(ts, labels) == pytest.approx(
            graph_modularity(ts, shuffled), abs=1e-14)


class TestHypergraphModularity:
    def test_single_part_is_exactly_zero(self):
        res = generate(default_params(512, seed=2))
        u = build_weight_matrix("majority", 5)
        q = hypergraph_modularity(res.hypergraph, np.zeros(512, dtype=int), u)
        assert abs(q) <= 1e-12

    def test_size_two_matches_graph_modularity(self):
        p = default_params(512, seed=3, q=(0.0, 1.0), max_edge_size=2,
                          w=build_weight_matrix("majority", 2))
        res = generate(p)
        u = build_weight_matrix("majority", 2)
        labels = res.assignment.member_of
        qh = hypergraph_modularity(res.hypergraph, labels, u)
        qg = graph_modularity(two_section(res.hypergraph), labels)
        assert qh == pytest.approx(qg, abs=1e-9)

    def test_zero_edges_rejected(self):
        u = build_weight_matrix("majority", 3)
        with pytest.raises(UndefinedInputError):
            hypergraph_modularity(hg_from(4, []), [0, 1, 2, 3], u)

    def test_relabeling_invariance(self):
        res = generate(default_params(256, seed=7))
        u = build_weight_matrix("linear", 5)
        labels = res.assignment.member_of
        qa = hypergraph_modularity(res.hypergraph, labels, u)
        qb = hypergraph_modularity(res.hypergraph, labels + 17, u)
        assert qa == pytest.approx(qb, abs=1e-12)

    def test_oversized_edges_rejected(self):
        u = build_weight_matrix("majority", 2)
        with pytest.raises(ValueError):
            hypergraph_modularity(hg_from(5, [[0, 1, 2]]), [0, 0, 0, 1, 1], u)

    def test_four_isolated_triangles_hand_value(self):
        # four parts at volume fraction 1/4, one internal edge each:
        # c=3 term 0.5*(4 - 4*4/64)/4, c=2 term 0.5*(0 - 4*36/64)/4
        # totalling exactly 0.1875
        edges = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
        labels = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        u = build_weight_matrix("majority", 3)
        q = hypergraph_modularity(hg_from(12, edges), labels, u)
        assert q == pytest.approx(0.1875, abs=1e-12)


class TestTypeHistogram:
    def test_hand_worked_cases(self):
        edges = [[1, 2, 3], [4, 5, 6, 7]]
        labels = [0, 0, 0, 1, 0, 0, 1, 1]
        hist = type_histogram(hg_from(8, edges), labels)
        assert hist[(2, 3)] == 1
        assert hist[(0, 4)] == 1
        assert hist[(3, 3)] == 0

    def test_counts_sum_to_edge_count(self):
        res = generate(default_params(512, seed=9))
        hist = type_histogram(res.hypergraph, res.assignment.member_of)
        assert sum(hist.values()) == res.hypergraph.edge_count

    def test_majority_requires_strict_excess(self):
        hist = type_histogram(hg_from(4, [[0, 1, 2, 3]]), [0, 0, 1, 1])
        assert hist[(0, 4)] == 1
        assert hist[(3, 4)] == 0 and hist[(4, 4)] == 0

    def test_legal_keys_present_with_zeros(self):
        hist = type_histogram(hg_from(6, [[0, 1, 2, 3, 4]]), [0, 0, 0, 0, 0, 1])
        assert set(hist) == {(0, 5), (3, 5), (4, 5), (5, 5)}
        assert hist[(5, 5)] == 1

    def test_singleton_edges(self):
        hist = type_histogram(hg_from(3, [[0], [2]]), [0, 1, 1])
        assert hist == {(1, 1): 2}


class TestCcdfReport:
    def test_degenerate_degree_band_is_step(self):
        p = default_params(200, seed=1, min_degree=4, max_degree=4)
        res = generate(p)
        rep = ccdf_report(res.hypergraph, res.assignment, p)
        assert rep.degree_k.tolist() == [4]
        assert rep.degree_ccdf_model.tolist() == [1.0]
        assert rep.degree_ccdf[0] >= 0.99

    def test_empirical_tracks_model_small_n(self):
        p = default_params(1000, seed=12)
        res = generate(p)
        rep = ccdf_report(res.hypergraph, res.assignment, p)
        model = rep.degree_ccdf_model
        se = np.sqrt(np.maximum(model * (1 - model), 1e-12) / p.n)
        assert (np.abs(rep.degree_ccdf - model) <= 5 * se + 2 / p.n).all()

    def test_volume_share_sums_to_one(self):
        p = default_params(600, seed=3)
        res = generate(p)
        rep = ccdf_report(res.hypergraph, res.assignment, p)
        assert rep.volume_share.sum() == pytest.approx(1.0, abs=1e-12)
        assert rep.volume_share[0] >= 0  # size-1 share present as index 0
        assert rep.edge_size_counts.sum() == res.hypergraph.edge_count

    def test_community_ccdf_endpoints(self):
        p = default_params(2048, seed=4)
        res = generate(p)
        rep = ccdf_report(res.hypergraph, res.assignment, p)
        assert rep.community_size_ccdf[0] == 1.0
        assert rep.community_size_ccdf_model[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.community_count == len(res.assignment.sizes)


class TestGeneratedOrdering:
    def test_strictness_raises_two_section_modularity(self):
        # tighter in-edge concentration gives higher 2-section modularity;
        # allow one seed-level inversion per adjacent pair
        for xi in (0.1, 0.3):
            scores = {}
            for model in ("majority", "linear", "strict"):
                vals = []
                for seed in range(10):
                    p = default_params(10_000, seed=seed, xi=xi,
                                      w=build_weight_matrix(model, 5))
                    res = generate(p)
                    ts = two_section(res.hypergraph)
                    vals.append(graph_modularity(ts, res.assignment.member_of))
                scores[model] = np.asarray(vals)
            for hi, lo in (("strict", "linear"), ("linear", "majority")):
                inversions = int((scores[hi] <= scores[lo]).sum())
                assert inversions <= 1, (hi, lo, scores)
