"""Closed-form modularity oracles, histogram cases, and CCDF sanity."""
import gc
import tracemalloc
import weakref
from unittest import mock

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
from hgbench import metrics
from hgbench.generation import generate
from hgbench.metrics import (
    _normalize_partition,
    ccdf_report,
    census,
    graph_modularity,
    hypergraph_modularity,
    two_section,
    type_histogram,
)
from hgbench.rewiring import rewire
from hgbench.structures import CommunityAssignment, Hypergraph


def hg_from(n, edges):
    return Hypergraph.from_edge_lists(n, edges)


def pair_degrees(graph):
    """The weighted two-section degree of every node, summed from ``graph.pairs()``
    (float64 also with no pair, where np.bincount gives int64)."""
    u, v, w = graph.pairs()
    return np.add(np.bincount(u, weights=w, minlength=graph.n),
                  np.bincount(v, weights=w, minlength=graph.n), dtype=np.float64)


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
        if graph.pairs()[2].sum() == 0:
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


    def test_census_kept_before_rewire_scores_like_a_fresh_copy(self):
        # the repair permutes members in place, which a scored hypergraph
        # refuses before any write; a copy of its arrays can be repaired
        hg = generate(default_params(2000, seed=4, simple=False)).hypergraph
        labels = np.random.default_rng(4).integers(0, 40, size=hg.n)
        census(hg, labels)
        before = hg.members.copy()
        with pytest.raises(ValueError, match="read-only"):
            rewire(hg, np.random.default_rng(4))
        assert np.array_equal(hg.members, before)
        assert_scores_like_a_fresh_copy(hg, labels)
        hg = Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins.copy())
        assert rewire(hg, np.random.default_rng(4)) == 0
        assert not np.array_equal(hg.members, before)
        fresh = Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins.copy())
        got, want = census(hg, labels), census(fresh, labels)
        assert np.array_equal(got.counts, want.counts)
        assert np.array_equal(got.slot_volume, want.slot_volume)
        assert got.pairwise_modularity() == want.pairwise_modularity()
        assert_scores_like_a_fresh_copy(hg, labels)
        got, want = two_section(hg), two_section(fresh)
        for g, w in zip(got.pairs(), want.pairs()):
            assert np.array_equal(g, w)
        assert np.array_equal(pair_degrees(got), pair_degrees(want))


def assert_scores_like_a_fresh_copy(hg, labels):
    """Every census output of hg equals that of a new hypergraph built from
    copies of its arrays, which has no kept census."""
    fresh = Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins.copy())
    labels_copy = np.array(getattr(labels, "member_of", labels))
    got, want = census(hg, labels), census(fresh, labels_copy)
    for name in ("parts", "slot_volume", "counts"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert type_histogram(hg, labels) == want.type_histogram()
    for name in WEIGHT_MODELS:
        u = modularity_weights(name, 5)
        assert hypergraph_modularity(hg, labels, u) == want.hypergraph_modularity(u)
    assert got.pairwise_modularity() == want.pairwise_modularity()
    return got


class TestCensusMemo:
    @pytest.fixture
    def case(self):
        hg = generate(default_params(2000, seed=5, simple=False)).hypergraph
        return hg, np.random.default_rng(5).integers(0, 40, size=hg.n)

    def test_one_walk_per_partition_scored_every_way(self, case, monkeypatch):
        hg, labels = case
        walks, layouts = [], []
        count = metrics._count_compositions
        monkeypatch.setattr(metrics, "_count_compositions",
                            lambda *args: walks.append(1) or count(*args))
        size_classes = Hypergraph.size_classes
        monkeypatch.setattr(Hypergraph, "size_classes",
                            lambda self: layouts.append(1) or size_classes(self))
        for n_walks, partition in enumerate((labels, labels // 2), start=1):
            for name in WEIGHT_MODELS:
                hypergraph_modularity(hg, partition, modularity_weights(name, 5))
            type_histogram(hg, partition)
            census(hg, partition).pairwise_modularity()
            assert len(walks) == n_walks
        # the node rows are gathered once and serve both partitions
        assert len(layouts) == 1

    @pytest.mark.parametrize("change", ["members written", "offsets replaced"])
    def test_rows_follow_the_hypergraph_between_partitions(self, case, change):
        # the kept node rows outlive a partition; a change to hg must reach the next one
        hg, labels = case
        census(hg, labels)
        if change == "members written":
            before = hg.members.copy()
            with pytest.raises(ValueError, match="read-only"):
                hg.members[:] = np.random.default_rng(6).permutation(hg.members)
            assert np.array_equal(hg.members, before)
            hg.members = np.random.default_rng(6).permutation(hg.members)   # a new array is seen
            hg.sort_members()
        else:
            # split off the first slot of every edge
            hg.offsets = np.union1d(hg.offsets, hg.offsets[:-1] + 1)
        assert_scores_like_a_fresh_copy(hg, labels // 2)

    def test_memo_holds_rows_degrees_labels_and_results(self, case):
        # numpy reports its buffers to tracemalloc, so what stays allocated
        # after the census is dropped is what hg keeps
        hg, labels = case
        # numpy's one-time caches fill on a copy first
        census(Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins.copy()), labels)
        tracemalloc.start()
        try:
            cen = census(hg, labels)
            results = sum(getattr(cen, name).nbytes for name in ("parts", "slot_volume", "counts"))
            del cen
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 4 * hg.volume + 8 * hg.n + labels.nbytes + results + 4096

    def test_repeat_scores_like_a_fresh_copy(self, case):
        hg, labels = case
        assert_scores_like_a_fresh_copy(hg, labels)
        assert_scores_like_a_fresh_copy(hg, labels)

    def test_labels_written_in_place_recount(self, case):
        hg, labels = case
        before = census(hg, labels).counts
        labels[: hg.n // 2] = 0
        after = assert_scores_like_a_fresh_copy(hg, labels)
        assert not np.array_equal(after.counts, before)

    def test_members_written_in_place_are_refused(self):
        # the memo keeps members by identity, as it does offsets, so an in-place write would go unseen
        hg = hg_from(10, [[1, 2, 3], [7, 8, 9]])
        labels = [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]
        assert type_histogram(hg, labels)[(3, 3)] == 1
        with pytest.raises(ValueError, match="read-only"):
            hg.members[:3] = [4, 5, 6]
        with pytest.raises(ValueError, match="read-only"):
            hg.sort_members()
        assert hg.members.tolist() == [1, 2, 3, 7, 8, 9]
        hg.members = np.array([4, 5, 6, 7, 8, 9], dtype=np.int32)   # a new array: edge 0 lies in part 1
        assert type_histogram(hg, labels)[(3, 3)] == 2
        assert_scores_like_a_fresh_copy(hg, labels)

    def test_odd_volume_last_slot_written_is_refused(self):
        hg = hg_from(6, [[0, 1], [2, 3, 4]])
        labels = [0, 0, 1, 1, 1, 0]
        assert hg.volume % 2 == 1
        assert type_histogram(hg, labels)[(3, 3)] == 1
        with pytest.raises(ValueError, match="read-only"):
            hg.members[-1] = 5
        assert hg.members.tolist() == [0, 1, 2, 3, 4]
        hg.members = np.array([0, 1, 2, 3, 5], dtype=np.int32)   # edge 1 is [2, 3, 5]: two slots in part 1
        assert type_histogram(hg, labels)[(3, 3)] == 0
        assert_scores_like_a_fresh_copy(hg, labels)

    def test_unaligned_members_score_like_a_fresh_copy(self, case):
        hg, labels = case
        census(hg, labels)
        buffer = np.empty(hg.volume + 1, dtype=np.int32)
        buffer[1:] = hg.members
        hg.members = buffer[1:]   # 4 bytes past an aligned start: equal values, new array
        assert not hg.members[:2].view(np.int64).flags.aligned
        assert_scores_like_a_fresh_copy(hg, labels)
        before = hg.members.copy()
        with pytest.raises(ValueError, match="read-only"):
            hg.members[:] = np.random.default_rng(7).permutation(hg.members)
        assert np.array_equal(hg.members, before)
        buffer = np.empty(hg.volume + 1, dtype=np.int32)
        buffer[1:] = np.random.default_rng(7).permutation(hg.members)
        hg.members = buffer[1:]
        hg.sort_members()
        assert_scores_like_a_fresh_copy(hg, labels)

    def test_replaced_offsets_recount(self):
        hg = hg_from(4, [[0, 1], [2, 3]])
        labels = [0, 0, 1, 1]
        assert type_histogram(hg, labels) == {(0, 2): 0, (2, 2): 2}
        hg.offsets = np.array([0, 4])   # the same slots as one edge of size 4
        assert type_histogram(hg, labels) == {(0, 4): 1, (3, 4): 0, (4, 4): 0}
        assert_scores_like_a_fresh_copy(hg, labels)

    def test_offsets_written_in_place_are_refused(self):
        # the memo keeps offsets by identity, so an in-place write would go unseen
        hg = hg_from(4, [[0, 1], [2, 3]])
        labels = [0, 0, 1, 1]
        assert type_histogram(hg, labels) == {(0, 2): 0, (2, 2): 2}
        with pytest.raises(ValueError, match="read-only"):
            hg.offsets[1] = 3
        hg.offsets = np.array([0, 1, 4])   # a new array is seen
        assert type_histogram(hg, labels) == {(1, 1): 1, (0, 3): 0, (2, 3): 1, (3, 3): 0}
        assert_scores_like_a_fresh_copy(hg, labels)

    @pytest.mark.parametrize("simple", [True, False])
    def test_generate_returns_an_unscored_writeable_hypergraph(self, simple):
        # the repair writes members in place, so nothing may score before it
        hg = generate(default_params(2000, seed=5, simple=simple)).hypergraph
        assert hg.members.flags.writeable and hg.offsets.flags.writeable
        assert hg._census is None

    def test_from_sizes_takes_a_copy_of_scored_members(self, case):
        # from_sizes sorts an int32 members array in place, which scoring made read-only
        hg, labels = case
        census(hg, labels)
        before = hg.members.copy()
        with pytest.raises(ValueError, match="read-only"):
            Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members, hg.origins)
        assert np.array_equal(hg.members, before)
        copy = Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins)
        assert np.array_equal(copy.members, before)
        assert_scores_like_a_fresh_copy(copy, labels)

    def test_census_keeps_its_score_after_hg_changes(self):
        hg = hg_from(4, [[0, 1], [2, 3]])
        cen = census(hg, [0, 0, 1, 1])
        strict = modularity_weights("strict", 4)
        assert cen.hypergraph_modularity(strict) == 0.5
        hg.offsets = np.array([0, 4])   # the same slots as one edge of size 4
        assert cen.hypergraph_modularity(strict) == 0.5
        assert not any(isinstance(value, Hypergraph) for value in vars(cen).values())

    def test_equal_labels_of_any_dtype_or_container_score_alike(self, case):
        hg, labels = case
        want = assert_scores_like_a_fresh_copy(hg, labels)
        sizes = np.bincount(labels)
        for same in (labels.astype(np.int32), labels.astype(np.uint8), labels.tolist(),
                     CommunityAssignment(sizes, labels.astype(np.int32))):
            got = assert_scores_like_a_fresh_copy(hg, same)
            assert np.array_equal(got.counts, want.counts)

    def test_labels_equal_only_as_floats_recount(self):
        # 2**53 + 1 rounds to 2**53 as a float: one part, not two
        hg = hg_from(2, [[0, 1]])
        labels = np.array([2**53, 2**53 + 1])
        assert type_histogram(hg, labels) == {(0, 2): 1, (2, 2): 0}
        assert np.array_equal(labels.astype(float), labels)
        assert type_histogram(hg, labels.astype(float)) == {(0, 2): 0, (2, 2): 1}

    def test_writes_to_a_census_do_not_reach_a_later_one(self, case):
        hg, labels = case
        want = census(Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(),
                                            hg.origins.copy()), labels)
        cen = census(hg, labels)
        for name in ("parts", "slot_volume", "counts"):
            try:
                getattr(cen, name)[...] = 1
            except ValueError:   # read-only
                pass
        got = census(hg, labels)
        for name in ("parts", "slot_volume", "counts"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("change", ["members replaced", "offsets replaced"])
    def test_graph_of_replaced_edges_scores_the_new_edges(self, case, change):
        # a graph is a view of its hypergraph: it keeps nothing that a replaced array leaves stale
        hg, labels = case
        graph = two_section(hg)
        before = hg.members.copy()
        with pytest.raises(ValueError, match="read-only"):
            hg.members[:] = np.random.default_rng(6).permutation(hg.members)
        assert np.array_equal(hg.members, before)
        want = graph_modularity(graph, labels)
        if change == "members replaced":
            hg.members = np.random.default_rng(6).permutation(hg.members)
            hg.sort_members()
        else:
            hg.offsets = hg.offsets.copy()   # the same edges in a new array
        fresh = two_section(Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins.copy()))
        assert graph_modularity(graph, labels) == graph_modularity(fresh, labels)
        assert graph_modularity(graph, labels) == TestHeavyPairs.reference(graph, labels)
        assert (graph_modularity(graph, labels) == want) == (change == "offsets replaced")
        for got, expected in zip(graph.pairs(), fresh.pairs()):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("change", ["members replaced", "offsets replaced"])
    def test_graph_of_replaced_edges_is_refused(self, case, change):
        # the graph keeps no edges, so what is refused is an in-place write to the
        # replaced ones once the graph scores them, and the score stays
        hg, labels = case
        graph = two_section(hg)
        if change == "members replaced":
            hg.members = np.random.default_rng(6).permutation(hg.members)
            hg.sort_members()
            arr = hg.members
        else:
            hg.offsets = arr = hg.offsets.copy()   # the same edges in a new array
        assert arr.flags.writeable
        score = graph_modularity(graph, labels)
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = np.random.default_rng(7).permutation(arr)
        assert np.array_equal(arr, before)
        assert graph_modularity(graph, labels) == score

    def test_scored_hypergraph_is_freed_without_the_collector(self):
        hg = generate(default_params(2000, seed=5, simple=False)).hypergraph
        labels = np.random.default_rng(5).integers(0, 40, size=hg.n)
        enabled = gc.isenabled()
        gc.disable()
        try:
            hypergraph_modularity(hg, labels, modularity_weights("strict", 5))
            census(hg, labels).pairwise_modularity()
            ref = weakref.ref(hg)
            del hg
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


# uint8 holds 256 part ids, uint16 65,536; a fill label k + i needs room past k
NARROW_PART_COUNTS = (252, 256, 257, 65_536, 65_537)


@pytest.fixture(scope="module")
def wide_hg():
    """70,000 nodes: random edges of sizes 1-5, half of them drawn from a
    window of three nodes so that slots repeat, plus edges across the nodes
    k - 1 and k and edges of one repeated node."""
    rng = np.random.default_rng(17)
    n = 70_000
    edges = []
    for d in rng.integers(1, 6, size=40_000).tolist():
        base = int(rng.integers(0, n - 3))
        pool = (base, base + 3) if len(edges) % 2 else (0, n)
        edges.append(rng.integers(*pool, size=d).tolist())
    for k in NARROW_PART_COUNTS:
        edges += [[k - 1, k], [k - 2, k - 1, k], [k - 1, k, k], [k - 1, k - 1, k, k, k]]
    edges += [[1, 1], [2, 2, 2], [3, 3, 3, 3], [4, 4, 4, 4, 4]]
    return hg_from(n, edges)


class TestNarrowLabels:
    @pytest.mark.parametrize("k", NARROW_PART_COUNTS)
    def test_part_counts_at_the_dtype_boundaries(self, wide_hg, k):
        hg = wide_hg
        # node i is in part i mod k, so nodes k - 1 and k hold the highest and the lowest part
        labels = np.arange(hg.n) % k
        cen = census(hg, labels)
        assert cen.parts.dtype == np.int32 and len(cen.slot_volume) == k
        assert cen.pairwise_modularity() == graph_modularity(two_section(hg), labels)
        want = reference_type_histogram(hg, labels)
        assert cen.type_histogram() == want
        assert type_histogram(hg, labels) == want
        for name in WEIGHT_MODELS:
            u = modularity_weights(name, 5)
            expected = reference_hypergraph_modularity(hg, labels, u)
            assert cen.hypergraph_modularity(u) == expected
            assert hypergraph_modularity(hg, labels, u) == expected

    @pytest.fixture
    def one_size(self):
        # one size class, so the class's slots are all the slots
        rng = np.random.default_rng(9)
        n, m, d = 1000, 40_000, 5
        hg = Hypergraph.from_sizes(n, np.full(m, d), rng.integers(0, n, size=m * d), np.zeros(m))
        return hg, rng.integers(0, 200, size=n), rng.integers(0, 200, size=n)

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_graph_modularity_peak_per_pair(self, one_size):
        # one byte per pair for each label gather and one for the mask; the
        # int32 gathers, and later np.dot's int64 copy of the mask, each took 9
        hg, first, second = one_size
        graph = two_section(hg)
        graph_modularity(graph, first)   # numpy's one-time caches
        peak = self.traced_peak(lambda: graph_modularity(graph, second))
        assert peak <= 4 * len(graph.pairs()[0]) + 16 * hg.n + 65536

    def test_fresh_partition_census_peak_per_slot(self, one_size):
        # one byte per slot for the gathered labels and one for the match
        # mask; the int32 gather took four for the labels
        hg, first, second = one_size
        census(hg, first)   # the memo keeps the rows; numpy's caches fill
        peak = self.traced_peak(lambda: census(hg, second))
        assert peak <= 3.5 * hg.volume + 24 * hg.n + 65536


class TestHeavyPairs:
    """graph_modularity scores through the census of the graph's hypergraph,
    which counts a pair once for each edge that holds it; ``reference`` sums
    the pair weights, heavy (above 1) ones included, over the same-part pairs."""

    @pytest.fixture(scope="class")
    def graph(self):
        # random edges over 70,010 nodes plus parallel pairs of weight 2, 300
        # and 70,000; under labels i mod k each lies within one part for its own
        # k, and the pair of weight 70,000 also for k = 200
        rng = np.random.default_rng(18)
        n = 70_010
        edges = [rng.integers(0, n, size=d).tolist() for d in rng.integers(2, 5, size=20_000)]
        edges += [[0, 200]] * 2 + [[1, 301]] * 300 + [[2, 70_002]] * 70_000
        return two_section(hg_from(n, edges))

    @staticmethod
    def reference(graph, labels):
        uniq, parts = np.unique(labels, return_inverse=True)
        u, v, weight = graph.pairs()
        degree = pair_degrees(graph)
        internal = int((weight * (parts[u] == parts[v])).sum()) / weight.sum()
        vol_part = np.bincount(parts, weights=degree, minlength=len(uniq))
        return float(internal - ((vol_part / degree.sum()) ** 2).sum())

    def test_heavy_indexes_the_pairs_above_weight_one(self, graph):
        u, v, weight = graph.pairs()
        heavy = np.flatnonzero(weight > 1)
        found = dict(zip(zip(u[heavy].tolist(), v[heavy].tolist()), weight[heavy].tolist()))
        assert {2, 300, 70_000} <= set(found.values())
        assert found[1, 301] == 300 and found[2, 70_002] == 70_000

    @pytest.mark.parametrize("k", [200, 300, 70_000])
    def test_matches_the_full_weight_sum(self, graph, k):
        labels = np.arange(graph.n) % k
        assert graph_modularity(graph, labels) == self.reference(graph, labels)
        labels = np.random.default_rng(k).integers(0, k, size=graph.n)
        assert graph_modularity(graph, labels) == self.reference(graph, labels)

    @pytest.mark.parametrize("edges", [[], [[0, 1]], [[0, 1, 2], [1, 3]], [[0, 0, 1], [1, 1]]])
    def test_no_heavy_pair_when_no_pair_repeats(self, edges):
        weight = two_section(hg_from(4, edges)).pairs()[2]
        assert weight.dtype == np.int64 and len(np.flatnonzero(weight > 1)) == 0

    def test_pairs_keep_their_order_values_and_dtypes(self, graph):
        # the (u << 32) | v key sorts as u * n + v did
        u, v, weight = graph.pairs()
        key = u * graph.n + v
        assert np.all(np.diff(key) > 0)
        assert np.all(u < v) and v.max() < graph.n
        for arr in (u, v, weight):
            assert arr.dtype == np.int64


@st.composite
def partitioned_hypergraphs(draw):
    """Edges of sizes 1-6 that may repeat slots and each other, over the
    first nodes of up to 15 (the rest isolated), and labels of one kind:
    integers with negatives, floats, or a CommunityAssignment."""
    n = draw(st.integers(min_value=1, max_value=12))
    edges = draw(st.lists(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=6),
                          max_size=20))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    n += draw(st.integers(min_value=0, max_value=3))
    kind = draw(st.sampled_from(["int", "float", "assignment"]))
    if kind == "int":
        labels = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=np.int64)
    elif kind == "float":
        labels = np.array(draw(st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.5, 3.0]),
                                        min_size=n, max_size=n)))
    else:
        member_of = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)), dtype=np.int32)
        labels = CommunityAssignment(np.bincount(member_of), member_of)
    return hg_from(n, edges), labels


class TestGraphModularityThroughCensus:
    @given(case=partitioned_hypergraphs())
    @settings(max_examples=300, deadline=None)
    def test_one_count_per_partition_scores_the_pair_sum(self, case):
        hg, labels = case
        graph = two_section(hg)
        plain = getattr(labels, "member_of", labels)
        counted = []
        count = metrics._count_compositions
        with mock.patch.object(metrics, "_count_compositions",
                               lambda *args: counted.append(1) or count(*args)):
            # the second partition has other labels, so it is counted anew
            for calls, partition in enumerate((labels, plain - 1), start=1):
                if graph.pairs()[2].sum():
                    want = TestHeavyPairs.reference(graph, getattr(partition, "member_of", partition))
                    assert graph_modularity(graph, partition) == want
                else:
                    with pytest.raises(UndefinedInputError, match="graph modularity needs at least one edge"):
                        graph_modularity(graph, partition)
                for name in WEIGHT_MODELS:
                    if hg.edge_count:
                        hypergraph_modularity(hg, partition, modularity_weights(name, 6))
                    else:
                        with pytest.raises(UndefinedInputError):
                            hypergraph_modularity(hg, partition, modularity_weights(name, 6))
                type_histogram(hg, partition)
                assert len(counted) == calls


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape", ["flat", "rows"])
@pytest.mark.parametrize("length", [0, 1, metrics.GATHER_CHUNK - 1, metrics.GATHER_CHUNK,
                                    metrics.GATHER_CHUNK + 1, 2 * metrics.GATHER_CHUNK + 3])
def test_gather_equals_fancy_indexing(index_dtype, shape, length):
    rng = np.random.default_rng(length)
    for table in (rng.integers(0, 256, size=1000).astype(np.uint8),
                  rng.integers(0, 2**16, size=70_000).astype(np.uint16)):
        index = rng.integers(0, len(table), size=length if shape == "flat" else (3, length))
        index = index.astype(index_dtype)
        got = metrics._gather(table, index)
        assert got.dtype == table.dtype and got.shape == index.shape
        assert np.array_equal(got, table[index])


def label_cases(n):
    """(labels, takes the dense path) for n nodes, named; the dense path needs
    integer labels spanning fewer than 2n values."""
    rng = np.random.default_rng(8)

    def span(lo, hi, dtype=np.int64):
        labels = rng.integers(lo, hi, size=n, endpoint=True).astype(dtype)
        labels[:2] = np.array([lo, hi]).astype(dtype)
        return labels

    yield pytest.param(span(-n, n // 2), True, id="negative")
    yield pytest.param(span(-100, 100, np.int8), True, id="int8 spanning more than int8 holds")
    yield pytest.param(np.uint64(2**63) + span(0, n, np.uint64), True, id="uint64 above 2**63")
    yield pytest.param(span(5, 5 + 2 * n - 1), True, id="span just under the cut-off")
    yield pytest.param(span(5, 5 + 2 * n), False, id="span at the cut-off")
    yield pytest.param(rng.choice([-2**62, -1, 0, 2**62], size=n), False, id="plus-minus 2**62")
    yield pytest.param(span(-n, n) / 4.0, False, id="float")


@pytest.mark.parametrize("labels, dense", list(label_cases(120)))
def test_normalize_partition_dense_path_equals_unique(monkeypatch, labels, dense):
    uniq, inverse = np.unique(labels, return_inverse=True)
    calls = []
    unique = np.unique
    monkeypatch.setattr(metrics.np, "unique", lambda *a, **k: calls.append(1) or unique(*a, **k))
    parts, k = _normalize_partition(labels, len(labels))
    assert parts.dtype == np.int32
    assert parts.tolist() == inverse.tolist() and k == len(uniq)
    assert bool(calls) != dense


class TestTwoSection:
    def test_triangle_expands_to_three_pairs(self):
        u, v, w = two_section(hg_from(4, [[1, 2, 3]])).pairs()
        assert set(zip(u.tolist(), v.tolist())) == {(1, 2), (1, 3), (2, 3)}
        assert (w == 1).all()
        assert w.sum() == 3

    def test_parallel_edges_accumulate_weight(self):
        u, v, w = two_section(hg_from(3, [[1, 2], [1, 2]])).pairs()
        assert u.tolist() == [1]
        assert v.tolist() == [2]
        assert w.tolist() == [2]

    def test_repeated_slots_collapse_within_one_edge(self):
        u, v, w = two_section(hg_from(4, [[1, 1, 2], [3, 3, 3]])).pairs()
        assert w.sum() == 1
        assert (u[0], v[0]) == (1, 2)

    def test_singletons_contribute_nothing(self):
        assert two_section(hg_from(3, [[0], [1], [2]])).pairs()[2].sum() == 0

    def test_empty(self):
        ts = two_section(hg_from(3, []))
        assert ts.pairs()[2].sum() == 0
        assert (pair_degrees(ts) == 0).all()

    @pytest.mark.parametrize("edges", [[], [[0]], [[0, 0]], [[0, 1]]])
    def test_degrees_are_float64_with_or_without_pairs(self, edges):
        ts = two_section(hg_from(3, edges))
        assert all(arr.dtype == np.int64 for arr in ts.pairs())
        assert pair_degrees(ts).dtype == np.float64
        assert pair_degrees(ts).tolist() == ([1, 1, 0] if edges == [[0, 1]] else [0, 0, 0])

    def test_degrees_are_weighted(self):
        ts = two_section(hg_from(4, [[0, 1], [0, 1], [0, 2]]))
        assert pair_degrees(ts).tolist() == [3, 2, 1, 0]

    def test_peak_per_pair_key(self):
        # numpy reports its buffers to tracemalloc.  A key is one member pair
        # of one edge: 468,677 here.  With one key array sorted in place the
        # peak is 31.7 bytes per key; np.unique's copies took 56.8
        hg = generate(default_params(2**15, seed=1)).hypergraph
        keys = 0
        for _, rows in hg.size_classes():
            distinct = 1 + (rows[1:] != rows[:-1]).sum(axis=0)
            keys += int((distinct * (distinct - 1) // 2).sum())
        graph = two_section(hg)
        graph.pairs()   # numpy's one-time caches
        tracemalloc.start()
        try:
            pairs = graph.pairs()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * keys + 65536, peak / keys
        assert held <= 25 * len(pairs[0]) + 8 * hg.n + 65536


class TestPairsBuiltWhenFirstRead:
    def test_two_section_does_no_pair_work(self):
        hg = generate(default_params(2**15, seed=1)).hypergraph
        keys = 0
        for _, rows in hg.size_classes():
            distinct = 1 + (rows[1:] != rows[:-1]).sum(axis=0)
            keys += int((distinct * (distinct - 1) // 2).sum())
        two_section(hg).pairs()   # numpy's one-time caches
        built = []
        pair_keys = metrics._pair_keys
        with mock.patch.object(metrics, "_pair_keys", lambda hg: built.append(1) or pair_keys(hg)):
            tracemalloc.start()
            try:
                graph = two_section(hg)
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                assert built == []
                weight = graph.pairs()[2]   # each call builds the pairs, with the same peak per key
                _, first_read = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 65536
            assert first_read <= 48 * keys + 65536, first_read / keys
            graph.pairs()
            assert built == [1, 1]
        assert weight.sum() == keys

    def test_pairs_come_from_the_arrays_it_was_built_from(self):
        # two_section makes the arrays read-only, so no in-place write moves its pairs
        res = generate(default_params(500, seed=3, simple=False))
        hg, labels = res.hypergraph, res.assignment.member_of
        fresh = Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins.copy())
        graph = two_section(hg)
        for arr in (hg.offsets, hg.members):
            with pytest.raises(ValueError, match="read-only"):
                arr[:] = np.random.default_rng(3).permutation(arr)
        assert np.array_equal(hg.offsets, fresh.offsets) and np.array_equal(hg.members, fresh.members)
        want = two_section(fresh)
        for got, expected in zip(graph.pairs(), want.pairs()):
            assert np.array_equal(got, expected)
        assert graph_modularity(graph, labels) == graph_modularity(want, labels)

    def test_each_call_builds_new_arrays(self):
        graph = two_section(generate(default_params(500, seed=3, simple=False)).hypergraph)
        first, second = graph.pairs(), graph.pairs()
        for a, b in zip(first, second):
            assert np.array_equal(a, b) and a is not b and not np.shares_memory(a, b)


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
