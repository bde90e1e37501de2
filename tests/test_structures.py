"""Hypergraph container: array assembly from edge lists."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hgbench import __version__, default_params, structures
from hgbench.cli import read_edges_file, write_edges_file
from hgbench.generation import generate
from hgbench.metrics import census
from hgbench.structures import (
    _NETWORK_MIN_ROWS,
    _NETWORKS,
    _RUN_CHUNK,
    ORIGIN_BACKGROUND,
    CommunityAssignment,
    Hypergraph,
    member_lists,
    size_runs,
)


def per_edge_sorted(n, edges):
    """Reference assembly: one Python sort per edge."""
    offsets = np.zeros(len(edges) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in edges], out=offsets[1:])
    members = np.empty(offsets[-1], dtype=np.int32)
    for i, e in enumerate(edges):
        members[offsets[i]: offsets[i + 1]] = sorted(e)
    return offsets, members


class TestFromEdgeLists:
    @given(edges=st.lists(st.lists(st.integers(min_value=0, max_value=9), max_size=7),
                          max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_sort(self, edges):
        # unsorted members, repeated slots, empty edges, sizes in any order
        hg = Hypergraph.from_edge_lists(10, edges)
        offsets, members = per_edge_sorted(10, edges)
        assert hg.offsets.dtype == hg.members.dtype == np.int32
        assert np.array_equal(hg.offsets, offsets)
        assert np.array_equal(hg.members, members)
        assert (hg.origins == ORIGIN_BACKGROUND).all() and len(hg.origins) == len(edges)
        assert hg.edge_lists() == [sorted(e) for e in edges]

    @given(runs=st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                                   st.integers(min_value=1, max_value=40)), max_size=6),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_runs_of_equal_size_edges(self, runs, seed):
        # each run of equal-size edges is sorted as one block
        rng = np.random.default_rng(seed)
        edges = [rng.integers(0, 10, size=d).tolist() for d, count in runs for _ in range(count)]
        hg = Hypergraph.from_edge_lists(10, edges)
        offsets, members = per_edge_sorted(10, edges)
        assert np.array_equal(hg.offsets, offsets)
        assert np.array_equal(hg.members, members)

    def test_shuffled_large_input(self):
        rng = np.random.default_rng(5)
        edges = [rng.permutation(rng.choice(1000, size=int(d), replace=False)).tolist()
                 for d in rng.integers(1, 6, size=3000)]
        hg = Hypergraph.from_edge_lists(1000, edges)
        offsets, members = per_edge_sorted(1000, edges)
        assert np.array_equal(hg.offsets, offsets)
        assert np.array_equal(hg.members, members)

    def test_from_sizes_takes_int32_arrays(self):
        # int32 input is kept without a copy and sorted in place, as documented
        sizes = np.array([3, 2, 2])
        members = np.array([2, 0, 1, 3, 1, 0, 2], dtype=np.int32)
        origins = np.array([0, ORIGIN_BACKGROUND, 1], dtype=np.int32)
        hg = Hypergraph.from_sizes(4, sizes, members, origins)
        assert hg.offsets.tolist() == [0, 3, 5, 7]
        assert hg.edge_lists() == [[0, 1, 2], [1, 3], [0, 2]]
        assert hg.members is members and hg.origins is origins
        assert members.tolist() == [0, 1, 2, 1, 3, 0, 2]

    def test_from_sizes_takes_narrow_sizes(self):
        # generate passes uint8 sizes; the offsets are int32 all the same
        members = np.array([2, 0, 1, 3, 1, 0, 2], dtype=np.int32)
        origins = np.full(3, ORIGIN_BACKGROUND, dtype=np.int32)
        hg = Hypergraph.from_sizes(4, np.array([3, 2, 2], dtype=np.uint8), members, origins)
        assert hg.offsets.dtype == np.int32 and hg.offsets.tolist() == [0, 3, 5, 7]
        assert hg.edge_lists() == [[0, 1, 2], [1, 3], [0, 2]]

    def test_no_edges(self):
        hg = Hypergraph.from_edge_lists(4, [])
        assert hg.offsets.tolist() == [0]
        assert hg.members.dtype == np.int32 and len(hg.members) == 0
        assert hg.edge_count == 0

    def test_sizes_cost_four_bytes_per_edge(self):
        # numpy reports its buffers to tracemalloc.  Beyond from_sizes' own
        # working memory on the same arrays, from_edge_lists holds its edge
        # sizes while it builds: 4 bytes per edge as int32 (8 as int64)
        hg = generate(default_params(2**15, seed=1)).hypergraph
        edges, sizes = hg.edge_lists(), hg.sizes().astype(np.int32)

        def transient(build):
            build()   # numpy's one-time caches
            tracemalloc.start()
            try:
                built = build()
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.array_equal(built.members, hg.members)
            return peak - held

        listed = transient(lambda: Hypergraph.from_edge_lists(hg.n, edges))
        own = transient(lambda: Hypergraph.from_sizes(
            hg.n, sizes, hg.members.copy(), np.full(hg.edge_count, ORIGIN_BACKGROUND, dtype=np.int32)))
        assert listed - own <= 4 * hg.edge_count + (64 << 10), (listed - own) / hg.edge_count


class TestNodeIdsAreChecked:
    """The constructor, which from_sizes, generate and from_edge_lists end in,
    refuses ids outside [0, n) and n past the int32 ids before any cast to
    int32; from_sizes refuses a volume past its int32 offsets."""

    @staticmethod
    def build(n, members, sizes=(2,)):
        return Hypergraph.from_sizes(n, np.array(sizes), members, np.full(len(sizes), ORIGIN_BACKGROUND))

    def test_int64_id_past_int32_is_not_wrapped(self):
        # cast to int32, 2**32 + 1 would read as node 1
        with pytest.raises(ValueError, match=r"^edge 0: node id 4294967297 not in \[0, 4\)$"):
            self.build(4, np.array([0, 2**32 + 1], dtype=np.int64))

    def test_negative_id(self):
        with pytest.raises(ValueError, match=r"^edge 1: node id -1 not in \[0, 4\)$"):
            self.build(4, np.array([0, 1, 2, -1], dtype=np.int32), sizes=(1, 3))

    def test_id_equal_to_n(self):
        # the empty edges between share the bad edge's offset; the message names the edge itself
        with pytest.raises(ValueError, match=r"^edge 3: node id 4 not in \[0, 4\)$"):
            self.build(4, np.array([0, 1, 3, 4, 2], dtype=np.int32), sizes=(2, 0, 0, 2, 1))

    def test_n_past_int32_ids(self):
        self.build(2**31, np.array([0, 2**31 - 1], dtype=np.int32))
        with pytest.raises(ValueError, match=r"^n = 2147483649 is above 2\*\*31"):
            self.build(2**31 + 1, np.array([0, 1], dtype=np.int32))

    def test_constructor_checks_ids(self):
        # node 4 of a 3-node hypergraph: unchecked, rewire moved it, degrees()
        # failed to broadcast and the edges file named node 5 under nodes=3
        with pytest.raises(ValueError, match=r"^edge 0: node id 4 not in \[0, 3\)$"):
            Hypergraph(3, np.array([0, 2, 4, 6, 8]), np.array([0, 4, 0, 4, 1, 2, 1, 2], dtype=np.int32),
                       np.full(4, ORIGIN_BACKGROUND, dtype=np.int32))

    def test_volume_past_int32_offsets(self):
        # refused from the sizes alone, before a cumsum could wrap the offsets
        with mock.patch("numpy.cumsum", side_effect=AssertionError("cumsum called")):
            with pytest.raises(ValueError, match=r"^volume = 2147483648 member slots is above 2147483647"):
                self.build(4, np.array([0, 1], dtype=np.int32), sizes=(2**30, 2**30))

    def test_from_edge_lists_names_the_first_bad_edge(self):
        with pytest.raises(ValueError, match=r"^edge 0: node id 5 not in \[0, 3\)$"):
            Hypergraph.from_edge_lists(3, [[0, 5], [1, 2]])

    def test_id_written_into_members_fails_the_first_census(self):
        # the census gathers labels without a bounds check; an id written in
        # place after the build fails the census's degree count before that
        hg = Hypergraph.from_edge_lists(3, [[0, 1], [1, 2]])
        hg.members[1] = hg.n
        with pytest.raises(ValueError):
            census(hg, np.zeros(hg.n, dtype=np.int64))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(min_value=1, max_value=12))
def test_edge_lists_refused_or_written_and_read_back(tmp_path, data, n):
    """from_edge_lists refuses exactly the lists with an id outside [0, n);
    any other hypergraph reads back from its edges file as the same arrays."""
    lists = data.draw(st.lists(st.lists(st.integers(min_value=-2, max_value=n + 1), min_size=1, max_size=6),
                               max_size=12))
    if any(not 0 <= i < n for edge in lists for i in edge):
        with pytest.raises(ValueError, match=r"^edge \d+: node id -?\d+ not in \["):
            Hypergraph.from_edge_lists(n, lists)
        return
    hg = Hypergraph.from_edge_lists(n, lists)
    path = str(tmp_path / "x.edges")
    write_edges_file(path, hg, 1)
    again = Hypergraph.from_edge_lists(n, read_edges_file(path))
    for a, b in ((hg.offsets, again.offsets), (hg.members, again.members), (hg.origins, again.origins)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ids that sorting networks and sort(axis=1) must both order: the extremes
# of int32 node ids and a few small ids, so that nodes repeat within edges
EXTREME_IDS = np.array([0, 1, 2, 3, 2**31 - 2, 2**31 - 1], dtype=np.int32)


def runs_near_the_crossover():
    """(width, edge count) runs: a few edges, or a count within two of the
    row count from which sort_members takes a sorting network."""
    def count(d):
        near = _NETWORK_MIN_ROWS.get(d, 64)
        return st.one_of(st.integers(min_value=1, max_value=4),
                         st.integers(min_value=near - 2, max_value=near + 2))
    run = st.integers(min_value=1, max_value=6).flatmap(lambda d: st.tuples(st.just(d), count(d)))
    return st.lists(run, min_size=1, max_size=5)


def random_members(runs, seed):
    rng = np.random.default_rng(seed)
    sizes = np.repeat([d for d, _ in runs], [m for _, m in runs])
    return sizes, rng.choice(EXTREME_IDS, size=int(sizes.sum()))


class TestSortMembers:
    @given(runs=runs_near_the_crossover(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_edge_sort(self, runs, seed):
        sizes, members = random_members(runs, seed)
        hg = Hypergraph.from_sizes(2**31, sizes, members.copy(), np.zeros(len(sizes)))
        for e0, e1 in zip(hg.offsets[:-1], hg.offsets[1:]):
            assert np.array_equal(hg.members[e0:e1], np.sort(members[e0:e1]))

    @pytest.mark.parametrize("d", sorted(_NETWORKS))
    def test_networks_on_both_sides_of_the_crossover(self, d):
        # one run per call: one row short of the crossover, at it, past it
        for rows in (_NETWORK_MIN_ROWS[d] - 1, _NETWORK_MIN_ROWS[d], 5000):
            sizes, members = random_members([(d, rows)], seed=rows)
            hg = Hypergraph.from_sizes(2**31, sizes, members.copy(), np.zeros(rows))
            assert np.array_equal(hg.members.reshape(rows, d),
                                  np.sort(members.reshape(rows, d), axis=1))

    def test_peak_memory_does_not_grow_with_the_edge_count(self):
        # run bounds come one chunk of edges at a time; a network holds one
        # int32 column of its run.  An int64 size per edge would be 8 bytes
        # per edge, 3.9 MiB here.
        hg = generate(default_params(2**17, seed=1, simple=False)).hypergraph
        longest = max(len(run) for run in size_runs(hg.members, hg.offsets))
        hg.sort_members()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            hg.sort_members()
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert hg.edge_count * 8 > 2 * (16 * _RUN_CHUNK + 4 * longest + (64 << 10))
        assert peak <= 16 * _RUN_CHUNK + 4 * longest + (64 << 10), peak


def per_edge_classes(edges):
    """Reference size classes: the edges of each nonempty size d, ascending,
    stacked one edge per column."""
    sizes = sorted({len(e) for e in edges} - {0})
    return [(d, np.array([e for e in edges if len(e) == d], dtype=np.int32).T) for d in sizes]


def per_edge_runs(edges):
    """Reference size runs: consecutive equal-size edges stacked one per row."""
    runs = []
    for e0, e in enumerate(edges):
        if e0 and len(e) == len(edges[e0 - 1]):
            runs[-1].append(e)
        else:
            runs.append([e])
    return [np.array(run, dtype=np.int32).reshape(len(run), len(run[0])) for run in runs]


def assert_blocks_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.int32 and a.shape == b.shape and np.array_equal(a, b)


def edges_of_sizes(sizes):
    """Edges of the given sizes that hold the node ids 0, 1, ... in order."""
    ids = iter(range(sum(sizes)))
    return [[next(ids) for _ in range(d)] for d in sizes]


edge_lists = st.lists(st.lists(st.integers(min_value=0, max_value=9), max_size=6), max_size=30)


class TestSizeClasses:
    def test_blocks_follow_offsets(self):
        hg = Hypergraph.from_edge_lists(6, [[0, 1], [2, 3, 4], [5, 0], [1]])
        layout = list(hg.size_classes())
        assert [(d, rows.tolist()) for d, rows in layout] == [
            (1, [[1]]), (2, [[0, 0], [1, 5]]), (3, [[2], [3], [4]])]
        assert all(rows.dtype == np.int32 for _, rows in layout)

        hg.offsets = np.array([0, 4, 8], dtype=np.int64)
        assert [(d, rows.tolist()) for d, rows in hg.size_classes()] == [
            (4, [[0, 4], [1, 0], [2, 5], [3, 1]])]

    def test_each_call_gathers_its_own_rows(self):
        hg = Hypergraph.from_edge_lists(6, [[0, 1], [2, 3, 4], [5, 0]])
        for _, rows in hg.size_classes():
            rows[...] = 0
        assert [(d, rows.tolist()) for d, rows in hg.size_classes()] == [
            (2, [[0, 0], [1, 5]]), (3, [[2], [3], [4]])]
        assert hg.members.tolist() == [0, 1, 2, 3, 4, 0, 5]

    @given(edges=edge_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_reference(self, edges):
        # zero edges, empty edges (no class) and sizes in any order
        hg = Hypergraph.from_edge_lists(10, edges)
        got = list(hg.size_classes())
        want = per_edge_classes([sorted(e) for e in edges])
        assert [d for d, _ in got] == [d for d, _ in want]
        assert_blocks_equal([rows for _, rows in got], [rows for _, rows in want])


class TestSizeRuns:
    @pytest.mark.parametrize("sizes, runs", [
        ([], []),                                # zero edges
        ([3], [(1, 3)]),                         # one edge
        ([4] * 1000, [(1000, 4)]),               # one long run
        ([2, 3] * 50, [(1, 2), (1, 3)] * 50),    # a new size at every edge
        ([0, 0, 2, 1, 1], [(2, 0), (1, 2), (2, 1)]),   # empty edges form a run too
    ])
    def test_matches_reference(self, sizes, runs):
        edges = edges_of_sizes(sizes)
        hg = Hypergraph.from_edge_lists(sum(sizes), edges)
        got = list(size_runs(hg.members, hg.offsets))
        assert [run.shape for run in got] == runs
        assert_blocks_equal(got, per_edge_runs(edges))

    @given(edges=edge_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_property(self, edges):
        hg = Hypergraph.from_edge_lists(10, edges)
        assert_blocks_equal(list(size_runs(hg.members, hg.offsets)),
                            per_edge_runs([sorted(e) for e in edges]))

    def test_writes_through_a_run_reach_members(self):
        # sort_members sorts the runs in place
        members = np.array([5, 4, 3, 2, 1, 0, 9, 8, 7], dtype=np.int32)
        offsets = np.array([0, 2, 4, 6, 9], dtype=np.int64)
        for run in size_runs(members, offsets):
            run[:, 0] = -1
        assert members.tolist() == [-1, 4, -1, 2, -1, 0, -1, 8, 7]

    def test_runs_straddle_chunk_edges(self):
        # run bounds are found chunk by chunk, but runs are yielded whole
        sizes = np.repeat([2, 3, 4, 2], [_RUN_CHUNK - 1, 2, _RUN_CHUNK + 5, 1])
        members = np.arange(int(sizes.sum()), dtype=np.int32)
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        got = list(size_runs(members, offsets))
        assert [run.shape for run in got] == [
            (_RUN_CHUNK - 1, 2), (2, 3), (_RUN_CHUNK + 5, 4), (1, 2)]
        assert np.array_equal(np.concatenate([run.ravel() for run in got]), members)

    @given(edges=edge_lists, chunk=st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_with_small_chunks(self, edges, chunk):
        hg = Hypergraph.from_edge_lists(10, edges)
        with mock.patch.object(structures, "_RUN_CHUNK", chunk):
            got = list(size_runs(hg.members, hg.offsets))
        assert_blocks_equal(got, per_edge_runs([sorted(e) for e in edges]))

    def test_alternating_sizes_in_member_lists_and_writer(self, tmp_path):
        # sizes 2, 3, 2, 3, ...: one run per edge in member_lists and the writer
        edges = [[(i + 3) % 7, i % 7] + ([i % 7 + 7] if i % 2 else []) for i in range(40)]
        hg = Hypergraph.from_edge_lists(14, edges)
        expected = [sorted(e) for e in edges]
        assert len(list(size_runs(hg.members, hg.offsets))) == len(edges)
        assert member_lists(hg.members, hg.offsets) == expected
        path = tmp_path / "alt.edges"
        write_edges_file(str(path), hg, seed=4)
        lines = path.read_text().splitlines()
        assert lines[:2] == [f"# hgbench {__version__} edges", "# nodes=14 edges=40 seed=4"]
        assert lines[2:] == [" ".join(str(v + 1) for v in e) for e in expected]


def groups_reference(assignment):
    """Groups from a stable argsort of the int32 labels and searchsorted bounds."""
    order = np.argsort(assignment.member_of, kind="stable")
    bounds = np.searchsorted(assignment.member_of[order], np.arange(assignment.community_count + 1))
    return [order[bounds[j]: bounds[j + 1]] for j in range(assignment.community_count)]


class TestGroups:
    @pytest.mark.parametrize("dtype, labels", [(np.uint8, 256), (np.uint16, 65536)])
    def test_narrow_stable_argsort_keeps_the_order(self, dtype, labels):
        # groups() sorts the labels in the narrowest dtype, where numpy's
        # stable argsort is a radix sort; ties must keep their order
        member_of = np.random.default_rng(labels).integers(0, labels, size=2**17 + 3, dtype=np.int32)
        assert np.array_equal(np.argsort(member_of.astype(dtype), kind="stable"),
                              np.argsort(member_of, kind="stable"))

    @pytest.mark.parametrize("k", [0, 1, 256, 257, 65536, 65537])
    def test_matches_int32_reference(self, k):
        # uint8, uint16 and uint32 labels on both sides of each width's edge
        rng = np.random.default_rng(k)
        sizes = np.sort(rng.integers(1, 4, size=k))[::-1]
        member_of = np.repeat(np.arange(k, dtype=np.int32), sizes)
        rng.shuffle(member_of)
        assignment = CommunityAssignment(sizes.astype(np.int64), member_of)
        got = assignment.groups()
        want = groups_reference(assignment)
        assert len(got) == len(want) == k
        for a, b in zip(got, want):
            assert a.dtype == np.intp and np.array_equal(a, b)
