"""Hypergraph container: array assembly from edge lists."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgbench import __version__
from hgbench.cli import write_edges_file
from hgbench.structures import ORIGIN_BACKGROUND, Hypergraph, member_lists, size_runs


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
        assert hg.offsets.dtype == np.int64 and hg.members.dtype == np.int32
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
        # generate passes uint8 sizes; the offsets are int64 all the same
        members = np.array([2, 0, 1, 3, 1, 0, 2], dtype=np.int32)
        origins = np.full(3, ORIGIN_BACKGROUND, dtype=np.int32)
        hg = Hypergraph.from_sizes(4, np.array([3, 2, 2], dtype=np.uint8), members, origins)
        assert hg.offsets.dtype == np.int64 and hg.offsets.tolist() == [0, 3, 5, 7]
        assert hg.edge_lists() == [[0, 1, 2], [1, 3], [0, 2]]

    def test_no_edges(self):
        hg = Hypergraph.from_edge_lists(4, [])
        assert hg.offsets.tolist() == [0]
        assert hg.members.dtype == np.int32 and len(hg.members) == 0
        assert hg.edge_count == 0


class TestSizeClasses:
    def test_blocks_follow_offsets(self):
        hg = Hypergraph.from_edge_lists(6, [[0, 1], [2, 3, 4], [5, 0], [1]])
        layout = hg.size_classes()
        assert [(d, slots.tolist()) for d, slots in layout] == [
            (1, [[7]]), (2, [[0, 5], [1, 6]]), (3, [[2], [3], [4]])]
        assert all(slots.dtype == np.int32 for _, slots in layout)
        layout[1][1][...] = 0   # each call builds its own blocks
        assert hg.size_classes()[1][1].tolist() == [[0, 5], [1, 6]]

        hg.offsets = np.array([0, 4, 8], dtype=np.int64)
        assert [(d, slots.tolist()) for d, slots in hg.size_classes()] == [
            (4, [[0, 4], [1, 5], [2, 6], [3, 7]])]


def size_runs_reference(offsets):
    """The earlier definition: every index where the size differs from its
    neighbour, with sentinel sizes -1 before the first and after the last edge."""
    sizes = np.diff(offsets)
    return np.flatnonzero(np.diff(sizes, prepend=-1, append=-1)).tolist()


def offsets_of(sizes):
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])


class TestSizeRuns:
    @pytest.mark.parametrize("sizes, runs", [
        ([], []),                          # zero edges
        ([3], [0, 1]),                     # one edge
        ([4] * 1000, [0, 1000]),           # one long run
        ([2, 3] * 50, list(range(101))),   # a new size at every edge
        ([0, 0, 2, 1, 1], [0, 2, 3, 5]),   # empty edges form a run too
    ])
    def test_matches_reference(self, sizes, runs):
        offsets = offsets_of(sizes)
        assert size_runs(offsets) == runs == size_runs_reference(offsets)

    @given(sizes=st.lists(st.integers(min_value=0, max_value=6), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_property(self, sizes):
        offsets = offsets_of(sizes)
        assert size_runs(offsets) == size_runs_reference(offsets)

    def test_alternating_sizes_in_member_lists_and_writer(self, tmp_path):
        # sizes 2, 3, 2, 3, ...: one run per edge in member_lists and the writer
        edges = [[(i + 3) % 7, i % 7] + ([i % 7 + 7] if i % 2 else []) for i in range(40)]
        hg = Hypergraph.from_edge_lists(14, edges)
        expected = [sorted(e) for e in edges]
        assert len(size_runs(hg.offsets)) == len(edges) + 1
        assert member_lists(hg.members, hg.offsets) == expected
        path = tmp_path / "alt.edges"
        write_edges_file(str(path), hg, seed=4)
        lines = path.read_text().splitlines()
        assert lines[:2] == [f"# hgbench {__version__} edges", "# nodes=14 edges=40 seed=4"]
        assert lines[2:] == [" ".join(str(v + 1) for v in e) for e in expected]
