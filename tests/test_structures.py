"""Hypergraph container: array assembly from edge lists."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hgbench.structures import ORIGIN_BACKGROUND, Hypergraph


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

    def test_shuffled_large_input(self):
        rng = np.random.default_rng(5)
        edges = [rng.permutation(rng.choice(1000, size=int(d), replace=False)).tolist()
                 for d in rng.integers(1, 6, size=3000)]
        hg = Hypergraph.from_edge_lists(1000, edges)
        offsets, members = per_edge_sorted(1000, edges)
        assert np.array_equal(hg.offsets, offsets)
        assert np.array_equal(hg.members, members)

    def test_no_edges(self):
        hg = Hypergraph.from_edge_lists(4, [])
        assert hg.offsets.tolist() == [0]
        assert hg.members.dtype == np.int32 and len(hg.members) == 0
        assert hg.edge_count == 0
