"""Repair-loop unit oracles and end-to-end simplicity checks."""
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgbench.config import default_params
from hgbench.errors import UnrepairableError
from hgbench.generation import generate
from hgbench import rewiring
from hgbench.rewiring import SENTINEL, indisposition, rewire
from hgbench.structures import Hypergraph


def make_table(edges, n=10):
    hg = Hypergraph.from_edge_lists(n, edges)
    return hg, rewiring._classify(hg)[1]


def score(hg, table, row, owner=-1):
    """Score of one sorted row, padded to the hypergraph's widest edge."""
    padded = np.full((1, int(hg.sizes().max())), SENTINEL, dtype=np.int32)
    padded[0, :len(row)] = row
    return int(indisposition(padded, np.array([owner]), table)[0])


def flatten_hashes(monkeypatch):
    """Make every row hash to 0, so every lookup runs into collisions."""
    monkeypatch.setattr(rewiring, "_hash_rows", lambda rows: np.zeros(len(rows), dtype=np.int64))


def classify_output(hg):
    """(has duplicate slot, duplicated edge) flags over the whole hypergraph."""
    dup_slot = False
    seen = set()
    dup_edge = False
    for e in map(tuple, hg.edge_lists()):
        if len(set(e)) != len(e):
            dup_slot = True
        if e in seen:
            dup_edge = True
        seen.add(e)
    return dup_slot, dup_edge


class TestIndisposition:
    def test_clean_and_absent(self):
        hg, table = make_table([[1, 2, 3]])
        assert score(hg, table, [2, 3, 4]) == 0

    def test_present_in_good(self):
        hg, table = make_table([[1, 2, 3]])
        assert score(hg, table, [1, 2, 3]) == 1
        assert score(hg, table, [1, 2, 3], owner=0) == 0

    def test_one_repeated_slot(self):
        hg, table = make_table([[5, 6, 7]])
        assert score(hg, table, [1, 1, 2]) == 1

    def test_two_repeated_slots(self):
        hg, table = make_table([[5, 6, 7]])
        assert score(hg, table, [1, 1, 1]) == 2

    def test_delta_overlay(self):
        hg, table = make_table([[1, 2, 3], [7, 8, 9]])
        hg.members[:3] = [4, 5, 6]   # edge 0 no longer holds [1, 2, 3]
        assert score(hg, table, [1, 2, 3]) == 0
        assert score(hg, table, [4, 5, 6]) == 0   # written but not yet added
        table.add(np.array([[4, 5, 6]], dtype=np.int32), np.array([0]))
        assert score(hg, table, [4, 5, 6]) == 1
        assert score(hg, table, [7, 8, 9]) == 1

    def test_collision_requires_verification(self, monkeypatch):
        flatten_hashes(monkeypatch)
        hg, table = make_table([[1, 2], [3, 4]])
        assert score(hg, table, [1, 2]) == 1
        assert score(hg, table, [1, 4]) == 0


class TestSmallRepairs:
    def test_two_edge_merge_enumeration(self):
        # {1,1} must merge with {2,3}; both feasible splits put node 1 in
        # each half
        for seed in range(25):
            hg = Hypergraph.from_edge_lists(4, [[1, 1], [2, 3]])
            left = rewire(hg, np.random.default_rng(seed))
            assert left == 0
            edges = set(map(tuple, hg.edge_lists()))
            assert edges in ({(1, 2), (1, 3)},)

    def test_duplicate_pair_of_edges(self):
        for seed in range(25):
            hg = Hypergraph.from_edge_lists(6, [[0, 1, 2], [0, 1, 2], [3, 4, 5]])
            before = hg.degrees().copy()
            left = rewire(hg, np.random.default_rng(seed))
            assert left == 0
            assert (hg.degrees() == before).all()
            assert classify_output(hg) == (False, False)

    def test_no_defects_is_identity_and_consumes_no_randomness(self):
        hg = Hypergraph.from_edge_lists(6, [[0, 1], [2, 3], [0, 1, 2]])
        before = hg.members.copy()
        rng = np.random.default_rng(99)
        state = rng.bit_generator.state
        assert rewire(hg, rng) == 0
        assert (hg.members == before).all()
        assert rng.bit_generator.state == state

    def test_unrepairable_without_good_edges(self):
        hg = Hypergraph.from_edge_lists(3, [[1, 1]])
        with pytest.raises(UnrepairableError):
            rewire(hg, np.random.default_rng(0))

    def test_empty_edge_is_refused(self):
        hg = Hypergraph.from_edge_lists(4, [[0, 1], [], [2, 2]])
        with pytest.raises(ValueError, match="empty edge"):
            rewire(hg, np.random.default_rng(0))

    def test_origin_below_singleton_is_refused(self):
        hg = Hypergraph.from_edge_lists(4, [[0, 1], [2, 2], [1, 3]])
        hg.origins[1] = -5
        with pytest.raises(ValueError, match="edge 1 has origin -5"):
            rewire(hg, np.random.default_rng(0))

    def test_group_arrays_count_origins_not_their_largest_id(self):
        # a duplicate edge with origin 10**7 draws, by rank, like origin 0:
        # the per-group arrays were as long as the largest origin (381 MiB)
        traced, small = [], None
        for origin in (0, 10**7):
            hg = Hypergraph.from_edge_lists(4, [[0, 1], [0, 1], [2, 3]])
            hg.origins[1] = origin
            tracemalloc.start()
            try:
                assert rewire(hg, np.random.default_rng(3)) == 0
                traced.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert small is None or hg.edge_lists() == small
            small = hg.edge_lists()
        assert traced[1] <= 64 * 1024, traced

    def test_background_can_be_drawn_when_it_has_no_edge(self):
        # all singletons: the background is an empty group, not a missing one
        hg = Hypergraph.from_edge_lists(3, [[0], [0], [1]])
        hg.origins[:] = -2
        assert rewire(hg, np.random.default_rng(0)) == 1

    def test_budget_exhaustion_reports_leftovers(self):
        # two nodes only: every re-split of {1,1} with {0,1} keeps a defect
        hg = Hypergraph.from_edge_lists(2, [[1, 1], [0, 1]])
        before = hg.degrees().copy()
        left = rewire(hg, np.random.default_rng(0))
        assert left == 1
        assert (hg.degrees() == before).all()
        assert sorted(hg.sizes().tolist()) == [2, 2]

    def test_repair_stays_inside_the_defective_edges_community(self):
        # {0,0} of community 0 has intact partners in community 0, so no
        # edge of community 1 or of the background may change
        edges = [[0, 0], [1, 2], [3, 4], [5, 6], [7, 8], [5, 9], [10, 11]]
        origins = [0, 0, 0, 1, 1, 1, -1]
        for seed in range(25):
            hg = Hypergraph.from_edge_lists(12, edges)
            hg.origins[:] = origins
            outside = np.flatnonzero(hg.origins != 0)
            before = [hg.edge_lists()[i] for i in outside]
            assert rewire(hg, np.random.default_rng(seed)) == 0
            assert [hg.edge_lists()[i] for i in outside] == before
            assert classify_output(hg) == (False, False)

    def test_rejections_widen_to_background_before_all_edges(self):
        # no re-split of {1,1} with {0,1} inside community 0 can succeed, so
        # the draw must widen; the background edge comes before community 1
        edges = [[1, 1], [0, 1], [2, 3], [4, 5], [6, 7]]
        origins = [0, 0, -1, 1, 1]
        for seed in range(25):
            hg = Hypergraph.from_edge_lists(8, edges)
            hg.origins[:] = origins
            assert rewire(hg, np.random.default_rng(seed)) == 0
            assert classify_output(hg) == (False, False)
            assert hg.edge_lists()[3:] == [[4, 5], [6, 7]]

    def test_one_round_never_writes_two_equal_rows(self):
        # five queued copies of {0,1,2} draw overlapping partners in one
        # round, so two accepted proposals could write the same new row
        edges = [[0, 1, 2]] * 6 + [[3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6],
                                   [3, 7, 8], [4, 7, 8], [5, 7, 8], [6, 7, 8]]
        for seed in range(25):
            hg = Hypergraph.from_edge_lists(9, edges)
            hg.origins[:] = 0
            before = hg.degrees().copy()
            assert rewire(hg, np.random.default_rng(seed)) == 0
            assert (hg.degrees() == before).all()
            assert classify_output(hg) == (False, False)

    def test_stale_defect_promoted_after_counterpart_changes(self):
        # queue order: the repeated-slot edge is repaired first and may drag
        # the good twin {1,2,3} away, leaving the queued duplicate clean
        promoted = False
        for seed in range(40):
            hg = Hypergraph.from_edge_lists(
                10, [[1, 2, 3], [7, 7], [1, 2, 3], [8, 9]])
            left = rewire(hg, np.random.default_rng(seed))
            assert left == 0
            assert classify_output(hg) == (False, False)
            edges = hg.edge_lists()
            if edges[2] == [1, 2, 3] and edges[0] != [1, 2, 3]:
                promoted = True
        assert promoted


class TestOnGeneratedGraphs:
    def test_preserves_degrees_and_sizes(self):
        p = default_params(512, seed=3, simple=False)
        res = generate(p)
        hg = res.hypergraph
        deg_before = hg.degrees().copy()
        sizes_before = np.sort(hg.sizes()).copy()
        left = rewire(hg, np.random.default_rng(123))
        assert left == 0
        assert (hg.degrees() == deg_before).all()
        assert (np.sort(hg.sizes()) == sizes_before).all()
        assert classify_output(hg) == (False, False)

    def test_members_stay_sorted(self):
        res = generate(default_params(512, seed=5, simple=False))
        hg = res.hypergraph
        rewire(hg, np.random.default_rng(7))
        for e in hg.edge_lists():
            assert e == sorted(e)

    def test_collision_proof_hash_gives_identical_result(self, monkeypatch):
        a = generate(default_params(512, seed=9, simple=False))
        b = generate(default_params(512, seed=9, simple=False))
        assert rewire(a.hypergraph, np.random.default_rng(42)) == 0
        flatten_hashes(monkeypatch)
        assert rewire(b.hypergraph, np.random.default_rng(42)) == 0
        assert (a.hypergraph.members == b.hypergraph.members).all()

    def test_keeps_nothing_after_it_returns(self):
        # numpy reports its buffers to tracemalloc, so what stays allocated
        # after rewire returns is what it leaves behind
        hg = generate(default_params(2000, seed=6, simple=False)).hypergraph
        warm = Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins.copy())
        assert rewire(warm, np.random.default_rng(6)) == 0   # numpy's one-time caches
        assert classify_output(hg) != (False, False)
        tracemalloc.start()
        try:
            assert rewire(hg, np.random.default_rng(6)) == 0
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < hg.volume   # under 1 byte per member slot

    def test_classify_holds_one_size_class_at_a_time(self):
        # tracemalloc sees numpy's buffers; the size-class rows are gathered
        # one class at a time, so no slot-long block lives through the hashing
        hg = generate(default_params(2**15, seed=1, simple=False)).hypergraph
        rewiring._classify(Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(),
                                                 hg.origins.copy()))   # numpy's one-time caches
        tracemalloc.start()
        try:
            rewiring._classify(hg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * hg.volume + 64 * 1024

    def test_round_loop_fits_its_memory_budget(self):
        # tracemalloc sees numpy's buffers; the rounds keep the queue as their
        # only record of defective edges, with no intact mask or live counts
        hg = generate(default_params(2**15, seed=1, simple=False)).hypergraph
        warm = Hypergraph.from_sizes(hg.n, hg.sizes(), hg.members.copy(), hg.origins.copy())
        assert rewire(warm, np.random.default_rng(1)) == 0   # numpy's one-time caches
        tracemalloc.start()
        try:
            assert rewire(hg, np.random.default_rng(1)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 27 * hg.edge_count + 64 * 1024

    @pytest.mark.slow
    def test_simple_outputs_across_seeds(self):
        # medium graphs, many seeds: output must always be simple
        for seed in range(100):
            res = generate(default_params(8192, seed=seed))
            assert res.warnings == []
            dup_slot, dup_edge = classify_output(res.hypergraph)
            assert not dup_slot and not dup_edge


class TestCrowdedRepairDigests:
    """Fixed inputs shaped like ``crowded_multigraphs`` that reach the
    repair's rare paths, pinned by the sha256 of ``members`` after the repair
    and by its return value.  Between them they promote a stale duplicate,
    wait on queued and on taken partners, pass a level-0 draw on from an
    origin with no intact edge left, reject an equal row written twice in
    one round, draw at levels 1 and 2, and run out of budget."""

    CASES = {
        "levels-1-and-2": (4, [[3, 2, 2], [3, 2, 2], [0, 1], [0, 1], [1, 3, 0], [1, 3, 0]],
                           [0, 0, -1, 0, 1, -1], 245, 0,
                           "0b2e87da40b3c4b3212377985d3d5dba99f3e976d44193969f6333e0c1f4914a"),
        "pass-on-to-all": (6, [[5, 0], [2], [5, 0], [2]], [0, 1, -1, 0], 658, 0,
                           "c220db52a559f279061d5077bdf3e1021b34a1d4b453c8332688144f22001a3c"),
        "budget-spent": (6, [[5], [4, 4], [5], [5], [4, 4], [3, 2], [5], [4, 4], [5], [3, 2], [3, 2]],
                         [-1, 0, 0, 0, 1, 0, 1, 1, -1, 1, 0], 838, 3,
                         "bc281fad9ca2c42d61ae55a8efcd5d822cb40e6c6e3b035bd8298554bf635aca"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_members_match_pinned_digests(self, case):
        n, edges, origins, seed, left, digest = self.CASES[case]
        hg = Hypergraph.from_edge_lists(n, edges)
        hg.origins[:] = origins
        assert rewire(hg, np.random.default_rng(seed)) == left
        assert hashlib.sha256(hg.members.tobytes()).hexdigest() == digest


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    m = draw(st.integers(min_value=1, max_value=14))
    edges = []
    for _ in range(m):
        d = draw(st.integers(min_value=1, max_value=4))
        edges.append([draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(d)])
    return n, edges


@st.composite
def crowded_multigraphs(draw):
    """Few nodes and many repeated edges, each with an origin: most edges
    start defective and the draws often land on queued edges."""
    n = draw(st.integers(min_value=3, max_value=6))
    shapes = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3)
    base = draw(st.lists(shapes, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(base) - 1),
                          min_size=2, max_size=16))
    origins = draw(st.lists(st.integers(min_value=-1, max_value=1),
                            min_size=len(picks), max_size=len(picks)))
    return n, [base[i] for i in picks], origins


@pytest.mark.slow
class TestRandomizedProperty:
    @given(case=multigraphs(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=250, deadline=None)
    def test_conservation_and_simplicity(self, case, seed):
        n, edges = case
        hg = Hypergraph.from_edge_lists(n, edges)
        deg = hg.degrees().copy()
        sizes = np.sort(hg.sizes()).copy()
        try:
            left = rewire(hg, np.random.default_rng(seed))
        except UnrepairableError:
            return
        assert (hg.degrees() == deg).all()
        assert (np.sort(hg.sizes()) == sizes).all()
        if left == 0:
            dup_slot, dup_edge = classify_output(hg)
            assert not dup_slot and not dup_edge

    @given(case=crowded_multigraphs(), seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=250, deadline=None)
    def test_crowded_repairs_keep_invariants(self, case, seed):
        n, edges, origins = case
        hg = Hypergraph.from_edge_lists(n, edges)
        hg.origins[:] = origins
        deg = hg.degrees().copy()
        sizes = hg.sizes().copy()
        try:
            left = rewire(hg, np.random.default_rng(seed))
        except UnrepairableError:
            return
        assert (hg.degrees() == deg).all()
        assert (hg.sizes() == sizes).all()
        assert (hg.origins == origins).all()
        assert all(e == sorted(e) for e in hg.edge_lists())
        if left == 0:
            assert classify_output(hg) == (False, False)
