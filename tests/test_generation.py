"""Edge-budget allocation oracles and whole-pipeline structural invariants."""
import hashlib
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgbench.assignment import admissibility_table, precompute_feasibility
from hgbench.config import (
    WEIGHT_MODELS,
    GeneratorParams,
    build_weight_matrix,
    default_params,
    lowest_majority_count,
)
from hgbench.errors import InfeasibleError
from hgbench.generation import (
    allocate_edge_counts,
    allocate_type_counts,
    build_background_edges,
    build_singletons,
    distribute_internal,
    generate,
)
from hgbench import generation, rewiring
from hgbench.structures import ORIGIN_BACKGROUND, ORIGIN_SINGLETON


def active_minimum(q):
    for d in range(2, len(q) + 1):
        if q[d - 1] > 0:
            return d
    return None


class TestAllocateEdgeCounts:
    def test_frozen_uniform_example(self):
        # worked by hand: 100 slots, equal shares over sizes 2..5
        counts, leftover = allocate_edge_counts(100, np.array([0, 0.25, 0.25, 0.25, 0.25]), 5)
        assert counts.tolist() == [0, 0, 13, 8, 6, 5]
        assert leftover == 1

    def test_slot_conservation(self):
        q = np.array([0, 0.25, 0.25, 0.25, 0.25])
        for pool in [0, 1, 7, 100, 12345]:
            counts, leftover = allocate_edge_counts(pool, q, 5)
            assert (np.arange(6) * counts).sum() + leftover == pool

    def test_leftover_below_smallest_active_size(self):
        q = np.array([0, 0.0, 0.5, 0.0, 0.5])
        for pool in range(0, 60):
            counts, leftover = allocate_edge_counts(pool, q, 5)
            assert leftover < 3
            assert counts[2] == 0 and counts[4] == 0

    def test_single_active_size_takes_everything(self):
        counts, leftover = allocate_edge_counts(90, np.array([0, 0, 1.0]), 3)
        assert counts[3] == 30 and leftover == 0

    def test_all_weight_on_singletons_leaves_pool_untouched(self):
        counts, leftover = allocate_edge_counts(17, np.array([1.0]), 1)
        assert counts.sum() == 0 and leftover == 17

    @given(
        pool=st.integers(min_value=0, max_value=5000),
        raw=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_conservation_property(self, pool, raw):
        q = np.asarray(raw)
        if q.sum() == 0:
            q[-1] = 1.0
        q = q / q.sum()
        counts, leftover = allocate_edge_counts(pool, q, len(q))
        assert (np.arange(len(q) + 1) * counts).sum() + leftover == pool
        assert (counts >= 0).all()
        smallest = active_minimum(q)
        if smallest is not None:
            assert leftover < smallest


class TestAllocateTypeCounts:
    def test_sums_exactly(self):
        w = build_weight_matrix("majority", 6)
        rng = np.random.default_rng(5)
        for d in (2, 3, 5, 6):
            row = w.values[d // 2 + 1: d + 1, d]
            for total in (0, 1, 13, 500):
                counts = allocate_type_counts(total, d, row, rng)
                assert counts.sum() == total
                assert (counts >= 0).all()

    def test_strict_puts_everything_at_full_size(self):
        w = build_weight_matrix("strict", 5)
        rng = np.random.default_rng(0)
        counts = allocate_type_counts(40, 5, w.values[3:6, 5], rng)
        assert counts[5] == 40 and counts[:5].sum() == 0

    def test_zero_weight_rows_consume_no_randomness(self):
        # strict weights leave exactly one active type, so exactly one
        # stochastic rounding draw happens
        w = build_weight_matrix("strict", 5)
        a = np.random.default_rng(123)
        b = np.random.default_rng(123)
        allocate_type_counts(17, 5, w.values[3:6, 5], a)
        b.random()
        assert a.bit_generator.state == b.bit_generator.state

    def test_majority_shares_are_even_on_average(self):
        w = build_weight_matrix("majority", 5)
        row = w.values[3:6, 5]
        rng = np.random.default_rng(77)
        totals = np.zeros(6)
        reps = 4000
        for _ in range(reps):
            totals += allocate_type_counts(30, 5, row, rng)
        means = totals[3:6] / reps
        assert np.allclose(means, 10.0, atol=0.25)


class TestDistributeInternal:
    def test_exact_total_and_floor_form(self):
        shares = np.array([5, 3, 2, 0, 7], dtype=np.int64)
        p = int(shares.sum())
        rng = np.random.default_rng(3)
        for internal in range(0, p + 1):
            out = distribute_internal(shares, internal, rng)
            assert out.sum() == internal
            floors = (shares * internal) // p
            assert ((out == floors) | (out == floors + 1)).all()
            # only nodes with a nonzero remainder may be rounded up
            rem = (shares * internal) % p
            assert ((out == floors) | (rem > 0)).all()

    def test_divisible_case_is_deterministic(self):
        shares = np.array([4, 8, 12], dtype=np.int64)
        rng = np.random.default_rng(0)
        out = distribute_internal(shares, 12, rng)
        assert out.tolist() == [2, 4, 6]

    def test_zero_shares(self):
        rng = np.random.default_rng(0)
        out = distribute_internal(np.zeros(4, dtype=np.int64), 0, rng)
        assert out.tolist() == [0, 0, 0, 0]

    def test_bounded_by_shares(self):
        rng = np.random.default_rng(9)
        shares = np.array([1, 1, 1, 10], dtype=np.int64)
        for internal in range(0, 14):
            out = distribute_internal(shares, internal, rng)
            assert (out <= shares).all()

    def test_remainder_bumps_proportional(self):
        shares = np.array([1, 2, 3], dtype=np.int64)
        rng = np.random.default_rng(11)
        acc = np.zeros(3)
        reps = 6000
        for _ in range(reps):
            acc += distribute_internal(shares, 3, rng)
        # expectation is exactly shares * 3 / 6
        expect = shares * 3 / 6
        se = 0.5 / np.sqrt(reps)
        assert np.abs(acc / reps - expect).max() < 6 * se


def small_params(**overrides):
    base = dict(
        n=400, gamma=2.5, min_degree=2, max_degree=15, beta=1.5,
        min_size=30, max_size=120, xi=0.3, max_edge_size=5,
        q=(0.0, 0.25, 0.25, 0.25, 0.25),
        w=build_weight_matrix("majority", 5), simple=False, seed=7,
    )
    base.update(overrides)
    if "max_edge_size" in overrides or "q" in overrides:
        L = base["max_edge_size"]
        base["w"] = build_weight_matrix(base.get("w_model", "majority"), L)
    base.pop("w_model", None)
    return GeneratorParams(**base)


class TestBuildSingletons:
    def test_zero_share_is_a_no_op(self):
        rng = np.random.default_rng(1)
        degrees = np.full(50, 4, dtype=np.int64)
        owners, after = build_singletons(degrees, small_params(), rng)
        assert len(owners) == 0
        assert (after == degrees).all()

    def test_simple_mode_distinct_owners(self):
        p = small_params(q=(0.3, 0.175, 0.175, 0.175, 0.175), simple=True)
        rng = np.random.default_rng(2)
        degrees = np.full(p.n, 3, dtype=np.int64)
        owners, after = build_singletons(degrees, p, rng)
        assert len(owners) == len(np.unique(owners))
        assert len(owners) == pytest.approx(0.3 * degrees.sum(), abs=1)
        spent = np.zeros(p.n, dtype=np.int64)
        spent[owners] = 1
        assert (after == degrees - spent).all()

    def test_multi_mode_costs_points(self):
        p = small_params(q=(0.5, 0.125, 0.125, 0.125, 0.125))
        rng = np.random.default_rng(3)
        degrees = np.full(p.n, 4, dtype=np.int64)
        owners, after = build_singletons(degrees, p, rng)
        assert degrees.sum() - after.sum() == len(owners)
        assert (after >= 0).all()
        counts = np.bincount(owners, minlength=p.n)
        assert (degrees - counts == after).all()

    def test_count_capped_at_node_count(self):
        p = small_params(q=(1.0,), max_edge_size=1)
        rng = np.random.default_rng(4)
        degrees = np.full(p.n, 6, dtype=np.int64)
        owners, _ = build_singletons(degrees, p, rng)
        assert len(owners) == p.n


class TestBuildBackgroundEdges:
    def test_leftover_topped_up_from_too_few_nodes(self):
        # one slot on node 1, smallest size 5: node 1 once, then 3 repeat draws
        p = small_params(q=(0.0, 0.0, 0.0, 0.0, 1.0))
        z = np.array([0, 1, 0, 0], dtype=np.int64)
        out = np.empty(z.sum() + p.max_edge_size, dtype=np.int32)   # room for a bump, as in generate
        rows = build_background_edges(z, p, np.empty(0, np.int32), np.random.default_rng(0), out)
        assert rows == [(5, ORIGIN_BACKGROUND, 1)]
        assert out[:5].tolist() == [1] * 5
        assert z.tolist() == [0, 5, 0, 0]


def incidence_identity(result):
    prof = result.profiles
    expected = (prof.community_degree + prof.background_degree
                + prof.sampled_degree - prof.degree)
    return (result.hypergraph.degrees() == expected).all()


class TestGenerate:
    def test_structural_invariants_multi(self):
        res = generate(small_params())
        hg = res.hypergraph
        sizes = hg.sizes()
        assert hg.edge_count > 0
        assert sizes.min() >= 1 and sizes.max() <= 5
        assert hg.members.min() >= 0 and hg.members.max() < 400
        assert incidence_identity(res)
        assert hg.volume == int(sizes.sum()) == len(hg.members)

    def test_members_sorted_within_edges(self):
        res = generate(small_params(seed=11))
        hg = res.hypergraph
        for e in hg.edge_lists():
            assert e == sorted(e)

    def test_community_edges_have_slot_majority(self):
        res = generate(small_params(seed=13))
        hg = res.hypergraph
        member_of = res.assignment.member_of
        for j, e in zip(hg.origins, hg.edge_lists()):
            if j < 0:
                continue
            inside = int((member_of[e] == j).sum())
            assert inside > len(e) / 2

    def test_origin_labels(self):
        res = generate(small_params(q=(0.2, 0.2, 0.2, 0.2, 0.2), seed=17))
        hg = res.hypergraph
        single = hg.origins == ORIGIN_SINGLETON
        assert (hg.sizes()[single] == 1).all()
        assert single.sum() > 0
        assert (hg.origins >= ORIGIN_SINGLETON).all()
        assert (hg.origins < len(res.assignment.sizes)).all()
        assert (hg.origins == ORIGIN_BACKGROUND).sum() > 0

    def test_determinism_and_seed_sensitivity(self):
        a = generate(small_params(seed=23))
        b = generate(small_params(seed=23))
        c = generate(small_params(seed=24))
        assert (a.hypergraph.members == b.hypergraph.members).all()
        assert (a.hypergraph.offsets == b.hypergraph.offsets).all()
        assert (a.hypergraph.origins == b.hypergraph.origins).all()
        assert (a.assignment.member_of == b.assignment.member_of).all()
        assert not (
            len(a.hypergraph.members) == len(c.hypergraph.members)
            and (a.hypergraph.members == c.hypergraph.members).all()
        )

    def test_heap_trimmed_once_per_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(generation, "_trim_heap", lambda: calls.append(1))
        generate(small_params(seed=23))
        assert calls == [1]

    def test_without_malloc_trim_the_output_is_unchanged(self, monkeypatch):
        # the trim only hands free pages back; with another C library, where
        # the lookup fails, the result is the same
        expected = generate(small_params(simple=True, seed=23))

        def no_libc(name):
            raise OSError(f"no {name}")

        monkeypatch.setattr(generation.ctypes, "CDLL", no_libc)
        res = generate(small_params(simple=True, seed=23))
        for name in ("offsets", "members", "origins"):
            assert np.array_equal(getattr(res.hypergraph, name), getattr(expected.hypergraph, name))
        assert np.array_equal(res.assignment.member_of, expected.assignment.member_of)

    def test_timings_and_warnings(self):
        res = generate(small_params(seed=29))
        for key in ("degrees", "community_sizes", "singletons", "split",
                    "assignment", "community_edges", "background_edges",
                    "assembly", "rewiring", "total"):
            assert key in res.timings
        assert res.warnings == []

    def test_simple_mode_output_is_simple(self):
        res = generate(small_params(simple=True, seed=31))
        hg = res.hypergraph
        seen = set()
        for e in map(tuple, hg.edge_lists()):
            assert len(set(e)) == len(e)
            assert e not in seen
            seen.add(e)
        assert incidence_identity(res)

    def test_simple_mode_repairs_through_the_module_attribute(self, monkeypatch):
        # generate looks rewire up when it runs, so a wrapper set on the
        # module (as bench/tracer.py sets one) is the one it calls
        calls = []
        inner = rewiring.rewire

        def spy(hg, rng):
            calls.append(hg.edge_count)
            return inner(hg, rng)

        monkeypatch.setattr(rewiring, "rewire", spy)
        generate(small_params(seed=31))
        assert calls == []
        res = generate(small_params(simple=True, seed=31))
        assert calls == [res.hypergraph.edge_count]

    def test_simple_vs_multi_share_degree_profile(self):
        a = generate(small_params(seed=37))
        b = generate(small_params(simple=True, seed=37))
        # same seed, same pipeline up to rewiring: per-node incidence equal
        assert (a.hypergraph.degrees() == b.hypergraph.degrees()).all()
        assert (np.sort(a.hypergraph.sizes()) == np.sort(b.hypergraph.sizes())).all()

    def test_default_reference_scale(self):
        res = generate(default_params(1024, seed=1))
        m = res.hypergraph.edge_count
        assert 2600 < m < 3350
        assert len(res.assignment.sizes) >= 2
        assert res.assignment.member_of.max() == len(res.assignment.sizes) - 1

    def test_all_volume_on_singletons_multi(self):
        p = small_params(q=(1.0,), max_edge_size=1, xi=0.4, seed=41)
        res = generate(p)
        hg = res.hypergraph
        assert (hg.sizes() == 1).all()
        assert hg.edge_count == res.profiles.sampled_degree.sum()

    def test_all_volume_on_singletons_simple_fails(self):
        p = small_params(q=(1.0,), max_edge_size=1, xi=0.4, seed=43, simple=True)
        with pytest.raises(InfeasibleError):
            generate(p)

    def test_volume_shares_track_q(self):
        p = small_params(n=4096, max_degree=64, max_size=512, seed=47)
        res = generate(p)
        sizes = res.hypergraph.sizes()
        vol = sizes.sum()
        for d in (2, 3, 4, 5):
            share = (sizes[sizes == d] * 1.0).sum() / vol
            assert abs(share - 0.25) < 0.04


class TestShuffleItemSize:
    """Point pools are shuffled as intp and stored as int32, which keeps the
    output only because numpy's Generator.shuffle makes the same draws and
    the same permutation for any item size; these tests pin that."""

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 1000, 2**17 + 3])
    def test_shuffle_ignores_the_item_size(self, length):
        narrow = np.arange(length, dtype=np.int32)[::-1].copy()
        wide = narrow.astype(np.intp)
        rng_narrow, rng_wide = np.random.default_rng(length), np.random.default_rng(length)
        rng_narrow.shuffle(narrow)
        rng_wide.shuffle(wide)
        assert np.array_equal(narrow, wide)
        assert rng_narrow.random() == rng_wide.random()   # the same draws were made

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 1000, 2**17 + 3])
    def test_permutation_is_a_shuffled_copy(self, length):
        # assign_communities deals its tail with a shuffle in place of rng.permutation
        pool = np.arange(length, dtype=np.int32) % 7
        wide = pool.astype(np.intp)
        rng_perm, rng_shuffle = np.random.default_rng(9), np.random.default_rng(9)
        got = rng_perm.permutation(pool)
        rng_shuffle.shuffle(wide)
        assert np.array_equal(got, wide)
        assert rng_perm.random() == rng_shuffle.random()


def sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def wide(array):
    """An int32 array as the int64 array it was when its digest was pinned."""
    assert array.dtype == np.int32
    return array.astype(np.int64)


class TestLargeDigests:
    """Pinned sha256 of generate's arrays at n = 2^15, seed 3: 105 communities
    and 424 runs of equal-size edges, far more than the n = 2000 golden files;
    and, marked slow, at n = 10^6, seed 1.

    The digests were taken from the generator as it was before community
    edges were filled block by block (v0.3.0); the block fill reproduces them
    unchanged.  A change to any of them is a change of the output for a given
    seed and must bump the version.  ``offsets`` and the degree ledger were
    int64 then and are int32 now, so they are hashed as int64 (``wide``).
    """

    SHARED = {
        "offsets": "4b5d9e8e5071ea90919b1d70d7aa62e3538a69bf09447af0bdfff21306295c38",
        "origins": "3027fa11ff030d9195db258e8a1a1d82e8e2c423c440f87f7976d2ed61e17af9",
        "member_of": "5ab9492d4c6cf8c799cf07d6aea97b32f9542313d067ab2639c6b0b569fc71d7",
        "internal_degree": "19804fa36e50eab4887f8e4a4bcc3a3ed3264ca23655782bdc4ec59b21560a16",
        "background_degree": "05794ed677bc6636468b3b2bce357f956e3ac9f0dc983e7e1f9c50a737580418",
    }
    MEMBERS = {
        False: "6bcb3647450c1e349c7e42a25c040dda35724e7e04050567d64423d4a087b9bd",
        True: "ff438a8ff7dc1af95af8a60cc7c87165ec3d17386b9197df7f6cce2caaa1f08f",
    }

    @pytest.mark.parametrize("simple", [False, True], ids=["multi", "simple"])
    def test_arrays_match_pinned_digests(self, simple):
        res = generate(default_params(2**15, seed=3, simple=simple))
        hg = res.hypergraph
        assert res.warnings == []
        assert hg.members.dtype == hg.origins.dtype == res.assignment.member_of.dtype == np.int32
        arrays = {
            "offsets": wide(hg.offsets),
            "origins": hg.origins,
            "member_of": res.assignment.member_of,
            "internal_degree": wide(res.profiles.internal_degree),
            "background_degree": wide(res.profiles.background_degree),
        }
        assert {name: sha256(a) for name, a in arrays.items()} == self.SHARED
        assert sha256(hg.members) == self.MEMBERS[simple]

    @pytest.mark.slow
    def test_one_million_nodes_match_pinned_digests(self):
        # 692 communities, pools of up to 270,217 slots and runs of up to
        # 316,309 edges, which sorting networks sort; pinned at v0.4.0 before
        # pools were shuffled as intp and before the networks
        res = generate(default_params(10**6, seed=1, simple=False))
        hg = res.hypergraph
        arrays = {
            "offsets": wide(hg.offsets),
            "members": hg.members,
            "origins": hg.origins,
            "member_of": res.assignment.member_of,
            "internal_degree": wide(res.profiles.internal_degree),
            "background_degree": wide(res.profiles.background_degree),
        }
        assert {name: sha256(a) for name, a in arrays.items()} == {
            "offsets": "947da6f95b60a184d9bd67b79c41909b866de46108dce3ecd61e05c1959a1650",
            "members": "e5d2024e34c637e96393334c38590b26ad5f370db335469c40300039a08b43bc",
            "origins": "a27719654a327ef1ffe893148949d5f88b6593521da7201ebda6f9e8ca541446",
            "member_of": "3c668d3439c41795e9ba0d9111cc7b61c9b75acc005580a0a283fa09aaddcfa5",
            "internal_degree": "982c1c77199b7698db0fb0bc26a8947f4474150551102e6e13ec988fd5278b18",
            "background_degree": "4ff309550701918791f2ecfdd0ad8f1c98e70761071cd05448c4e2f3ae87aff0",
        }

    def test_blocked_placement_matches_pinned_digests(self):
        # min_size 20 against max_degree 200: some communities refuse the
        # largest nodes, so assign_communities places those one by one
        # instead of dealing them with the rest
        params = default_params(4096, seed=3, simple=False, max_degree=200, min_size=20)
        res = generate(params)
        y = res.profiles.community_degree
        z = res.profiles.degree - y   # the split as placed, before background bumps
        adm = admissibility_table(y, z, precompute_feasibility(res.assignment.sizes, params))
        assert not adm.all()
        assert sha256(res.assignment.member_of) == (
            "9e7ff603975bde6b781c3974dc2fec276a8b7138972ebc02298fac0d7bcddb03")
        assert sha256(res.hypergraph.members) == (
            "20215c9afcdd1a65e92f3a8dc5a6a6089af2fa9db4c7ecda696b04eebf911ec0")


def test_generate_peak_memory_stays_near_output_size():
    # numpy reports its buffers to tracemalloc, so the peak is the same on
    # every run; the warm-up call keeps one-time allocations out of it.  The
    # bound is the traced peak over the bytes of the finished edge arrays:
    # 1.81 with community edges filled block by block and lean size runs,
    # 3.22 with the per-slot masks and int64 temporaries they replaced.
    params = default_params(2**16, seed=1, simple=False)
    generate(params)
    tracemalloc.start()
    try:
        hg = generate(params).hypergraph
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    output = hg.offsets.nbytes + hg.members.nbytes + hg.origins.nbytes
    assert peak <= 2.3 * output, peak / output


def test_result_holds_four_byte_integers():
    # offsets and the degree ledger are int32, like the ids and labels.  The
    # traced peak is bounded by that layout, 4 bytes per member slot, 8 per
    # edge (offset, origin) and 24 per node (five ledger arrays, a label), plus
    # 30%: seeds 1-4 read 1.16-1.17 of it, and 1.62-1.63 with int64 offsets
    # and ledger.
    params = default_params(2**15, seed=1, simple=False)
    generate(params)
    tracemalloc.start()
    try:
        res = generate(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hg = res.hypergraph
    arrays = [hg.offsets, hg.members, hg.origins, *vars(res.assignment).values(), *vars(res.profiles).values()]
    assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * 10
    layout = 4 * hg.volume + 8 * hg.edge_count + 24 * hg.n
    assert peak <= 1.3 * layout, peak / layout


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_member_slot_is_written_once(seed):
    # the member slots are one int32 array, filled in place by the singleton,
    # community and background phases: no pool copy, no concatenate.  Seeds
    # 1-3 read 1.05 of the 4/8/24-byte layout, and 1.14 when each phase made
    # its own member array and generate joined them.
    params = default_params(2**17, seed=seed, simple=False)
    generate(params)
    tracemalloc.start()
    try:
        res = generate(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hg = res.hypergraph
    layout = 4 * hg.volume + 8 * hg.edge_count + 24 * hg.n
    assert peak <= 1.10 * layout, peak / layout
    spare = hg.members.base.nbytes - hg.members.nbytes   # the room kept for a background bump
    assert 0 < spare <= 4 * params.max_edge_size


def test_degree_is_the_sampled_degree_without_singletons():
    # no singleton edge leaves the budget as drawn, and generate keeps the
    # array rather than copy it (4 bytes per node of its peak)
    prof = generate(small_params(seed=5)).profiles
    assert prof.degree is prof.sampled_degree
    prof = generate(small_params(q=(0.3, 0.175, 0.175, 0.175, 0.175), seed=5)).profiles
    assert not np.shares_memory(prof.degree, prof.sampled_degree)
    assert (prof.degree < prof.sampled_degree).any()


def test_volume_past_int32_offsets_is_infeasible(monkeypatch):
    # refused as soon as the degrees are drawn, before any edge is built
    monkeypatch.setattr(generation, "sample_degrees", lambda params, rng: np.full(params.n, 2**28, np.int32))
    monkeypatch.setattr(generation, "build_singletons", mock.Mock(side_effect=AssertionError("edges built")))
    with pytest.raises(InfeasibleError, match=r"^the sampled degrees sum to 26843545600 member slots, "
                                              r"above 2147483642: offsets are int32$"):
        generate(default_params(100, seed=1, min_size=10))


# The homogeneity check below compares, per size d, the shares of community
# edges with k = 0..d members in their own community against the model's.
# Over its 10 seeds, the three families make 140 comparisons per mode of a
# share whose binomial standard error is not 0; a standard normal stays within
# 4 on all of them with chance 0.99 (Bonferroni), so the window is 4 standard
# errors, and a share the model makes exactly 0 or 1 must match.  Seeds 1-30
# reached 0.67 of them in multi mode: the majority count c is allocated per
# community, not drawn per edge, so only the external slots vary.  The
# simple-mode repair pass reshuffles slots among the edges of one community,
# which moves edges of the lowest majority count both up to d and below a
# majority.  At seeds 1-30 that reached 3.8 standard errors, moved a share by
# at most 0.0070 past the window (size 3, majority weights), and left at most
# 0.70% of the edges of one size below a majority (size 2, majority weights).
HOMOGENEITY_SEEDS = range(1, 11)
Z_WINDOW = 4.0
REPAIR_SHIFT = 0.01      # simple mode only, on top of the Z_WINDOW window
BELOW_MAJORITY = 0.01    # simple mode only; multi mode leaves none
XI_WINDOW = 0.001        # seeds 1-30 read xi = 0.1999-0.2003 at 0.2


def model_own_counts(w_row, d, p, edges):
    """The expected number of size-d community edges with k = 0..d members in
    their own community, for ``edges[j]`` such edges in community j: c
    internal slots with chance ``w_row[c - lo]``, plus Binomial(d - c, p[j])
    external slots in the community, ``p[j]`` its share of the external pool."""
    expected = np.zeros(d + 1)
    for c, wc in enumerate(w_row, start=lowest_majority_count(d)):
        for i in range(d - c + 1):
            expected[c + i] += wc * comb(d - c, i) * (edges * p**i * (1 - p)**(d - c - i)).sum()
    return expected


@pytest.mark.slow
@pytest.mark.parametrize("simple", [False, True], ids=["multi", "simple"])
@pytest.mark.parametrize("family", WEIGHT_MODELS)
def test_community_edges_follow_the_weight_model(family, simple):
    # h-ABCD's homogeneity claim: w sets how many members of a community edge
    # lie in its community, for every weight family
    w = build_weight_matrix(family, 5)
    for seed in HOMOGENEITY_SEEDS:
        res = generate(default_params(2**17, seed=seed, w=w, simple=simple))
        hg, profiles, label = res.hypergraph, res.profiles, res.assignment.member_of
        external = np.bincount(label, weights=profiles.community_degree - profiles.internal_degree,
                               minlength=res.assignment.community_count)
        p = external / max(external.sum(), 1)   # strict weights leave no external community slot
        sizes = hg.sizes()
        for d, rows in hg.size_classes():
            origins = hg.origins[sizes == d]
            ours = origins >= 0
            if d == 1 or not ours.any():
                continue
            edges = int(ours.sum())
            own = (label[rows[:, ours]] == origins[ours]).sum(axis=0)
            share = np.bincount(own, minlength=d + 1) / edges
            model = model_own_counts(w.normalized().row(d), d, p, np.bincount(origins[ours], minlength=len(p))) / edges
            window = Z_WINDOW * np.sqrt(model * (1 - model) / edges) + (REPAIR_SHIFT if simple else 1e-12)
            assert (np.abs(share - model) <= window).all(), (seed, d, share.round(4), model.round(4))
            below = share[:lowest_majority_count(d)].sum()
            assert below <= (BELOW_MAJORITY if simple else 0), (seed, d, below)
        background = sizes[(hg.origins == ORIGIN_BACKGROUND) & (sizes >= 2)].sum()
        assert abs(background / sizes[sizes >= 2].sum() - 0.2) <= XI_WINDOW, seed
