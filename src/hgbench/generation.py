"""Building the hypergraph: edge budgets, community edges, background edges, orchestration.

Every phase consumes the caller's RNG in a fixed documented order, so one seed
reproduces the full construction: degrees, community sizes, singleton edges,
degree splits, node placement, community edges (per community: leftover
spill, type counts, internal shares, pool shuffle), the global external pool,
background edges, then rewiring (simple mode only).
"""
from __future__ import annotations

import time

import numpy as np

from .assignment import assign_communities, precompute_feasibility, split_degrees
from .config import GeneratorParams, lowest_majority_count, validate
from .errors import InfeasibleError
from .sampling import sample_community_sizes, sample_degrees, stochastic_round
from .structures import (
    ORIGIN_BACKGROUND,
    ORIGIN_SINGLETON,
    CommunityAssignment,
    DegreeProfiles,
    GenerationResult,
    Hypergraph,
)


def allocate_edge_counts(pool: int, q: np.ndarray, max_edge_size: int):
    """Split ``pool`` member slots into edge counts by size, largest size first.

    Working down from the largest size, each active size d receives
    floor(share * remaining / d) edges, where share is q_d relative to the
    sizes not yet served.  Returns (counts indexed by size, leftover slots);
    the leftover is smaller than the smallest active size.
    """
    counts = np.zeros(max_edge_size + 1, dtype=np.int64)
    remaining = int(pool)
    for d in range(max_edge_size, 1, -1):
        qd = q[d - 1]
        if qd == 0.0:
            continue
        denom = q[1:d].sum()  # shares of sizes 2..d
        m = int(qd / denom * remaining / d)
        counts[d] = m
        remaining -= d * m
    return counts, remaining


def allocate_type_counts(edge_total: int, d: int, w_row: np.ndarray,
                         rng: np.random.Generator) -> np.ndarray:
    """Split ``edge_total`` size-d edges over majority counts c, largest c first.

    Each active count receives a stochastically rounded share of what is left,
    relative to the weights not yet served; the counts sum to ``edge_total``
    exactly.  Returned array is indexed by c (0..d).
    """
    lo = lowest_majority_count(d)
    prefix = np.cumsum(w_row)  # prefix[c - lo] = sum of weights lo..c
    counts = np.zeros(d + 1, dtype=np.int64)
    remaining = int(edge_total)
    for c in range(d, lo - 1, -1):
        wc = w_row[c - lo]
        if wc == 0.0:
            continue
        share = wc / prefix[c - lo]
        m = stochastic_round(share * remaining, rng)
        counts[c] = m
        remaining -= m
    return counts


def distribute_internal(shares: np.ndarray, internal_total: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Per-node internal slot counts summing exactly to ``internal_total``.

    Node i gets floor(shares[i] * internal_total / sum(shares)) slots; the
    missing slots are handed out as +1s to nodes drawn without replacement
    proportionally to the fractional remainders.  Exact integer arithmetic
    keeps the floors and remainders consistent.
    """
    total = int(shares.sum())
    if total == 0:
        return np.zeros(len(shares), dtype=np.int64)
    scaled = shares.astype(np.int64) * int(internal_total)
    base = scaled // total
    short = int(internal_total) - int(base.sum())
    if short:
        remainder = scaled % total
        with np.errstate(divide="ignore"):
            keys = rng.exponential(size=len(shares)) / remainder
        bump = np.argpartition(keys, short - 1)[:short]
        base[bump] += 1
    return base


def build_singletons(degrees: np.ndarray, params: GeneratorParams,
                     rng: np.random.Generator):
    """Size-1 edges taking q_1 of the volume; returns (owner per edge, updated degrees).

    The edge count is the stochastically rounded share of the volume, capped
    at n.  In simple mode owners are distinct nodes drawn sequentially without
    replacement proportionally to degree; otherwise each edge consumes one of
    the remaining degree slots uniformly.  Owners lose one degree per edge.
    """
    q1 = params.normalized_q()[0]
    n = len(degrees)
    if q1 == 0.0:
        return np.empty(0, dtype=np.int32), degrees
    volume = int(degrees.sum())
    m1 = min(stochastic_round(q1 * volume, rng), n)
    if m1 == 0:
        return np.empty(0, dtype=np.int32), degrees
    if params.simple:
        keys = rng.exponential(size=n) / degrees
        owners = np.argsort(keys, kind="stable")[:m1].astype(np.int32)
        spent = np.zeros(n, dtype=np.int64)
        spent[owners] = 1
    else:
        slots = rng.choice(volume, size=m1, replace=False)
        bounds = np.cumsum(degrees)
        owners = np.searchsorted(bounds, slots, side="right").astype(np.int32)
        spent = np.bincount(owners, minlength=n).astype(np.int64)
    return owners, degrees - spent


class _EdgeBatch:
    """Accumulates edge groups as (size, origin, member block) columns."""

    def __init__(self):
        self.sizes = []
        self.origins = []
        self.blocks = []

    def add(self, size: int, origin: int, count: int, members: np.ndarray):
        if count == 0:
            return
        self.sizes.append(np.full(count, size, dtype=np.int64))
        self.origins.append(np.full(count, origin, dtype=np.int32))
        self.blocks.append(members)

    def merge(self, n: int) -> Hypergraph:
        if self.sizes:
            sizes = np.concatenate(self.sizes)
            origins = np.concatenate(self.origins)
            members = np.concatenate(self.blocks).astype(np.int32, copy=False)
        else:
            sizes = np.empty(0, dtype=np.int64)
            origins = np.empty(0, dtype=np.int32)
            members = np.empty(0, dtype=np.int32)
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return Hypergraph(n, offsets, members, origins)


def build_community_edges(y: np.ndarray, z: np.ndarray,
                          assignment: CommunityAssignment,
                          params: GeneratorParams, rng: np.random.Generator):
    """Community edges for every community; returns (groups, internal shares).

    Mutates y and z in place: leftover slots that no edge size can absorb move
    from the community share to the background share, one at a time, node
    picked proportionally to its current community share.

    Returns (group columns, y_int) where group columns is a dict of arrays
    (community, size, majority count, edge count) in build order and y_int is
    the per-node internal slot count.
    """
    q = params.normalized_q()
    w_norm = params.w.normalized()
    max_d = params.max_edge_size
    groups = assignment.groups()

    g_comm, g_size, g_count, g_internal = [], [], [], []
    y_int = np.zeros(len(y), dtype=np.int64)
    pools = []

    for j, nodes in enumerate(groups):
        yj = y[nodes]
        pj = int(yj.sum())
        counts, leftover = allocate_edge_counts(pj, q, max_d)
        for _ in range(leftover):
            running = np.cumsum(yj)
            pick = int(np.searchsorted(running, rng.random() * running[-1], side="right"))
            yj[pick] -= 1
            node = nodes[pick]
            y[node] -= 1
            z[node] += 1

        internal_total = 0
        for d in range(max_d, 1, -1):
            if counts[d] == 0:
                continue
            row = w_norm[lowest_majority_count(d): d + 1, d]
            type_counts = allocate_type_counts(int(counts[d]), d, row, rng)
            for c in range(d, lowest_majority_count(d) - 1, -1):
                if type_counts[c] == 0:
                    continue
                g_comm.append(j)
                g_size.append(d)
                g_internal.append(c)
                g_count.append(int(type_counts[c]))
                internal_total += c * int(type_counts[c])

        shares = distribute_internal(yj, internal_total, rng)
        y_int[nodes] = shares
        pool = np.repeat(nodes.astype(np.int32), shares)
        rng.shuffle(pool)
        pools.append(pool)

    columns = dict(
        community=np.asarray(g_comm, dtype=np.int64),
        size=np.asarray(g_size, dtype=np.int64),
        internal=np.asarray(g_internal, dtype=np.int64),
        count=np.asarray(g_count, dtype=np.int64),
    )
    return columns, y_int, pools


def _assemble_community_edges(columns, pools, y, y_int, rng, batch: _EdgeBatch):
    """Lay out community edges: internal slots from each community pool, the rest
    from the shared external pool, both consumed in build order."""
    sizes = np.repeat(columns["size"], columns["count"])
    internal = np.repeat(columns["internal"], columns["count"])
    if len(sizes) == 0:
        return
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    pos = np.arange(offsets[-1], dtype=np.int64) - np.repeat(offsets[:-1], sizes)
    internal_mask = pos < np.repeat(internal, sizes)

    members = np.empty(offsets[-1], dtype=np.int32)
    members[internal_mask] = np.concatenate(pools)
    external = np.repeat(
        np.arange(len(y), dtype=np.int32), y - y_int)
    rng.shuffle(external)
    members[~internal_mask] = external

    start = 0
    for g in range(len(columns["count"])):
        cnt = int(columns["count"][g])
        d = int(columns["size"][g])
        block = members[start: start + cnt * d]
        batch.add(d, int(columns["community"][g]), cnt, block)
        start += cnt * d


def build_background_edges(z: np.ndarray, params: GeneratorParams,
                           singleton_owners: np.ndarray,
                           rng: np.random.Generator, batch: _EdgeBatch):
    """Background edges over the z pool; absorbs any leftover slots.

    Leftover points (fewer than the smallest active size R) either become
    extra singleton edges when q_1 > 0 (simple mode additionally requires the
    leftover points to sit on distinct nodes with no singleton yet) or are
    topped up to one extra size-R edge by bumping the background share of
    R - r nodes drawn proportionally to z.  Mutates z for bumped nodes.
    """
    q = params.normalized_q()
    n = len(z)
    pool = np.repeat(np.arange(n, dtype=np.int32), z)
    rng.shuffle(pool)
    counts, leftover = allocate_edge_counts(len(pool), q, params.max_edge_size)

    start = 0
    for d in range(params.max_edge_size, 1, -1):
        cnt = int(counts[d])
        if cnt == 0:
            continue
        batch.add(d, ORIGIN_BACKGROUND, cnt, pool[start: start + cnt * d])
        start += cnt * d

    r = leftover
    if r == 0:
        return
    tail = pool[len(pool) - r:]

    smallest = next((d for d in range(2, params.max_edge_size + 1) if q[d - 1] > 0), None)

    if q[0] > 0:
        ok = True
        if params.simple:
            has_singleton = np.zeros(n, dtype=bool)
            has_singleton[singleton_owners] = True
            ok = len(np.unique(tail)) == r and not has_singleton[tail].any()
        if ok:
            batch.add(1, ORIGIN_SINGLETON, r, tail.copy())
            return

    if smallest is None:
        raise InfeasibleError(
            f"{r} leftover background slots cannot form an edge: "
            "no edge size >= 2 has positive share")

    need = smallest - r
    candidates = np.nonzero(z > 0)[0]
    chosen: list[int] = []
    if need and len(candidates):
        take = min(need, len(candidates))
        with np.errstate(divide="ignore"):
            keys = rng.exponential(size=len(candidates)) / z[candidates]
        chosen = candidates[np.argpartition(keys, take - 1)[:take]].tolist()
    while len(chosen) < need:
        # fewer weighted candidates than slots: allow repeats
        running = np.cumsum(z[candidates]) if len(candidates) else None
        if running is None or running[-1] == 0:
            raise InfeasibleError("no background share available to absorb leftover slots")
        pick = int(np.searchsorted(running, rng.random() * running[-1], side="right"))
        chosen.append(int(candidates[pick]))
    for node in chosen:
        z[node] += 1
    extra = np.concatenate([tail, np.asarray(chosen, dtype=np.int32)])
    batch.add(smallest, ORIGIN_BACKGROUND, 1, extra.astype(np.int32))


def generate(params: GeneratorParams) -> GenerationResult:
    """Run the full pipeline for one seed; returns the hypergraph and its ground truth.

    Phases and their RNG order: degrees, community sizes, singleton edges,
    degree splits, node placement, community edges, background edges, and (in
    simple mode) the rewiring pass.  Per-phase wall-clock timings are recorded
    in the result.
    """
    from .rewiring import rewire  # deferred to avoid a cycle

    validate(params)
    timings: dict[str, float] = {}
    warnings_list: list[str] = []
    rng = np.random.default_rng(params.seed)
    t_start = time.perf_counter()

    t0 = time.perf_counter()
    sampled = sample_degrees(params, rng)
    timings["degrees"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sizes = sample_community_sizes(params, rng)
    timings["community_sizes"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    singleton_owners, degrees = build_singletons(sampled, params, rng)
    timings["singletons"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    y, z = split_degrees(degrees, params.xi, rng)
    timings["split"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    consts = precompute_feasibility(sizes, params)
    assignment = assign_communities(y, z, sizes, consts, rng)
    timings["assignment"] = time.perf_counter() - t0

    batch = _EdgeBatch()
    batch.add(1, ORIGIN_SINGLETON, len(singleton_owners), singleton_owners.copy())

    t0 = time.perf_counter()
    columns, y_int, pools = build_community_edges(y, z, assignment, params, rng)
    _assemble_community_edges(columns, pools, y, y_int, rng, batch)
    timings["community_edges"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    build_background_edges(z, params, singleton_owners, rng, batch)
    timings["background_edges"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    hg = batch.merge(params.n)
    hg.sort_members()
    timings["assembly"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if params.simple:
        exhausted = rewire(hg, rng)
        if exhausted:
            warnings_list.append(
                f"rewiring budget exhausted with {exhausted} defective edges left")
    timings["rewiring"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    profiles = DegreeProfiles(
        sampled_degree=sampled,
        degree=degrees,
        community_degree=y,
        background_degree=z,
        internal_degree=y_int,
    )
    return GenerationResult(hg, assignment, profiles, timings, warnings_list)
