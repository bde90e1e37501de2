"""Building the hypergraph: edge budgets, community edges, background edges, orchestration.

Every phase consumes the caller's RNG in a fixed documented order, so one seed
reproduces the full construction: degrees, community sizes, singleton edges,
degree splits, node placement, community edges (per community: leftover
spill, type counts, internal shares, pool shuffle), the global external pool,
background edges, then rewiring (simple mode only).
"""
from __future__ import annotations

import ctypes
import time

import numpy as np

from .assignment import assign_communities, precompute_feasibility, split_degrees
from .config import GeneratorParams, lowest_majority_count, validate
from .errors import InfeasibleError
from .sampling import sample_community_sizes, sample_degrees, stochastic_round
from .structures import (
    MAX_VOLUME,
    ORIGIN_BACKGROUND,
    ORIGIN_SINGLETON,
    CommunityAssignment,
    DegreeProfiles,
    GenerationResult,
    Hypergraph,
)


def _trim_heap() -> None:
    """Hand the heap pages of freed blocks back to the OS: glibc's ``malloc_trim``,
    looked up per call so that importing costs nothing; a no-op elsewhere."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):   # another C library, or no dlopen(NULL)
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


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
        spent = np.zeros(n, dtype=np.int32)
        spent[owners] = 1
    else:
        slots = rng.choice(volume, size=m1, replace=False)
        bounds = np.cumsum(degrees)
        owners = np.searchsorted(bounds, slots, side="right").astype(np.int32)
        spent = np.bincount(owners, minlength=n).astype(np.int32)
    return owners, degrees - spent


def build_community_edges(y: np.ndarray, z: np.ndarray,
                          assignment: CommunityAssignment,
                          params: GeneratorParams, rng: np.random.Generator,
                          out: np.ndarray):
    """Community edges for every community, written to the front of ``out``;
    returns (groups, internal shares).

    Mutates y and z in place: leftover slots that no edge size can absorb move
    from the community share to the background share, one at a time, node
    picked proportionally to its current community share.

    Groups are (size d, community, edge count) tuples in build order: per
    community, sizes largest first and, within a size, majority counts c
    largest first.  The m edges of a group are one (m, d) block of ``out``:
    its first c columns from the community's shuffled internal pool and the
    rest from one shuffled external pool shared by all communities, both
    consumed in build order.  Also returns the per-node internal slot count.

    A community's groups are contiguous, so its pool, shuffled in one reused
    intp buffer, fills their first columns at once.  ``Generator.shuffle`` makes
    the same permutation for any item size, and it is fastest on 8-byte items.
    """
    q = params.normalized_q()
    w_norm = params.w.normalized()
    max_d = params.max_edge_size
    rows, majority = [], []   # majority count c per group
    y_int = np.zeros(len(y), dtype=np.int32)
    wide = np.empty(0, dtype=np.intp)   # shuffle buffer, grown to the largest pool
    at = 0   # slots filled

    for j, nodes in enumerate(assignment.groups()):
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

        first, internal_total = len(rows), 0
        for d in range(max_d, 1, -1):
            if counts[d] == 0:
                continue
            type_counts = allocate_type_counts(int(counts[d]), d, w_norm.row(d), rng)
            for c in np.flatnonzero(type_counts)[::-1].tolist():
                m = int(type_counts[c])
                rows.append((d, j, m))
                majority.append(c)
                internal_total += c * m

        shares = distribute_internal(yj, internal_total, rng)
        y_int[nodes] = shares
        if len(wide) < internal_total:
            wide = np.empty(internal_total, dtype=np.intp)
        pool = wide[:internal_total]
        pool[:] = np.repeat(nodes, shares)   # intp, as the groups are
        rng.shuffle(pool)
        for (d, _, m), c in zip(rows[first:], majority[first:]):
            out[at: at + d * m].reshape(m, d)[:, :c] = pool[:c * m].reshape(m, c)
            pool = pool[c * m:]
            at += d * m

    del nodes, pool, wide   # nodes views the node order of every community
    external = np.repeat(np.arange(len(y), dtype=np.intp), y - y_int)
    rng.shuffle(external)
    at = taken = 0   # slots passed, external slots consumed
    for (d, _, m), c in zip(rows, majority):
        out[at: at + d * m].reshape(m, d)[:, c:] = external[taken: taken + (d - c) * m].reshape(m, d - c)
        at += d * m
        taken += (d - c) * m
    return rows, y_int


def build_background_edges(z: np.ndarray, params: GeneratorParams,
                           singleton_owners: np.ndarray,
                           rng: np.random.Generator, out: np.ndarray):
    """Background edges over the z pool, written to the front of ``out``; returns the groups.

    Groups are (size, origin, edge count) tuples, sizes largest first, and the
    members are the shuffled pool, consumed in that order.  Leftover points
    (fewer than the smallest active size R) at the pool's end either become
    extra singleton edges when q_1 > 0 (simple mode additionally requires the
    leftover points to sit on distinct nodes with no singleton yet) or are
    topped up to one extra size-R edge by bumping the background share of
    R - r nodes drawn proportionally to z, written after the pool.  Mutates z
    for bumped nodes.
    """
    q = params.normalized_q()
    n = len(z)
    pool = np.repeat(np.arange(n, dtype=np.intp), z)
    rng.shuffle(pool)   # as intp: see build_community_edges
    size = len(pool)
    out[:size] = pool
    del pool   # freed before the bump's temporaries
    counts, r = allocate_edge_counts(size, q, params.max_edge_size)
    rows = [(d, ORIGIN_BACKGROUND, counts[d])
            for d in range(params.max_edge_size, 1, -1) if counts[d]]
    if r == 0:
        return rows
    tail = out[size - r: size]

    smallest = next((d for d in range(2, params.max_edge_size + 1) if q[d - 1] > 0), None)

    if q[0] > 0:
        ok = True
        if params.simple:
            has_singleton = np.zeros(n, dtype=bool)
            has_singleton[singleton_owners] = True
            ordered = np.sort(tail)
            ok = not (ordered[1:] == ordered[:-1]).any() and not has_singleton[tail].any()
        if ok:
            rows.append((1, ORIGIN_SINGLETON, r))
            return rows

    if smallest is None:
        raise InfeasibleError(
            f"{r} leftover background slots cannot form an edge: "
            "no edge size >= 2 has positive share")

    # the r leftover slots sit on nodes with z > 0, so there is a candidate
    need = smallest - r
    candidates = np.nonzero(z > 0)[0]
    take = min(need, len(candidates))
    keys = rng.exponential(size=len(candidates)) / z[candidates]
    chosen = candidates[np.argpartition(keys, take - 1)[:take]].tolist()
    running = np.cumsum(z[candidates])
    while len(chosen) < need:
        # fewer weighted candidates than slots: allow repeats
        pick = int(np.searchsorted(running, rng.random() * running[-1], side="right"))
        chosen.append(int(candidates[pick]))
    for node in chosen:
        z[node] += 1
    out[size: size + need] = chosen
    rows.append((smallest, ORIGIN_BACKGROUND, 1))
    return rows


def generate(params: GeneratorParams) -> GenerationResult:
    """Run the full pipeline for one seed; returns the hypergraph and its ground truth.

    Phases and their RNG order: degrees, community sizes, singleton edges,
    degree splits, node placement, community edges, background edges, and (in
    simple mode) the rewiring pass.  Per-phase wall-clock timings are recorded
    in the result.
    """
    # looked up on each call, so a wrapper set on rewiring.rewire (bench/tracer.py
    # sets one) is the one called; it also keeps rewiring.py out of CLI start-up
    from .rewiring import rewire

    validate(params)
    timings: dict[str, float] = {}
    warnings_list: list[str] = []
    rng = np.random.default_rng(params.seed)
    clock = [time.perf_counter()]

    def lap(phase: str) -> None:
        """Record the seconds since the previous lap as ``phase``."""
        clock.append(time.perf_counter())
        timings[phase] = clock[-1] - clock[-2]

    sampled = sample_degrees(params, rng)
    volume = int(sampled.sum())   # a background bump adds fewer than max_edge_size slots
    if volume > MAX_VOLUME - params.max_edge_size:
        raise InfeasibleError(f"the sampled degrees sum to {volume} member slots, above "
                              f"{MAX_VOLUME - params.max_edge_size}: offsets are int32")
    lap("degrees")
    sizes = sample_community_sizes(params, rng)
    lap("community_sizes")
    singleton_owners, degrees = build_singletons(sampled, params, rng)
    lap("singletons")
    y, z = split_degrees(degrees, params.xi, rng)
    lap("split")
    consts = precompute_feasibility(sizes, params)
    assignment = assign_communities(y, z, sizes, consts, rng)
    lap("assignment")
    slots = np.empty(volume + params.max_edge_size, dtype=np.int32)   # each slot written once
    s = len(singleton_owners)
    slots[:s] = singleton_owners
    community_groups, y_int = build_community_edges(y, z, assignment, params, rng, slots[s:])
    s += int(y.sum())
    lap("community_edges")
    background_groups = build_background_edges(z, params, singleton_owners, rng, slots[s:])
    s += int(z.sum())
    lap("background_edges")

    groups = np.array([(1, ORIGIN_SINGLETON, len(singleton_owners))]
                      + community_groups + background_groups, dtype=np.int64)
    hg = Hypergraph.from_sizes(
        params.n, np.repeat(groups[:, 0].astype(np.min_scalar_type(params.max_edge_size)),
                            groups[:, 2]),
        slots[:s], np.repeat(groups[:, 1].astype(np.int32), groups[:, 2]))
    lap("assembly")

    if params.simple:
        exhausted = rewire(hg, rng)
        if exhausted:
            warnings_list.append(
                f"rewiring budget exhausted with {exhausted} defective edges left")
    lap("rewiring")
    timings["total"] = clock[-1] - clock[0]

    profiles = DegreeProfiles(
        sampled_degree=sampled,
        degree=degrees,
        community_degree=y,
        background_degree=z,
        internal_degree=y_int,
    )
    # hand back the freed repeats and buffers: kept resident, they would shift the caller's next peak
    _trim_heap()
    return GenerationResult(hg, assignment, profiles, timings, warnings_list)
