"""Evaluation metrics: 2-section graph, modularity family, type histograms, CCDF tables.

The functions read the hypergraph and a node partition and return numbers
or plain data.  They change neither, but ``census`` leaves a memo (node
rows and the last census) on the hypergraph, and it and ``two_section``, which
builds no pairs, make its ``offsets`` and ``members`` read-only.  Partitions
are a label per node, normalized internally, so any labeling scheme works.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .assignment import log_binomial
from .config import GeneratorParams, WeightMatrix, lowest_majority_count
from .errors import UndefinedInputError
from .sampling import truncated_power_law
from .structures import CommunityAssignment, Hypergraph

GATHER_CHUNK = 1 << 15   # indices per np.take call in _gather: its intp copy of them is 256 KiB


def _normalize_partition(arr: np.ndarray, n: int):
    """Contiguous 0-based part labels in sorted label order, plus the part count."""
    if arr.shape != (n,):
        raise ValueError(f"partition must label all {n} nodes, got shape {arr.shape}")
    # node ids are int32, so the part ids of n nodes fit too
    if arr.dtype.kind in "iu" and n and int(arr.max()) - int(arr.min()) < 2 * n:
        # ranked without a sort; the shift may wrap in a narrow dtype, its unsigned view cannot
        shifted = (arr - arr.min()).view(f"u{arr.itemsize}").astype(np.intp)
        rank = np.cumsum(np.bincount(shifted) > 0, dtype=np.int32)
        return rank[shifted] - 1, int(rank[-1])
    uniq, parts = np.unique(arr, return_inverse=True)
    return parts.astype(np.int32), len(uniq)


@dataclass(frozen=True, eq=False)
class TwoSection:
    """Weighted multigraph obtained by replacing each edge with a clique: a
    view of the hypergraph, whose census scores it.  It keeps no pairs;
    ``pairs()`` builds them from the hypergraph's current arrays.  It equals only itself."""

    n: int
    hypergraph: Hypergraph = field(repr=False)

    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(pair_u, pair_v, weight)``, int64: the distinct pairs u < v sorted
        by (u, v), and the number of edges that hold each.  Repeated slots
        within one edge collapse first, so it gives each pair at most once."""
        key = _pair_keys(self.hypergraph)
        key.sort()   # a pair's weight is the length of its run of equal keys
        new = np.empty(len(key), dtype=bool)   # True where a distinct pair starts
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        del new
        weight = np.empty(len(starts), dtype=np.int64)
        np.subtract(starts[1:], starts[:-1], out=weight[:-1])
        weight[-1:] = len(key) - starts[-1:]
        pair_v = key[starts]
        del key, starts
        pair_u = pair_v >> 32
        pair_v &= 0xFFFFFFFF
        return pair_u, pair_v, weight

    @property
    def pair_u(self) -> np.ndarray:   # bench/tracer.py counts the pairs by its length
        return self.pairs()[0]


def _pair_keys(hg: Hypergraph) -> np.ndarray:
    """The int64 key (u << 32) | v of each node pair u < v of each edge,
    repeated slots collapsed first; ids are below 2**31, so keys sort in (u, v)
    order.  One array, sized for edges without repeated slots, is filled
    class by class and column pair by column pair."""
    per_size = np.bincount(hg.sizes())
    size = np.arange(len(per_size))
    key = np.empty(int((per_size * (size * (size - 1) // 2)).sum()), dtype=np.int64)
    filled = 0
    for d, rows in hg.size_classes():
        firsts = np.ones(rows.shape, dtype=bool)
        firsts[1:] = rows[1:] != rows[:-1]
        for i, j in itertools.combinations(range(d), 2):
            sel = firsts[i] & firsts[j]
            part = key[filled: filled + np.count_nonzero(sel)]
            np.left_shift(rows[i][sel], 32, out=part, dtype=np.int64)
            part |= rows[j][sel]
            filled += len(part)
    return key[:filled]


def two_section(hg: Hypergraph) -> TwoSection:
    """Clique expansion of the hypergraph, which does no pair work.  Like
    ``census``, it makes ``offsets`` and ``members`` read-only."""
    hg.offsets.flags.writeable = hg.members.flags.writeable = False
    return TwoSection(hg.n, hg)


def graph_modularity(graph: TwoSection, partition) -> float:
    """Within-part edge fraction minus the squared volume fractions, as
    ``census(graph.hypergraph, partition).pairwise_modularity()``."""
    return census(graph.hypergraph, partition).pairwise_modularity()


@dataclass(eq=False)
class Census:
    """Edge compositions of a hypergraph under a node partition: counts[d, c]
    counts the size-d edges whose largest part holds c > d/2 slots, and
    counts[d, 0] those without a strict majority."""

    edge_count: int
    volume: int                # member slots of the hypergraph
    parts: np.ndarray          # part of every node
    slot_volume: np.ndarray    # member slots per part
    counts: np.ndarray
    same_pairs: int            # pairs of distinct members of one edge in one part
    pair_total: int            # pairs of distinct members of one edge
    pair_degree: np.ndarray    # such pairs per node: its two-section degree

    def hypergraph_modularity(self, u: WeightMatrix) -> float:
        """See the module-level ``hypergraph_modularity``."""
        if self.edge_count == 0:
            raise UndefinedInputError("hypergraph modularity needs at least one edge")
        p = self.slot_volume.astype(np.float64) / self.volume
        with np.errstate(divide="ignore"):
            log_p, log_q = np.log(p), np.log1p(-p)
        total = 0.0
        for d in range(2, len(self.counts)):
            edge_total = int(self.counts[d].sum())
            if edge_total == 0:
                continue
            if d > u.max_edge_size:
                raise ValueError(f"edge size {d} exceeds the weight matrix limit {u.max_edge_size}")
            lo = lowest_majority_count(d)
            log_choose = log_binomial(d, np.arange(lo, d + 1))
            for c in range(lo, d + 1):
                ucd = u.values[c, d]
                if ucd == 0.0:
                    continue
                if c == d:
                    null = float((p ** d).sum())
                else:
                    logpmf = log_choose[c - lo] + c * log_p + (d - c) * log_q
                    null = float(np.exp(logpmf).sum())
                total += ucd * (int(self.counts[d, c]) - edge_total * null) / self.edge_count
        return float(total)

    def type_histogram(self) -> dict[tuple[int, int], int]:
        """See the module-level ``type_histogram``."""
        out: dict[tuple[int, int], int] = {}
        for d in np.flatnonzero(self.counts.any(axis=1)).tolist():
            if d > 1:
                out[(0, d)] = int(self.counts[d, 0])
            for c in range(lowest_majority_count(d), d + 1):
                out[(c, d)] = int(self.counts[d, c])
        return out

    def pairwise_modularity(self) -> float:
        """``graph_modularity(two_section(hg), partition)``, which it computes:
        the pair counts and the part volumes are the two-section's weights."""
        if self.pair_total == 0:
            raise UndefinedInputError("graph modularity needs at least one edge")
        volume = np.bincount(self.parts, weights=self.pair_degree, minlength=len(self.slot_volume))
        return float(self.same_pairs / self.pair_total - ((volume / (2 * self.pair_total)) ** 2).sum())


def census(hg: Hypergraph, partition) -> Census:
    """Composition census of hg under a node partition (one label per node).

    The modularities depend on the edges only through its counts, volumes and
    pairs, so one census serves every valuation.  hg keeps a two-level memo.
    While ``offsets`` and ``members`` are the same arrays, it keeps the node
    rows of every size class (4 bytes per member slot) and two degrees per node
    (at most 8 bytes).  It knows the two by identity only, so it makes them
    read-only: replace them, do not write them (a write through another view,
    such as a base array, goes unseen).  While the labels are equal in the same
    dtype (as floats, distinct int64 labels can be equal), it hands out its
    last census again; a new partition costs one label gather and the vote.  A
    census keeps the counts it was taken at, not hg.
    """
    labels = partition.member_of if isinstance(partition, CommunityAssignment) else np.asarray(partition)
    if not _kept(hg):
        hg._census = None   # free the old rows first
        hg._census = (_members_level(hg), None)
    kept, counted = hg._census
    if not (counted and counted[0].dtype == labels.dtype and np.array_equal(counted[0], labels)):
        counted = (labels.copy(), *_count_compositions(hg.n, *kept[2:4], labels))
    hg._census = (kept, counted)
    return Census(hg.edge_count, hg.volume, *counted[1:], *kept[4:])


def _kept(hg: Hypergraph) -> tuple | None:
    """The members level of hg's census memo, while it holds hg's offsets and members."""
    kept = hg._census and hg._census[0]
    return kept if kept and kept[0] is hg.offsets and kept[1] is hg.members else None


def _members_level(hg: Hypergraph) -> tuple:
    """``(offsets, members, classes, degree, pair_total, pair_degree)``, read-only;
    ``classes`` holds ``(d, node rows, repeated, dup)`` per size class: the edges
    with a repeated slot, and which of their slots repeat the one above.  One
    count of each class's slots gives both degrees: a slot adds d - 1 pairs,
    less what repeated slots add.  Each is kept in the narrowest dtype that fits."""
    classes, last = [], 1
    degree, pair_degree = np.zeros(hg.n, dtype=np.intp), np.zeros(hg.n, dtype=np.intp)
    for d, rows in hg.size_classes():
        # d - 1 per slot, summed as (last d - 1) per slot less each size step per slot below it
        pair_degree -= degree if d == last + 1 else (d - last) * degree
        for start in range(0, rows.size, 1 << 20):   # bincount copies its input to int64
            degree += np.bincount(rows.reshape(-1)[start: start + (1 << 20)], minlength=hg.n)
        repeated = np.flatnonzero((rows[1:] == rows[:-1]).any(axis=0))   # slots are sorted per edge
        dup = np.zeros((d, len(repeated)), dtype=bool)
        np.equal(rows[1:, repeated], rows[:-1, repeated], out=dup[1:])
        np.subtract.at(pair_degree, rows[:, repeated], np.where(dup, d - 1, dup.sum(axis=0)))
        classes.append((d, rows, repeated, dup))
        last = d
    pair_degree += (last - 1) * degree
    pair_total = int(pair_degree.sum()) // 2
    degree, pair_degree = (arr.astype(np.min_scalar_type(arr.max(initial=0))) for arr in (degree, pair_degree))
    for arr in (hg.offsets, hg.members, degree, pair_degree, *(rows for _, rows, *_ in classes)):
        arr.flags.writeable = False
    return hg.offsets, hg.members, classes, degree, pair_total, pair_degree


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` for indices in range, by chunked np.take: faster than fancy indexing, unchecked."""
    out = np.empty(index.shape, dtype=table.dtype)
    flat, dest = index.reshape(-1), out.reshape(-1)
    for start in range(0, len(flat), GATHER_CHUNK):
        np.take(table, flat[start: start + GATHER_CHUNK], out=dest[start: start + GATHER_CHUNK], mode="clip")
    return out


def _count_compositions(n: int, classes: list, degree: np.ndarray, partition) -> tuple:
    """The part of every node, the member slots per part and the counts, all
    read-only, and the same-part pairs of distinct members of one edge.

    Per size class, a Boyer-Moore vote down the slot positions leaves each
    edge's only possible majority part as candidate; counting the candidate's
    slots settles it, with no sort.  The same label rows give the pairs.
    Labels are gathered narrow.  A part's slots are its nodes' degrees summed;
    as floats the sums are exact below 2**53.
    """
    parts, k = _normalize_partition(partition, n)
    top = classes[-1][0] if classes else 0
    narrow = parts.astype(np.min_scalar_type(k - 1 + top))   # room for a fill label k + i per slot i
    counts = np.zeros((top + 1, top + 1), dtype=np.int64)
    same = 0
    for d, nodes, repeated, dup in classes:
        labels = _gather(narrow, nodes)
        cand = labels[0].copy()
        # after i rows the vote is 2 * matches - i, so it can be 0 only at even i
        matches = np.ones(len(cand), dtype=np.min_scalar_type(d))
        hit = np.empty(len(cand), dtype=bool)
        for i, row in enumerate(labels[1:], start=1):
            if i % 2 == 0:
                np.copyto(cand, row, where=np.equal(matches, i // 2, out=hit))
            if i < d - 1:   # the last row's matches are recounted below
                matches += np.equal(row, cand, out=hit)
        hits = (labels == cand).sum(axis=0, dtype=matches.dtype)
        for c in range(lowest_majority_count(d), d + 1):
            counts[d, c] = np.count_nonzero(hits == c)
        counts[d, 0] = len(hits) - counts[d].sum()
        # a repeated slot gets a label no part has, so it pairs with nothing
        labels[:, repeated] = np.where(dup, k + np.arange(d)[:, None], labels[:, repeated])
        same += sum(int(np.count_nonzero(labels[i + 1:] == labels[i])) for i in range(d - 1))
    volume = np.bincount(parts, weights=degree, minlength=k).astype(np.int64)
    parts.flags.writeable = volume.flags.writeable = counts.flags.writeable = False
    return parts, volume, counts, same


def hypergraph_modularity(hg: Hypergraph, partition, u: WeightMatrix) -> float:
    """Size-and-type weighted modularity of a node partition.

    For each edge size d and majority count c, the observed number of edges
    with exactly c member slots in one part is compared against the binomial
    null expectation at that part's volume fraction; the differences are
    weighted by u[c, d] and scaled by the total edge count.
    """
    return census(hg, partition).hypergraph_modularity(u)


def type_histogram(hg: Hypergraph, partition) -> dict[tuple[int, int], int]:
    """Edge counts keyed by (majority count, size); key (0, d) means no strict majority.

    For every edge size present, all legal keys appear, zero counts included,
    ordered by size and then by majority count.
    """
    return census(hg, partition).type_histogram()


@dataclass(eq=False)
class StatsReport:
    """Distributional statistics of one generated hypergraph."""

    community_count: int
    degree_k: np.ndarray
    degree_ccdf: np.ndarray
    degree_ccdf_model: np.ndarray
    community_size_k: np.ndarray
    community_size_ccdf: np.ndarray
    community_size_ccdf_model: np.ndarray
    volume_share: np.ndarray       # fraction of slot volume per edge size, index 0 = size 1
    edge_size_counts: np.ndarray   # number of edges per size, index 0 = size 1


def _tail_fraction(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Fraction of entries >= k for k = lo .. hi."""
    hist = np.bincount(values, minlength=hi + 1)
    tail = np.cumsum(hist[::-1])[::-1]
    return tail[lo: hi + 1] / max(len(values), 1)


def ccdf_report(hg: Hypergraph, truth: CommunityAssignment,
                params: GeneratorParams) -> StatsReport:
    """Empirical degree / community-size CCDFs with their model curves, plus
    per-size volume shares."""
    by_size = np.bincount(hg.sizes(), minlength=params.max_edge_size + 1)
    share = by_size * np.arange(len(by_size)) / max(hg.volume, 1)
    kept = _kept(hg)   # a scored hypergraph's census memo holds its degrees
    return StatsReport(
        community_count=len(truth.sizes),
        degree_k=np.arange(params.min_degree, params.max_degree + 1),
        degree_ccdf=_tail_fraction(kept[3] if kept else hg.degrees(), params.min_degree, params.max_degree),
        degree_ccdf_model=truncated_power_law(params.gamma, params.min_degree, params.max_degree).ccdf(),
        community_size_k=np.arange(params.min_size, params.max_size + 1),
        community_size_ccdf=_tail_fraction(truth.sizes, params.min_size, params.max_size),
        community_size_ccdf_model=truncated_power_law(params.beta, params.min_size, params.max_size).ccdf(),
        volume_share=share[1:],
        edge_size_counts=by_size[1:],
    )
