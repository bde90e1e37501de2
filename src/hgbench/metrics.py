"""Evaluation metrics: 2-section graph, modularity family, type histograms, CCDF tables.

The functions read the hypergraph and a node partition and return numbers
or plain data.  They change neither, but ``census`` leaves a memo (node
rows and the last census) on the hypergraph and makes its ``offsets``
read-only.  Partitions are given as an integer label per node; labels are
normalized internally, so any labeling scheme works.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import log_binomial
from .config import GeneratorParams, WeightMatrix, lowest_majority_count
from .errors import UndefinedInputError
from .sampling import truncated_power_law
from .structures import CommunityAssignment, Hypergraph

GATHER_CHUNK = 1 << 15   # indices per np.take call in _gather: its intp copy of them is 256 KiB


def _normalize_partition(labels, n: int):
    """Contiguous 0-based part labels in sorted label order, plus the part count."""
    arr = labels.member_of if isinstance(labels, CommunityAssignment) else np.asarray(labels)
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


@dataclass
class TwoSection:
    """Weighted multigraph obtained by replacing each edge with a clique.

    Parallel pairs coming from different hyperedges accumulate weight;
    repeated slots within one hyperedge are collapsed first, so a single
    hyperedge contributes each unordered pair at most once.
    """

    n: int
    pair_u: np.ndarray
    pair_v: np.ndarray
    weight: np.ndarray
    degree: np.ndarray        # weighted degree per node, float64 even with no pair
    total_weight: int
    heavy: np.ndarray         # int64 indices of the pairs with weight above 1


def two_section(hg: Hypergraph) -> TwoSection:
    """Clique expansion of the hypergraph; each deduplicated edge gives unit pairs."""
    # int64 seeds: no pairs is no error, and ids below 2**31 pack as (u << 32) | v in (u, v) order
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for d, rows in hg.size_classes():
        firsts = np.ones(rows.shape, dtype=bool)
        firsts[1:] = rows[1:] != rows[:-1]
        i, j = np.triu_indices(d, 1)
        sel = firsts[i] & firsts[j]
        us.append(rows[i][sel])
        vs.append(rows[j][sel])
    key = np.concatenate(us) << 32 | np.concatenate(vs)
    uniq, weight = np.unique(key, return_counts=True)
    pair_u, pair_v = uniq >> 32, uniq & 0xFFFFFFFF
    degree = np.add(np.bincount(pair_u, weights=weight, minlength=hg.n),
                    np.bincount(pair_v, weights=weight, minlength=hg.n), dtype=np.float64)
    return TwoSection(hg.n, pair_u, pair_v, weight, degree, int(weight.sum()), np.flatnonzero(weight > 1))


def graph_modularity(graph: TwoSection, partition) -> float:
    """Within-part edge fraction minus the squared volume fractions (labels gathered narrow)."""
    if graph.total_weight == 0:
        raise UndefinedInputError("graph modularity needs at least one edge")
    parts, k = _normalize_partition(partition, graph.n)
    narrow = parts.astype(np.min_scalar_type(k - 1))   # uint8 up to 256 parts
    same = np.take(narrow, graph.pair_u) == np.take(narrow, graph.pair_v)
    on, internal = same[graph.heavy], np.count_nonzero(same)   # weights are 1 but at heavy pairs
    del same   # freed before the heavy weights are gathered
    internal += int(np.einsum("i,i->", graph.weight[graph.heavy], on.view(np.uint8))) - np.count_nonzero(on)
    vol_part = np.bincount(parts, weights=graph.degree, minlength=k)
    tax = ((vol_part / graph.degree.sum()) ** 2).sum()
    return float(internal / graph.total_weight - tax)


@dataclass
class Census:
    """Edge compositions of a hypergraph under a node partition: counts[d, c]
    counts the size-d edges whose largest part holds c > d/2 slots, and
    counts[d, 0] those without a strict majority."""

    edge_count: int
    volume: int                # member slots of the hypergraph
    parts: np.ndarray          # part of every node
    slot_volume: np.ndarray    # member slots per part
    counts: np.ndarray
    rows: list                 # list(hg.size_classes()): (d, node rows) per size class

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
                raise ValueError(
                    f"edge size {d} exceeds the weight matrix limit {u.max_edge_size}")
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
        """``graph_modularity(two_section(hg), partition)``, bit for bit, from
        integer pair totals; each distinct member of an edge with D distinct
        members adds D - 1 to its part's volume.  Labels are gathered narrow."""
        internal = total = 0
        k = len(self.slot_volume)
        volume = np.zeros(k)
        narrow = self.parts.astype(np.min_scalar_type(k + len(self.counts)))   # k + d fits
        for d, nodes in self.rows:
            first = np.ones(nodes.shape, dtype=bool)   # slots are sorted per edge
            first[1:] = nodes[1:] != nodes[:-1]
            gain = first.sum(axis=0) - 1   # distinct members less one
            total += int((gain * (gain + 1) // 2).sum())
            # a repeated slot gets a label no part has, so it pairs with nothing
            labels = np.where(first, _gather(narrow, nodes), k + np.arange(d, dtype=narrow.dtype)[:, None])
            internal += sum(int(np.count_nonzero(labels[i + 1:] == labels[i])) for i in range(d - 1))
            for row, keep in zip(labels, first):   # row by row: one row's temporaries at a time
                volume += np.bincount(row[keep], weights=gain[keep], minlength=k)
        if total == 0:
            raise UndefinedInputError("graph modularity needs at least one edge")
        return float(internal / total - ((volume / (2 * total)) ** 2).sum())


def census(hg: Hypergraph, partition) -> Census:
    """Composition census of hg under a node partition (one label per node).

    Hypergraph modularity depends on the edges only through the counts and
    the part volumes, so one census serves every valuation.  hg keeps a
    two-level memo.  While ``offsets`` is the same array and ``members``
    equals a kept copy, it keeps that copy, the node rows of every size class
    and the node degrees: 8 bytes per member slot and per node.  It knows
    ``offsets`` only by identity, so it makes ``offsets`` read-only: the
    array can be replaced, not written.  While the labels (in the same
    dtype) are equal too, it hands out the arrays of its last census again,
    read-only.  A new partition costs one label gather and the vote.  A
    census keeps the edge count and volume it was taken at, not hg, so a
    later change to hg leaves it as it was.
    """
    labels = partition.member_of if isinstance(partition, CommunityAssignment) else np.asarray(partition)
    kept, counted = hg._census or (None, None)
    if not (kept is not None and kept[0] is hg.offsets and _same_values(kept[1], hg.members)):
        hg._census = kept = counted = None   # free the old copies first
        kept = (hg.offsets, hg.members.copy(), list(hg.size_classes()), hg.degrees())
        for arr in (hg.offsets, *(nodes for _, nodes in kept[2])):
            arr.flags.writeable = False
    if not (counted is not None and _same_values(counted[0], labels)):
        arrays = _count_compositions(hg.n, *kept[2:], labels)
        for arr in arrays:
            arr.flags.writeable = False
        counted = (labels.copy(), *arrays)
    hg._census = (kept, counted)
    return Census(hg.edge_count, hg.volume, *counted[1:], kept[2])


def _same_values(kept: np.ndarray, arr: np.ndarray) -> bool:
    """Whether arr equals the kept copy in shape, dtype (as floats, distinct int64 labels can
    compare equal) and values; int32 compares as int64 views of the even prefix, then the tail."""
    if kept.shape != arr.shape or kept.dtype != arr.dtype:
        return False
    if kept.dtype != np.int32 or arr.ndim != 1 or not arr.flags.c_contiguous:
        return bool(np.array_equal(kept, arr))
    even = len(arr) & ~1
    return bool(np.array_equal(kept[:even].view(np.int64), arr[:even].view(np.int64))
                and np.array_equal(kept[even:], arr[even:]))


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``table[index]`` by chunked np.take: faster than fancy indexing, no index-long intp copy."""
    out = np.empty(index.shape, dtype=table.dtype)
    flat, dest = index.reshape(-1), out.reshape(-1)
    for start in range(0, len(flat), GATHER_CHUNK):
        np.take(table, flat[start: start + GATHER_CHUNK], out=dest[start: start + GATHER_CHUNK])
    return out


def _count_compositions(n: int, rows: list, degree: np.ndarray,
                        partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The part of every node, the member slots per part and the counts.

    Per size class, a Boyer-Moore vote down the slot positions leaves each
    edge's only possible majority part as candidate; counting the
    candidate's slots settles it, with no sort.  Labels are gathered narrow.
    A part's slots are its nodes' degrees summed; as floats the sums are
    exact below 2**53.
    """
    parts, k = _normalize_partition(partition, n)
    narrow = parts.astype(np.min_scalar_type(k - 1))
    top = rows[-1][0] if rows else 0
    counts = np.zeros((top + 1, top + 1), dtype=np.int64)
    for d, nodes in rows:
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
    volume = np.bincount(parts, weights=degree, minlength=k).astype(np.int64)
    return parts, volume, counts


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


@dataclass
class StatsReport:
    """Distributional statistics of one generated hypergraph."""

    node_count: int
    edge_count: int
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
    deg_table = truncated_power_law(params.gamma, params.min_degree, params.max_degree)
    size_table = truncated_power_law(params.beta, params.min_size, params.max_size)
    by_size = np.bincount(hg.sizes(), minlength=params.max_edge_size + 1)
    share = by_size * np.arange(len(by_size)) / max(hg.volume, 1)
    return StatsReport(
        node_count=hg.n,
        edge_count=hg.edge_count,
        community_count=len(truth.sizes),
        degree_k=np.arange(params.min_degree, params.max_degree + 1),
        degree_ccdf=_tail_fraction(hg.degrees(), params.min_degree, params.max_degree),
        degree_ccdf_model=deg_table.ccdf(),
        community_size_k=np.arange(params.min_size, params.max_size + 1),
        community_size_ccdf=_tail_fraction(truth.sizes, params.min_size, params.max_size),
        community_size_ccdf_model=size_table.ccdf(),
        volume_share=share[1:],
        edge_size_counts=by_size[1:],
    )
