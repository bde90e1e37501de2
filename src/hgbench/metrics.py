"""Evaluation metrics: 2-section graph, modularity family, type histograms, CCDF tables.

All functions are pure: they read the hypergraph and a node partition and
return numbers or plain data.  Partitions are given as an integer label per
node; labels are normalized internally, so any labeling scheme works.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import log_binomial
from .config import GeneratorParams, WeightMatrix, lowest_majority_count
from .errors import UndefinedInputError
from .sampling import truncated_power_law
from .structures import CommunityAssignment, Hypergraph


def _normalize_partition(labels, n: int):
    """Contiguous 0-based part labels plus the part count."""
    arr = np.asarray(labels)
    if isinstance(labels, CommunityAssignment):
        arr = labels.member_of
    if arr.shape != (n,):
        raise ValueError(f"partition must label all {n} nodes, got shape {arr.shape}")
    uniq, parts = np.unique(arr, return_inverse=True)
    # node ids are int32, so the part ids of n nodes fit too
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
    degree: np.ndarray        # weighted degree per node
    total_weight: int


def two_section(hg: Hypergraph) -> TwoSection:
    """Clique expansion of the hypergraph; each deduplicated edge gives unit pairs."""
    # int64 seeds: the key below cannot overflow, and no pairs is no error
    us, vs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for d, slots in hg.size_classes():
        rows = hg.members[slots]
        firsts = np.ones(rows.shape, dtype=bool)
        firsts[1:] = rows[1:] != rows[:-1]
        i, j = np.triu_indices(d, 1)
        sel = firsts[i] & firsts[j]
        us.append(rows[i][sel])
        vs.append(rows[j][sel])
    key = np.concatenate(us) * hg.n + np.concatenate(vs)
    uniq, weight = np.unique(key, return_counts=True)
    pair_u, pair_v = uniq // hg.n, uniq % hg.n
    degree = (np.bincount(pair_u, weights=weight, minlength=hg.n)
              + np.bincount(pair_v, weights=weight, minlength=hg.n))
    return TwoSection(hg.n, pair_u, pair_v, weight, degree, int(weight.sum()))


def graph_modularity(graph: TwoSection, partition) -> float:
    """Within-part edge fraction minus the squared volume fractions."""
    if graph.total_weight == 0:
        raise UndefinedInputError("graph modularity needs at least one edge")
    parts, k = _normalize_partition(partition, graph.n)
    same = parts[graph.pair_u] == parts[graph.pair_v]
    internal = graph.weight[same].sum() / graph.total_weight
    vol_part = np.bincount(parts, weights=graph.degree, minlength=k)
    tax = ((vol_part / graph.degree.sum()) ** 2).sum()
    return float(internal - tax)


@dataclass
class Census:
    """Edge compositions of a hypergraph under a node partition: counts[d, c]
    counts the size-d edges whose largest part holds c > d/2 slots, and
    counts[d, 0] those without a strict majority."""

    hg: Hypergraph
    slot_parts: np.ndarray     # part of every member slot
    slot_volume: np.ndarray    # member slots per part
    counts: np.ndarray

    def hypergraph_modularity(self, u: WeightMatrix) -> float:
        """See the module-level ``hypergraph_modularity``."""
        hg = self.hg
        if hg.edge_count == 0:
            raise UndefinedInputError("hypergraph modularity needs at least one edge")
        p = self.slot_volume.astype(np.float64) / hg.volume
        total = 0.0
        for d in range(2, len(self.counts)):
            edge_total = int(self.counts[d].sum())
            if edge_total == 0:
                continue
            if d > u.max_edge_size:
                raise ValueError(
                    f"edge size {d} exceeds the weight matrix limit {u.max_edge_size}")
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
                total += ucd * (int(self.counts[d, c]) - edge_total * null) / hg.edge_count
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
        members adds D - 1 to its part's volume."""
        internal = total = 0
        volume = np.zeros(len(self.slot_volume))
        for d, slots in self.hg.size_classes():
            nodes = self.hg.members[slots]
            first = np.ones(nodes.shape, dtype=bool)   # slots are sorted per edge
            first[1:] = nodes[1:] != nodes[:-1]
            distinct = first.sum(axis=0)
            total += int((distinct * (distinct - 1) // 2).sum())
            # a repeated slot gets a label no part has, so it pairs with nothing
            labels = np.where(first, self.slot_parts[slots], -1 - np.arange(d)[:, None])
            i, j = np.triu_indices(d, 1)
            internal += int(np.count_nonzero(labels[i] == labels[j]))
            gain = np.broadcast_to(distinct - 1, labels.shape)[first]
            volume += np.bincount(labels[first], weights=gain, minlength=len(volume))
        if total == 0:
            raise UndefinedInputError("graph modularity needs at least one edge")
        return float(internal / total - ((volume / (2 * total)) ** 2).sum())


def census(hg: Hypergraph, partition) -> Census:
    """Composition census of hg under a node partition (one label per node).

    Hypergraph modularity depends on the edges only through the counts and
    the part volumes.  Per size class, a Boyer-Moore vote down the slot
    positions leaves each edge's only possible majority part as candidate;
    counting the candidate's slots settles it, with no sort.
    """
    parts, k = _normalize_partition(partition, hg.n)
    slot_parts = parts[hg.members]
    top = int(hg.sizes().max(initial=0))
    counts = np.zeros((top + 1, top + 1), dtype=np.int64)
    for d, slots in hg.size_classes():
        labels = slot_parts[slots]
        cand = labels[0].copy()
        votes = np.ones(len(cand), dtype=np.int64)
        for row in labels[1:]:
            np.copyto(cand, row, where=votes == 0)
            votes += np.where(row == cand, 1, -1)
        hits = (labels == cand).sum(axis=0)
        counts[d, : d + 1] = np.bincount(np.where(2 * hits > d, hits, 0), minlength=d + 1)
    return Census(hg, slot_parts, np.bincount(slot_parts, minlength=k), counts)


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
    top = max(hi, int(values.max()) if len(values) else hi)
    hist = np.bincount(values, minlength=top + 1)
    tail = np.cumsum(hist[::-1])[::-1]
    return tail[lo: hi + 1] / max(len(values), 1)


def ccdf_report(hg: Hypergraph, truth: CommunityAssignment,
                params: GeneratorParams) -> StatsReport:
    """Empirical degree / community-size CCDFs with their model curves, plus
    per-size volume shares."""
    degrees = hg.degrees()
    deg_table = truncated_power_law(params.gamma, params.min_degree, params.max_degree)
    size_table = truncated_power_law(params.beta, params.min_size, params.max_size)
    sizes = hg.sizes()
    by_size = np.bincount(sizes, minlength=params.max_edge_size + 1)
    slot_volume = np.bincount(sizes, weights=sizes.astype(np.float64),
                              minlength=params.max_edge_size + 1)
    share = slot_volume / max(hg.volume, 1)
    return StatsReport(
        node_count=hg.n,
        edge_count=hg.edge_count,
        community_count=len(truth.sizes),
        degree_k=np.arange(params.min_degree, params.max_degree + 1),
        degree_ccdf=_tail_fraction(degrees, params.min_degree, params.max_degree),
        degree_ccdf_model=deg_table.ccdf(),
        community_size_k=np.arange(params.min_size, params.max_size + 1),
        community_size_ccdf=_tail_fraction(truth.sizes, params.min_size, params.max_size),
        community_size_ccdf_model=size_table.ccdf(),
        volume_share=share[1:],
        edge_size_counts=by_size[1:],
    )
