"""Array-backed containers shared by generation, rewiring, metrics, and the CLI."""
from __future__ import annotations

import gc
import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

# Edge origin codes (values >= 0 name the community the edge was built for).
ORIGIN_BACKGROUND = -1
ORIGIN_SINGLETON = -2

MAX_VOLUME = 2**31 - 1   # the most member slots a hypergraph holds: offsets are int32


# Sorting networks by width (Batcher 1968): each pair (i, j), i < j, puts the
# smaller of columns i and j into column i.  Per row a network costs less
# than sort(axis=1), per call more, so a run takes it only from the rows at
# which it measured faster (see CHANGES.md).
_NETWORKS = {2: [(0, 1)], 3: [(1, 2), (0, 2), (0, 1)],
             4: [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]}
_NETWORK_MIN_ROWS = {2: 64, 3: 256, 4: 768}
_FEWEST_NETWORK_ROWS = min(_NETWORK_MIN_ROWS.values())

# edges whose sizes size_runs compares at a time: an np.diff over every edge
# would cost 4 bytes per edge
_RUN_CHUNK = 1 << 16


def size_runs(members: np.ndarray, offsets: np.ndarray) -> Iterator[np.ndarray]:
    """Each run of consecutive equal-size edges, in edge order, as an
    ``(edges, d)`` view of ``members``; writes through it reach ``members``.
    Run bounds are found one chunk of edges at a time; a run may span chunks."""
    edges = len(offsets) - 1
    e0, s0 = 0, int(offsets[0])   # first edge and first slot of the next run
    for c0 in range(0, edges, _RUN_CHUNK):
        sizes = np.diff(offsets[c0: c0 + _RUN_CHUNK + 2])   # one edge past the chunk
        ends = np.flatnonzero(sizes[1:] != sizes[:-1])      # edge c0 + k ends a run
        if c0 + _RUN_CHUNK >= edges:
            ends = np.append(ends, len(sizes) - 1)
        nexts = ends + (c0 + 1)
        for e1, s1, d in zip(nexts.tolist(), offsets[nexts].tolist(), sizes[ends].tolist()):
            yield members[s0: s1].reshape(e1 - e0, d)
            e0, s0 = e1, s1


def member_lists(members: np.ndarray, offsets: np.ndarray) -> list[list[int]]:
    """``members[offsets[i]:offsets[i+1]]`` as a list of Python ints, per edge i.

    Each run of equal-size edges comes out of one 2-D ``tolist``, with the
    collector paused, which makes building them several times faster.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        lists: list[list[int]] = []
        for run in size_runs(members, offsets):
            lists += run.tolist()
        return lists
    finally:
        if enabled:
            gc.enable()


class EdgeLists(Sequence):
    """Read-only 0-based member lists, kept as the reader's int32 ``(ids, bounds)`` blocks:
    list j of a block is ``ids[bounds[j]:bounds[j+1]]``.  A list is built only when
    read; a slice gives a plain list.  Equal to a sequence of the same lists."""

    def __init__(self, blocks: list[tuple[np.ndarray, np.ndarray]]):
        self.blocks = blocks
        self._starts = np.cumsum([0] + [len(bounds) - 1 for _, bounds in blocks])

    def __len__(self) -> int:
        return int(self._starts[-1])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]   # counts a negative i from the end; IndexError past either end
        b = int(np.searchsorted(self._starts, i, "right")) - 1
        (ids, bounds), j = self.blocks[b], i - int(self._starts[b])
        return ids[bounds[j]: bounds[j + 1]].tolist()

    def __iter__(self) -> Iterator[list[int]]:
        for ids, bounds in self.blocks:
            yield from member_lists(ids, bounds)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and len(self) == len(other) and all(a == b for a, b in zip(self, other))


@dataclass
class Hypergraph:
    """Hyperedges stored flat: edge i occupies members[offsets[i]:offsets[i+1]].

    Member slots within an edge are kept sorted ascending.  A slot holds a
    node id in [0, n); an edge may repeat a node (multiset) only when the
    generator runs in non-simple mode or before rewiring.  The constructor
    refuses n above 2**31 and ids outside [0, n) before it casts the three
    arrays to int32; int32 arrays are kept without a copy.
    """

    n: int
    offsets: np.ndarray   # int32, length edge_count + 1, offsets[0] == 0
    members: np.ndarray   # int32, length offsets[-1]
    origins: np.ndarray   # int32 per edge
    # the census memo, kept while offsets and members are the same arrays; see metrics.census
    _census: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n > 2**31:
            raise ValueError(f"n = {self.n} is above 2**31: node ids are int32")
        members = np.asarray(self.members)
        if len(members) and (members.min() < 0 or members.max() >= self.n):
            k = int(np.flatnonzero((members < 0) | (members >= self.n))[0])
            raise ValueError(f"edge {np.searchsorted(self.offsets, k, 'right') - 1}: node id {members[k]} not in [0, {self.n})")
        self.offsets, self.members, self.origins = (
            np.asarray(a, dtype=np.int32) for a in (self.offsets, members, self.origins))

    @property
    def edge_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def volume(self) -> int:
        """Total number of member slots, i.e. the sum of edge sizes."""
        return len(self.members)

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def degrees(self) -> np.ndarray:
        """Per-node incidence count; repeated slots count with multiplicity.
        Counted in chunks, since bincount copies its int32 input to int64."""
        chunk = 1 << 20
        counts = np.zeros(self.n, dtype=np.intp)
        for start in range(0, len(self.members), chunk):
            counts += np.bincount(self.members[start: start + chunk], minlength=self.n)
        return counts

    def edge_lists(self) -> list[list[int]]:
        return member_lists(self.members, self.offsets)

    def size_classes(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (d, rows) for every nonempty edge size d present, ascending:
        ``rows[j, i]`` is the node in slot j of the i-th size-d edge.  Each
        int32 block is gathered from ``members`` anew, when it is asked for."""
        sizes = self.sizes()
        sizes = sizes.astype(np.min_scalar_type(sizes.max(initial=0)))
        for d in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():
            starts = self.offsets[:-1][sizes == d].astype(np.intp)   # np.take's index type
            rows = np.empty((d, len(starts)), dtype=self.members.dtype)
            for row in rows:
                np.take(self.members, starts, out=row)
                starts += 1
            del starts   # a paused generator keeps its locals
            yield d, rows

    def sort_members(self) -> None:
        """Sort member slots ascending within every edge, in place.

        Each run of equal-size edges is sorted in place as one 2-D view, so
        the cost is one step per run: generated edges come in a few long
        runs, edge lists whose sizes alternate take one step per edge.  A
        run of 2 to 4 columns and enough rows goes through a fixed
        compare-exchange network over its columns, which costs less per row
        than ``sort(axis=1)`` but more per call.
        """
        for run in size_runs(self.members, self.offsets):
            # the row count first: edge lists in any order come as many
            # one-edge runs, and reading run.shape costs more than len(run)
            rows = len(run)
            if rows < _FEWEST_NETWORK_ROWS or rows < _NETWORK_MIN_ROWS.get(run.shape[1], rows + 1):
                run.sort(axis=1)
                continue
            for i, j in _NETWORKS[run.shape[1]]:
                low, high = run[:, i], run[:, j]
                kept = np.minimum(low, high)
                np.maximum(low, high, out=high)
                low[...] = kept

    @classmethod
    def from_sizes(cls, n: int, sizes: np.ndarray, members: np.ndarray,
                   origins: np.ndarray) -> "Hypergraph":
        """Hypergraph from edge sizes, their member slots laid end to end in
        edge order, and one origin per edge; members are sorted within each
        edge.

        The hypergraph takes ownership of ``members`` and ``origins`` when
        they are already int32: it keeps them without a copy and sorts
        ``members`` in place.  Pass copies to keep the originals, and a copy
        of a scored hypergraph's ``members``, which scoring made read-only.
        It refuses a volume above MAX_VOLUME before it sums the int32 offsets.
        """
        volume = int(sizes.sum())
        if volume > MAX_VOLUME:
            raise ValueError(f"volume = {volume} member slots is above {MAX_VOLUME}: offsets are int32")
        offsets = np.zeros(len(sizes) + 1, dtype=np.int32)
        offsets[1:] = sizes  # summed in place: no copy of narrow sizes
        np.cumsum(offsets[1:], out=offsets[1:], dtype=np.int32)
        hg = cls(n, offsets, members, origins)
        hg.sort_members()
        return hg

    @classmethod
    def from_edge_lists(cls, n: int, edges) -> "Hypergraph":
        """Background edges from member-id lists (an EdgeLists stays as it was) in any order; stored sorted."""
        if isinstance(edges, EdgeLists):
            blocks = [(np.empty(0, np.int32),) * 2] + edges.blocks
            sizes = np.concatenate([np.diff(bounds) for _, bounds in blocks])
            members = np.concatenate([ids for ids, _ in blocks])   # a copy, which from_sizes sorts
        else:
            sizes = np.fromiter(map(len, edges), dtype=np.int32, count=len(edges))
            members = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int32,
                                  count=int(sizes.sum()))
        return cls.from_sizes(n, sizes, members, np.full(len(edges), ORIGIN_BACKGROUND, dtype=np.int32))


@dataclass
class DegreeProfiles:
    """Per-node degree ledger tracking how each node's budget was spent.

    sampled_degree    degree drawn from the power law
    degree            budget left for edges of size >= 2 (sampled minus
                      singleton edges handed to the node)
    community_degree  slots spent inside the node's own community
    background_degree slots spent in the background graph, including any
                      end-of-run bump used to absorb leftover points
    internal_degree   community slots that stayed fully internal after the
                      per-community split

    community_degree + background_degree == degree except for bumped nodes,
    where the sum exceeds degree by exactly 1.  Each is an int32 array of length n.
    When no singleton edge is drawn (q_1 = 0, the default), ``degree`` is
    ``sampled_degree`` itself, one array: an in-place edit of one is seen in both.
    """

    sampled_degree: np.ndarray
    degree: np.ndarray
    community_degree: np.ndarray
    background_degree: np.ndarray
    internal_degree: np.ndarray


@dataclass
class CommunityAssignment:
    """Ground-truth partition: sizes (non-increasing) and per-node community index."""

    sizes: np.ndarray      # int32, sorted non-increasing
    member_of: np.ndarray  # int32, community index per node

    @property
    def community_count(self) -> int:
        return len(self.sizes)

    def groups(self) -> list[np.ndarray]:
        """Node ids of each community, index-aligned with ``sizes``."""
        k = len(self.sizes)
        # numpy's stable argsort is a radix sort for 1- and 2-byte labels
        labels = self.member_of.astype(np.min_scalar_type(max(k - 1, 0)))
        order = np.argsort(labels, kind="stable")
        bounds = np.zeros(k + 1, dtype=np.intp)
        np.cumsum(np.bincount(labels, minlength=k), out=bounds[1:])
        return [order[bounds[j]: bounds[j + 1]] for j in range(k)]


@dataclass
class GenerationResult:
    """Everything produced by one generator run."""

    hypergraph: Hypergraph
    assignment: CommunityAssignment
    profiles: DegreeProfiles
    timings: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
