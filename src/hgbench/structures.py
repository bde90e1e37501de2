"""Array-backed containers shared by generation, rewiring, metrics, and the CLI."""
from __future__ import annotations

import gc
import itertools
from dataclasses import dataclass, field

import numpy as np

# Edge origin codes (values >= 0 name the community the edge was built for).
ORIGIN_BACKGROUND = -1
ORIGIN_SINGLETON = -2


def size_runs(offsets: np.ndarray) -> list[int]:
    """Bounds of the runs of consecutive equal-size edges: run j holds edges
    ``runs[j]`` to ``runs[j+1] - 1``."""
    sizes = np.diff(offsets)
    bounds = np.flatnonzero(sizes[1:] != sizes[:-1]) + 1
    return [0, *bounds.tolist(), len(sizes)] if len(sizes) else []


def member_lists(members: np.ndarray, offsets: np.ndarray) -> list[list[int]]:
    """``members[offsets[i]:offsets[i+1]]`` as a list of Python ints, per edge i.

    Each run of equal-size edges comes out of one 2-D ``tolist``.  The lists
    hold only ints, so collector passes over them find nothing; the collector
    is paused while they are built, which makes building them several times
    faster.
    """
    lists: list[list[int]] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for e0, e1 in itertools.pairwise(size_runs(offsets)):
            run = members[offsets[e0]: offsets[e1]]
            lists += run.reshape(e1 - e0, offsets[e0 + 1] - offsets[e0]).tolist()
    finally:
        if enabled:
            gc.enable()
    return lists


@dataclass
class Hypergraph:
    """Hyperedges stored flat: edge i occupies members[offsets[i]:offsets[i+1]].

    Member slots within an edge are kept sorted ascending.  A slot holds a
    node id in [0, n); an edge may repeat a node (multiset) only when the
    generator runs in non-simple mode or before rewiring.
    """

    n: int
    offsets: np.ndarray   # int64, length edge_count + 1, offsets[0] == 0
    members: np.ndarray   # int32, length offsets[-1]
    origins: np.ndarray   # int32 per edge
    # arrays of the last census and of what it was taken from; see metrics.census
    _census: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    def size_classes(self) -> list[tuple[int, np.ndarray]]:
        """(d, slots) for every nonempty edge size d present, ascending.

        slots[j, i] indexes into ``members`` the j-th slot of the i-th
        size-d edge, so ``members[slots]`` holds one slot position per row.
        The blocks are int32 while the slots fit, and built anew on every call.
        """
        sizes = self.sizes()
        dtype = np.int32 if self.volume <= np.iinfo(np.int32).max else np.int64
        starts = self.offsets[:-1].astype(dtype)
        return [(int(d), starts[sizes == d] + np.arange(d, dtype=dtype)[:, None])
                for d in np.flatnonzero(np.bincount(sizes)[1:]) + 1]

    def sort_members(self) -> None:
        """Sort member slots ascending within every edge, in place.

        Each run of equal-size edges is sorted in place as one 2-D view, so
        the cost is one step per run: generated edges come in a few long
        runs, edge lists whose sizes alternate take one step per edge.
        """
        offsets = self.offsets
        for e0, e1 in itertools.pairwise(size_runs(offsets)):
            d = offsets[e0 + 1] - offsets[e0]
            self.members[offsets[e0]: offsets[e1]].reshape(e1 - e0, d).sort(axis=1)

    @classmethod
    def from_sizes(cls, n: int, sizes: np.ndarray, members: np.ndarray,
                   origins: np.ndarray) -> "Hypergraph":
        """Hypergraph from edge sizes, their member slots laid end to end in
        edge order, and one origin per edge; members are sorted within each
        edge.

        The hypergraph takes ownership of ``members`` and ``origins`` when
        they are already int32: it keeps them without a copy and sorts
        ``members`` in place.  Pass copies to keep the originals.
        """
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        offsets[1:] = sizes  # summed in place: no int64 copy of narrow sizes
        np.cumsum(offsets[1:], out=offsets[1:])
        hg = cls(n, offsets, np.asarray(members, dtype=np.int32),
                 np.asarray(origins, dtype=np.int32))
        hg.sort_members()
        return hg

    @classmethod
    def from_edge_lists(cls, n: int, edges) -> "Hypergraph":
        """Background edges from member-id lists in any order; stored sorted."""
        sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
        members = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int32,
                              count=int(sizes.sum()))
        return cls.from_sizes(n, sizes, members, np.full(len(edges), ORIGIN_BACKGROUND))


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
    where the sum exceeds degree by exactly 1.
    """

    sampled_degree: np.ndarray
    degree: np.ndarray
    community_degree: np.ndarray
    background_degree: np.ndarray
    internal_degree: np.ndarray


@dataclass
class CommunityAssignment:
    """Ground-truth partition: sizes (non-increasing) and per-node community index."""

    sizes: np.ndarray      # int64, sorted non-increasing
    member_of: np.ndarray  # int32, community index per node

    @property
    def community_count(self) -> int:
        return len(self.sizes)

    def groups(self) -> list[np.ndarray]:
        """Node ids of each community, index-aligned with ``sizes``."""
        order = np.argsort(self.member_of, kind="stable")
        bounds = np.searchsorted(self.member_of[order], np.arange(len(self.sizes) + 1))
        return [order[bounds[j]: bounds[j + 1]] for j in range(len(self.sizes))]


@dataclass
class GenerationResult:
    """Everything produced by one generator run."""

    hypergraph: Hypergraph
    assignment: CommunityAssignment
    profiles: DegreeProfiles
    timings: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
