"""Array-backed containers shared by generation, rewiring, metrics, and the CLI."""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Edge origin codes (values >= 0 name the community the edge was built for).
ORIGIN_BACKGROUND = -1
ORIGIN_SINGLETON = -2


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

    @property
    def edge_count(self) -> int:
        return len(self.offsets) - 1

    @property
    def volume(self) -> int:
        """Total number of member slots, i.e. the sum of edge sizes."""
        return len(self.members)

    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def edge(self, i: int) -> np.ndarray:
        """View of edge i's member slots."""
        return self.members[self.offsets[i]: self.offsets[i + 1]]

    def degrees(self) -> np.ndarray:
        """Per-node incidence count; repeated slots count with multiplicity."""
        return np.bincount(self.members, minlength=self.n)

    def edge_lists(self) -> list[list[int]]:
        return [self.edge(i).tolist() for i in range(self.edge_count)]

    def size_classes(self):
        """(d, slots) for every nonempty edge size d present, ascending.

        slots[j, i] indexes into ``members`` the j-th slot of the i-th
        size-d edge, so ``members[slots]`` holds one slot position per row.
        """
        sizes = self.sizes()
        for d in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
            d = int(d)
            yield d, self.offsets[:-1][sizes == d] + np.arange(d, dtype=np.int64)[:, None]

    def sort_members(self) -> None:
        """Sort member slots ascending within every edge, in place."""
        for d, slots in self.size_classes():
            if d > 1:
                self.members[slots] = np.sort(self.members[slots], axis=0)

    @classmethod
    def from_edge_lists(cls, n: int, edges, origins=None) -> "Hypergraph":
        """Hypergraph from member-id lists given in any order; stored sorted."""
        sizes = np.fromiter(map(len, edges), dtype=np.int64, count=len(edges))
        offsets = np.zeros(len(edges) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        members = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int32,
                              count=offsets[-1])
        if origins is None:
            origins_arr = np.full(len(edges), ORIGIN_BACKGROUND, dtype=np.int32)
        else:
            origins_arr = np.asarray(origins, dtype=np.int32)
        hg = cls(n, offsets, members, origins_arr)
        hg.sort_members()
        return hg


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

    def __len__(self) -> int:
        return len(self.sampled_degree)


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
