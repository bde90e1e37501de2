"""Repair pass turning the raw hypergraph into a simple one.

Generation fills member slots independently, so an edge can hit the same node
twice and two edges of one size can coincide.  The repair loop merges each
defective edge with an intact partner, reshuffles the union of their slots,
and keeps the re-split only when it strictly lowers the total defect score.

The partner comes from the defective edge's own origin: its community, or the
background.  Slots then move only between edges built for one community, so a
repair does not carry the nodes of one community into another's edges.
Only after repeated rejections does the draw widen, first to background edges
and then to all edges, because a small community cannot always absorb a
repeated node.  ABCD (Kamiński, Prałat & Théberge 2021) repairs the same way:
inside each community graph first, then in the background.

Everything operates in place on the member array: edge sizes, and therefore
offsets, never change, and per-node incidence counts are preserved exactly.
"""
from __future__ import annotations

import struct
from collections import deque

import numpy as np

from .errors import UnrepairableError
from .structures import ORIGIN_BACKGROUND, ORIGIN_SINGLETON, Hypergraph

BUDGET_PER_BAD = 100
WIDEN_AFTER = 8  # rejections of one defective edge before its partner draw widens

_MULT = 0x9E3779B97F4A7C15
_WRAP = 1 << 64


def _hash_rows(rows: np.ndarray) -> np.ndarray:
    """Rolling hash of each row of a 2-D int array: uint64 arithmetic, read as int64."""
    mult = np.uint64(_MULT)
    acc = np.zeros(len(rows), dtype=np.uint64)
    for col in range(rows.shape[1]):
        acc = acc * mult + rows[:, col].astype(np.uint64) + np.uint64(1)
    return acc.view(np.int64)


def _hash_row(row) -> int:
    """``_hash_rows`` of a single row, in Python integers."""
    acc = 0
    for x in row:
        acc = (acc * _MULT + int(x) + 1) % _WRAP
    return acc - _WRAP if acc >= _WRAP >> 1 else acc


def _sorted_distinct(rows: np.ndarray, hashes: np.ndarray, order: np.ndarray):
    """Collapse each run of equal rows in ``order`` to the row's first position.

    Returns those positions and whether two different rows were left next to
    each other with equal hashes, in which case equal rows may sit apart.
    """
    h, r = hashes[order], rows[order]
    same_hash = h[1:] == h[:-1]
    later = np.zeros(len(order), dtype=bool)
    later[1:] = same_hash & (r[1:] == r[:-1]).all(axis=1)
    starts = np.flatnonzero(~later)
    first = np.minimum.reduceat(order, starts) if len(order) else order
    return first, bool(same_hash.sum() > later.sum())


class SizeClassIndex:
    """Exact membership over the intact edges of one size class.

    A snapshot of the distinct rows, sorted by hash, answers lookups by binary
    search; every hash hit is checked against the row itself, so a collision
    costs a comparison, never a wrong answer.  Rows added or removed later
    are tallied by their int32 bytes in ``delta``.  ``kept`` holds the
    positions, among the rows given, of the first copy of each distinct row.
    """

    def __init__(self, rows: np.ndarray):
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        hashes = _hash_rows(rows)
        self.kept, collided = _sorted_distinct(rows, hashes, np.argsort(hashes))
        if collided:
            # equal rows may sit apart inside a run of equal hashes
            self.kept, _ = _sorted_distinct(
                rows, hashes, np.lexsort((*rows.T[::-1], hashes)))
        self.hashes = hashes[self.kept]
        self.rows = rows[self.kept]
        self.pack = struct.Struct(f"{rows.shape[1]}i").pack
        self.delta: dict[bytes, int] = {}

    def contains(self, row) -> bool:
        key = self.pack(*row)
        count = self.delta.get(key, 0)
        h = _hash_row(row)
        pos = int(self.hashes.searchsorted(h))
        while pos < len(self.hashes) and self.hashes.item(pos) == h:
            if self.rows[pos].tobytes() == key:
                count += 1
                break
            pos += 1
        return count > 0

    def shift(self, key: bytes, step: int) -> None:
        """Add (+1) or remove (-1) one occurrence of a row, by its bytes."""
        self.delta[key] = self.delta.get(key, 0) + step


class _OriginPools:
    """Intact edge ids grouped by origin; uniform sampling with removal.

    Group k holds the edges of origin ``k + ORIGIN_SINGLETON`` (singletons,
    background, then one group per community) in
    ``ids[start[k]: start[k] + live[k]]``.  Each group's slice has room for
    all of its edges, so putting an edge back never overflows.
    """

    BACKGROUND = ORIGIN_BACKGROUND - ORIGIN_SINGLETON

    def __init__(self, origins: np.ndarray, bad: np.ndarray):
        self.group = origins.astype(np.int64) - ORIGIN_SINGLETON
        self.ids = np.lexsort((bad, self.group))
        counts = np.bincount(self.group, minlength=self.BACKGROUND + 1)
        self.start = (np.cumsum(counts) - counts).tolist()
        self.live = np.bincount(self.group[~bad], minlength=len(counts)).tolist()
        self.total = sum(self.live)

    def pick_out(self, rng: np.random.Generator, edge: int, level: int) -> int:
        """Remove and return a partner for ``edge``: from its own group at
        level 0, from the background at level 1, from all groups above that;
        an empty group passes the draw on to the next level."""
        u = rng.random()
        own = int(self.group[edge])
        if level == 0 and self.live[own]:
            k, size = own, self.live[own]
        elif level <= 1 and self.live[self.BACKGROUND]:
            k, size = self.BACKGROUND, self.live[self.BACKGROUND]
        elif self.total:
            k, size = None, self.total
        else:
            raise UnrepairableError(
                "no intact edge left to merge with while defective edges remain")
        pos = min(int(u * size), size - 1)
        if k is None:
            for k, size in enumerate(self.live):
                if pos < size:
                    break
                pos -= size
        self.live[k] -= 1
        self.total -= 1
        last = self.start[k] + self.live[k]
        pos += self.start[k]
        val = int(self.ids[pos])
        self.ids[pos] = self.ids[last]
        return val

    def put(self, edge: int) -> None:
        k = int(self.group[edge])
        self.ids[self.start[k] + self.live[k]] = edge
        self.live[k] += 1
        self.total += 1


def indisposition(row, index: SizeClassIndex) -> int:
    """Defect score: repeated slots plus a collision with an intact edge.

    ``row`` must be sorted.  An intact pool never holds rows with repeats, so
    the collision term can only fire when the repeat count is zero.
    """
    dup = len(row) - len(set(row))
    if dup:
        return dup
    return 1 if index.contains(row) else 0


def _classify(hg: Hypergraph):
    """Flag defective edges and build per-size membership indexes of the intact ones.

    An edge is defective when it repeats a node or equals an earlier edge of
    its size; the first of several equal edges stays intact.  Generation
    makes no empty edge, and the repair cannot change one, so one is refused.
    """
    if not hg.sizes().all():
        raise ValueError("cannot repair a hypergraph with an empty edge")
    classes: dict[int, SizeClassIndex] = {}
    bad = np.ones(hg.edge_count, dtype=bool)
    for d, slots in hg.size_classes():
        cols = hg.members[slots]   # column i: the i-th size-d edge, sorted
        idx = np.searchsorted(hg.offsets, slots[0])   # offsets strictly increase
        keep = np.flatnonzero((cols[1:] != cols[:-1]).all(axis=0))
        classes[d] = SizeClassIndex(cols[:, keep].T)
        bad[idx[keep[classes[d].kept]]] = False
    return classes, bad


def rewire(hg: Hypergraph, rng: np.random.Generator) -> int:
    """Repair the hypergraph in place; returns how many defective edges remain.

    Defective edges are processed in a queue; each attempt merges the front
    defective edge with an intact partner of the same origin (its community,
    or the background), shuffles the union of their member slots, re-splits
    into the original two sizes, and accepts only if the two results score
    strictly below the defective edge alone.  Rejected attempts leave both
    edges as they were and re-queue the defective one.  After ``WIDEN_AFTER``
    rejections of one edge its partner comes from the background, and after
    twice that many from all intact edges.  The loop runs at most
    ``BUDGET_PER_BAD`` times the initial queue length; a nonzero return means
    the budget ran out.  Member slots within each edge stay sorted throughout.

    Raises UnrepairableError when no intact edge is available to merge with,
    and ValueError when an edge is empty.
    """
    classes, bad_mask = _classify(hg)
    bad = deque(np.flatnonzero(bad_mask).tolist())
    if not bad:
        return 0
    pools = _OriginPools(hg.origins, bad_mask)
    rejections: dict[int, int] = {}
    budget = BUDGET_PER_BAD * len(bad)
    offsets = hg.offsets
    members = hg.members

    steps = 0
    while bad and steps < budget:
        steps += 1
        b = bad.popleft()
        b0, b1 = int(offsets[b]), int(offsets[b + 1])
        row_b = members[b0:b1].tolist()
        bcls = classes[b1 - b0]
        ib = indisposition(row_b, bcls)
        if ib == 0:
            # a former duplicate whose counterpart has since changed
            bcls.shift(bcls.pack(*row_b), +1)
            pools.put(b)
            rejections.pop(b, None)
            continue
        g = pools.pick_out(rng, b, rejections.get(b, 0) // WIDEN_AFTER)
        g0, g1 = int(offsets[g]), int(offsets[g + 1])
        row_g = members[g0:g1].tolist()
        gcls = classes[g1 - g0]
        key_g = gcls.pack(*row_g)
        gcls.shift(key_g, -1)

        merged = row_b + row_g
        rng.shuffle(merged)
        new_b = sorted(merged[: b1 - b0])
        new_g = sorted(merged[b1 - b0:])
        i1 = indisposition(new_b, bcls)
        if i1 == 0:
            key_b = bcls.pack(*new_b)
            bcls.shift(key_b, +1)
        i2 = indisposition(new_g, gcls)

        if i1 + i2 < ib:
            members[b0:b1] = new_b
            members[g0:g1] = new_g
            if i2 == 0:
                gcls.shift(gcls.pack(*new_g), +1)
                pools.put(g)
            else:
                bad.append(g)
            if i1 == 0:
                pools.put(b)
                rejections.pop(b, None)
            else:
                bad.append(b)
        else:
            if i1 == 0:
                bcls.shift(key_b, -1)
            gcls.shift(key_g, +1)
            pools.put(g)
            rejections[b] = rejections.get(b, 0) + 1
            bad.append(b)
    return len(bad)
