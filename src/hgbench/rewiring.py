"""Repair pass turning the raw hypergraph into a simple one.

Generation fills member slots independently, so an edge can hit the same node
twice and two edges of one size can coincide.  The repair merges each
defective edge with an intact partner, reshuffles the union of their slots,
and keeps the re-split only when it strictly lowers the total defect score.
It works in rounds of array operations over all queued defective edges at
once, each with its own distinct partner (see ``rewire``).

The partner comes from the defective edge's own origin: its community, or the
background.  Slots then move only between edges built for one community, so a
repair does not carry the nodes of one community into another's edges.  Only
after repeated rejections does the draw widen, first to background edges and
then to all edges, because a small community cannot always absorb a repeated
node.  ABCD (Kamiński, Prałat & Théberge 2021) repairs the same way: as a
batch inside each community graph first, then in the background.

Everything operates in place on the member array: edge sizes, and therefore
offsets, never change, and per-node incidence counts are preserved exactly.
"""
from __future__ import annotations

import numpy as np

from .errors import UnrepairableError
from .structures import ORIGIN_BACKGROUND, ORIGIN_SINGLETON, Hypergraph

BUDGET_PER_BAD = 100
WIDEN_AFTER = 8  # rejections of one defective edge before its partner draw widens

SENTINEL = np.iinfo(np.int32).max  # fills the cells of a padded row past the edge's size
_MULT = np.uint64(0x9E3779B97F4A7C15)


def _hash_rows(rows: np.ndarray) -> np.ndarray:
    """Rolling hash of each row of a 2-D int array, skipping ``SENTINEL``
    cells: uint64 arithmetic, read as int64.  A padded row hashes like the
    bare row of its edge.  The last multiply carries the last cell into the
    high bits, which ``_pack`` keeps."""
    acc = np.zeros(len(rows), dtype=np.uint64)
    for col in rows.T:
        live = col != SENTINEL
        cell = col.astype(np.uint64)
        cell += np.uint64(1)
        np.multiply(acc, _MULT, out=acc, where=live)
        np.add(acc, cell, out=acc, where=live)
    acc *= _MULT
    return acc.view(np.int64)


def _pack(high: np.ndarray, low, bits: int) -> np.ndarray:
    """Replace the low ``bits`` of int64 ``high`` by ``low``, in place."""
    high >>= bits
    high <<= bits
    high |= low
    return high


def _rows(hg: Hypergraph, edges: np.ndarray, width: int) -> np.ndarray:
    """Member rows of ``edges`` as an int32 (len(edges), width) block,
    padded with ``SENTINEL``; sorted rows stay sorted."""
    start = hg.offsets[edges]
    cols = np.arange(width)
    live = cols < (hg.offsets[edges + 1] - start)[:, None]
    return np.where(live, hg.members[np.where(live, start[:, None] + cols, 0)], SENTINEL)


def _later_copies(rows: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """True for each row that repeats an earlier row, earlier meaning lower
    ``rank`` and then lower position; the first copy of a row stays False."""
    order = np.lexsort((rank, *rows.T[::-1]))
    later = np.zeros(len(rows), dtype=bool)
    later[order[1:]] = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
    return later


class RowTable:
    """Which edges may hold a row: sorted int64 keys, each a row hash with
    its low ``bits`` replaced by an edge id.  Every repeat-free row of the
    hypergraph when the table was built has a key, and so has every row
    written since (``add``, a small second table).  A key is only a lead:
    each hash hit is checked against that edge's current row, so a stale key
    or a hash collision costs a comparison, never a wrong answer.
    """

    def __init__(self, hg: Hypergraph, keys: np.ndarray, bits: int):
        self.hg, self.bits = hg, bits
        self.tables = [keys, keys[:0]]

    def add(self, rows: np.ndarray, edges: np.ndarray) -> None:
        keys = _pack(_hash_rows(rows), edges, self.bits)
        self.tables[1] = np.sort(np.concatenate([self.tables[1], keys]))

    def held(self, rows: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """True for each row that an edge other than its owner holds now."""
        found = np.zeros(len(rows), dtype=bool)
        wanted = _pack(_hash_rows(rows), 0, self.bits)
        order = np.argsort(wanted)   # sorted queries search the table faster
        wanted = wanted[order]
        mask = (1 << self.bits) - 1
        for keys in self.tables:
            lo = keys.searchsorted(wanted)
            hits = keys.searchsorted(wanted | mask, "right") - lo
            query = order[np.repeat(np.arange(len(rows)), hits)]
            pos = np.arange(len(query)) + np.repeat(lo - (np.cumsum(hits) - hits), hits)
            cand = keys[pos] & mask
            same = (_rows(self.hg, cand, rows.shape[1]) == rows[query]).all(axis=1)
            found[query[same & (cand != owners[query])]] = True
        return found


def indisposition(rows: np.ndarray, owners: np.ndarray, table: RowTable) -> np.ndarray:
    """Defect score of each sorted padded row: its repeated slots, or 1 when
    it has none and an edge other than its owner holds the same row."""
    score = ((rows[:, 1:] == rows[:, :-1]) & (rows[:, 1:] != SENTINEL)).sum(axis=1)
    clean = np.flatnonzero(score == 0)
    score[clean] = table.held(rows[clean], owners[clean])
    return score


def _classify(hg: Hypergraph):
    """Queue the defective edges and index the rows of the repeat-free ones;
    returns the queue, the row table and the widest edge's size.

    An edge is defective when it repeats a node or equals an earlier edge;
    the first of several equal edges stays intact.  Rows are compared only
    inside runs of equal hashes, sorted there by the rows themselves, so a
    hash collision cannot split or merge copies.  Generation makes no empty
    edge, and the repair cannot change one, so one is refused.
    """
    sizes = hg.sizes()
    if not sizes.all():
        raise ValueError("cannot repair a hypergraph with an empty edge")
    stray = np.flatnonzero(hg.origins < ORIGIN_SINGLETON)
    if len(stray):
        raise ValueError(f"edge {stray[0]} has origin {hg.origins[stray[0]]}, below {ORIGIN_SINGLETON}")
    widest = int(sizes.max(initial=0))
    sizes = sizes.astype(np.min_scalar_type(widest))   # one byte per edge while sizes fit
    bad = np.empty(hg.edge_count, dtype=bool)
    hashes = np.empty(hg.edge_count, dtype=np.int64)
    for d, rows in hg.size_classes():   # column i: the i-th size-d edge, sorted
        in_class = sizes == d
        bad[in_class] = (rows[1:] == rows[:-1]).any(axis=0)
        hashes[in_class] = _hash_rows(rows.T)
    bits = max(1, (hg.edge_count - 1).bit_length())
    keys = _pack(hashes, np.arange(hg.edge_count, dtype=np.int32), bits)[~bad]
    del hashes
    keys.sort()
    tie = np.flatnonzero(((keys[1:] ^ keys[:-1]) >> bits) == 0)
    if len(tie):
        in_tie = np.zeros(len(keys), dtype=bool)
        in_tie[tie] = in_tie[tie + 1] = True
        runs = keys[in_tie] & ((1 << bits) - 1)
        bad[runs[_later_copies(_rows(hg, runs, widest), runs)]] = True
    return np.flatnonzero(bad), RowTable(hg, keys, bits), widest


def _split(rows_b: np.ndarray, rows_g: np.ndarray, rng: np.random.Generator):
    """Shuffle each union of a row pair and re-split it into the old sizes:
    random keys, with the padding keyed last, and one ``argsort`` shuffle
    every union; its first cells go to b and the rest to g.  Both new blocks
    come back padded and sorted per row."""
    union = np.concatenate([rows_b, rows_g], axis=1)
    keys = rng.random(union.shape)
    keys[union == SENTINEL] = 2.0
    mixed = np.take_along_axis(union, np.argsort(keys, axis=1, kind="stable"), axis=1)
    width = rows_b.shape[1]
    cols = np.arange(width)
    size_b = (rows_b != SENTINEL).sum(axis=1)
    size_g = (rows_g != SENTINEL).sum(axis=1)
    new_b = np.where(cols < size_b[:, None], mixed[:, :width], SENTINEL)
    moved = np.take_along_axis(mixed, np.minimum(size_b[:, None] + cols, 2 * width - 1), axis=1)
    new_g = np.where(cols < size_g[:, None], moved, SENTINEL)
    new_b.sort(axis=1)
    new_g.sort(axis=1)
    return new_b, new_g


def rewire(hg: Hypergraph, rng: np.random.Generator) -> int:
    """Repair the hypergraph in place; returns how many defective edges remain.

    Works in rounds over the queue of defective edges; an edge is intact
    when it is not queued.  Each round:

    1. re-scores the queue; an edge whose defect has vanished (its duplicate
       counterpart changed) turns intact and draws no partner;
    2. draws one partner per queued edge from every edge of its origin, from
       the background after ``WIDEN_AFTER`` rejections, and from all edges
       after twice that many; an origin with no intact edge left passes the
       draw on.  A draw that lands on a queued edge, or on a partner taken
       earlier in the round, waits for the next round;
    3. shuffles the union of each pair's member slots and re-splits it into
       the two old sizes;
    4. accepts a proposal only if its two rows score strictly below the
       defective edge alone, and no earlier accepted proposal of the round
       writes an equal row.  Rows that change in the round still count as
       present, which can only reject a proposal, never pass a bad one.

    A rejected edge has its rejection count raised and stays queued; a
    partner left defective joins the queue.  The rounds stop when the queue is
    empty or when the draws made reach ``BUDGET_PER_BAD`` times the initial
    queue length; a nonzero return means the budget ran out.  Member slots
    within each edge stay sorted throughout.

    Raises UnrepairableError when no intact edge is available to merge with,
    and ValueError on an empty edge or an origin below ``ORIGIN_SINGLETON``.
    """
    queue, table, width = _classify(hg)
    if not len(queue):
        return 0
    groups = hg.origins - ORIGIN_SINGLETON   # singletons, background, then communities
    # edge ids ordered by group, then id.  The stable sort is fast because
    # origins come in a few long runs: generate lays out singletons, then
    # communities in ascending order, then background, and from_edge_lists
    # gives all background.  On shuffled origins it would take about 5x as
    # long as one sort of packed (group << bits | id) keys.
    order = np.argsort(groups, kind="stable")
    # rank the groups in that order, so the per-group arrays are as long as
    # the number of origins; singletons stay 0 and background 1, empty or not
    rank = groups[order]
    singletons, communities = np.searchsorted(rank, np.array([1, 2], dtype=rank.dtype)).tolist()
    rise = np.ones(len(rank), dtype=bool)   # where a community's edges start
    np.not_equal(rank[1:], rank[:-1], out=rise[1:])
    rise[:communities] = False
    rank[:] = rise
    np.cumsum(rank, out=rank)
    rank[singletons:] += 1
    groups[order] = rank
    del rank, rise
    by_group = order.astype(np.int32)
    del order
    total = np.bincount(groups, minlength=2)
    first, total = np.append(np.cumsum(total) - total, 0), np.append(total, hg.edge_count)
    background = ORIGIN_BACKGROUND - ORIGIN_SINGLETON
    rejections = np.zeros(len(queue), dtype=np.int64)
    budget, draws = BUDGET_PER_BAD * len(queue), 0

    while len(queue) and draws < budget:
        rows = _rows(hg, queue, width)
        score = indisposition(rows, queue, table)
        stale = score == 0   # a former duplicate whose counterpart has changed
        queue, rejections, rows, score = (a[~stale] for a in (queue, rejections, rows, score))
        if not len(queue):
            break
        if len(queue) == hg.edge_count:
            raise UnrepairableError(
                "no intact edge left to merge with while defective edges remain")
        draws += len(queue)

        live = total - np.bincount(groups[queue], minlength=len(total))
        level = rejections // WIDEN_AFTER
        own = groups[queue]
        pick = np.where((level == 0) & (live[own] > 0), own,  # -1: the last group, all edges
                        np.where((level <= 1) & (live[background] > 0), background, -1))
        span = total[pick]
        slot = first[pick] + np.minimum((rng.random(len(queue)) * span).astype(np.int64), span - 1)
        partner = by_group[slot].astype(np.int64)
        queued = np.zeros(hg.edge_count, dtype=bool)
        queued[queue] = True
        pairs = np.flatnonzero(~queued[partner])
        pairs = pairs[~_later_copies(partner[pairs, None], pairs)]

        b, g = queue[pairs], partner[pairs]
        new_b, new_g = _split(rows[pairs], _rows(hg, g, width), rng)
        new_score = indisposition(np.concatenate([new_b, new_g]), np.concatenate([b, g]), table)
        i1, i2 = new_score[:len(b)], new_score[len(b):]
        accept = np.flatnonzero(i1 + i2 < score[pairs])
        rank = np.tile(accept, 2)
        twice = _later_copies(np.concatenate([new_b[accept], new_g[accept]]), rank)
        repeated = np.zeros(len(b), dtype=bool)
        repeated[rank[twice]] = True
        accept = accept[~repeated[accept]]

        edges = np.concatenate([b[accept], g[accept]])
        written = np.concatenate([new_b[accept], new_g[accept]])
        filled = written != SENTINEL
        hg.members[(hg.offsets[edges][:, None] + np.arange(width))[filled]] = written[filled]
        table.add(written, edges)

        spoilt = g[accept[i2[accept] > 0]]
        mended = pairs[accept[i1[accept] == 0]]
        rejections[np.delete(pairs, accept)] += 1
        queue = np.concatenate([np.delete(queue, mended), spoilt])
        rejections = np.concatenate([np.delete(rejections, mended), np.zeros_like(spoilt)])
    return len(queue)
