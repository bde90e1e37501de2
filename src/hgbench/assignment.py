"""Splitting degrees into community/background shares and placing nodes into communities.

A node with community share y and background share z fits community j only if
the expected number of majority slots its points would occupy, linear in
(y, z), stays below the number of member configurations the community offers.
The caps grow combinatorially, so they are kept in log space; the linear left
side is compared through its own log.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import GeneratorParams, lowest_majority_count
from .errors import InfeasibleError
from .sampling import stochastic_round_array
from .structures import CommunityAssignment


def split_degrees(degrees: np.ndarray, xi: float, rng: np.random.Generator):
    """Split each degree into (community, background) = (y, z), z = round(xi * degree).

    Rounding is stochastic and independent per node, so E[z] = xi * degree.
    Returns (y, z) as int32 arrays, as the degrees are.
    """
    z = stochastic_round_array(xi * degrees, rng)
    y = degrees - z
    return y, z


# log(i!) from math.lgamma for i below the table size; above it, Stirling's
# series, whose first omitted term, 1 / (1188 y**9), is below 2e-17 there.
_LOG_FACTORIAL = np.array([math.lgamma(i + 1) for i in range(32)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_factorial(x: np.ndarray) -> np.ndarray:
    """log(x!) elementwise for integer-valued float x; 0 where x < 0."""
    size = len(_LOG_FACTORIAL)
    y = np.maximum(x, size) + 1.0
    r = 1.0 / (y * y)
    series = ((y - 0.5) * np.log(y) - y + _HALF_LOG_2PI
              + (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / y)
    return np.where(x < size, _LOG_FACTORIAL[np.clip(x, 0, size - 1).astype(np.intp)], series)


def log_binomial(m, k):
    """log of (m choose k), elementwise and broadcasting; -inf outside 0 <= k <= m.

    m and k must be integer-valued, as every caller's sizes and counts are; a
    fractional argument gives a meaningless result.  Each factorial is taken
    at its own operand's shape: a (C, 1) by (1, K) call makes C + K + C * K
    evaluations, not 3 * C * K.
    """
    m = np.asarray(m, dtype=float)
    k = np.asarray(k, dtype=float)
    out = _log_factorial(m) - _log_factorial(k) - _log_factorial(m - k)
    return np.where((k < 0) | (k > m), -np.inf, out)


@dataclass(eq=False)
class FeasibilityConstants:
    """Linear admissibility bounds per community.

    Column t covers one (edge size d, majority count c) combination with
    positive size share; node (y, z) is admissible for community j iff for
    every t:  y * slope_y[j, t] + z * slope_z[j, t] <= exp(log_cap[j, t]).
    """

    pair_d: np.ndarray    # int64, edge size per column
    pair_c: np.ndarray    # int64, majority count per column
    slope_y: np.ndarray   # float64, (communities, columns)
    slope_z: np.ndarray
    log_cap: np.ndarray

    @property
    def column_count(self) -> int:
        return len(self.pair_d)


def precompute_feasibility(sizes: np.ndarray, params: GeneratorParams) -> FeasibilityConstants:
    """Build FeasibilityConstants for the given community sizes.

    Work is quadratic in max_edge_size (one column per admissible (c, d))
    and linear in the number of communities.
    """
    n = params.n
    q = params.normalized_q()
    w_norm = params.w.normalized()
    cj = np.asarray(sizes, dtype=np.int64)
    frac = cj / n
    rest = (n - cj) / n

    empty = np.zeros((len(cj), 0))  # keeps the concatenations valid with no columns
    cols_d, cols_c, a_cols, b_cols = [], [], [empty], [empty]
    for d in range(2, params.max_edge_size + 1):
        qd = q[d - 1]
        if qd == 0.0:
            continue
        lo = lowest_majority_count(d)
        counts = np.arange(lo, d + 1)
        k = len(counts)
        # core[j, ci] = sum_f w[f, d] * C(d - f, c - f) * frac_j**(c - f), via
        # shift[ci, t] = w[c - t, d] * C(d - c + t, t) so the sum becomes a product
        row = w_norm.row(d)
        shift = np.zeros((k, k))
        for ci, c in enumerate(counts):
            for t in range(ci + 1):
                shift[ci, t] = row[ci - t] * math.comb(d - c + t, t)
        powers = frac[:, None] ** np.arange(k)[None, :]
        core = powers @ shift.T
        tail = rest[:, None] ** (d - counts)[None, :]
        a_cols.append(qd * tail * core)
        b_cols.append(
            qd
            * np.array([float(math.comb(d - 1, c - 1)) for c in counts])[None, :]
            * frac[:, None] ** (counts - 1)[None, :]
            * tail
        )
        cols_d.extend([d] * k)
        cols_c.extend(counts.tolist())

    pair_d = np.asarray(cols_d, dtype=np.int64)
    pair_c = np.asarray(cols_c, dtype=np.int64)
    log_cap = (log_binomial(cj[:, None] - 1, (pair_c - 1)[None, :])
               + log_binomial((n - cj)[:, None], (pair_d - pair_c)[None, :]))
    return FeasibilityConstants(pair_d, pair_c, np.concatenate(a_cols, axis=1),
                                np.concatenate(b_cols, axis=1), log_cap)


def admissibility_table(y_vals: np.ndarray, z_vals: np.ndarray,
                        consts: FeasibilityConstants) -> np.ndarray:
    """Boolean (splits, communities) table; row u is the verdict for (y_vals[u], z_vals[u]).

    This is the memo behind node placement: each distinct (y, z) split is
    evaluated once against every community.
    """
    y_vals = np.asarray(y_vals, dtype=float)
    z_vals = np.asarray(z_vals, dtype=float)
    n_comm = consts.slope_y.shape[0]
    ok = np.ones((len(y_vals), n_comm), dtype=bool)
    with np.errstate(divide="ignore"):
        for t in range(consts.column_count):
            lhs = np.outer(y_vals, consts.slope_y[:, t]) + np.outer(z_vals, consts.slope_z[:, t])
            ok &= np.log(lhs) <= consts.log_cap[None, :, t]
    return ok


def assign_communities(y: np.ndarray, z: np.ndarray, sizes: np.ndarray,
                       consts: FeasibilityConstants,
                       rng: np.random.Generator) -> CommunityAssignment:
    """Place every node into a community, spots-proportionally among admissible ones.

    Nodes are processed in non-increasing order of y + z (ties: larger y
    first).  Each node takes one uniform draw over the free spots of the
    communities that admit it, so it lands in an admissible community with
    probability proportional to that community's free spots.

    The run of trailing nodes (in processing order) whose split admits every
    community is filled in one shot by dealing the remaining spot multiset
    uniformly, which is distributionally identical to continuing one by one.

    Raises InfeasibleError naming the first node that fits nowhere.
    """
    n = len(y)
    x = y + z
    # one stable sort by (x, y) descending; each run of equal keys is one split
    key = x.astype(np.int64) * (int(y.max()) + 1 if n else 1) + y
    order = np.argsort(-key, kind="stable")
    starts = np.diff(key[order], prepend=-1) != 0
    split = np.cumsum(starts) - 1     # split index of each node, in processing order
    firsts = order[starts]
    adm = admissibility_table(y[firsts], z[firsts], consts)

    all_ok = adm.all(axis=1)
    blocked = np.nonzero(~all_ok[split])[0]
    cut = int(blocked[-1]) + 1 if len(blocked) else 0

    spots = np.asarray(sizes, dtype=np.int64).copy()
    member_of = np.full(n, -1, dtype=np.int32)

    for node, s in zip(order[:cut], split[:cut]):
        running = np.where(adm[s], spots, 0).cumsum()   # methods skip numpy's dispatch
        if running[-1] == 0:
            raise InfeasibleError(
                f"node {node} with split (y={y[node]}, z={z[node]}) "
                "fits no community with free spots")
        placed = int(running.searchsorted(rng.random() * running[-1], side="right"))
        member_of[node] = placed
        spots[placed] -= 1

    tail = order[cut:]
    if len(tail):
        pool = np.repeat(np.arange(len(spots), dtype=np.intp), spots)
        rng.shuffle(pool)   # the draws of rng.permutation, faster on intp items
        member_of[tail] = pool

    return CommunityAssignment(np.asarray(sizes, dtype=np.int32), member_of)
