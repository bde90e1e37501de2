"""Random primitives: truncated power laws, stochastic rounding, degrees, community sizes.

All sampling is driven by a single numpy Generator passed in by the caller,
so a fixed seed reproduces every draw bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import GeneratorParams
from .errors import InfeasibleError

# Candidate size vectors drawn before settling for the closest miss.
MAX_SIZE_CANDIDATES = 1000


@dataclass(eq=False)
class PowerLawTable:
    """Discrete power law on [lo, hi]: P(X = k) proportional to k**-exponent.

    Sampling inverts the precomputed cumulative table with a binary search,
    so one table amortizes over any number of draws.
    """

    lo: int
    pmf: np.ndarray
    cdf: np.ndarray
    mean: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws as an int32 array."""
        idx = np.searchsorted(self.cdf, rng.random(size), side="right")
        return np.add(idx, self.lo, out=idx).astype(np.int32)

    def ccdf(self) -> np.ndarray:
        """P(X >= k) for k = lo .. hi."""
        return self.pmf[::-1].cumsum()[::-1]


def truncated_power_law(exponent: float, lo: int, hi: int) -> PowerLawTable:
    """Build the sampling table for P(X = k) = k**-exponent / sum over [lo, hi]."""
    if not (1 <= lo <= hi):
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    support = np.arange(lo, hi + 1, dtype=float)
    weights = support ** -float(exponent)
    pmf = weights / weights.sum()
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0  # guard the top bin against accumulated rounding
    return PowerLawTable(lo, pmf, cdf, float((pmf * support).sum()))


def stochastic_round(value: float, rng: np.random.Generator) -> int:
    """Round down with probability 1 - frac(value), up with probability frac(value).

    The expectation equals ``value``; an integral value is returned unchanged.
    Always consumes exactly one uniform.
    """
    base = math.floor(value)
    return base + (rng.random() < value - base)


def stochastic_round_array(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized stochastic rounding to int32; consumes one uniform per entry."""
    base = np.floor(values)
    return (base + (rng.random(len(values)) < values - base)).astype(np.int32)


def sample_degrees(params: GeneratorParams, rng: np.random.Generator) -> np.ndarray:
    """n degrees from the truncated power law, sorted non-increasing."""
    table = truncated_power_law(params.gamma, params.min_degree, params.max_degree)
    draws = table.sample(rng, params.n)
    return np.sort(draws)[::-1].copy()


def _draw_one_candidate(n: int, table: PowerLawTable, rng: np.random.Generator):
    """Draw sizes until the running sum first reaches n; return (sizes, sum)."""
    parts = []
    acc = 0
    while acc < n:
        count = max(8, int((n - acc) / table.mean * 1.2) + 4)
        batch = table.sample(rng, count)
        running = np.cumsum(batch) + acc
        pos = int(np.searchsorted(running, n, side="left"))
        if pos < len(batch):
            parts.append(batch[: pos + 1])
            acc = int(running[pos])
        else:
            parts.append(batch)
            acc = int(running[-1])
    sizes = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return sizes, acc


def sample_community_sizes(params: GeneratorParams, rng: np.random.Generator) -> np.ndarray:
    """Community sizes in [min_size, max_size] summing exactly to n, sorted non-increasing.

    Up to MAX_SIZE_CANDIDATES candidate vectors are drawn, each extended until
    its sum first reaches n.  A candidate hitting n exactly is kept as is;
    otherwise the smallest-sum candidate is trimmed to floor(n / min_size)
    entries if overlong and then repaired by repeated passes that nudge sizes
    by one toward n, in a fresh random order each pass, never leaving
    [min_size, max_size].

    Raises InfeasibleError when no vector with entries in [min_size, max_size]
    can sum to n.
    """
    n, s, big_s = params.n, params.min_size, params.max_size
    max_count = n // s
    min_count = -(-n // big_s)
    if max_count < 1 or min_count > max_count:
        raise InfeasibleError(
            f"no community count fits: need some L with L*{s} <= {n} <= L*{big_s}")

    table = truncated_power_law(params.beta, s, big_s)
    best = None
    best_sum = None
    for _ in range(MAX_SIZE_CANDIDATES):
        sizes, total = _draw_one_candidate(n, table, rng)
        if best_sum is None or total < best_sum:
            best, best_sum = sizes, total
        if total == n:
            break

    sizes = np.asarray(best, dtype=np.int64)
    if len(sizes) * s > n:
        sizes = sizes[:max_count]
    total = int(sizes.sum())

    while total != n:
        for idx in rng.permutation(len(sizes)):
            if total == n:
                break
            if total < n:
                if sizes[idx] < big_s:
                    sizes[idx] += 1
                    total += 1
            elif sizes[idx] > s:
                sizes[idx] -= 1
                total -= 1

    return np.sort(sizes)[::-1].copy()
