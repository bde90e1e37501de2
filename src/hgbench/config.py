"""Parameter records for the generator: validation and edge-composition weights.

A generated hypergraph is controlled by a power-law degree sequence
(gamma, min_degree, max_degree), a power-law community size sequence
(beta, min_size, max_size), a noise level xi giving the fraction of each
node's degree spent on the background graph, a distribution q over edge
sizes 1..max_edge_size (q[d-1] is the fraction of total volume carried by
size-d edges), and a weight matrix w describing how strongly community
edges of size d concentrate their members inside the community.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, ParameterIssue

# Probability vectors may be off by at most this much before being rejected;
# anything within the tolerance is renormalized exactly at use time.
PROB_TOL = 1e-9

WEIGHT_MODELS = ("majority", "linear", "strict")

# Node ids are stored as int32.
MAX_N = 2**31 - 1


def lowest_majority_count(d: int) -> int:
    """Smallest member count that forms a strict majority of a size-d edge."""
    return d // 2 + 1


@dataclass
class WeightMatrix:
    """Per-size weights w[c, d] over majority member counts c of size-d edges.

    Entries are defined for 1 <= d <= max_edge_size and
    lowest_majority_count(d) <= c <= d; each such row must sum to 1.
    Stored densely with zeros outside the admissible triangle.
    """

    max_edge_size: int
    values: np.ndarray  # shape (max_edge_size + 1, max_edge_size + 1), [c, d]

    def row(self, d: int) -> np.ndarray:
        """Weights for size d, indexed c = lowest_majority_count(d) .. d."""
        return self.values[lowest_majority_count(d): d + 1, d]

    def normalized(self) -> "WeightMatrix":
        """Copy with every admissible row rescaled to sum exactly 1."""
        out = WeightMatrix(self.max_edge_size, self.values.copy())
        for d in range(1, self.max_edge_size + 1):
            row = out.row(d)
            total = row.sum()
            if total > 0:
                row /= total
        return out

    @classmethod
    def from_entries(cls, max_edge_size: int, entries: dict[tuple[int, int], float]) -> "WeightMatrix":
        """Build from a {(c, d): weight} mapping; entries outside the triangle are rejected."""
        values = np.zeros((max_edge_size + 1, max_edge_size + 1))
        for (c, d), w in entries.items():
            if not (1 <= d <= max_edge_size) or not (lowest_majority_count(d) <= c <= d):
                raise InvalidParameters([ParameterIssue(
                    "w", (c, d), "weight outside the admissible (c, d) triangle")])
            values[c, d] = w
        return cls(max_edge_size, values)


def _triangle(max_edge_size: int) -> np.ndarray:
    """Mask of the admissible cells lowest_majority_count(d) <= c <= d on the dense [c, d] grid."""
    c, d = np.indices((max_edge_size + 1, max_edge_size + 1))
    return (lowest_majority_count(d) <= c) & (c <= d)


def _weight_family(model_name: str, field: str, max_edge_size: int, formulas: dict) -> WeightMatrix:
    """formulas[model_name](c, d, lo, k) on the admissible triangle and zero elsewhere, with
    lo = lowest_majority_count(d) and k = d - lo + 1; an unknown name is reported as ``field``."""
    if model_name not in WEIGHT_MODELS:
        raise InvalidParameters([ParameterIssue(
            field, model_name, f"unknown model, expected one of {WEIGHT_MODELS}")])
    tri = _triangle(max_edge_size)
    c, d = np.nonzero(tri)
    lo = lowest_majority_count(d)
    values = np.zeros(tri.shape)
    values[c, d] = formulas[model_name](c, d, lo, d - lo + 1)
    return WeightMatrix(max_edge_size, values)


def build_weight_matrix(model_name: str, max_edge_size: int) -> WeightMatrix:
    """Construct one of the three standard weight matrices.

    majority: uniform over all strict-majority counts c.
    linear:   weight grows linearly with c.
    strict:   all weight on c = d (edges fully inside their community).
    """
    return _weight_family(model_name, "w_model", max_edge_size, {
        "majority": lambda c, d, lo, k: 1.0 / k,
        "linear": lambda c, d, lo, k: 2.0 * c / ((d + lo) * k),
        "strict": lambda c, d, lo, k: np.where(c == d, 1.0, 0.0),
    })


def modularity_weights(model_name: str, max_edge_size: int) -> WeightMatrix:
    """Construct the per-type valuation matrix used by the modularity score.

    Unlike the generation weights, these rows are valuations, not sampling
    probabilities, and do not sum to 1:

    majority: every strict-majority count is worth 1.
    linear:   a count of c out of d is worth c / d.
    strict:   only fully homogeneous edges (c = d) are worth 1.
    """
    return _weight_family(model_name, "u_model", max_edge_size, {
        "majority": lambda c, d, lo, k: 1.0,
        "linear": lambda c, d, lo, k: c / d,
        "strict": lambda c, d, lo, k: np.where(c == d, 1.0, 0.0),
    })


@dataclass(frozen=True)
class GeneratorParams:
    """Full parameter set for one generated hypergraph."""

    n: int
    gamma: float
    min_degree: int
    max_degree: int
    beta: float
    min_size: int
    max_size: int
    xi: float
    max_edge_size: int
    q: tuple[float, ...]
    w: WeightMatrix
    simple: bool = True
    seed: int = 0

    def normalized_q(self) -> np.ndarray:
        """Edge-size distribution rescaled to sum exactly 1 (index d-1 for size d)."""
        arr = np.asarray(self.q, dtype=float)
        return arr / arr.sum()


def default_q(max_edge_size: int) -> tuple[float, ...]:
    """Default edge-size shares: none on size 1, equal on sizes 2..L; (1.0,) when L = 1."""
    if max_edge_size == 1:
        return (1.0,)
    return (0.0,) + (1.0 / (max_edge_size - 1),) * (max_edge_size - 1)


def default_params(n: int, seed: int = 0, **overrides) -> GeneratorParams:
    """Reference parameterization used by the command line when a setting is omitted.

    Degrees follow exponent 2.5 on [5, floor(n**0.5)], community sizes follow
    exponent 1.5 on [50, floor(n**0.75)], noise 0.2, sizes 2..5 equally
    weighted by volume (``default_q`` of the size cap), majority weights,
    simple output.
    """
    base = dict(
        n=n,
        gamma=2.5,
        min_degree=5,
        max_degree=int(n ** 0.5),
        beta=1.5,
        min_size=50,
        max_size=int(n ** 0.75),
        xi=0.2,
        max_edge_size=5,
        simple=True,
        seed=seed,
    )
    base.update(overrides)
    base.setdefault("q", default_q(base["max_edge_size"]))
    if "w" not in base:
        base["w"] = build_weight_matrix("majority", base["max_edge_size"])
    return GeneratorParams(**base)


def _check_int(issues: list[ParameterIssue], name: str, value, minimum: int | None = None) -> bool:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        issues.append(ParameterIssue(name, value, "must be an integer"))
        return False
    if minimum is not None and value < minimum:
        issues.append(ParameterIssue(name, value, f"must be >= {minimum}"))
        return False
    return True


def validate(params: GeneratorParams) -> None:
    """Check every parameter constraint; raise InvalidParameters listing all violations.

    Never mutates ``params``. Emits a warning (not an error) when
    max_degree exceeds max_size, since a node of such degree may still be
    placeable once its background share is carved off.
    """
    issues: list[ParameterIssue] = []
    p = params

    n_ok = _check_int(issues, "n", p.n, 1)
    if n_ok and p.n > MAX_N:
        issues.append(ParameterIssue("n", p.n, f"must be <= {MAX_N}, the largest int32 node id"))
        n_ok = False
    if not np.isfinite(p.gamma) or p.gamma <= 0:
        issues.append(ParameterIssue("gamma", p.gamma, "must be a positive real"))
    if not np.isfinite(p.beta) or p.beta <= 0:
        issues.append(ParameterIssue("beta", p.beta, "must be a positive real"))

    dmin_ok = _check_int(issues, "min_degree", p.min_degree, 1)
    dmax_ok = _check_int(issues, "max_degree", p.max_degree, 1)
    if dmin_ok and dmax_ok:
        if p.max_degree < p.min_degree:
            issues.append(ParameterIssue("max_degree", p.max_degree, "must be >= min_degree"))
        if n_ok and p.max_degree > p.n:
            issues.append(ParameterIssue("max_degree", p.max_degree, "must be <= n"))

    smin_ok = _check_int(issues, "min_size", p.min_size, 1)
    smax_ok = _check_int(issues, "max_size", p.max_size, 1)
    if smin_ok and dmin_ok and p.min_size < p.min_degree + 1:
        issues.append(ParameterIssue("min_size", p.min_size, "must be >= min_degree + 1"))
    if smin_ok and smax_ok:
        if p.max_size < p.min_size:
            issues.append(ParameterIssue("max_size", p.max_size, "must be >= min_size"))
        if n_ok and p.max_size > p.n:
            issues.append(ParameterIssue("max_size", p.max_size, "must be <= n"))

    if not np.isfinite(p.xi) or not (0.0 <= p.xi <= 1.0):
        issues.append(ParameterIssue("xi", p.xi, "must lie in [0, 1]"))

    l_ok = _check_int(issues, "max_edge_size", p.max_edge_size, 1)
    if l_ok:
        if len(p.q) != p.max_edge_size:
            issues.append(ParameterIssue("q", p.q, f"must have exactly max_edge_size={p.max_edge_size} entries"))
        else:
            qa = np.asarray(p.q, dtype=float)
            if np.any(~np.isfinite(qa)) or np.any(qa < 0) or np.any(qa > 1):
                issues.append(ParameterIssue("q", p.q, "entries must lie in [0, 1]"))
            elif abs(qa.sum() - 1.0) > PROB_TOL:
                issues.append(ParameterIssue("q", p.q, f"entries must sum to 1 within {PROB_TOL}"))

    if not isinstance(p.w, WeightMatrix):
        issues.append(ParameterIssue("w", p.w, "must be a WeightMatrix"))
    elif l_ok:
        if p.w.max_edge_size != p.max_edge_size:
            issues.append(ParameterIssue("w", p.w.max_edge_size, "weight matrix size must equal max_edge_size"))
        else:
            vals = p.w.values
            if np.any(~np.isfinite(vals)) or np.any(vals < 0) or np.any(vals > 1):
                issues.append(ParameterIssue("w", None, "weights must lie in [0, 1]"))
            else:
                if np.any(vals[~_triangle(p.max_edge_size)] != 0):
                    issues.append(ParameterIssue("w", None, "nonzero weight outside the admissible (c, d) triangle"))
                for d in range(1, p.max_edge_size + 1):
                    if abs(p.w.row(d).sum() - 1.0) > PROB_TOL:
                        issues.append(ParameterIssue("w", d, f"weights for size {d} must sum to 1 within {PROB_TOL}"))

    if not isinstance(p.simple, bool):
        issues.append(ParameterIssue("simple", p.simple, "must be a bool"))
    _check_int(issues, "seed", p.seed, 0)

    if issues:
        raise InvalidParameters(issues)

    if p.max_degree > p.max_size:
        warnings.warn(
            f"max_degree={p.max_degree} exceeds max_size={p.max_size}; "
            "high-degree nodes rely on their background share to fit in a community",
            stacklevel=2,
        )

