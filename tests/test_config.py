"""Parameter validation and the three standard weight matrices."""
from __future__ import annotations

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgbench.config import (
    MAX_N,
    PROB_TOL,
    WEIGHT_MODELS,
    GeneratorParams,
    WeightMatrix,
    build_weight_matrix,
    default_params,
    default_q,
    lowest_majority_count,
    modularity_weights,
    validate,
)
from hgbench.errors import InvalidParameters


# Hand-derived rows for the three standard models.  For size d the
# admissible majority counts are c = d//2 + 1 .. d (there are ceil(d/2)
# of them).  majority spreads weight evenly; linear gives count c weight
# proportional to c; strict puts everything on c = d.
FROZEN_ROWS = {
    ("majority", 2): [1.0],
    ("majority", 3): [0.5, 0.5],
    ("majority", 5): [1 / 3, 1 / 3, 1 / 3],
    ("linear", 2): [1.0],
    ("linear", 3): [2 / 5, 3 / 5],
    ("linear", 5): [3 / 12, 4 / 12, 5 / 12],
    ("strict", 2): [1.0],
    ("strict", 3): [0.0, 1.0],
    ("strict", 5): [0.0, 0.0, 1.0],
}


@pytest.mark.parametrize("model,d", sorted(FROZEN_ROWS, key=str))
def test_standard_rows_match_frozen_values(model, d):
    wm = build_weight_matrix(model, 6)
    np.testing.assert_allclose(wm.row(d), FROZEN_ROWS[(model, d)], rtol=0, atol=1e-15)


@pytest.mark.parametrize("model", ["majority", "linear", "strict"])
@pytest.mark.parametrize("L", [1, 2, 3, 7, 16, 64])
def test_rows_sum_to_one(model, L):
    wm = build_weight_matrix(model, L)
    for d in range(1, L + 1):
        row = wm.row(d)
        assert len(row) == d - (d // 2 + 1) + 1
        assert abs(row.sum() - 1.0) <= 1e-12
        assert np.all(row >= 0)
    # nothing outside the admissible triangle
    for d in range(1, L + 1):
        assert np.all(wm.values[: lowest_majority_count(d), d] == 0)


def test_linear_weights_grow_linearly():
    wm = build_weight_matrix("linear", 9)
    for d in range(2, 10):
        row = wm.row(d)
        if len(row) > 1:
            diffs = np.diff(row)
            np.testing.assert_allclose(diffs, diffs[0], rtol=1e-12)


def test_unknown_model_rejected():
    with pytest.raises(InvalidParameters) as info:
        build_weight_matrix("plurality", 5)
    assert info.value.issues[0].field == "w_model"


def test_weight_families_match_their_digest():
    # every family from both builders, L = 1..16, bit for bit: the digest
    # was taken from per-cell Python loops over the admissible triangle
    digest = hashlib.sha256()
    for size in range(1, 17):
        for name in WEIGHT_MODELS:
            for build in (build_weight_matrix, modularity_weights):
                digest.update(build(name, size).values.tobytes())
    assert digest.hexdigest() == "f1b097cd373fcccc509f7f97756b076f1ea949b840188343902d11a1cf31eeba"


def test_from_entries_rejects_outside_triangle():
    with pytest.raises(InvalidParameters):
        WeightMatrix.from_entries(4, {(2, 4): 1.0})  # c=2 is not a strict majority of 4
    wm = WeightMatrix.from_entries(4, {(3, 4): 0.5, (4, 4): 0.5, (2, 2): 1.0,
                                       (2, 3): 0.5, (3, 3): 0.5, (1, 1): 1.0})
    assert wm.values[3, 4] == 0.5


def test_default_params_pass_validation():
    p = default_params(1024, seed=7)
    validate(p)  # must not raise
    assert p.max_degree == 32
    assert p.max_size == 181
    assert abs(sum(p.q) - 1.0) < 1e-15


@pytest.mark.parametrize("L", range(1, 9))
def test_default_params_validate_for_every_size_cap(L):
    p = default_params(1000, max_edge_size=L)
    validate(p)  # must not raise
    assert p.q == default_q(L) and len(p.q) == L
    assert p.q == ((1.0,) if L == 1 else (0.0,) + (1 / (L - 1),) * (L - 1))


def test_default_q_at_five_is_the_reference_q():
    # the golden digests were made with exactly these shares
    assert default_q(5) == default_params(10).q == (0.0, 0.25, 0.25, 0.25, 0.25)
    assert default_params(10, q=(0.0, 0.5, 0.5, 0.0, 0.0)).q == (0.0, 0.5, 0.5, 0.0, 0.0)


def test_validate_is_pure():
    p = default_params(1024)
    before = dataclasses.asdict(
        dataclasses.replace(p, w=None), dict_factory=dict)  # w holds an array; compare separately
    w_before = p.w.values.copy()
    try:
        validate(p)
    except InvalidParameters:
        pass
    after = dataclasses.asdict(dataclasses.replace(p, w=None), dict_factory=dict)
    assert before == after
    np.testing.assert_array_equal(w_before, p.w.values)


def test_validate_collects_all_violations():
    p = default_params(1024)
    bad = dataclasses.replace(p, xi=1.5, min_degree=0, q=(0.5, 0.5, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(InvalidParameters) as exc:
        validate(bad)
    fields = {i.field for i in exc.value.issues}
    assert {"xi", "min_degree", "q"} <= fields


@pytest.mark.parametrize("change,field", [
    (dict(min_size=5), "min_size"),            # below min_degree + 1
    (dict(max_size=49), "max_size"),           # below min_size
    (dict(max_degree=4), "max_degree"),        # below min_degree
    (dict(max_degree=2000), "max_degree"),     # above n
    (dict(q=(0.0, 0.25, 0.25, 0.25, 0.2499)), "q"),   # sum off by more than the tolerance
    (dict(gamma=-2.5), "gamma"),
    (dict(beta=0.0), "beta"),
    (dict(seed=-1), "seed"),
    (dict(n=MAX_N + 1), "n"),                  # past the int32 node ids
])
def test_validate_rejects_each_bad_field(change, field):
    p = dataclasses.replace(default_params(1024), **change)
    with pytest.raises(InvalidParameters) as exc:
        validate(p)
    assert field in {i.field for i in exc.value.issues}


OUTSIDE_TRIANGLE = default_params(1024).w.values.copy()
OUTSIDE_TRIANGLE[0, 2] = 0.5   # c = 0 is not a majority count of a size-2 edge


@pytest.mark.parametrize("change,field,message", [
    (dict(min_degree=2.5), "min_degree", "must be an integer"),
    (dict(max_size=2000), "max_size", "must be <= n"),
    (dict(q=(0.0, 1.5, -0.5, 0.0, 0.0)), "q", "entries must lie in [0, 1]"),
    (dict(w="majority"), "w", "must be a WeightMatrix"),
    (dict(w=build_weight_matrix("majority", 4)), "w", "weight matrix size must equal max_edge_size"),
    (dict(w=WeightMatrix(5, default_params(1024).w.values * 2)), "w", "weights must lie in [0, 1]"),
    (dict(w=WeightMatrix(5, OUTSIDE_TRIANGLE)), "w", "nonzero weight outside the admissible (c, d) triangle"),
    (dict(simple=1), "simple", "must be a bool"),
])
def test_validate_names_each_issue(change, field, message):
    p = dataclasses.replace(default_params(1024), **change)
    with pytest.raises(InvalidParameters) as exc:
        validate(p)
    assert [(i.field, i.message) for i in exc.value.issues] == [(field, message)]


def test_largest_int32_node_count_validates():
    validate(dataclasses.replace(default_params(1024), n=MAX_N))
    assert MAX_N == np.iinfo(np.int32).max


def test_q_within_tolerance_accepted_and_renormalized():
    p = default_params(1024)
    q = (0.0, 0.25, 0.25, 0.25, 0.25 + 0.4e-9)
    p = dataclasses.replace(p, q=q)
    validate(p)
    assert abs(p.normalized_q().sum() - 1.0) < 1e-15
    assert PROB_TOL == 1e-9


def test_degree_cap_above_size_cap_warns_not_errors():
    p = dataclasses.replace(default_params(1024), max_degree=300, max_size=200)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        validate(p)
    assert any("max_degree" in str(w.message) for w in rec)


def test_weight_matrix_row_sum_off_rejected():
    p = default_params(1024)
    vals = p.w.values.copy()
    vals[5, 5] += 1e-6
    bad = dataclasses.replace(p, w=WeightMatrix(5, vals))
    with pytest.raises(InvalidParameters) as exc:
        validate(bad)
    assert "w" in {i.field for i in exc.value.issues}


def test_normalized_rows_sum_exactly_one():
    wm = build_weight_matrix("linear", 12)
    norm = wm.normalized()
    for d in range(1, 13):
        assert norm.row(d).sum() == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=40),
    model=st.sampled_from(["majority", "linear", "strict"]),
)
def test_any_standard_matrix_validates(L, model):
    wm = build_weight_matrix(model, L)
    q = tuple(0.0 for _ in range(L - 1)) + (1.0,)
    p = GeneratorParams(
        n=4096, gamma=2.5, min_degree=5, max_degree=64, beta=1.5,
        min_size=50, max_size=512, xi=0.2, max_edge_size=L, q=q, w=wm, seed=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        validate(p)


class TestModularityWeights:
    def test_majority_values_every_majority_type_fully(self):
        u = modularity_weights("majority", 5)
        for d in range(2, 6):
            for c in range(lowest_majority_count(d), d + 1):
                assert u.values[c, d] == 1.0

    def test_linear_values_scale_with_homogeneity(self):
        u = modularity_weights("linear", 6)
        for d in range(2, 7):
            for c in range(lowest_majority_count(d), d + 1):
                assert u.values[c, d] == pytest.approx(c / d)
            assert u.values[d, d] == 1.0

    def test_strict_values_only_fully_homogeneous(self):
        u = modularity_weights("strict", 5)
        for d in range(2, 6):
            for c in range(lowest_majority_count(d), d + 1):
                assert u.values[c, d] == (1.0 if c == d else 0.0)

    def test_outside_triangle_is_zero(self):
        u = modularity_weights("majority", 5)
        assert u.values[2, 5] == 0.0
        assert u.values[1, 3] == 0.0

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameters) as info:
            modularity_weights("uniform", 5)
        assert info.value.issues[0].field == "u_model"
