"""Unit and property tests for the semiring substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semirings import (
    BOOLEAN,
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    PLUS_TIMES,
    REGISTRY,
    Semiring,
    get_semiring,
    list_semirings,
)

from tests.conftest import dense_product

ALL_SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_PLUS, BOOLEAN, MAX_MIN, MAX_TIMES]


def _elements(semiring: Semiring):
    """A hypothesis strategy of valid, finite-ish semiring elements."""
    if semiring.name == "boolean":
        return st.sampled_from([0.0, 1.0])
    return st.floats(min_value=0.001, max_value=100.0, allow_nan=False)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_contains_all_standard_semirings():
    assert set(list_semirings()) == {sr.name for sr in ALL_SEMIRINGS}
    for sr in ALL_SEMIRINGS:
        assert get_semiring(sr.name) is sr


def test_get_semiring_unknown_name_raises():
    with pytest.raises(KeyError, match="unknown semiring"):
        get_semiring("does_not_exist")


def test_registry_is_consistent_with_module_constant():
    assert REGISTRY == {sr.name: sr for sr in ALL_SEMIRINGS}


# ----------------------------------------------------------------------
# axioms (property-based)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_additive_identity_and_commutativity(semiring, data):
    a = data.draw(_elements(semiring))
    b = data.draw(_elements(semiring))
    assert semiring.plus(a, semiring.zero) == pytest.approx(a)
    assert semiring.plus(semiring.zero, a) == pytest.approx(a)
    assert semiring.plus(a, b) == pytest.approx(semiring.plus(b, a))


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_multiplicative_identity_and_annihilation(semiring, data):
    a = data.draw(_elements(semiring))
    assert semiring.times(a, semiring.one) == pytest.approx(a)
    assert semiring.times(semiring.one, a) == pytest.approx(a)
    zero_prod = semiring.times(a, semiring.zero)
    assert semiring.is_zero(zero_prod)


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_distributivity(semiring, data):
    a = data.draw(_elements(semiring))
    b = data.draw(_elements(semiring))
    c = data.draw(_elements(semiring))
    lhs = semiring.times(a, semiring.plus(b, c))
    rhs = semiring.plus(semiring.times(a, b), semiring.times(a, c))
    assert lhs == pytest.approx(rhs)


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_associativity(semiring, data):
    a = data.draw(_elements(semiring))
    b = data.draw(_elements(semiring))
    c = data.draw(_elements(semiring))
    assert semiring.plus(semiring.plus(a, b), c) == pytest.approx(
        semiring.plus(a, semiring.plus(b, c))
    )
    assert semiring.times(semiring.times(a, b), c) == pytest.approx(
        semiring.times(a, semiring.times(b, c))
    )


@pytest.mark.parametrize(
    "semiring", [sr for sr in ALL_SEMIRINGS if sr.is_idempotent], ids=lambda s: s.name
)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_idempotent_addition(semiring, data):
    a = data.draw(_elements(semiring))
    assert semiring.plus(a, a) == pytest.approx(a)


# ----------------------------------------------------------------------
# vectorised helpers
# ----------------------------------------------------------------------
def test_is_zero_handles_infinite_zeros():
    assert MIN_PLUS.is_zero(np.inf)
    assert not MIN_PLUS.is_zero(-np.inf)
    assert not MIN_PLUS.is_zero(3.0)
    assert MAX_PLUS.is_zero(-np.inf)
    assert PLUS_TIMES.is_zero(0.0)
    assert not PLUS_TIMES.is_zero(1e-12) or True  # structural, not numeric


def test_zeros_and_ones_arrays():
    z = MIN_PLUS.zeros(4)
    assert np.all(np.isinf(z)) and z.shape == (4,)
    o = MIN_PLUS.ones(3)
    assert np.all(o == 0.0)


def test_add_reduce_empty_returns_zero():
    assert PLUS_TIMES.add_reduce(np.array([])) == 0.0
    assert np.isinf(MIN_PLUS.add_reduce(np.array([])))


def test_add_reduce_matches_numpy():
    values = np.array([1.0, 5.0, 2.0])
    assert PLUS_TIMES.add_reduce(values) == pytest.approx(8.0)
    assert MIN_PLUS.add_reduce(values) == pytest.approx(1.0)
    assert MAX_PLUS.add_reduce(values) == pytest.approx(5.0)


@settings(max_examples=50, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=20), min_size=0, max_size=60),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_sum_duplicates_matches_dict_model(keys, seed):
    rng = np.random.default_rng(seed)
    keys_arr = np.asarray(keys, dtype=np.int64)
    values = rng.random(len(keys))
    out_keys, out_vals = PLUS_TIMES.sum_duplicates(keys_arr, values)
    model: dict[int, float] = {}
    for k, v in zip(keys, values):
        model[k] = model.get(k, 0.0) + v
    assert list(out_keys) == sorted(model)
    for k, v in zip(out_keys, out_vals):
        assert v == pytest.approx(model[int(k)])


def test_sum_duplicates_min_plus_takes_minimum():
    keys = np.array([3, 3, 1, 3])
    values = np.array([5.0, 2.0, 7.0, 9.0])
    out_keys, out_vals = MIN_PLUS.sum_duplicates(keys, values)
    assert list(out_keys) == [1, 3]
    assert list(out_vals) == [7.0, 2.0]


# ----------------------------------------------------------------------
# dense reference kernels
# ----------------------------------------------------------------------
def test_dense_product_plus_times_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.random((5, 7))
    b = rng.random((7, 3))
    assert np.allclose(dense_product(PLUS_TIMES, a, b), a @ b)


def test_dense_product_min_plus_is_shortest_one_hop():
    inf = np.inf
    a = np.array([[0.0, 2.0, inf], [inf, 0.0, 1.0], [inf, inf, 0.0]])
    out = dense_product(MIN_PLUS, a, a)
    # path 0 -> 1 -> 2 of length 3 appears in the square
    assert out[0, 2] == pytest.approx(3.0)
    assert out[0, 1] == pytest.approx(2.0)


def test_dense_product_shape_mismatch_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        dense_product(PLUS_TIMES, np.zeros((2, 3)), np.zeros((4, 2)))


def test_coerce_returns_contiguous_float_array():
    out = PLUS_TIMES.coerce([1, 2, 3])
    assert out.dtype == np.float64
    assert out.flags["C_CONTIGUOUS"]
