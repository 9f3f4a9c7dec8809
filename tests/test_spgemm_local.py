"""Tests for the local SpGEMM kernels (plain, masked, Bloom, SPA oracle)."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import PerfRecorder, use_recorder
from repro.semirings import BOOLEAN, MAX_PLUS, MIN_PLUS, PLUS_TIMES
from repro.sparse import (
    BLOOM_BITS,
    COOMatrix,
    CSRMatrix,
    DCSRMatrix,
    DHBMatrix,
    spgemm_local,
    spgemm_local_masked,
    spgemm_rowwise_spa,
)

from tests.conftest import dense_product, random_dense

SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_PLUS, BOOLEAN]

#: the module (``repro.sparse.spgemm_local`` the attribute is the function)
_KERNELS = sys.modules["repro.sparse.spgemm_local"]


def _dense_pair(semiring, seed, n=14, k=11, m=9, density=0.3):
    a = random_dense(n, k, density, semiring, seed=seed)
    b = random_dense(k, m, density, semiring, seed=seed + 1)
    if semiring is BOOLEAN:
        a = np.where(a != 0.0, 1.0, 0.0)
        b = np.where(b != 0.0, 1.0, 0.0)
    return a, b


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spgemm_matches_dense_reference(semiring, seed):
    a, b = _dense_pair(semiring, seed)
    result, _ = spgemm_local(
        CSRMatrix.from_dense(a, semiring),
        CSRMatrix.from_dense(b, semiring),
        semiring,
    )
    expected = dense_product(semiring, a, b)
    assert np.allclose(result.to_dense(), expected, equal_nan=True)


@pytest.mark.parametrize("left_layout", ["csr", "dcsr", "dhb", "coo"])
@pytest.mark.parametrize("right_layout", ["csr", "dcsr", "dhb"])
def test_all_operand_layout_combinations(left_layout, right_layout):
    a, b = _dense_pair(PLUS_TIMES, 3)
    makers = {
        "csr": CSRMatrix.from_dense,
        "dcsr": DCSRMatrix.from_dense,
        "dhb": DHBMatrix.from_dense,
        "coo": lambda d: CSRMatrix.from_dense(d).to_coo(),
    }
    result, _ = spgemm_local(makers[left_layout](a), makers[right_layout](b), PLUS_TIMES)
    assert np.allclose(result.to_dense(), a @ b)


# ----------------------------------------------------------------------
# one kernel: the output structure does not depend on the Bloom request
# ----------------------------------------------------------------------
LEFT_LAYOUTS = {
    "coo": lambda coo: coo,
    "csr": CSRMatrix.from_coo,
    "dcsr": DCSRMatrix.from_coo,
    "dhb": DHBMatrix.from_coo,
}


@pytest.mark.parametrize("compute_bloom", [False, True], ids=["plain", "bloom"])
@pytest.mark.parametrize("layout", sorted(LEFT_LAYOUTS))
def test_cancelling_terms_and_explicit_zeros_keep_their_entries(layout, compute_bloom):
    # row 0: [1, 1]·[2, −2]ᵀ cancels to 0.0; row 1: a stored 0.0 times 2.0
    a = COOMatrix((2, 2), [0, 0, 1], [0, 1, 0], [1.0, 1.0, 0.0])
    b = COOMatrix((2, 1), [0, 1], [0, 0], [2.0, -2.0])
    result, bloom = spgemm_local(
        LEFT_LAYOUTS[layout](a), b, PLUS_TIMES, compute_bloom=compute_bloom
    )
    assert result.rows.tolist() == [0, 1]
    assert result.cols.tolist() == [0, 0]
    assert result.values.tolist() == [0.0, 0.0]
    if compute_bloom:
        assert bloom.to_arrays()[2].tolist() == [0b11, 0b01]
    else:
        assert bloom is None


@pytest.mark.parametrize("bound", [1 << 20, 1 << 62], ids=["packed", "argsort"])
def test_term_sort_is_the_stable_argsort(bound):
    keys = np.random.default_rng(3).integers(0, 50, 5000)  # many ties
    order, sorted_keys = _KERNELS._stable_sort(keys, bound)
    want = np.argsort(keys, kind="stable")
    assert np.array_equal(order, want)
    assert np.array_equal(sorted_keys, keys[want])


@pytest.mark.parametrize("compute_bloom", [False, True], ids=["plain", "bloom"])
def test_product_whose_keys_need_62_bits(compute_bloom):
    # (2^31 x 4)·(4 x 2^31): row·m + col does not leave room to pack a position
    n = 1 << 31
    a = DCSRMatrix.from_coo(COOMatrix((n, 4), [5, 5, n - 1], [1, 2, 1], [1.0, 2.0, 3.0]))
    b = DCSRMatrix.from_coo(COOMatrix((4, n), [1, 1, 2], [0, n - 1, n - 1], [10.0, 20.0, 30.0]))
    result, bloom = spgemm_local(a, b, PLUS_TIMES, compute_bloom=compute_bloom)
    assert result.rows.tolist() == [5, 5, n - 1, n - 1]
    assert result.cols.tolist() == [0, n - 1, 0, n - 1]
    assert result.values.tolist() == [10.0, 80.0, 30.0, 60.0]
    if compute_bloom:
        assert bloom.to_arrays()[2].tolist() == [0b010, 0b110, 0b010, 0b010]


@pytest.mark.parametrize("compute_bloom", [False, True], ids=["plain", "bloom"])
def test_plus_times_counts_every_term(compute_bloom):
    a, b = _dense_pair(PLUS_TIMES, 5)
    rec = PerfRecorder()
    with use_recorder(rec):
        result, _ = spgemm_local(
            CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES,
            compute_bloom=compute_bloom,
        )
    # a_ik meets every stored entry of B's row k
    terms = int(((a != 0).astype(int) @ (b != 0).astype(int)).sum())
    assert rec.counters["spgemm.rowwise_calls"] == 1
    assert rec.counters["spgemm.terms"] == terms > 0
    assert rec.counters["spgemm.output_nnz"] == result.nnz
    assert rec.counters["spgemm.rows"] == np.unique(result.rows).size


def test_shape_mismatch_raises():
    a = CSRMatrix.from_dense(np.ones((3, 4)))
    b = CSRMatrix.from_dense(np.ones((5, 2)))
    with pytest.raises(ValueError, match="inner dimensions"):
        spgemm_local(a, b, PLUS_TIMES)


def test_empty_operands_give_empty_result():
    a = CSRMatrix.empty((4, 5))
    b = CSRMatrix.from_dense(np.ones((5, 3)))
    result, _ = spgemm_local(a, b, PLUS_TIMES)
    assert result.nnz == 0
    assert result.shape == (4, 3)


@pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS], ids=lambda s: s.name)
def test_spa_reference_agrees_with_vectorised_kernel(semiring):
    a, b = _dense_pair(semiring, 13)
    vec, _ = spgemm_local(
        CSRMatrix.from_dense(a, semiring),
        CSRMatrix.from_dense(b, semiring),
        semiring,
    )
    spa = spgemm_rowwise_spa(
        CSRMatrix.from_dense(a, semiring), CSRMatrix.from_dense(b, semiring), semiring
    )
    assert np.allclose(vec.to_dense(), spa.to_dense(), equal_nan=True)


# ----------------------------------------------------------------------
# Bloom filters
# ----------------------------------------------------------------------
def test_bloom_bits_cover_all_contributing_inner_indices():
    a, b = _dense_pair(PLUS_TIMES, 17, n=10, k=10, m=10, density=0.35)
    result, bloom = spgemm_local(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, compute_bloom=True
    )
    assert bloom is not None
    # for every output entry, every truly contributing k must be admitted
    for i, j in zip(result.rows, result.cols):
        contributing = [k for k in range(10) if a[i, k] != 0 and b[k, j] != 0]
        bits = bloom.get(int(i), int(j))
        for k in contributing:
            assert (bits >> (k % BLOOM_BITS)) & 1 == 1


def test_bloom_inner_offset_shifts_bits():
    a = np.zeros((2, 2))
    b = np.zeros((2, 2))
    a[0, 1] = 1.0
    b[1, 0] = 1.0
    _result, bloom0 = spgemm_local(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, compute_bloom=True
    )
    _result, bloom5 = spgemm_local(
        CSRMatrix.from_dense(a),
        CSRMatrix.from_dense(b),
        PLUS_TIMES,
        compute_bloom=True,
        inner_offset=5,
    )
    assert bloom0.get(0, 0) == 1 << 1
    assert bloom5.get(0, 0) == 1 << 6


# ----------------------------------------------------------------------
# masked SpGEMM
# ----------------------------------------------------------------------
def test_masked_spgemm_only_produces_entries_inside_mask():
    a, b = _dense_pair(MIN_PLUS, 19)
    full, _ = spgemm_local(
        CSRMatrix.from_dense(a, MIN_PLUS), CSRMatrix.from_dense(b, MIN_PLUS), MIN_PLUS
    )
    # mask: a subset of the true output pattern plus some never-produced spots
    rng = np.random.default_rng(19)
    keep = rng.random(full.nnz) < 0.5
    mask = (full.rows[keep], full.cols[keep])
    masked, bloom = spgemm_local_masked(
        CSRMatrix.from_dense(a, MIN_PLUS),
        CSRMatrix.from_dense(b, MIN_PLUS),
        MIN_PLUS,
        mask,
    )
    assert bloom is not None
    allowed = np.zeros(full.shape, dtype=bool)
    allowed[mask] = True
    assert allowed[masked.rows, masked.cols].all()
    # every masked position that has contributions must be produced with the
    # same value as the unmasked product
    assert np.allclose(masked.to_dense()[allowed], full.to_dense()[allowed])


def test_masked_spgemm_empty_mask_gives_empty_result():
    a, b = _dense_pair(PLUS_TIMES, 23)
    masked, _ = spgemm_local_masked(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES,
        (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
    )
    assert masked.nnz == 0


def test_masked_spgemm_agrees_with_spa_oracle():
    a, b = _dense_pair(PLUS_TIMES, 29)
    full, _ = spgemm_local(CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES)
    pattern = (full.rows, full.cols)
    masked, _ = spgemm_local_masked(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, pattern
    )
    spa = spgemm_rowwise_spa(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, mask=pattern
    )
    assert np.allclose(masked.to_dense(), spa.to_dense())
    # with the full pattern as mask, the masked product equals the product
    assert np.allclose(masked.to_dense(), full.to_dense())


# ----------------------------------------------------------------------
# property-based: random sparse operands vs. dense reference
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    density=st.floats(0.05, 0.5),
    semiring_idx=st.integers(0, len(SEMIRINGS) - 1),
)
def test_property_spgemm_matches_dense(seed, density, semiring_idx):
    semiring = SEMIRINGS[semiring_idx]
    rng = np.random.default_rng(seed)
    n, k, m = rng.integers(1, 12, size=3)
    a = random_dense(int(n), int(k), density, semiring, seed=seed)
    b = random_dense(int(k), int(m), density, semiring, seed=seed + 1)
    result, _ = spgemm_local(
        CSRMatrix.from_dense(a, semiring),
        CSRMatrix.from_dense(b, semiring),
        semiring,
    )
    assert np.allclose(
        result.to_dense(), dense_product(semiring, a, b), equal_nan=True
    )

