"""Tests for the local SpGEMM kernels (plain, masked, Bloom, SPA oracle)."""

from __future__ import annotations

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

from tests.conftest import random_dense

SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_PLUS, BOOLEAN]


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
        use_scipy=False,
    )
    expected = semiring.dense_matmul(a, b)
    assert np.allclose(result.to_dense(), expected, equal_nan=True)


def test_scipy_fast_path_matches_generic_path():
    a, b = _dense_pair(PLUS_TIMES, 7)
    fast, _ = spgemm_local(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, use_scipy=True
    )
    slow, _ = spgemm_local(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, use_scipy=False
    )
    assert np.allclose(fast.to_dense(), slow.to_dense())


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
    result, _ = spgemm_local(
        makers[left_layout](a), makers[right_layout](b), PLUS_TIMES, use_scipy=False
    )
    assert np.allclose(result.to_dense(), a @ b)


def test_shape_mismatch_raises():
    a = CSRMatrix.from_dense(np.ones((3, 4)))
    b = CSRMatrix.from_dense(np.ones((5, 2)))
    with pytest.raises(ValueError, match="inner dimensions"):
        spgemm_local(a, b, PLUS_TIMES)


def test_empty_operands_give_empty_result():
    a = CSRMatrix.empty((4, 5))
    b = CSRMatrix.from_dense(np.ones((5, 3)))
    result, _ = spgemm_local(a, b, PLUS_TIMES, use_scipy=False)
    assert result.nnz == 0
    assert result.shape == (4, 3)


@pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS], ids=lambda s: s.name)
def test_spa_reference_agrees_with_vectorised_kernel(semiring):
    a, b = _dense_pair(semiring, 13)
    vec, _ = spgemm_local(
        CSRMatrix.from_dense(a, semiring),
        CSRMatrix.from_dense(b, semiring),
        semiring,
        use_scipy=False,
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
        admitted = bloom.candidate_inner_indices(int(i), int(j), 10)
        assert set(contributing).issubset(set(admitted.tolist()))


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
    mask = COOMatrix(full.shape, full.rows[keep], full.cols[keep], full.values[keep], MIN_PLUS)
    masked, bloom = spgemm_local_masked(
        CSRMatrix.from_dense(a, MIN_PLUS),
        CSRMatrix.from_dense(b, MIN_PLUS),
        MIN_PLUS,
        mask,
    )
    assert bloom is not None
    full_dict = full.to_dict()
    masked_dict = masked.to_dict()
    allowed = set(mask.to_dict())
    assert set(masked_dict).issubset(allowed)
    # every masked position that has contributions must be produced with the
    # same value as the unmasked product
    for key in allowed:
        if key in full_dict:
            assert masked_dict[key] == pytest.approx(full_dict[key])


def test_masked_spgemm_empty_mask_gives_empty_result():
    a, b = _dense_pair(PLUS_TIMES, 23)
    masked, _ = spgemm_local_masked(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, COOMatrix.empty((14, 9))
    )
    assert masked.nnz == 0


def test_masked_spgemm_agrees_with_spa_oracle():
    a, b = _dense_pair(PLUS_TIMES, 29)
    full, _ = spgemm_local(CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES)
    masked, _ = spgemm_local_masked(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, full
    )
    spa = spgemm_rowwise_spa(
        CSRMatrix.from_dense(a), CSRMatrix.from_dense(b), PLUS_TIMES, mask=full
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
        use_scipy=False,
    )
    assert np.allclose(
        result.to_dense(), semiring.dense_matmul(a, b), equal_nan=True
    )


# ----------------------------------------------------------------------
# scipy fast-path clamping (forced use_scipy=True must stay safe)
# ----------------------------------------------------------------------
def _assert_coo_identical(a, b, *, what: str) -> None:
    assert np.array_equal(a.rows, b.rows), f"{what}: rows differ"
    assert np.array_equal(a.cols, b.cols), f"{what}: cols differ"
    assert a.values.tobytes() == b.values.tobytes(), f"{what}: values differ"


class _DuckRows:
    """Row-layout duck type with no ``to_scipy``/``to_csr`` conversion."""

    def __init__(self, csr: CSRMatrix) -> None:
        self.shape = csr.shape
        self.nnz = csr.nnz
        self._csr = csr

    def iter_rows(self):
        return self._csr.iter_rows()

    def row_arrays(self, i: int):
        return self._csr.row_arrays(i)


class TestScipyClamp:
    def test_forced_scipy_with_empty_operand_falls_back(self):
        a = CSRMatrix.from_dense(np.zeros((4, 3)))
        b = CSRMatrix.from_dense(np.ones((3, 2)))
        rec = PerfRecorder()
        with use_recorder(rec):
            result, _ = spgemm_local(a, b, PLUS_TIMES, use_scipy=True)
        assert result.nnz == 0
        assert "spgemm.scipy_calls" not in rec.counters
        assert rec.counters["spgemm.rowwise_calls"] == 1

    def test_forced_scipy_with_unconvertible_layout_falls_back(self):
        a = _DuckRows(CSRMatrix.from_dense(random_dense(5, 4, 0.5, seed=1)))
        b = CSRMatrix.from_dense(random_dense(4, 3, 0.5, seed=2))
        rec = PerfRecorder()
        with use_recorder(rec):
            result, _ = spgemm_local(a, b, PLUS_TIMES, use_scipy=True)
        ref, _ = spgemm_local(a._csr, b, PLUS_TIMES, use_scipy=False)
        _assert_coo_identical(ref, result, what="duck layout fallback")
        assert "spgemm.scipy_calls" not in rec.counters

    def test_forced_scipy_still_used_when_applicable(self):
        a = CSRMatrix.from_dense(random_dense(5, 4, 0.5, seed=3))
        b = CSRMatrix.from_dense(random_dense(4, 3, 0.5, seed=4))
        rec = PerfRecorder()
        with use_recorder(rec):
            spgemm_local(a, b, PLUS_TIMES, use_scipy=True)
        assert rec.counters["spgemm.scipy_calls"] == 1
