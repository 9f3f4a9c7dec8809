"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DynamicDistMatrix,
    ProcessGrid,
    SimMPI,
    StaticDistMatrix,
    UpdateBatch,
)
from repro.semirings import MIN_PLUS, PLUS_TIMES, Semiring
from repro.sparse import BLOOM_BITS, DHBMatrix
from repro.sparse.dhb import _EMPTY


def dense_product(semiring: Semiring, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense reference ``A ⊗ B`` with ⊕-accumulation.

    Cubic-time reference every sparse kernel is checked against; it is
    intentionally simple rather than fast.
    """
    A = np.asarray(A, dtype=semiring.dtype)
    B = np.asarray(B, dtype=semiring.dtype)
    n, k = A.shape
    k2, m = B.shape
    if k != k2:
        raise ValueError(f"shape mismatch for matmul: {A.shape} x {B.shape}")
    out = np.full((n, m), semiring.zero, dtype=semiring.dtype)
    for kk in range(k):
        # outer "product" of column kk of A with row kk of B
        contrib = semiring.mul(A[:, kk : kk + 1], B[kk : kk + 1, :])
        out = semiring.add(out, contrib)
    return out


def bloom_product(a: np.ndarray, b: np.ndarray) -> dict[tuple[int, int], int]:
    """Structural product of the boolean patterns ``a`` and ``b`` with its
    Bloom bits: ``(i, j)`` maps to the OR of ``1 << (k mod 64)`` over every
    inner index ``k`` with ``a[i, k]`` and ``b[k, j]``, whatever the values
    those terms would fold to."""
    bits: dict[tuple[int, int], int] = {}
    for i, k in zip(*np.nonzero(a)):
        for j in np.flatnonzero(b[k]):
            key = (int(i), int(j))
            bits[key] = bits.get(key, 0) | 1 << (int(k) % BLOOM_BITS)
    return bits


def check_dhb_invariants(mat: DHBMatrix) -> None:
    """Raise :class:`AssertionError` if a DHB block's storage and index disagree."""

    def require(ok, what: str) -> None:
        if not ok:
            raise AssertionError(f"DHBMatrix invariant broken: {what}")

    size, cap = mat._size, mat._cap
    require(np.all((0 <= size) & (size <= cap)), "0 <= size <= capacity")
    require(mat._nnz == size.sum(), "nnz == size.sum()")
    require(mat._live_cap == cap.sum(), "live capacity == capacity.sum()")
    ids = np.flatnonzero(cap)
    ids = ids[np.argsort(mat._start[ids])]
    edges = np.append(mat._start[ids], mat._end)
    require(edges.size == 1 or edges[0] >= 0, "extent before the arena")
    require(np.all(edges[:-1] + cap[ids] <= edges[1:]), "row extents overlap")
    require(mat._end <= mat._cols.size == mat._vals.size, "arena too short")
    cols = mat.flat_rows().cols
    require(np.all((0 <= cols) & (cols < mat.shape[1])), "column out of range")
    keys, slots = mat._live_keys()
    at, tkeys = mat._probe(keys), mat._tkeys
    require(np.all(at >= 0), "a live entry is missing from the index")
    require(np.array_equal(mat._tslots[at], slots), "index points at the wrong slot")
    require(np.count_nonzero(tkeys >= 0) == mat._nnz, "a key is indexed twice")
    require(np.count_nonzero(tkeys != _EMPTY) == mat._used, "used-cell count is off")
    require(not mat._crowded(0), "table above its load bound")


def random_dense(
    n: int,
    m: int,
    density: float,
    semiring: Semiring = PLUS_TIMES,
    seed: int = 0,
) -> np.ndarray:
    """Random dense matrix with structural zeros at the semiring zero."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, m)) < density
    values = rng.random((n, m)) + 0.1
    return np.where(mask, values, semiring.zero)


def dist_from_dense(
    comm: SimMPI,
    grid: ProcessGrid,
    dense: np.ndarray,
    semiring: Semiring = PLUS_TIMES,
    *,
    seed: int = 0,
) -> DynamicDistMatrix:
    """Build a dynamic distributed matrix holding ``dense``."""
    rows, cols = np.nonzero(~semiring.is_zero(dense))
    values = dense[rows, cols]
    batch = UpdateBatch.from_global(
        dense.shape, rows, cols, values, grid.n_ranks, semiring=semiring, seed=seed
    )
    return DynamicDistMatrix.from_tuples(
        comm, grid, dense.shape, batch.tuples_per_rank, semiring, combine="last"
    )


def static_from_dense(
    comm: SimMPI,
    grid: ProcessGrid,
    dense: np.ndarray,
    semiring: Semiring = PLUS_TIMES,
    *,
    layout: str = "csr",
    seed: int = 0,
) -> StaticDistMatrix:
    rows, cols = np.nonzero(~semiring.is_zero(dense))
    values = dense[rows, cols]
    batch = UpdateBatch.from_global(
        dense.shape, rows, cols, values, grid.n_ranks, semiring=semiring, seed=seed
    )
    return StaticDistMatrix.from_tuples(
        comm,
        grid,
        dense.shape,
        batch.tuples_per_rank,
        semiring,
        layout=layout,
        combine="last",
    )


@pytest.fixture
def comm16() -> SimMPI:
    return SimMPI(16)


@pytest.fixture
def grid16() -> ProcessGrid:
    return ProcessGrid(16)


@pytest.fixture(params=[1, 4, 9, 16])
def any_grid(request) -> tuple[SimMPI, ProcessGrid]:
    p = request.param
    return SimMPI(p), ProcessGrid(p)


@pytest.fixture(params=[PLUS_TIMES, MIN_PLUS], ids=["plus_times", "min_plus"])
def semiring(request) -> Semiring:
    return request.param
