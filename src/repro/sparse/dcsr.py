"""Doubly-compressed sparse row (DCSR) matrices.

Hypersparse matrices (``nnz ≪ n``) waste memory in plain CSR because the
``indptr`` array alone costs ``O(n)``.  DCSR (the row analogue of
CombBLAS's DCSC) stores row pointers only for rows that actually contain
non-zeros: an array ``nz_rows`` of the non-empty row ids plus an ``indptr``
of length ``len(nz_rows) + 1``.

The paper stores all update matrices (``A*``, ``B*``), all communicated
blocks and all SUMMA partial products in DCSR because it "can substantially
decrease communication volume when hypersparse matrices need to be
communicated".  DCSR does not support O(1) row lookup; none of the
algorithms needs it (rows are only ever *iterated*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.layout import FlatRows, _runs

__all__ = ["DCSRMatrix"]


@dataclass
class DCSRMatrix:
    """Doubly-compressed CSR: row pointers only for non-empty rows."""

    shape: tuple[int, int]
    nz_rows: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    semiring: Semiring = PLUS_TIMES

    def __post_init__(self) -> None:
        self.nz_rows = np.ascontiguousarray(np.asarray(self.nz_rows, dtype=np.int64))
        self.indptr = np.ascontiguousarray(np.asarray(self.indptr, dtype=np.int64))
        self.indices = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        self.values = self.semiring.coerce(self.values)
        n, m = self.shape
        if len(self.indptr) != len(self.nz_rows) + 1:
            raise ValueError("indptr must have length len(nz_rows)+1")
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have identical lengths")
        if self.indptr.size and (self.indptr[0] != 0 or self.indptr[-1] != len(self.indices)):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.nz_rows.size:
            if self.nz_rows.min() < 0 or self.nz_rows.max() >= n:
                raise ValueError("non-zero row index out of bounds")
            if np.any(np.diff(self.nz_rows) <= 0):
                raise ValueError("nz_rows must be strictly increasing")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= m):
            raise ValueError("column index out of bounds for shape")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _unchecked(
        cls, shape: tuple[int, int], nz_rows, indptr, indices, values, semiring: Semiring
    ) -> "DCSRMatrix":
        """Build a derived matrix without :meth:`__post_init__`'s checks.

        Precondition (the caller's, not checked): ``nz_rows`` is a
        C-contiguous strictly increasing ``int64`` array inside
        ``shape[0]``; ``indptr`` a C-contiguous non-decreasing ``int64``
        array of length ``len(nz_rows) + 1`` from 0 to ``nnz``; ``indices``
        a C-contiguous ``int64`` array inside ``shape[1]`` and ``values`` a
        C-contiguous ``semiring.dtype`` array, both of length ``nnz``.  Only
        for derivations of valid arrays inside the library.
        """
        out = object.__new__(cls)
        out.shape, out.nz_rows, out.indptr = shape, nz_rows, indptr
        out.indices, out.values, out.semiring = indices, values, semiring
        return out

    @classmethod
    def empty(cls, shape: tuple[int, int], semiring: Semiring = PLUS_TIMES) -> "DCSRMatrix":
        none = np.empty(0, dtype=np.int64)
        return cls._unchecked(
            shape, none, np.zeros(1, dtype=np.int64), none, semiring.zeros(0), semiring
        )

    @classmethod
    def from_coo(cls, coo: COOMatrix, *, dedup: bool = True) -> "DCSRMatrix":
        """Build from COO; duplicates are ⊕-combined when ``dedup``."""
        canon = coo.sum_duplicates() if dedup else coo.sort()
        if canon.nnz == 0:
            return cls.empty(coo.shape, coo.semiring)
        first, _ = _runs(canon.rows)
        return cls._unchecked(
            coo.shape,
            canon.rows[first],
            np.append(first, canon.nnz),
            canon.cols.copy(),
            canon.values.copy(),
            coo.semiring,
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, semiring: Semiring = PLUS_TIMES) -> "DCSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense, semiring))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def n_nonzero_rows(self) -> int:
        return int(self.nz_rows.size)

    @property
    def nbytes(self) -> int:
        """Communication footprint; this is what DCSR is for — it scales
        with ``nnz`` and the number of non-empty rows, not with ``n``."""
        return int(
            self.nz_rows.nbytes
            + self.indptr.nbytes
            + self.indices.nbytes
            + self.values.nbytes
        )

    def copy(self) -> "DCSRMatrix":
        return DCSRMatrix._unchecked(
            self.shape,
            self.nz_rows.copy(),
            self.indptr.copy(),
            self.indices.copy(),
            self.values.copy(),
            self.semiring,
        )

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def flat_rows(self) -> FlatRows:
        """Zero-copy: DCSR storage *is* the flat non-empty-row form."""
        return FlatRows(
            row_ids=self.nz_rows, row_ptr=self.indptr, cols=self.indices, vals=self.values
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        if self.nnz == 0:
            return COOMatrix.empty(self.shape, self.semiring)
        rows = np.repeat(self.nz_rows, np.diff(self.indptr))
        return COOMatrix._unchecked(
            self.shape, rows, self.indices.copy(), self.values.copy(), self.semiring
        )

    def to_csr(self) -> CSRMatrix:
        return CSRMatrix.from_coo(self.to_coo(), dedup=False)

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def transpose(self) -> "DCSRMatrix":
        return DCSRMatrix.from_coo(self.to_coo().transpose(), dedup=False)

    # ------------------------------------------------------------------
    def equal(self, other: "DCSRMatrix", *, rtol: float = 1e-9) -> bool:
        if self.shape != other.shape:
            return False
        a = self.to_coo().sum_duplicates().sort()
        b = other.to_coo().sum_duplicates().sort()
        if a.nnz != b.nnz:
            return False
        if not (np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)):
            return False
        return bool(np.allclose(a.values, b.values, rtol=rtol, equal_nan=True))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DCSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"nz_rows={self.n_nonzero_rows}, semiring={self.semiring.name!r})"
        )
