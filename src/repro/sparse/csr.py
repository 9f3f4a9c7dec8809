"""Compressed sparse row (CSR) matrices over a semiring.

CSR is the paper's static layout for sparse (but not hypersparse) blocks:
``indptr`` of length ``n_rows + 1``, plus ``indices`` / ``values`` arrays of
length ``nnz``.  The paper notes that none of its algorithms ever needs to
*search* within a row, so rows are not required to be sorted; this
implementation keeps rows sorted after construction from COO (it costs one
``argsort`` and makes equality checks and tests straightforward) but no
kernel relies on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse.coo import COOMatrix
from repro.sparse.layout import FlatRows

__all__ = ["CSRMatrix"]


@dataclass
class CSRMatrix:
    """Static CSR matrix."""

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    semiring: Semiring = PLUS_TIMES

    def __post_init__(self) -> None:
        self.indptr = np.ascontiguousarray(np.asarray(self.indptr, dtype=np.int64))
        self.indices = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        self.values = self.semiring.coerce(self.values)
        n, m = self.shape
        if len(self.indptr) != n + 1:
            raise ValueError(
                f"indptr must have length n_rows+1={n + 1}, got {len(self.indptr)}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.values):
            raise ValueError("indices and values must have identical lengths")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= m):
            raise ValueError("column index out of bounds for shape")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _unchecked(
        cls, shape: tuple[int, int], indptr, indices, values, semiring: Semiring
    ) -> "CSRMatrix":
        """Build a derived matrix without :meth:`__post_init__`'s checks.

        Precondition (the caller's, not checked): ``indptr`` is a
        C-contiguous non-decreasing ``int64`` array of length
        ``shape[0] + 1`` from 0 to ``nnz``; ``indices`` is a C-contiguous
        ``int64`` array inside ``shape[1]`` and ``values`` a C-contiguous
        ``semiring.dtype`` array, both of length ``nnz``.  Only for
        derivations of valid arrays inside the library.
        """
        out = object.__new__(cls)
        out.shape, out.indptr, out.indices, out.values = shape, indptr, indices, values
        out.semiring = semiring
        return out

    @classmethod
    def empty(cls, shape: tuple[int, int], semiring: Semiring = PLUS_TIMES) -> "CSRMatrix":
        return cls._unchecked(
            shape,
            np.zeros(shape[0] + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            semiring.zeros(0),
            semiring,
        )

    @classmethod
    def from_coo(cls, coo: COOMatrix, *, dedup: bool = True) -> "CSRMatrix":
        """Build from COO; duplicates are ⊕-combined when ``dedup``."""
        canon = coo.sum_duplicates() if dedup else coo.sort()
        n = coo.shape[0]
        counts = np.bincount(canon.rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls._unchecked(
            coo.shape, indptr, canon.cols.copy(), canon.values.copy(), coo.semiring
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray, semiring: Semiring = PLUS_TIMES) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense, semiring))

    @classmethod
    def from_scipy(cls, mat, semiring: Semiring = PLUS_TIMES) -> "CSRMatrix":
        """Build from a ``scipy.sparse`` matrix (kept as structural nnz)."""
        csr = mat.tocsr()
        return cls(
            shape=csr.shape,
            indptr=csr.indptr.astype(np.int64),
            indices=csr.indices.astype(np.int64),
            values=semiring.coerce(csr.data),
            semiring=semiring,
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        return int(self.indptr.nbytes + self.indices.nbytes + self.values.nbytes)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    def copy(self) -> "CSRMatrix":
        return CSRMatrix._unchecked(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.values.copy(),
            self.semiring,
        )

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(column indices, values)`` views of row ``i``."""
        if not (0 <= i < self.shape[0]):
            raise IndexError(f"row {i} outside matrix with {self.shape[0]} rows")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def flat_rows(self) -> FlatRows:
        """Zero-copy: every row is a segment, empty rows included."""
        return FlatRows(
            row_ids=np.arange(self.shape[0], dtype=np.int64),
            row_ptr=self.indptr,
            cols=self.indices,
            vals=self.values,
        )

    def get(self, i: int, j: int, default: float | None = None) -> float:
        """Value at ``(i, j)``; the semiring zero (or ``default``) if absent."""
        cols, vals = self.row(i)
        hits = np.flatnonzero(cols == j)
        if hits.size == 0:
            return self.semiring.zero if default is None else default
        # If rows are unsorted duplicates could exist; ⊕-combine them.
        return float(self.semiring.add_reduce(vals[hits]))

    def contains(self, i: int, j: int) -> bool:
        cols, _ = self.row(i)
        return bool(np.any(cols == j))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        return COOMatrix._unchecked(
            self.shape, rows, self.indices.copy(), self.values.copy(), self.semiring
        )

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def to_scipy(self):
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.values, self.indices, self.indptr), shape=self.shape
        )

    def transpose(self) -> "CSRMatrix":
        """Transposed CSR (counting-sort based, O(nnz + n))."""
        return CSRMatrix.from_coo(self.to_coo().transpose(), dedup=False)

    def extract_rows(self, row_ids: np.ndarray) -> COOMatrix:
        """Triplets of the selected rows (used to filter ``A^R``)."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        pieces_r, pieces_c, pieces_v = [], [], []
        for i in row_ids:
            cols, vals = self.row(int(i))
            pieces_r.append(np.full(cols.size, i, dtype=np.int64))
            pieces_c.append(cols)
            pieces_v.append(vals)
        if not pieces_r:
            return COOMatrix.empty(self.shape, self.semiring)
        return COOMatrix._unchecked(
            self.shape,
            np.concatenate(pieces_r),
            np.concatenate(pieces_c),
            np.concatenate(pieces_v),
            self.semiring,
        )

    # ------------------------------------------------------------------
    def equal(self, other: "CSRMatrix", *, rtol: float = 1e-9) -> bool:
        """Structural and numerical equality (rows compared as sets)."""
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
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"semiring={self.semiring.name!r})"
        )
