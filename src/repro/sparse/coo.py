"""Coordinate-format sparse matrices.

COO is the interchange format of the repository: update tuples ``(i, j, x)``
arrive as COO triplets, redistribution moves COO arrays between ranks, and
every other layout (CSR, DCSR, DHB) can be built from / exported to COO.
Duplicate coordinates are combined with the semiring's addition (or by
"last write wins" for merge semantics), mirroring how the paper builds
update matrices from batches of updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse.layout import FlatRows

__all__ = ["COOMatrix"]


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate (triplet) format.

    Attributes
    ----------
    shape:
        ``(n_rows, n_cols)`` of the matrix.
    rows, cols:
        ``int64`` coordinate arrays of equal length.
    values:
        value array aligned with the coordinates (semiring dtype).
    semiring:
        The semiring giving meaning to structural zeros and duplicate
        combination.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    semiring: Semiring = PLUS_TIMES

    def __post_init__(self) -> None:
        self.rows = np.ascontiguousarray(np.asarray(self.rows, dtype=np.int64))
        self.cols = np.ascontiguousarray(np.asarray(self.cols, dtype=np.int64))
        self.values = self.semiring.coerce(self.values)
        if not (len(self.rows) == len(self.cols) == len(self.values)):
            raise ValueError(
                "rows, cols and values must have identical lengths "
                f"(got {len(self.rows)}, {len(self.cols)}, {len(self.values)})"
            )
        n, m = self.shape
        if n < 0 or m < 0:
            raise ValueError(f"invalid shape {self.shape}")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= n:
                raise ValueError("row index out of bounds for shape")
            if self.cols.min() < 0 or self.cols.max() >= m:
                raise ValueError("column index out of bounds for shape")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def _unchecked(
        cls, shape: tuple[int, int], rows, cols, values, semiring: Semiring
    ) -> "COOMatrix":
        """Build a derived matrix without :meth:`__post_init__`'s checks.

        Precondition (the caller's, not checked): ``rows`` and ``cols`` are
        C-contiguous ``int64`` arrays inside ``shape``, ``values`` is a
        C-contiguous ``semiring.dtype`` array, all three of equal length.
        Only for derivations of valid arrays inside the library; input from
        outside goes through the checked constructor.
        """
        out = object.__new__(cls)
        out.shape, out.rows, out.cols, out.values = shape, rows, cols, values
        out.semiring = semiring
        return out

    @classmethod
    def empty(cls, shape: tuple[int, int], semiring: Semiring = PLUS_TIMES) -> "COOMatrix":
        """An all-structurally-zero matrix of the given shape."""
        none = np.empty(0, dtype=np.int64)
        return cls._unchecked(shape, none, none, semiring.zeros(0), semiring)

    @classmethod
    def from_tuples(
        cls,
        shape: tuple[int, int],
        tuples,
        semiring: Semiring = PLUS_TIMES,
        *,
        dedup: bool = True,
    ) -> "COOMatrix":
        """Build from an iterable of ``(i, j, value)`` tuples."""
        tuples = list(tuples)
        if not tuples:
            return cls.empty(shape, semiring)
        rows = np.array([t[0] for t in tuples], dtype=np.int64)
        cols = np.array([t[1] for t in tuples], dtype=np.int64)
        vals = semiring.coerce([t[2] for t in tuples])
        mat = cls(shape=shape, rows=rows, cols=cols, values=vals, semiring=semiring)
        return mat.sum_duplicates() if dedup else mat

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, semiring: Semiring = PLUS_TIMES
    ) -> "COOMatrix":
        """Build from a dense array; entries equal to the semiring zero are
        treated as structural zeros."""
        dense = np.asarray(dense, dtype=semiring.dtype)
        nonzero = ~semiring.is_zero(dense)
        rows, cols = np.nonzero(nonzero)
        return cls(
            shape=dense.shape,
            rows=rows.astype(np.int64),
            cols=cols.astype(np.int64),
            values=dense[rows, cols],
            semiring=semiring,
        )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of structural non-zeros."""
        return int(self.rows.size)

    @property
    def nbytes(self) -> int:
        """Bytes required to communicate this matrix (triplet layout)."""
        return int(self.rows.nbytes + self.cols.nbytes + self.values.nbytes)

    def copy(self) -> "COOMatrix":
        rows, cols, values = self.rows.copy(), self.cols.copy(), self.values.copy()
        return COOMatrix._unchecked(self.shape, rows, cols, values, self.semiring)

    def _take(self, index) -> "COOMatrix":
        """The entries at ``index`` (a slice, boolean mask or index array)."""
        rows, cols, values = self.rows[index], self.cols[index], self.values[index]
        return COOMatrix._unchecked(self.shape, rows, cols, values, self.semiring)

    # ------------------------------------------------------------------
    # canonicalisation
    # ------------------------------------------------------------------
    def _sort_key(self) -> np.ndarray:
        return self.rows * np.int64(self.shape[1]) + self.cols

    def sort(self) -> "COOMatrix":
        """Return a matrix sorted by (row, col); duplicates are kept.

        Triplets already in order are shared as views rather than re-sorted
        (the arrays are never mutated in place).
        """
        keys = self._sort_key()
        in_order = (keys[1:] >= keys[:-1]).all()
        return self._take(slice(None) if in_order else np.argsort(keys, kind="stable"))

    def sum_duplicates(self) -> "COOMatrix":
        """Combine duplicate coordinates with semiring addition."""
        if self.nnz == 0:
            return self.copy()
        keys, combined = self.semiring.sum_duplicates(self._sort_key(), self.values)
        m = np.int64(self.shape[1])
        rows, cols = np.divmod(keys, m)
        return COOMatrix._unchecked(self.shape, rows, cols, combined, self.semiring)

    def last_write_wins(self) -> "COOMatrix":
        """Deduplicate keeping, for each coordinate, the *last* value.

        This is the combination rule for MERGE-style update matrices, where
        later updates overwrite earlier ones instead of being ⊕-combined.
        """
        if self.nnz == 0:
            return self.copy()
        keys = self._sort_key()
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        # last occurrence of each key wins
        boundary = np.empty(keys_sorted.size, dtype=bool)
        boundary[-1] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=boundary[:-1])
        # the last of each run of equal keys, already in (row, col) order
        return self._take(order[np.flatnonzero(boundary)])

    def drop_zeros(self) -> "COOMatrix":
        """Remove entries whose value equals the semiring zero."""
        return self._take(~self.semiring.is_zero(self.values))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def concatenate(self, *others: "COOMatrix") -> "COOMatrix":
        """Stack the triplets of COO matrices (no dedup), one copy per array."""
        for other in others:
            self._check_compatible(other)
        parts = (self, *others)
        return COOMatrix._unchecked(
            self.shape,
            np.concatenate([part.rows for part in parts]),
            np.concatenate([part.cols for part in parts]),
            np.concatenate([part.values for part in parts]),
            self.semiring,
        )

    def add(self, other: "COOMatrix") -> "COOMatrix":
        """Element-wise semiring addition."""
        return self.concatenate(other).sum_duplicates()

    def transpose(self) -> "COOMatrix":
        return COOMatrix._unchecked(
            (self.shape[1], self.shape[0]),
            self.cols.copy(),
            self.rows.copy(),
            self.values.copy(),
            self.semiring,
        ).sort()

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    def flat_rows(self) -> FlatRows:
        """The non-empty rows, each sorted by column (duplicates kept)."""
        from repro.sparse.dcsr import DCSRMatrix

        return DCSRMatrix.from_coo(self, dedup=False).flat_rows()

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":
        """The matrix itself (what every other local layout converts to)."""
        return self

    def to_dense(self) -> np.ndarray:
        """Dense array with structural zeros mapped to the semiring zero."""
        dense = np.full(self.shape, self.semiring.zero, dtype=self.semiring.dtype)
        canon = self.sum_duplicates()
        dense[canon.rows, canon.cols] = canon.values
        return dense

    # ------------------------------------------------------------------
    def _check_compatible(self, other: "COOMatrix") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if self.semiring.name != other.semiring.name:
            raise ValueError(
                f"semiring mismatch: {self.semiring.name} vs {other.semiring.name}"
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"semiring={self.semiring.name!r})"
        )
