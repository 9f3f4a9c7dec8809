"""Bloom-filter matrices for the general-update dynamic SpGEMM.

Section V-B: while computing ``C = A·B`` the algorithm maintains a matrix
``F`` holding an ℓ-bit bitfield per output non-zero (ℓ = 64 in the paper
and here).  Bit ``k mod ℓ`` of ``f_{i,j}`` is set whenever the term
``a_{i,k} · b_{k,j}`` contributes to ``c_{i,j}``.  The row-wise OR of ``F``
over a set of output entries admits a *superset* of the inner indices ``k``
(i.e. columns of ``A'`` / rows of ``B'``) that can influence them — this is
what lets the general algorithm ship only a filtered ``A^R`` instead of all
of ``A'``.

A filter is three aligned arrays — rows, columns and 64-bit bitfields —
sorted by ``(row, col)``, with unique coordinates and no zero bitfield.
Every operation Algorithm 2 performs on ``F`` is then a whole-array pass:
OR is a concatenation folded by one ``bitwise_or.reduceat``, masking is one
``searchsorted`` of ``row·m + col`` keys, and the row-wise OR is one
``reduceat`` over the row starts.  A partial product's filter has exactly
its coordinates, so the sparse reduce-scatter ships its bits beside the
values (:func:`repro.core.collectives.bloom_reduce_to_root`) rather than as
a filter of its own.  ``F*``'s coordinates are the pattern of ``C*``, the
only part of ``C*`` Algorithm 2 reads (:meth:`BloomFilterMatrix.to_arrays`).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.sparse.layout import _runs

__all__ = ["BLOOM_BITS", "BloomFilterMatrix"]

#: Width of the per-entry bitfield (ℓ in the paper).
BLOOM_BITS = 64

_MASK64 = (1 << BLOOM_BITS) - 1


class BloomFilterMatrix:
    """Sparse matrix of 64-bit bitfields keyed by ``(row, col)``.

    Supports the operations the general-update algorithm needs: bitwise-OR
    accumulation (``⊕`` in Algorithm 2), masking by an output pattern and
    dropping one, and row-wise OR reduction.  The arrays are never written
    in place, only rebound, so pieces, copies and readers may share them.
    """

    def __init__(self, shape: tuple[int, int]) -> None:
        n, m = shape
        if n < 0 or m < 0:
            raise ValueError(f"invalid shape {shape}")
        self.shape = (int(n), int(m))
        self._rows = np.empty(0, dtype=np.int64)
        self._cols = np.empty(0, dtype=np.int64)
        self._bits = np.empty(0, dtype=np.uint64)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_entries(
        cls, shape: tuple[int, int], entries: Iterable[tuple[int, int, int]]
    ) -> "BloomFilterMatrix":
        """Build from ``(row, col, bits)`` triples (bits are OR-combined)."""
        rows: list[int] = []
        cols: list[int] = []
        bits: list[int] = []
        for i, j, b in entries:
            rows.append(int(i))
            cols.append(int(j))
            bits.append(int(b) & _MASK64)
        return cls.from_arrays(shape, rows, cols, bits)

    @classmethod
    def from_arrays(
        cls, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, bits: np.ndarray
    ) -> "BloomFilterMatrix":
        """Build from aligned ``(rows, cols, bits)`` arrays in any order.

        Bitfields at one coordinate are OR-combined and zero bitfields are
        dropped.  Raises :class:`ValueError` for unaligned arrays and
        :class:`IndexError` for a coordinate outside ``shape``.
        """
        out = cls(shape)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.uint64)
        if not (rows.ndim == 1 and rows.shape == cols.shape == bits.shape):
            raise ValueError(
                f"rows, cols and bits must be aligned 1-D arrays, got shapes "
                f"{rows.shape}, {cols.shape}, {bits.shape}"
            )
        n, m = out.shape
        if rows.size and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m
        ):
            raise IndexError(f"entries outside matrix of shape {out.shape}")
        out._fold(rows, cols, bits)
        return out

    def _fold(self, rows: np.ndarray, cols: np.ndarray, bits: np.ndarray) -> None:
        """Install valid entries: one stable sort by key, one OR-``reduceat``."""
        if rows.size == 0:
            return
        keys = rows * self.shape[1] + cols
        order = np.argsort(keys, kind="stable")
        starts, _ = _runs(keys[order])
        folded = np.bitwise_or.reduceat(bits[order], starts)
        live = folded != 0
        at = order[starts[live]]
        self._rows, self._cols, self._bits = rows[at], cols[at], folded[live]

    def _take(self, selection) -> "BloomFilterMatrix":
        """A filter of the entries ``selection`` (a mask or a slice) picks."""
        out = BloomFilterMatrix(self.shape)
        out._rows = self._rows[selection]
        out._cols = self._cols[selection]
        out._bits = self._bits[selection]
        return out

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self._bits.size)

    @property
    def nbytes(self) -> int:
        # (row, col, bits) as three 8-byte words per entry
        return 24 * self.nnz

    def _keys(self) -> np.ndarray:
        return self._rows * self.shape[1] + self._cols

    def _isin(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Which entries sit at one of the coordinates ``(rows, cols)``."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        pattern = rows * self.shape[1] + cols
        keys = self._keys()
        hit = np.zeros(keys.size, dtype=bool)
        if keys.size:
            pos = np.minimum(np.searchsorted(keys, pattern), keys.size - 1)
            hit[pos[keys[pos] == pattern]] = True
        return hit

    def get(self, i: int, j: int) -> int:
        """Bitfield at ``(i, j)`` (0 when absent)."""
        keys = self._keys()
        key = int(i) * self.shape[1] + int(j)
        at = int(np.searchsorted(keys, key))
        return int(self._bits[at]) if at < keys.size and keys[at] == key else 0

    # ------------------------------------------------------------------
    # bulk operations used by Algorithm 2
    # ------------------------------------------------------------------
    def or_with(self, *others: "BloomFilterMatrix") -> "BloomFilterMatrix":
        """Element-wise bitwise OR with one or more filters (``F ⊕ F*``), one fold."""
        for other in others:
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        parts = [f for f in (self, *others) if f.nnz]
        if len(parts) < 2:
            return parts[0].copy() if parts else BloomFilterMatrix(self.shape)
        out = BloomFilterMatrix(self.shape)
        columns = zip(*((f._rows, f._cols, f._bits) for f in parts))
        out._fold(*(np.concatenate(column) for column in columns))
        return out

    def or_inplace(self, other: "BloomFilterMatrix") -> None:
        """``self |= other``."""
        merged = self.or_with(other)
        self._rows, self._cols, self._bits = merged._rows, merged._cols, merged._bits

    def masked_by(self, rows: np.ndarray, cols: np.ndarray) -> "BloomFilterMatrix":
        """Keep only the entries at a coordinate of the pattern ``(rows, cols)``.

        This builds the matrix ``E`` of Algorithm 2: ``F ⊕ F*`` restricted to
        the non-zero pattern of ``C*``.
        """
        return self._take(self._isin(rows, cols))

    def drop_pattern(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Delete, in place, the entries at a coordinate of ``(rows, cols)``.

        Step 6 of Algorithm 2 clears the ``C*`` pattern this way before the
        recomputed bits are OR-ed back in.
        """
        keep = ~self._isin(rows, cols)
        self._rows, self._cols, self._bits = (
            self._rows[keep], self._cols[keep], self._bits[keep]
        )

    def reduce_rows_or(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-wise bitwise OR ``r_i = OR_j e_{i,j}`` as ``(rows, bits)`` arrays."""
        if self.nnz == 0:
            return self._rows.copy(), self._bits.copy()
        starts, _ = _runs(self._rows)
        return self._rows[starts], np.bitwise_or.reduceat(self._bits, starts)

    # ------------------------------------------------------------------
    def copy(self) -> "BloomFilterMatrix":
        return self._take(slice(None))

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, bits)`` sorted by (row, col): the filter's own arrays.

        Shared, not copied — a later update rebinds the filter's arrays and
        leaves these as they were; callers must not write into them.
        """
        return self._rows, self._cols, self._bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilterMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self._rows, other._rows)
            and np.array_equal(self._cols, other._cols)
            and np.array_equal(self._bits, other._bits)
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"BloomFilterMatrix(shape={self.shape}, nnz={self.nnz})"
