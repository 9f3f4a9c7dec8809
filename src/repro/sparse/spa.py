"""Sparse accumulator (SPA) for row-wise SpGEMM.

Gustavson's algorithm forms one output row at a time by scattering scaled
rows of ``B`` into an accumulator indexed by output column.  The paper's
implementation uses "a sparse accumulator based on a dynamic array combined
with a hash table" per shared-memory thread (Section VI-A).  This class is
that accumulator: a dict maps an output column to its slot in dynamic
``cols`` / ``vals`` lists, so accumulation is O(1) expected per term and the
result can be emitted without sorting.

The expand–sort–compress kernel in :mod:`repro.sparse.spgemm_local` does
not use this class; the SPA, one hash probe per term, backs the reference
implementation :func:`~repro.sparse.spgemm_local.spgemm_rowwise_spa` —
faithful to the paper and independent of the kernel it checks.
"""

from __future__ import annotations

import numpy as np

from repro.semirings import Semiring

__all__ = ["SparseAccumulator"]


class SparseAccumulator:
    """Hash-based sparse accumulator for one output row."""

    def __init__(self, semiring: Semiring) -> None:
        self.semiring = semiring
        self._slot: dict[int, int] = {}
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._bits: list[int] = []

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Reset the accumulator for the next output row."""
        self._slot.clear()
        self._cols.clear()
        self._vals.clear()
        self._bits.clear()

    def accumulate(self, col: int, value, bloom_bit: int = 0) -> None:
        """⊕-accumulate ``value`` into output column ``col``."""
        col = int(col)
        slot = self._slot.get(col)
        if slot is None:
            self._slot[col] = len(self._cols)
            self._cols.append(col)
            self._vals.append(value)
            self._bits.append(int(bloom_bit))
        else:
            self._vals[slot] = self.semiring.plus(self._vals[slot], value)
            self._bits[slot] |= int(bloom_bit)

    def accumulate_scaled_row(
        self,
        scale,
        cols: np.ndarray,
        vals: np.ndarray,
        bloom_bit: int = 0,
        allowed: set[int] | None = None,
    ) -> None:
        """Accumulate ``scale ⊗ vals`` into the columns ``cols``.

        ``allowed`` optionally restricts the output columns (masked SpGEMM);
        it is tested per element, like every other step of the loop.
        """
        scaled = self.semiring.times(scale, vals)
        # ``tolist`` yields native Python ints: one conversion for the row
        for c, v in zip(np.asarray(cols, dtype=np.int64).tolist(), scaled):
            if allowed is None or c in allowed:
                self.accumulate(c, v, bloom_bit)

    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Number of distinct output columns accumulated so far."""
        return len(self._cols)

    def is_empty(self) -> bool:
        """``True`` when nothing has been accumulated."""
        return not self._cols

    def contains(self, col: int) -> bool:
        """``True`` when ``col`` holds an accumulated value."""
        return int(col) in self._slot

    def get(self, col: int):
        """Accumulated value at ``col`` (semiring zero when absent)."""
        slot = self._slot.get(int(col))
        if slot is None:
            return self.semiring.zero
        return self._vals[slot]

    def emit(self, sort: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(cols, vals, bloom_bits)`` of the accumulated row."""
        cols = np.asarray(self._cols, dtype=np.int64)
        vals = self.semiring.coerce(self._vals)
        bits = np.asarray(self._bits, dtype=np.uint64)
        if sort and cols.size:
            order = np.argsort(cols, kind="stable")
            cols, vals, bits = cols[order], vals[order], bits[order]
        return cols, vals, bits
