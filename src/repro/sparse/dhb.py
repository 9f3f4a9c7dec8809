"""DHB — dynamic hashed blocks (the paper's dynamic matrix layout).

The paper stores dynamic matrices with the DHB data structure of
van der Grinten, Predari and Willich: per-row *adjacency arrays* holding
the column indices and values, plus a per-row *hash table* mapping a column
index to its slot in the adjacency array.  This yields O(1) expected time
for discovering whether ``(i, j)`` is present and for inserting, deleting
or overwriting an entry — which is what makes purely local application of
update batches cheap.

:class:`DHBRow` mirrors that design literally: growable ``cols`` / ``vals``
arrays (the adjacency array) plus a Python dict as the hash index.
:class:`DHBMatrix` owns one row object per non-empty row and implements the
batch update operations of Section IV-A: semiring ``ADD``, ``MERGE``
(overwrite) and ``MASK`` (delete).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.perf.recorder import perf_count, perf_phase
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.dcsr import DCSRMatrix
from repro.sparse.kernels.dhb_insert import probe_existing_rows
from repro.sparse.kernels.tier import count_tier, resolve_kernel_tier
from repro.sparse.layout import pack_rows, register_flat_rows, register_row_layout

__all__ = [
    "AUTO_SCATTERED_FACTOR",
    "DHBRow",
    "DHBMatrix",
]

_INITIAL_CAPACITY = 4

#: ``"auto"`` dispatch threshold of :meth:`DHBMatrix.insert_batch`: a batch
#: with fewer than ``AUTO_SCATTERED_FACTOR`` entries per touched row on
#: average is considered *scattered* and takes the per-element hash-probe
#: loop; denser batches take the vectorised per-row path.  The value 8 was
#: picked from an insert microbenchmark that is gone; what still measures
#: the vectorised path it dispatches to is the ``dhb_batch_insert`` cell of
#: ``benchmarks/run_suite.py --figs kernels``.
AUTO_SCATTERED_FACTOR = 8


class DHBRow:
    """One row of a DHB matrix: adjacency array + hash index."""

    __slots__ = ("cols", "vals", "size", "index", "grow_count")

    def __init__(self, dtype: np.dtype, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(int(capacity), 1)
        self.cols = np.empty(capacity, dtype=np.int64)
        self.vals = np.empty(capacity, dtype=dtype)
        self.size = 0
        #: hash index col -> slot; ``None`` means "not built yet" (bulk
        #: loads defer index construction until the first point access)
        self.index: dict[int, int] | None = {}
        #: number of adjacency-array reallocations (memory-management work)
        self.grow_count = 0

    @classmethod
    def from_arrays(cls, cols: np.ndarray, vals: np.ndarray) -> "DHBRow":
        """Bulk-load a row from (deduplicated) column/value arrays.

        The hash index is built lazily on first point access, mirroring how
        a native DHB bulk loader avoids per-entry hashing during initial
        construction.
        """
        row = cls.__new__(cls)
        row.cols = np.ascontiguousarray(cols, dtype=np.int64)
        row.vals = np.ascontiguousarray(vals)
        row.size = int(cols.size)
        row.index = None
        row.grow_count = 0
        return row

    def ensure_index(self) -> dict[int, int]:
        """Build (if needed) and return the column -> slot hash index."""
        if self.index is None:
            self.index = dict(
                zip(self.cols[: self.size].tolist(), range(self.size))
            )
        return self.index

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def capacity(self) -> int:
        """Allocated adjacency-array capacity (entries)."""
        return int(self.cols.size)

    def reserve(self, extra: int) -> None:
        """Ensure capacity for ``extra`` additional entries."""
        needed = self.size + max(int(extra), 0)
        if needed <= self.cols.size:
            return
        new_cap = max(needed, 2 * self.cols.size)
        new_cols = np.empty(new_cap, dtype=np.int64)
        new_vals = np.empty(new_cap, dtype=self.vals.dtype)
        new_cols[: self.size] = self.cols[: self.size]
        new_vals[: self.size] = self.vals[: self.size]
        self.cols = new_cols
        self.vals = new_vals
        self.grow_count += 1

    # ------------------------------------------------------------------
    def get_slot(self, col: int) -> int | None:
        """Adjacency-array slot of ``col`` (``None`` when absent)."""
        return self.ensure_index().get(int(col))

    def get(self, col: int, default: float | None = None):
        """Value at ``col``, or ``default`` when absent."""
        slot = self.ensure_index().get(int(col))
        if slot is None:
            return default
        return self.vals[slot]

    def contains(self, col: int) -> bool:
        """``True`` when ``col`` is a structural non-zero of the row."""
        return int(col) in self.ensure_index()

    def insert_or_assign(self, col: int, value, combine=None) -> bool:
        """Insert ``(col, value)`` or update the existing entry.

        ``combine(old, new)`` is applied when the column already exists
        (``None`` means overwrite).  Returns ``True`` when a new structural
        non-zero was created.
        """
        col = int(col)
        index = self.ensure_index()
        slot = index.get(col)
        if slot is not None:
            if combine is None:
                self.vals[slot] = value
            else:
                self.vals[slot] = combine(self.vals[slot], value)
            return False
        self.reserve(1)
        slot = self.size
        self.cols[slot] = col
        self.vals[slot] = value
        index[col] = slot
        self.size += 1
        return True

    def delete(self, col: int) -> bool:
        """Delete ``col`` (swap-with-last); returns ``True`` if it existed."""
        col = int(col)
        index = self.ensure_index()
        slot = index.pop(col, None)
        if slot is None:
            return False
        last = self.size - 1
        if slot != last:
            moved_col = int(self.cols[last])
            self.cols[slot] = moved_col
            self.vals[slot] = self.vals[last]
            index[moved_col] = slot
        self.size = last
        return True

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the live portion of the adjacency array."""
        return self.cols[: self.size], self.vals[: self.size]

    def iter_entries(self) -> Iterator[tuple[int, float]]:
        """Yield ``(col, value)`` pairs in adjacency-array order."""
        for k in range(self.size):
            yield int(self.cols[k]), self.vals[k]

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint of the row in bytes."""
        # live data + hash index footprint (8 bytes key + 8 bytes slot)
        return int(self.size * (8 + self.vals.itemsize) + 16 * self.size)


class DHBMatrix:
    """Dynamic sparse matrix with O(1) expected per-entry updates."""

    def __init__(self, shape: tuple[int, int], semiring: Semiring = PLUS_TIMES) -> None:
        n, m = shape
        if n < 0 or m < 0:
            raise ValueError(f"invalid shape {shape}")
        self.shape = (int(n), int(m))
        self.semiring = semiring
        self._rows: dict[int, DHBRow] = {}
        self._nnz = 0

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, *, combine_duplicates: bool = True) -> "DHBMatrix":
        """Build from a COO matrix (duplicates ⊕-combined unless disabled)."""
        mat = cls(coo.shape, coo.semiring)
        combine = coo.semiring.plus if combine_duplicates else None
        mat.insert_batch(coo.rows, coo.cols, coo.values, combine=combine)
        return mat

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "DHBMatrix":
        """Build from a CSR matrix (already deduplicated)."""
        return cls.from_coo(csr.to_coo(), combine_duplicates=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray, semiring: Semiring = PLUS_TIMES) -> "DHBMatrix":
        """Build from a dense array, skipping semiring zeros."""
        return cls.from_coo(COOMatrix.from_dense(dense, semiring))

    @classmethod
    def empty(cls, shape: tuple[int, int], semiring: Semiring = PLUS_TIMES) -> "DHBMatrix":
        """An empty matrix of the given shape."""
        return cls(shape, semiring)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of structural non-zeros."""
        return self._nnz

    @property
    def n_nonzero_rows(self) -> int:
        """Number of rows holding at least one entry."""
        return len(self._rows)

    @property
    def nbytes(self) -> int:
        """Approximate memory footprint in bytes (rows + row table)."""
        return sum(row.nbytes for row in self._rows.values()) + 32 * len(self._rows)

    @property
    def grow_count(self) -> int:
        """Total adjacency-array reallocations (memory-management work)."""
        return sum(row.grow_count for row in self._rows.values())

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def _check_bounds(self, i: int, j: int) -> None:
        n, m = self.shape
        if not (0 <= i < n and 0 <= j < m):
            raise IndexError(f"entry ({i}, {j}) outside matrix of shape {self.shape}")

    def get(self, i: int, j: int, default: float | None = None):
        """Value at ``(i, j)``; the semiring zero (or ``default``) if absent."""
        self._check_bounds(i, j)
        row = self._rows.get(int(i))
        if row is None:
            return self.semiring.zero if default is None else default
        value = row.get(j)
        if value is None:
            return self.semiring.zero if default is None else default
        return value

    def contains(self, i: int, j: int) -> bool:
        """``True`` when ``(i, j)`` is a structural non-zero."""
        row = self._rows.get(int(i))
        return row is not None and row.contains(j)

    def insert(self, i: int, j: int, value, combine=None) -> bool:
        """Insert or update a single entry; returns ``True`` if new."""
        self._check_bounds(i, j)
        row = self._rows.get(int(i))
        if row is None:
            row = DHBRow(self.semiring.dtype)
            self._rows[int(i)] = row
        created = row.insert_or_assign(j, value, combine=combine)
        if created:
            self._nnz += 1
        return created

    def delete(self, i: int, j: int) -> bool:
        """Delete a single entry; returns ``True`` if it existed."""
        self._check_bounds(i, j)
        row = self._rows.get(int(i))
        if row is None:
            return False
        deleted = row.delete(j)
        if deleted:
            self._nnz -= 1
            if len(row) == 0:
                del self._rows[int(i)]
        return deleted

    # ------------------------------------------------------------------
    # batch operations (Section IV-A)
    # ------------------------------------------------------------------
    def reserve_batch(self, rows: np.ndarray) -> int:
        """Pre-grow adjacency arrays for a batch landing on ``rows``.

        Returns the number of reallocations performed; the distributed
        insertion path charges this step to the *memory management*
        category of the Fig. 7 breakdown.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0
        unique, counts = np.unique(rows, return_counts=True)
        grows = 0
        for i, cnt in zip(unique, counts):
            row = self._rows.get(int(i))
            if row is None:
                row = DHBRow(self.semiring.dtype, capacity=max(int(cnt), _INITIAL_CAPACITY))
                self._rows[int(i)] = row
            else:
                before = row.grow_count
                row.reserve(int(cnt))
                grows += row.grow_count - before
        return grows

    def insert_batch(
        self, rows, cols, values, combine=None, *, strategy="auto", kernel_tier=None
    ) -> int:
        """Insert a batch of triplets; returns the number of new non-zeros.

        ``combine`` handles collisions with existing entries (and between
        duplicate triplets inside the batch): ``None`` overwrites (last
        write wins), a callable combines, e.g. the semiring's ``plus`` for
        additive updates.

        ``strategy`` selects the application path:

        * ``"auto"`` (default) — empty matrices are bulk-built; scattered
          batches landing mostly on *existing* rows use the per-element
          hash-probe loop (cheapest when each touched row receives one or
          two entries); everything else takes the vectorised per-row path.
        * ``"vectorized"`` — force the batched path: duplicates are merged
          with segmented ``reduceat``, batch shares landing on absent rows
          are bulk-loaded without per-entry hashing, shares landing on
          existing rows are applied with vectorised adjacency-array appends
          (the Python analogue of the paper's OpenMP-parallel bulk
          insertion into the DHB rows).
        * ``"per_element"`` — force the per-element loop.  Kept as the
          measured baseline the benchmark suite compares the batched path
          against.

        ``kernel_tier`` overrides ``REPRO_KERNEL_TIER`` per call for the
        vectorised path's hit/miss probe (see
        :mod:`repro.sparse.kernels`); the per-element and bulk-build paths
        are pure Python in every tier.
        """
        if strategy not in ("auto", "vectorized", "per_element"):
            raise ValueError(
                f"unknown insert strategy {strategy!r} "
                "(use 'auto', 'vectorized' or 'per_element')"
            )
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = self.semiring.coerce(values)
        if not (rows.size == cols.size == values.size):
            raise ValueError("rows, cols and values must have identical lengths")
        if rows.size == 0:
            return 0
        n, m = self.shape
        if rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m:
            raise IndexError(f"batch entry outside matrix of shape {self.shape}")
        with perf_phase("dhb_insert"):
            perf_count("dhb.insert.entries", rows.size)
            created = self._insert_batch_dispatch(
                rows, cols, values, combine, strategy, kernel_tier
            )
            perf_count("dhb.insert.created", created)
            return created

    def _insert_batch_dispatch(
        self, rows, cols, values, combine, strategy, kernel_tier=None
    ) -> int:
        """Pick and run the insertion path for a validated batch.

        The per-element loop consumes the batch in its original order (the
        order last-write-wins semantics are defined over), so no sorting
        happens before dispatch; the vectorised path owns its one lexsort.
        """
        if strategy == "per_element":
            perf_count("dhb.insert.path_per_element")
            return self._insert_scattered(rows, cols, values, combine)
        if strategy == "vectorized":
            perf_count("dhb.insert.path_vectorized")
            return self._insert_batch_vectorized(
                rows, cols, values, combine, kernel_tier=kernel_tier
            )
        # auto: one lexsort serves the heuristic and both dispatch targets
        if self._nnz == 0:
            perf_count("dhb.insert.path_bulk_build")
            return self._bulk_build(rows, cols, values, combine)
        order = np.lexsort((cols, rows))
        rows_s, cols_s, vals_s = rows[order], cols[order], values[order]
        n_touched = 1 + int(np.count_nonzero(rows_s[1:] != rows_s[:-1]))
        if rows_s.size < AUTO_SCATTERED_FACTOR * n_touched:
            # Scattered batch (one or two entries per touched row): the
            # per-element hash-probe loop has the lowest constant factor.
            # Row-major iteration keeps each row's dict hot (~25% faster
            # than batch order), and the stable lexsort keeps duplicate
            # (row, col) entries in batch order, so last-write-wins and
            # sequential combine semantics are preserved.
            perf_count("dhb.insert.path_per_element")
            return self._insert_scattered(rows_s, cols_s, vals_s, combine)
        perf_count("dhb.insert.path_vectorized")
        return self._insert_batch_sorted(
            rows_s, cols_s, vals_s, combine, kernel_tier=kernel_tier
        )

    def _insert_batch_vectorized(self, rows, cols, values, combine, *, kernel_tier=None) -> int:
        """Whole-batch vectorised insertion (sorts, then applies).

        One stable ``(row, col)`` lexsort orders the entire batch, one
        global segmented merge (``reduceat`` for the semiring ``plus``,
        boolean last-occurrence mask for overwrite) removes in-batch
        duplicates, and each touched row's share is then applied in one
        step: absent rows are materialised with :meth:`DHBRow.from_arrays`
        (no per-entry hashing), existing rows get a hit/miss split against
        their hash index followed by vectorised adjacency-array appends.
        """
        order = np.lexsort((cols, rows))
        return self._insert_batch_sorted(
            rows[order], cols[order], values[order], combine, kernel_tier=kernel_tier
        )

    def _insert_batch_sorted(
        self, rows_s, cols_s, vals_s, combine, *, kernel_tier=None
    ) -> int:
        """The vectorised application over ``(row, col)``-lexsorted arrays."""
        same = (rows_s[1:] == rows_s[:-1]) & (cols_s[1:] == cols_s[:-1])
        if not np.any(same):
            rows_u, cols_u, vals_u = rows_s, cols_s, vals_s
        elif combine is None:
            # last write wins; lexsort is stable, so the last occurrence of
            # each (row, col) in sorted order is the last in batch order
            keep = np.concatenate((~same, [True]))
            rows_u, cols_u, vals_u = rows_s[keep], cols_s[keep], vals_s[keep]
        elif combine == self.semiring.plus:
            starts = np.flatnonzero(np.concatenate(([True], ~same)))
            rows_u, cols_u = rows_s[starts], cols_s[starts]
            vals_u = self.semiring.add_reduceat(vals_s, starts)
        else:
            # An arbitrary combiner cannot be pre-folded over duplicate
            # groups: combining the group first and the existing entry
            # second computes combine(existing, fold(v1..vk)), whereas the
            # per-element baseline computes fold(combine(existing, v1)..vk)
            # — these differ for non-associative combiners.  The stable
            # lexsort keeps each group's batch order and distinct keys are
            # independent, so the per-element loop over the sorted batch
            # reproduces the baseline exactly.
            perf_count("dhb.insert.path_combine_fallback")
            return self._insert_scattered(rows_s, cols_s, vals_s, combine)
        row_starts = np.flatnonzero(
            np.concatenate(([True], rows_u[1:] != rows_u[:-1]))
        )
        row_ends = np.append(row_starts[1:], rows_u.size)
        tier = resolve_kernel_tier(kernel_tier)
        count_tier("dhb_insert", tier)
        if tier == "compiled":
            return self._apply_sorted_compiled(
                rows_u, cols_u, vals_u, row_starts, row_ends, combine
            )
        created = 0
        get_row = self._rows.get
        for i, lo, hi in zip(
            rows_u[row_starts].tolist(), row_starts.tolist(), row_ends.tolist()
        ):
            row = get_row(i)
            if row is None:
                self._rows[i] = DHBRow.from_arrays(cols_u[lo:hi], vals_u[lo:hi])
                created += hi - lo
            else:
                created += _merge_into_row(row, cols_u[lo:hi], vals_u[lo:hi], combine)
        self._nnz += created
        return created

    def _apply_sorted_compiled(
        self, rows_u, cols_u, vals_u, row_starts, row_ends, combine
    ) -> int:
        """Compiled-tier application of a deduplicated, sorted batch.

        Absent rows are bulk-loaded exactly as in the Python tier; for the
        touched *existing* rows, one jitted call
        (:func:`repro.sparse.kernels.dhb_insert.probe_existing_rows`)
        replaces the per-element dict probes of :func:`_merge_into_row`,
        and the value application reuses the Python tier's vectorised
        NumPy expressions — outputs, adjacency orders and created-counts
        are byte-identical between tiers.
        """
        created = 0
        get_row = self._rows.get
        touched: list[DHBRow] = []
        seg_bounds: list[tuple[int, int]] = []
        ex_sizes: list[int] = []
        ex_chunks: list[np.ndarray] = []
        for i, lo, hi in zip(
            rows_u[row_starts].tolist(), row_starts.tolist(), row_ends.tolist()
        ):
            row = get_row(i)
            if row is None:
                self._rows[i] = DHBRow.from_arrays(cols_u[lo:hi], vals_u[lo:hi])
                created += hi - lo
            else:
                touched.append(row)
                seg_bounds.append((lo, hi))
                ex_sizes.append(row.size)
                ex_chunks.append(row.cols[: row.size])
        if not touched:
            self._nnz += created
            return created
        ex_ptr = np.zeros(len(touched) + 1, dtype=np.int64)
        np.cumsum(ex_sizes, out=ex_ptr[1:])
        ex_cols = np.ascontiguousarray(np.concatenate(ex_chunks))
        new_ptr = np.zeros(len(touched) + 1, dtype=np.int64)
        np.cumsum([hi - lo for lo, hi in seg_bounds], out=new_ptr[1:])
        new_cols = np.ascontiguousarray(
            np.concatenate([cols_u[lo:hi] for lo, hi in seg_bounds])
        )
        slots = probe_existing_rows(ex_cols, ex_ptr, new_cols, new_ptr)
        for r, (row, (lo, hi)) in enumerate(zip(touched, seg_bounds)):
            seg_slots = slots[new_ptr[r] : new_ptr[r + 1]]
            cols_seg = cols_u[lo:hi]
            vals_seg = vals_u[lo:hi]
            hit = seg_slots >= 0
            if np.any(hit):
                hs = seg_slots[hit]
                hv = vals_seg[hit]
                if combine is None:
                    row.vals[hs] = hv
                else:
                    row.vals[hs] = combine(row.vals[hs], hv)
            k = int(np.count_nonzero(~hit))
            if k:
                if k == cols_seg.size:
                    miss_cols, miss_vals = cols_seg, vals_seg
                else:
                    miss_cols, miss_vals = cols_seg[~hit], vals_seg[~hit]
                row.reserve(k)
                start = row.size
                row.cols[start : start + k] = miss_cols
                row.vals[start : start + k] = miss_vals
                if row.index is not None:
                    row.index.update(
                        zip(miss_cols.tolist(), range(start, start + k))
                    )
                row.size += k
                created += k
        self._nnz += created
        return created

    def _bulk_build(self, rows, cols, values, combine) -> int:
        """Vectorised construction of an empty matrix from a large batch.

        Groups the batch by row with one sort, de-duplicates columns within
        each row, and materialises the adjacency arrays and hash indexes
        row-by-row — the Python analogue of the bulk-loading path a real
        DHB implementation uses when a matrix is constructed from scratch.
        """
        coo = COOMatrix(self.shape, rows, cols, values, self.semiring)
        if combine is None:
            canon = coo.last_write_wins()
        else:
            # the semiring's ⊕ is the only vectorisable combiner; other
            # callables fall back to the scattered path
            if combine is not self.semiring.plus and combine != self.semiring.plus:
                return self._insert_scattered(rows, cols, values, combine)
            canon = coo.sum_duplicates()
        csr = CSRMatrix.from_coo(canon, dedup=False)
        created = 0
        indptr = csr.indptr
        indices = csr.indices
        values = csr.values
        for i in np.flatnonzero(np.diff(indptr) > 0):
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            self._rows[int(i)] = DHBRow.from_arrays(indices[lo:hi], values[lo:hi])
            created += hi - lo
        self._nnz += created
        return created

    def _insert_scattered(self, rows, cols, values, combine) -> int:
        """Per-entry application of a scattered batch (pure-Python loop)."""
        created = 0
        dtype = self.semiring.dtype
        rows_l = rows.tolist()
        cols_l = cols.tolist()
        vals_l = values.tolist()
        get_row = self._rows.get
        for i, j, v in zip(rows_l, cols_l, vals_l):
            row = get_row(i)
            if row is None:
                row = DHBRow(dtype)
                self._rows[i] = row
            index = row.index
            if index is None:
                index = row.ensure_index()
            slot = index.get(j)
            if slot is None:
                if row.size >= row.cols.size:
                    row.reserve(1)
                slot = row.size
                row.cols[slot] = j
                row.vals[slot] = v
                index[j] = slot
                row.size += 1
                created += 1
            elif combine is None:
                row.vals[slot] = v
            else:
                row.vals[slot] = combine(row.vals[slot], v)
        self._nnz += created
        return created

    def add_update(self, update: "COOMatrix | DCSRMatrix | CSRMatrix") -> int:
        """``A ← A ⊕ A*`` — algebraic application of an update matrix."""
        coo = _as_coo(update)
        self._check_update(coo)
        return self.insert_batch(
            coo.rows, coo.cols, coo.values, combine=self.semiring.plus
        )

    def merge_update(self, update: "COOMatrix | DCSRMatrix | CSRMatrix") -> int:
        """MERGE(A, A*): overwrite entries of ``A`` present in ``A*``."""
        coo = _as_coo(update)
        self._check_update(coo)
        return self.insert_batch(coo.rows, coo.cols, coo.values, combine=None)

    def mask_update(self, update: "COOMatrix | DCSRMatrix | CSRMatrix") -> int:
        """MASK(A, A*): delete every entry of ``A`` that is non-zero in ``A*``.

        Returns the number of deleted entries (entries of ``A*`` absent from
        ``A`` are ignored, matching the paper's deletion semantics).
        """
        coo = _as_coo(update)
        self._check_update(coo)
        deleted = 0
        table = self._rows
        for i, j in zip(coo.rows.tolist(), coo.cols.tolist()):
            row = table.get(i)
            if row is not None and row.delete(j):
                deleted += 1
                if row.size == 0:
                    del table[i]
        self._nnz -= deleted
        return deleted

    def _check_update(self, coo: COOMatrix) -> None:
        if coo.shape != self.shape:
            raise ValueError(
                f"update shape {coo.shape} does not match matrix shape {self.shape}"
            )
        if coo.semiring.name != self.semiring.name:
            raise ValueError(
                "update semiring "
                f"{coo.semiring.name!r} does not match matrix semiring "
                f"{self.semiring.name!r}"
            )

    # ------------------------------------------------------------------
    # iteration / conversion
    # ------------------------------------------------------------------
    def iter_rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row, cols, vals)`` for non-empty rows in ascending order."""
        for i in sorted(self._rows):
            cols, vals = self._rows[i].as_arrays()
            yield i, cols, vals

    def row_arrays(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of row ``i`` (empty arrays when the row is empty)."""
        row = self._rows.get(int(i))
        if row is None:
            return (
                np.empty(0, dtype=np.int64),
                self.semiring.zeros(0),
            )
        return row.as_arrays()

    def _flat_coo(self) -> COOMatrix:
        """The entries as COO triplets in :func:`_flat_rows` order (unsorted)."""
        flat = _flat_rows(self)
        return COOMatrix(
            shape=self.shape,
            rows=np.repeat(flat.row_ids, np.diff(flat.row_ptr)),
            cols=flat.cols,
            values=flat.vals,
            semiring=self.semiring,
        )

    def to_coo(self) -> COOMatrix:
        """Sorted COO copy of the matrix."""
        return self._flat_coo().sort()

    def to_csr(self) -> CSRMatrix:
        """CSR copy of the matrix (rows sorted by column)."""
        return CSRMatrix.from_coo(self._flat_coo(), dedup=False)

    def to_dcsr(self) -> DCSRMatrix:
        """Doubly-compressed (hypersparse) copy of the matrix."""
        return DCSRMatrix.from_coo(self._flat_coo(), dedup=False)

    def to_dense(self) -> np.ndarray:
        """Dense copy (semiring zeros at structural zeros)."""
        return self._flat_coo().to_dense()

    def copy(self) -> "DHBMatrix":
        """Deep copy of the matrix."""
        return DHBMatrix.from_coo(self._flat_coo(), combine_duplicates=False)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DHBMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"semiring={self.semiring.name!r})"
        )


def _merge_into_row(row: DHBRow, cols: np.ndarray, vals: np.ndarray, combine) -> int:
    """Apply one row's deduplicated batch share to an *existing* row.

    ``cols`` must be unique within the share (the whole-batch dedup of
    :meth:`DHBMatrix._insert_batch_vectorized` guarantees this).  Existing
    entries are combined slot-wise; new entries are appended with one
    vectorised adjacency-array write.  Returns the number of new entries.
    """
    index = row.ensure_index()
    get_slot = index.get
    hit_slots: list[int] = []
    hit_idx: list[int] = []
    miss_idx: list[int] = []
    for t, c in enumerate(cols.tolist()):
        slot = get_slot(c)
        if slot is None:
            miss_idx.append(t)
        else:
            hit_slots.append(slot)
            hit_idx.append(t)
    if hit_slots:
        hs = np.asarray(hit_slots, dtype=np.int64)
        hv = vals[np.asarray(hit_idx, dtype=np.int64)]
        if combine is None:
            row.vals[hs] = hv
        else:
            row.vals[hs] = combine(row.vals[hs], hv)
    k = len(miss_idx)
    if k:
        if k == cols.size:
            miss_cols, miss_vals = cols, vals
        else:
            mi = np.asarray(miss_idx, dtype=np.int64)
            miss_cols, miss_vals = cols[mi], vals[mi]
        row.reserve(k)
        start = row.size
        row.cols[start : start + k] = miss_cols
        row.vals[start : start + k] = miss_vals
        index.update(zip(miss_cols.tolist(), range(start, start + k)))
        row.size += k
    return k


def _as_coo(mat) -> COOMatrix:
    if hasattr(mat, "to_coo"):
        return mat.to_coo()
    raise TypeError(f"cannot interpret {type(mat).__name__} as an update matrix")


def _flat_rows(mat: DHBMatrix):
    """One gather of the row arrays: ascending rows, adjacency order within."""
    return pack_rows(
        (i, row.cols[: row.size], row.vals[: row.size])
        for i, row in sorted(mat._rows.items())
    )


register_row_layout(DHBMatrix)
register_flat_rows(DHBMatrix, _flat_rows)
