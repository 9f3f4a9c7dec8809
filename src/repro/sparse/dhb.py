"""DHB — dynamic hashed blocks (the paper's dynamic matrix layout).

The paper stores dynamic matrices with the DHB data structure of
van der Grinten, Predari and Willich: per-row *adjacency arrays* holding
the column indices and values, plus a hash index from a coordinate to its
slot in the adjacency array.  This yields O(1) expected time for discovering
whether ``(i, j)`` is present and for inserting, deleting or overwriting an
entry — which is what makes purely local application of update batches
cheap.

:class:`DHBMatrix` keeps a whole block in a handful of NumPy arrays, so that
a batch is applied by a few array passes rather than a Python loop:

* ``_start`` / ``_size`` / ``_cap`` — one integer per block row: where the
  row's adjacency array begins in the arena, how many entries are live, how
  many fit.
* ``_cols`` / ``_vals`` — the pooled arena.  A row that outgrows its
  capacity is relocated to the arena's end with at least doubled capacity;
  a row that loses its last entry gives its extent up.  When more than half
  of the used arena is dead, the live extents are compacted in place.
* ``_tkeys`` / ``_tslots`` — **one** open-addressing hash table (triangular
  probing, tombstones on delete, rebuilt when live + tombstones exceed 5/8
  of the table) keyed on ``row * n_cols + col``.  It stores the entry's slot
  *within its row*, so relocation and compaction never touch it.

Within-row order is observable (it is the order local SpGEMM sums terms in)
and follows two rules.  New entries of a batch are appended in ascending
column order.  A row that loses entries has its holes filled from its tail:
the surviving entries of the last ``d`` slots move into the ``d`` vacated
slots before them, both taken in ascending slot order — swap-with-last
when ``d == 1``.  Batches below :data:`_SCALAR_BATCH` entries run the same
two rules through Python scalars, because a few dozen array passes cost more
than a few dozen probes; both routes leave identical storage.

The batch operations are those of Section IV-A: semiring ``ADD``, ``MERGE``
(overwrite) and ``MASK`` (delete).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.perf.recorder import perf_count
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.dcsr import DCSRMatrix
from repro.sparse.layout import FlatRows, _ranges, _runs

__all__ = ["DHBMatrix", "DHBStorage"]

_INITIAL_CAPACITY = 4
_MIN_TABLE_BITS = 4
_EMPTY, _TOMBSTONE = -1, -2
#: 2^64 / golden ratio: multiplicative hashing takes the product's top bits
_HASH = 0x9E3779B97F4A7C15
_HASH_I64 = np.int64(_HASH - (1 << 64))
_WORD = (1 << 64) - 1

#: Batches with fewer entries than this are applied entry by entry.  The
#: array route costs 30-50 µs whatever the batch size and a scalar
#: probe-and-write 2-3 µs; measured, inserts cross near 40 entries and
#: deletes near 16 (``docs/performance.md``, "Updates scale with the batch").
_SCALAR_BATCH = 32
#: ... and the last few keys of a vectorised probe finish one by one
_STRAGGLERS = 8


class DHBStorage(NamedTuple):
    """Everything observable about a :class:`DHBMatrix`, as arrays.

    ``row_ids`` (ascending) are the rows that own an arena extent; ``sizes``
    and ``capacities`` are aligned with them; ``cols`` / ``vals`` hold the
    live entries of those rows back to back in adjacency order.
    """

    row_ids: np.ndarray
    sizes: np.ndarray
    capacities: np.ndarray
    grow_count: int
    cols: np.ndarray
    vals: np.ndarray


class DHBMatrix:
    """Dynamic sparse matrix with O(1) expected per-entry updates."""

    def __init__(self, shape: tuple[int, int], semiring: Semiring = PLUS_TIMES) -> None:
        n, m = int(shape[0]), int(shape[1])
        if n < 0 or m < 0:
            raise ValueError(f"invalid shape {shape}")
        if n * m >= 1 << 62:
            raise ValueError(f"shape {shape} overflows the 64-bit hash key")
        self.shape = (n, m)
        self.semiring = semiring
        self._start = np.zeros(n, dtype=np.int64)
        self._size = np.zeros(n, dtype=np.int64)
        self._cap = np.zeros(n, dtype=np.int64)
        self._cols = np.empty(0, dtype=np.int64)
        self._vals = np.empty(0, dtype=semiring.dtype)
        self._end = 0  # arena slots handed out so far
        self._live_cap = 0  # ... of which still belong to a row
        self._nnz = 0
        #: adjacency-array reallocations so far (memory-management work)
        self.grow_count = 0
        #: the index is built by the first probe: a block that is only ever
        #: loaded and read (a SUMMA result, a decoded snapshot) never pays
        self._tkeys: np.ndarray | None = None

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
    def from_dense(cls, dense: np.ndarray, semiring: Semiring = PLUS_TIMES) -> "DHBMatrix":
        """Build from a dense array, skipping semiring zeros."""
        return cls.from_coo(COOMatrix.from_dense(dense, semiring))

    @classmethod
    def empty(cls, shape: tuple[int, int], semiring: Semiring = PLUS_TIMES) -> "DHBMatrix":
        """An empty matrix of the given shape."""
        return cls(shape, semiring)

    @classmethod
    def from_storage(
        cls, shape: tuple[int, int], semiring: Semiring, storage: DHBStorage
    ) -> "DHBMatrix":
        """Rebuild a matrix from :meth:`storage` (the hash table is re-derived).

        Raises :class:`ValueError` before building anything when the arrays
        contradict each other or the shape.
        """
        ids, sizes, caps = (
            np.asarray(a, dtype=np.int64)
            for a in (storage.row_ids, storage.sizes, storage.capacities)
        )
        cols = np.asarray(storage.cols, dtype=np.int64)
        vals = semiring.coerce(storage.vals)
        n, m = shape
        if not (ids.ndim == cols.ndim == 1 and ids.shape == sizes.shape == caps.shape):
            raise ValueError("row ids, sizes and capacities must be aligned 1-D arrays")
        if ids.size and (ids[0] < 0 or ids[-1] >= n or np.any(ids[1:] <= ids[:-1])):
            raise ValueError("row ids must be strictly increasing and inside the shape")
        if np.any(sizes < 0) or np.any(sizes > caps) or np.any(caps <= 0):
            raise ValueError("every row needs 0 <= size <= capacity and capacity > 0")
        if not (int(sizes.sum()) == cols.size == vals.size):
            raise ValueError("sizes do not sum to the number of stored entries")
        if cols.size and (cols.min() < 0 or cols.max() >= m):
            raise ValueError(f"stored column outside matrix of shape {tuple(shape)}")
        keys = np.repeat(ids * m, sizes) + cols
        if np.unique(keys).size != keys.size:
            raise ValueError("a row stores the same column twice")
        out = cls(shape, semiring)
        total = int(caps.sum())
        out._start[ids] = np.cumsum(caps) - caps
        out._size[ids] = sizes
        out._cap[ids] = caps
        out._cols = np.empty(total, dtype=np.int64)
        out._vals = np.empty(total, dtype=semiring.dtype)
        at = _ranges(out._start[ids], sizes)
        out._cols[at] = cols
        out._vals[at] = vals
        out._end = out._live_cap = total
        out._nnz = cols.size
        out.grow_count = int(storage.grow_count)
        return out

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
        return int(np.count_nonzero(self._size))

    @property
    def nbytes(self) -> int:
        """Modelled memory footprint in bytes (entries, index, row table)."""
        # live data + hash index footprint (8 bytes key + 8 bytes slot)
        return self._nnz * (24 + self._vals.itemsize) + 32 * self.n_nonzero_rows

    # ------------------------------------------------------------------
    # the hash index
    # ------------------------------------------------------------------
    def _new_table(self, bits: int) -> None:
        # keys of an ordinary block fit 32 bits, which is a third of the table
        narrow = self.shape[0] * self.shape[1] < 1 << 31
        self._tkeys = np.full(1 << bits, _EMPTY, dtype=np.int32 if narrow else np.int64)
        self._tslots = np.zeros(1 << bits, dtype=np.int32)
        self._shift = 64 - bits
        self._used = 0  # live keys + tombstones

    def _crowded(self, extra: int) -> bool:
        """Whether ``extra`` more keys would load the table beyond 5/8."""
        return 8 * (self._used + extra) > 5 * self._tkeys.size

    def _rebuild(self, spare: int = 0) -> None:
        """Fresh table holding every live entry and no tombstones.

        Sized so that the live entries and ``spare`` more load it to at most
        5/16: half the bound, so a rebuild pays for itself.
        """
        self._new_table(
            max(_MIN_TABLE_BITS, (16 * (self._nnz + spare) // 5).bit_length())
        )
        if self._nnz:
            self._enter(*self._live_keys())

    def _live_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """``(key, slot within its row)`` of every live entry, read from the arena."""
        ids = np.flatnonzero(self._size)
        lens = self._size[ids]
        cols = self._cols[_ranges(self._start[ids], lens)]
        return (ids * self.shape[1]).repeat(lens) + cols, _ranges(lens * 0, lens)

    def _index(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Index entries just written to the arena (``_nnz`` counts them)."""
        if self._tkeys is None:
            return
        if self._crowded(keys.size):
            self._rebuild()
        else:
            self._enter(keys, slots)

    def _enter(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Store distinct, absent ``keys``; tombstones are not reused."""
        tkeys, tslots = self._tkeys, self._tslots
        mask = tkeys.size - 1
        self._used += keys.size
        pos = ((keys * _HASH_I64) >> self._shift) & mask
        step = 0
        while keys.size > _STRAGGLERS:
            free = (tkeys[pos] == _EMPTY).nonzero()[0]
            # several keys may claim one cell; the last write wins it and the
            # others, like the keys that met a taken cell, probe on
            tkeys[pos[free]] = keys[free]
            won = tkeys[pos] == keys
            tslots[pos[won]] = slots[won]
            lost = ~won
            step += 1
            keys, slots, pos = keys[lost], slots[lost], (pos[lost] + step) & mask
        for key, slot, p in zip(keys.tolist(), slots.tolist(), pos.tolist()):
            p = ~self._walk(key, p, step)
            tkeys[p] = key
            tslots[p] = slot

    def _probe(self, keys: np.ndarray) -> np.ndarray:
        """Table position of each key, ``-1`` where the key is absent."""
        if self._tkeys is None:
            self._rebuild()
        tkeys = self._tkeys
        mask = tkeys.size - 1
        pos = ((keys * _HASH_I64) >> self._shift) & mask
        seen = tkeys[pos]
        match = seen == keys
        out = np.where(match, pos, -1)
        todo = (~match & (seen != _EMPTY)).nonzero()[0]
        step = 0
        while todo.size > _STRAGGLERS:
            step += 1
            pos_t = (pos[todo] + step) & mask
            pos[todo] = pos_t
            seen = tkeys[pos_t]
            match = seen == keys[todo]
            out[todo[match]] = pos_t[match]
            todo = todo[~match & (seen != _EMPTY)]
        for t in todo.tolist():
            out[t] = max(self._walk(keys.item(t), (pos.item(t) + step + 1) & mask, step + 1), -1)
        return out

    def _walk(self, key: int, p: int, step: int) -> int:
        """Follow ``key``'s probe sequence from cell ``p`` (reached in ``step`` hops).

        Returns the cell holding ``key``, or ``~p`` of the empty cell that
        ends the sequence.  Hop ``k`` is ``k`` cells long: triangular probing
        visits every cell of a power-of-two table and does not pile up.
        """
        seen_at = self._tkeys.item
        mask = self._tkeys.size - 1
        while True:
            seen = seen_at(p)
            if seen == key:
                return p
            if seen == _EMPTY:
                return ~p
            step += 1
            p = (p + step) & mask

    def _find(self, key: int) -> int:
        """:meth:`_walk` from the key's home cell."""
        if self._tkeys is None:
            self._rebuild()
        return self._walk(key, ((key * _HASH) & _WORD) >> self._shift, 0)

    # ------------------------------------------------------------------
    # the arena
    # ------------------------------------------------------------------
    def _make_room(self, extra: int) -> None:
        """Guarantee ``extra`` free slots past ``_end`` (compact, then enlarge)."""
        if self._end + extra <= self._cols.size:
            return
        if self._end > 2 * self._live_cap:
            ids = np.flatnonzero(self._cap)
            caps, sizes = self._cap[ids], self._size[ids]
            starts = caps.cumsum() - caps
            src, dst = _ranges(self._start[ids], sizes), _ranges(starts, sizes)
            # the right-hand sides are gathered before anything is written
            self._cols[dst] = self._cols[src]
            self._vals[dst] = self._vals[src]
            self._start[ids] = starts
            self._end = self._live_cap
        if self._end + extra > self._cols.size:
            length = max(2 * self._cols.size, self._end + extra)
            for name in ("_cols", "_vals"):
                old = getattr(self, name)
                new = np.empty(length, dtype=old.dtype)
                new[: self._end] = old[: self._end]
                setattr(self, name, new)

    def _grow(self, rows: np.ndarray, need: np.ndarray) -> int:
        """Give each of the distinct ``rows`` room for ``need`` entries.

        Rows that are short move to the arena's end with capacity
        ``max(need, 2 * capacity, 4)``.  Returns how many of them had an
        extent before (the reallocations).
        """
        caps = self._cap[rows]
        short = need > caps
        if not short.all():
            if not short.any():
                return 0
            rows, need, caps = rows[short], need[short], caps[short]
        new_caps = np.maximum(need, np.maximum(2 * caps, _INITIAL_CAPACITY))
        total = int(new_caps.sum())
        self._make_room(total)
        starts = self._end + new_caps.cumsum() - new_caps
        sizes = self._size[rows]
        if sizes.any():
            src, dst = _ranges(self._start[rows], sizes), _ranges(starts, sizes)
            self._cols[dst] = self._cols[src]
            self._vals[dst] = self._vals[src]
        self._start[rows] = starts
        self._cap[rows] = new_caps
        self._end += total
        self._live_cap += total - int(caps.sum())
        grown = int(np.count_nonzero(caps))
        self.grow_count += grown
        return grown

    def _grow_one(self, i: int, need: int) -> None:
        """:meth:`_grow` for one row known to be short, in Python scalars."""
        cap = self._cap.item(i)
        new_cap = max(need, 2 * cap, _INITIAL_CAPACITY)
        self._make_room(new_cap)
        size, start, end = self._size.item(i), self._start.item(i), self._end
        if size:
            self._cols[end : end + size] = self._cols[start : start + size]
            self._vals[end : end + size] = self._vals[start : start + size]
        self._start[i] = end
        self._cap[i] = new_cap
        self._end = end + new_cap
        self._live_cap += new_cap - cap
        self.grow_count += cap > 0

    def _remove(self, i: int, gone: dict[int, int]) -> None:
        """Delete the entries of row ``i`` at the slots ``gone`` (slot -> table cell).

        The module docstring's hole fill, in Python scalars.
        """
        size, start = self._size.item(i), self._start.item(i)
        left = size - len(gone)
        for p in gone.values():
            self._tkeys[p] = _TOMBSTONE
        holes = sorted(slot for slot in gone if slot < left)
        movers = [slot for slot in range(left, size) if slot not in gone]
        for hole, mover in zip(holes, movers):
            col = self._cols.item(start + mover)
            self._cols[start + hole] = col
            self._vals[start + hole] = self._vals[start + mover]
            self._tslots[self._find(i * self.shape[1] + col)] = hole
        self._size[i] = left
        if not left:
            self._live_cap -= self._cap.item(i)
            self._cap[i] = 0
        self._nnz -= len(gone)

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
        p = self._find(int(i) * self.shape[1] + int(j))
        if p < 0:
            return self.semiring.zero if default is None else default
        return self._vals[self._start.item(i) + self._tslots.item(p)]

    def contains(self, i: int, j: int) -> bool:
        """``True`` when ``(i, j)`` is a structural non-zero."""
        self._check_bounds(i, j)
        return self._find(int(i) * self.shape[1] + int(j)) >= 0

    def contains_batch(self, rows, cols) -> np.ndarray:
        """Boolean mask: which ``(rows[k], cols[k])`` are structural non-zeros."""
        keys = self._batch_keys(
            np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        )
        if keys.size < _SCALAR_BATCH:
            return np.array([self._find(k) >= 0 for k in keys.tolist()], dtype=bool)
        return self._probe(keys) >= 0

    def insert(self, i: int, j: int, value, combine=None) -> bool:
        """Insert or update a single entry; returns ``True`` if new."""
        self._check_bounds(i, j)
        i, j = int(i), int(j)
        return bool(self._apply_scalar([i * self.shape[1] + j], [i], [j], [value], combine))

    def delete(self, i: int, j: int) -> bool:
        """Delete a single entry; returns ``True`` if it existed."""
        self._check_bounds(i, j)
        i = int(i)
        p = self._find(i * self.shape[1] + int(j))
        if p < 0:
            return False
        self._remove(i, {self._tslots.item(p): p})
        return True

    # ------------------------------------------------------------------
    # batch operations (Section IV-A)
    # ------------------------------------------------------------------
    def _batch_keys(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Hash keys of validated batch coordinates."""
        if rows.size != cols.size:
            raise ValueError("rows and cols must have identical lengths")
        n, m = self.shape
        if rows.size and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m
        ):
            raise IndexError(f"batch entry outside matrix of shape {self.shape}")
        return rows * m + cols

    def reserve_batch(self, rows: np.ndarray) -> int:
        """Pre-grow adjacency arrays for a batch landing on ``rows``.

        Returns the number of reallocations performed; the distributed
        insertion path charges this step to the *memory management*
        category of the Fig. 7 breakdown.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0
        if rows.min() < 0 or rows.max() >= self.shape[0]:
            raise IndexError(f"batch row outside matrix of shape {self.shape}")
        unique, counts = np.unique(rows, return_counts=True)
        return self._grow(unique, self._size[unique] + counts)

    def insert_batch(self, rows, cols, values, combine=None) -> int:
        """Insert a batch of triplets; returns the number of new non-zeros.

        ``combine`` handles collisions with existing entries (and between
        duplicate triplets inside the batch): ``None`` overwrites (last
        write wins), a callable combines, e.g. the semiring's ``plus`` for
        additive updates.  Duplicates are folded first (an arbitrary
        combiner applies them one by one, in batch order); entries already
        present are then combined in place and new ones appended to their
        rows in ascending column order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = self.semiring.coerce(values)
        if rows.size != values.size:
            raise ValueError("rows, cols and values must have identical lengths")
        return self._insert(self._batch_keys(rows, cols), rows, cols, values, combine)

    def _insert(self, keys, rows, cols, values, combine) -> int:
        """:meth:`insert_batch` on coordinates already checked against the shape."""
        if rows.size == 0:
            return 0
        perf_count("dhb.insert.entries", rows.size)
        created = self._apply(keys, rows, cols, values, combine)
        perf_count("dhb.insert.created", created)
        return created

    def _apply(self, keys, rows, cols, values, combine) -> int:
        if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
            # stable, so equal keys keep their batch order
            order = np.argsort(keys, kind="stable")
            keys, rows, cols, values = keys[order], rows[order], cols[order], values[order]
            same = keys[1:] == keys[:-1]
            if same.any():
                if combine is None:
                    pick = np.flatnonzero(np.append(~same, True))
                    values = values[pick]
                elif combine == self.semiring.plus:
                    pick = np.flatnonzero(np.append(True, ~same))
                    values = self.semiring.add_reduceat(values, pick)
                else:
                    # fold(combine(existing, v1) .. vk) is not
                    # combine(existing, fold(v1 .. vk)) for every combiner
                    return sum(
                        self.insert(i, j, v, combine)
                        for i, j, v in zip(rows.tolist(), cols.tolist(), values)
                    )
                keys, rows, cols = keys[pick], rows[pick], cols[pick]
        if keys.size < _SCALAR_BATCH:
            return self._apply_scalar(
                keys.tolist(), rows.tolist(), cols.tolist(), values.tolist(), combine
            )
        if self._nnz:
            at = self._probe(keys)
            hit = at >= 0
            n_hit = int(np.count_nonzero(hit))
            if n_hit:
                # a value update hits everywhere: nothing to select then
                partial = n_hit < keys.size
                h_rows, h_at, h_vals = rows, at, values
                if partial:
                    h_rows, h_at, h_vals = rows[hit], at[hit], values[hit]
                where = self._start[h_rows] + self._tslots[h_at]
                if combine is not None:
                    h_vals = combine(self._vals[where], h_vals)
                self._vals[where] = h_vals
                if not partial:
                    return 0
                miss = ~hit
                keys, rows, cols, values = keys[miss], rows[miss], cols[miss], values[miss]
        first, counts = _runs(rows)
        touched = rows[first]
        sizes = self._size[touched]
        self._grow(touched, sizes + counts)
        slots = _ranges(sizes, counts)
        where = self._start[touched].repeat(counts) + slots
        self._cols[where] = cols
        self._vals[where] = values
        self._size[touched] = sizes + counts
        self._nnz += keys.size
        self._index(keys, slots)
        return int(keys.size)

    def _apply_scalar(self, keys: list, rows: list, cols: list, values: list, combine) -> int:
        """:meth:`_apply` for a few distinct ascending keys, in Python scalars."""
        if self._tkeys is None or self._crowded(len(keys)):
            self._rebuild(spare=len(keys))
        find, vals = self._find, self._vals
        tkeys, tslots, start = self._tkeys, self._tslots, self._start
        next_slot: dict[int, int] = {}
        new: list[tuple] = []
        for key, i, j, v in zip(keys, rows, cols, values):
            p = find(key)
            if p >= 0:
                at = start.item(i) + tslots.item(p)
                vals[at] = v if combine is None else combine(vals[at], v)
            else:
                slot = next_slot.get(i)
                if slot is None:
                    slot = self._size.item(i)
                next_slot[i] = slot + 1
                tkeys[~p] = key
                tslots[~p] = slot
                new.append((i, slot, j, v))
        for i, need in next_slot.items():
            if need > self._cap.item(i):
                self._grow_one(i, need)
            self._size[i] = need
        cols_a, vals = self._cols, self._vals  # _grow_one may have replaced them
        for i, slot, j, v in new:
            at = start.item(i) + slot
            cols_a[at] = j
            vals[at] = v
        self._used += len(new)
        self._nnz += len(new)
        return len(new)

    def delete_batch(self, rows, cols) -> int:
        """Delete the given coordinates; returns how many were present."""
        return self._delete(
            self._batch_keys(np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))
        )

    def _delete(self, keys: np.ndarray) -> int:
        if keys.size == 0 or not self._nnz:
            return 0
        if keys.size < _SCALAR_BATCH:
            found: dict[int, dict[int, int]] = {}
            for key in keys.tolist():
                p = self._find(key)
                if p >= 0:
                    found.setdefault(key // self.shape[1], {})[self._tslots.item(p)] = p
            for i, gone in found.items():
                self._remove(i, gone)
            return sum(map(len, found.values()))
        if not (keys[1:] > keys[:-1]).all():
            keys = np.unique(keys)
        at = self._probe(keys)
        hit = at >= 0
        at, rows = at[hit], keys[hit] // self.shape[1]
        if at.size == 0:
            return 0
        slots = self._tslots[at]
        self._tkeys[at] = _TOMBSTONE
        first, lost = _runs(rows)
        touched = rows[first]
        starts = self._start[touched]
        left = self._size[touched] - lost
        cols_a, vals = self._cols, self._vals
        cols_a[starts.repeat(lost) + slots] = -1  # marks the dead in the tails
        tails = _ranges(starts + left, lost)
        movers = tails[cols_a[tails] >= 0]
        if movers.size:
            hole = slots < left.repeat(lost)
            h_rows, h_slots = rows[hole], slots[hole]
            if lost.max() > 1:
                order = np.lexsort((h_slots, h_rows))
                h_rows, h_slots = h_rows[order], h_slots[order]
            moved_cols = cols_a[movers]
            where = self._start[h_rows] + h_slots
            cols_a[where] = moved_cols
            vals[where] = vals[movers]
            self._tslots[self._probe(h_rows * self.shape[1] + moved_cols)] = h_slots
        self._size[touched] = left
        emptied = touched[left == 0]
        if emptied.size:
            self._live_cap -= int(self._cap[emptied].sum())
            self._cap[emptied] = 0
        self._nnz -= at.size
        return int(at.size)

    def add_update(self, update: "COOMatrix | DCSRMatrix | CSRMatrix") -> int:
        """``A ← A ⊕ A*`` — algebraic application of an update matrix."""
        coo, keys = self._update(update)
        return self._insert(keys, coo.rows, coo.cols, coo.values, self.semiring.plus)

    def merge_update(self, update: "COOMatrix | DCSRMatrix | CSRMatrix") -> int:
        """MERGE(A, A*): overwrite entries of ``A`` present in ``A*``."""
        coo, keys = self._update(update)
        return self._insert(keys, coo.rows, coo.cols, coo.values, None)

    def mask_update(self, update: "COOMatrix | DCSRMatrix | CSRMatrix") -> int:
        """MASK(A, A*): delete every entry of ``A`` that is non-zero in ``A*``.

        Returns the number of deleted entries (entries of ``A*`` absent from
        ``A`` are ignored, matching the paper's deletion semantics).
        """
        return self._delete(self._update(update)[1])

    def _update(self, update) -> tuple[COOMatrix, np.ndarray]:
        """The update as COO and its keys; refused unless shape and semiring match.

        A valid update matrix of our shape has its coordinates in range and
        its values in the semiring's dtype, so neither is checked again.
        """
        coo = _as_coo(update)
        for what, theirs, ours in (
            ("shape", coo.shape, self.shape),
            ("semiring", coo.semiring.name, self.semiring.name),
        ):
            if theirs != ours:
                raise ValueError(f"update {what} {theirs!r} does not match matrix {what} {ours!r}")
        return coo, coo.rows * self.shape[1] + coo.cols

    # ------------------------------------------------------------------
    # row access / conversion
    # ------------------------------------------------------------------
    def flat_rows(self, rows: np.ndarray | None = None) -> FlatRows:
        """One gather of adjacency arrays, each in its adjacency order.

        All non-empty rows in ascending order, or exactly ``rows`` (distinct
        ids, empty rows included) in the order given.
        """
        ids = np.flatnonzero(self._size) if rows is None else rows
        lens = self._size[ids]
        row_ptr = np.zeros(ids.size + 1, dtype=np.int64)
        np.cumsum(lens, out=row_ptr[1:])
        at = _ranges(self._start[ids], lens)
        return FlatRows(ids, row_ptr, self._cols[at], self._vals[at])

    def storage(self) -> DHBStorage:
        """The state a faithful copy needs (see :class:`DHBStorage`)."""
        ids = np.flatnonzero(self._cap)
        flat = self.flat_rows(ids)
        return DHBStorage(
            ids, self._size[ids], self._cap[ids], self.grow_count, flat.cols, flat.vals
        )

    def _flat_coo(self) -> COOMatrix:
        """The entries as COO triplets in :meth:`flat_rows` order (unsorted)."""
        flat = self.flat_rows()
        rows = np.repeat(flat.row_ids, np.diff(flat.row_ptr))
        return COOMatrix._unchecked(self.shape, rows, flat.cols, flat.vals, self.semiring)

    def to_coo(self) -> COOMatrix:
        """Sorted COO copy of the matrix."""
        return self._flat_coo().sort()

    def to_csr(self) -> CSRMatrix:
        """CSR copy of the matrix (rows sorted by column)."""
        return CSRMatrix.from_coo(self._flat_coo(), dedup=False)

    def to_dense(self) -> np.ndarray:
        """Dense copy (semiring zeros at structural zeros)."""
        return self._flat_coo().to_dense()

    def copy(self) -> "DHBMatrix":
        """Deep copy of the matrix, array for array."""
        out = DHBMatrix.__new__(DHBMatrix)
        for name, value in vars(self).items():
            setattr(out, name, value.copy() if isinstance(value, np.ndarray) else value)
        return out

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DHBMatrix(shape={self.shape}, nnz={self.nnz}, semiring={self.semiring.name!r})"


def _as_coo(mat) -> COOMatrix:
    if hasattr(mat, "to_coo"):
        return mat.to_coo()
    raise TypeError(f"cannot interpret {type(mat).__name__} as an update matrix")
