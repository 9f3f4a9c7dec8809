"""Local (within one rank) SpGEMM kernels.

The distributed algorithms reduce to repeated *local* multiplications of a
(usually hypersparse) left operand with a local block of the right operand.
Every such multiplication, in every semiring, runs through one
expand–sort–compress (ESC) kernel, the SpGEMM of Dalton, Olson and Bell
(ACM TOMS 2015), over whole blocks in NumPy:

* **expand** every term ``(i, j, a_ik ⊗ b_kj, bit(k))`` in Gustavson's
  order — the left operand's rows ascending, ``k`` in native in-row order,
  then the ``B`` row in native order;
* **sort** the terms with one stable sort by ``(i, j)`` (one NumPy sort of
  keys packed with their positions, :func:`_stable_sort`);
* **compress** each run with one ``Semiring.add_reduceat`` and one
  ``bitwise_or.reduceat``.

A stable sort keeps Gustavson's order inside every run, and a ``reduceat``
segment does not depend on where it sits in the buffer, so each output
entry is ⊕-folded exactly as a row-by-row Gustavson loop would fold it.
The entry points:

* :func:`spgemm_local` — ``C = A ⊗.⊕ B``, optionally with the Bloom-filter
  bits of Section V-B.  An entry whose terms cancel, or that is formed from
  explicit zeros, is kept, whatever the semiring and the Bloom request.
* :func:`spgemm_local_masked` — the masked variant used by the
  general-update algorithm: only output positions in a ``C*`` pattern
  ``(rows, cols)`` are produced (Section VI-B builds a hash table of it;
  here membership is one ``searchsorted`` of ``row·m + col`` keys).
* :func:`spgemm_rowwise_spa` — a literal sparse-accumulator implementation
  (slow, loop-based) kept as an independent oracle for tests.
"""

from __future__ import annotations

import numpy as np

from repro.perf.recorder import perf_count
from repro.semirings import Semiring
from repro.sparse.bloom import BLOOM_BITS, BloomFilterMatrix
from repro.sparse.coo import COOMatrix
from repro.sparse.dcsr import DCSRMatrix
from repro.sparse.dhb import DHBMatrix
from repro.sparse.layout import _ranges, _runs
from repro.sparse.spa import SparseAccumulator

__all__ = ["spgemm_local", "spgemm_local_masked", "spgemm_rowwise_spa"]


def _check_shapes(a_shape: tuple[int, int], b_shape: tuple[int, int]) -> tuple[int, int]:
    n, k = a_shape
    k2, m = b_shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_shape} x {b_shape}")
    return n, m


def _live_entries(a, b, semiring: Semiring):
    """``a`` without the entries that meet an empty row of a smaller ``b``.

    In the Y-term ``A·B*`` almost every entry of the big left operand meets
    an empty row.  The survivors keep their indices and their native in-row
    order (one flat gather, one filter, no sort), so the kernel forms the
    same terms in the same order as on the whole operand: values, explicit
    zeros, Bloom bits and ``spgemm.*`` counts cannot change.
    """
    if b.nnz >= a.nnz:
        return a
    fa, fb = a.flat_rows(), b.flat_rows()
    keep = np.isin(fa.cols, fb.row_ids[np.diff(fb.row_ptr) > 0])
    rows = np.repeat(fa.row_ids, np.diff(fa.row_ptr))[keep]
    nz_rows, starts = np.unique(rows, return_index=True)
    indptr = np.append(starts, rows.size)
    return DCSRMatrix._unchecked(
        a.shape, nz_rows, indptr, fa.cols[keep], fa.vals[keep], semiring
    )


def _stable_sort(keys: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, keys[order])`` for the stable sort of ``0 <= keys < bound``.

    Each key is packed with its position into one int64, so no two values
    are equal and NumPy's vectorised (unstable) sort returns exactly the
    stable order, faster than a stable argsort plus a gather.  Where the
    packed value would not fit in 63 bits, a stable argsort gives the same
    permutation.
    """
    width = max(keys.size - 1, 1).bit_length()
    if (bound - 1).bit_length() + width > 63:
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = np.sort((keys << width) | np.arange(keys.size))
    return packed & ((1 << width) - 1), packed >> width


def _esc(
    a,
    b,
    semiring: Semiring,
    *,
    compute_bloom: bool,
    inner_offset: int,
    mask=None,
) -> tuple[COOMatrix, BloomFilterMatrix | None, int, int]:
    """Expand–sort–compress ``A·B``, restricted to the pattern ``mask`` if given.

    Returns ``(C, F or None, terms, rows)``: ``terms`` counts the expanded
    terms (of the left rows the mask keeps, before the mask filters them)
    and ``rows`` the output rows that received an entry.
    """
    shape = _check_shapes(a.shape, b.shape)
    m = shape[1]
    fa = a.flat_rows()
    a_rows = np.repeat(fa.row_ids, np.diff(fa.row_ptr))
    a_cols, a_vals = fa.cols, fa.vals
    if mask is not None:
        mask_rows, mask_cols = mask
        in_mask = np.isin(a_rows, mask_rows)
        a_rows, a_cols, a_vals = a_rows[in_mask], a_cols[in_mask], a_vals[in_mask]
    # B's rows: a DHB block gathers only those A selects; the others are
    # read zero-copy (CSR, DCSR) or packed once (COO)
    fb = b.flat_rows(np.unique(a_cols)) if isinstance(b, DHBMatrix) else b.flat_rows()
    b_start = np.zeros(b.shape[0], dtype=np.int64)
    b_len = np.zeros(b.shape[0], dtype=np.int64)
    b_start[fb.row_ids] = fb.row_ptr[:-1]
    b_len[fb.row_ids] = np.diff(fb.row_ptr)

    # expand: term (i, j) is keyed i·m + j
    lens = b_len[a_cols]
    at = _ranges(b_start[a_cols], lens)
    keys = np.repeat(a_rows * np.int64(m), lens) + fb.cols[at]
    vals = semiring.times(np.repeat(a_vals, lens), fb.vals[at])
    n_terms = int(keys.size)
    if compute_bloom:
        shift = (np.repeat(a_cols, lens) + inner_offset) % BLOOM_BITS
        bits = np.uint64(1) << shift.astype(np.uint64)
    if mask is not None:
        mask_keys = np.unique(mask_rows * np.int64(m) + mask_cols)
        pos = np.minimum(np.searchsorted(mask_keys, keys), mask_keys.size - 1)
        kept = mask_keys[pos] == keys
        keys, vals = keys[kept], vals[kept]
        if compute_bloom:
            bits = bits[kept]

    bloom = BloomFilterMatrix(shape) if compute_bloom else None
    if keys.size == 0:
        return COOMatrix.empty(shape, semiring), bloom, n_terms, 0
    # sort
    order, keys = _stable_sort(keys, shape[0] * m)
    starts, _ = _runs(keys)
    # compress
    out_rows, out_cols = np.divmod(keys[starts], m)
    result = COOMatrix._unchecked(
        shape, out_rows, out_cols, semiring.add_reduceat(vals[order], starts), semiring
    )
    if compute_bloom:
        bloom = BloomFilterMatrix.from_arrays(
            shape, out_rows, out_cols, np.bitwise_or.reduceat(bits[order], starts)
        )
    return result, bloom, n_terms, int(np.count_nonzero(np.diff(out_rows))) + 1


# ----------------------------------------------------------------------
# main kernels
# ----------------------------------------------------------------------
def spgemm_local(
    a,
    b,
    semiring: Semiring,
    *,
    compute_bloom: bool = False,
    inner_offset: int = 0,
) -> tuple[COOMatrix, BloomFilterMatrix | None]:
    """Local SpGEMM ``C = A ⊗.⊕ B`` returning ``(C as COO, bloom or None)``.

    Parameters
    ----------
    a, b:
        Left / right operand in any of the local layouts (COO, CSR, DCSR,
        DHB) or any operand with ``shape``, ``nnz`` and ``flat_rows()``.
    semiring:
        Semiring used for ⊗ and ⊕.
    compute_bloom:
        When ``True``, also return a :class:`BloomFilterMatrix` with bit
        ``k mod 64`` set in entry ``(i, j)`` whenever the term
        ``a_{i,k} ⊗ b_{k,j}`` contributed to ``c_{i,j}``.  The product's
        entries are the same either way.
    inner_offset:
        Added to the local inner index ``k`` before folding it into the
        Bloom bitfield.  Distributed callers pass the global column offset
        of the left operand's block so that bits refer to *global* inner
        indices.
    """
    _check_shapes(a.shape, b.shape)
    perf_count("spgemm.rowwise_calls")
    result, bloom, n_terms, n_rows = _esc(
        _live_entries(a, b, semiring),
        b,
        semiring,
        compute_bloom=compute_bloom,
        inner_offset=inner_offset,
    )
    perf_count("spgemm.terms", n_terms)
    perf_count("spgemm.rows", n_rows)
    perf_count("spgemm.output_nnz", result.nnz)
    return result, bloom


def spgemm_local_masked(
    a,
    b,
    semiring: Semiring,
    mask,
    *,
    compute_bloom: bool = True,
    inner_offset: int = 0,
) -> tuple[COOMatrix, BloomFilterMatrix | None]:
    """Masked local SpGEMM: only output positions in the pattern ``mask``.

    ``mask`` is a ``(rows, cols)`` pair of coordinate arrays in the output
    block (the received ``C*`` pattern, which carries no values): the
    allowed positions.  Left rows with no mask entry are not expanded at
    all.
    This is the kernel of Algorithm 2's local step
    ``Z, H ← A^R_{k,i} B'_{i,j} masked at C*_{k,j}``.
    """
    result, bloom, n_terms, n_rows = _esc(
        _live_entries(a, b, semiring),
        b,
        semiring,
        compute_bloom=compute_bloom,
        inner_offset=inner_offset,
        mask=mask,
    )
    perf_count("spgemm.masked_terms", n_terms)
    perf_count("spgemm.masked_rows", n_rows)
    return result, bloom


def spgemm_rowwise_spa(a, b, semiring: Semiring, *, mask=None) -> COOMatrix:
    """Reference Gustavson SpGEMM using an explicit sparse accumulator.

    Slow but simple; used by the test-suite as an independent oracle for
    both the plain and the masked (``mask``: a ``(rows, cols)`` pattern)
    kernels.  The left rows are the segments of ``a.flat_rows()``; a right
    row is found by ``searchsorted`` on ``b.flat_rows().row_ids``.
    """
    n, m = _check_shapes(a.shape, b.shape)
    allowed_in: dict[int, set[int]] | None = None
    if mask is not None:
        allowed_in = {}
        mask_rows, mask_cols = mask
        for i, j in zip(mask_rows.tolist(), mask_cols.tolist()):
            allowed_in.setdefault(i, set()).add(j)
    fa, fb = a.flat_rows(), b.flat_rows()
    spa = SparseAccumulator(semiring)
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    vals_out: list[np.ndarray] = []
    for s, i in enumerate(fa.row_ids.tolist()):
        allowed: set[int] | None = None
        if allowed_in is not None:
            allowed = allowed_in.get(i)
            if not allowed:
                continue
        spa.clear()
        lo, hi = fa.row_ptr[s], fa.row_ptr[s + 1]
        for k, a_ik in zip(fa.cols[lo:hi].tolist(), fa.vals[lo:hi]):
            t = int(np.searchsorted(fb.row_ids, k))
            if t < fb.row_ids.size and fb.row_ids[t] == k:
                b_lo, b_hi = fb.row_ptr[t], fb.row_ptr[t + 1]
                spa.accumulate_scaled_row(
                    a_ik, fb.cols[b_lo:b_hi], fb.vals[b_lo:b_hi], allowed=allowed
                )
        if spa.is_empty():
            continue
        cols, vals, _bits = spa.emit()
        rows_out.append(np.full(cols.size, i, dtype=np.int64))
        cols_out.append(cols)
        vals_out.append(vals)
    if not rows_out:
        return COOMatrix.empty((n, m), semiring)
    return COOMatrix._unchecked(
        (n, m),
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(vals_out),
        semiring,
    )
