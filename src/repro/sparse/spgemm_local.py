"""Local (within one rank) SpGEMM kernels.

The distributed algorithms reduce to repeated *local* multiplications of a
(usually hypersparse) left operand with a local block of the right operand.
Three kernels are provided:

* :func:`spgemm_local` — Gustavson's row-wise algorithm, vectorised with
  NumPy (concatenate the scaled ``B`` rows selected by each ``A`` row, then
  sort + ``reduceat`` to ⊕-combine duplicate output columns).  Optionally
  produces the Bloom-filter bits of Section V-B and falls back to a
  ``scipy.sparse`` fast path for the ``(+, ·)`` semiring.
* :func:`spgemm_local_masked` — the masked variant used by the
  general-update algorithm: only output positions present in the mask are
  produced (Section VI-B builds a hash table of the mask; here the mask is a
  row → sorted-columns index and membership is tested with ``np.isin``).
* :func:`spgemm_rowwise_spa` — a literal sparse-accumulator implementation
  (slow, loop-based) kept as an independent oracle for tests.
"""

from __future__ import annotations

import numpy as np

from repro.perf.recorder import perf_count, perf_phase
from repro.semirings import Semiring
from repro.sparse.bloom import BLOOM_BITS, BloomFilterMatrix
from repro.sparse.coo import COOMatrix
from repro.sparse.dcsr import DCSRMatrix
from repro.sparse.kernels.spgemm import (
    compiled_supported,
    spgemm_rowwise_compiled,
    spgemm_rowwise_masked_compiled,
)
from repro.sparse.kernels.tier import count_tier, resolve_kernel_tier
from repro.sparse.layout import flat_rows, pack_rows, row_reader
from repro.sparse.spa import SparseAccumulator

__all__ = ["spgemm_local", "spgemm_local_masked", "spgemm_rowwise_spa"]


def _check_shapes(a_shape: tuple[int, int], b_shape: tuple[int, int]) -> tuple[int, int]:
    n, k = a_shape
    k2, m = b_shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_shape} x {b_shape}")
    return n, m


def _dedup_row(
    cols: np.ndarray,
    vals: np.ndarray,
    bits: np.ndarray | None,
    semiring: Semiring,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """⊕-combine duplicate columns of one output row (bits OR-combined)."""
    if cols.size == 0:
        return cols, vals, bits
    order = np.argsort(cols, kind="stable")
    cols_sorted = cols[order]
    vals_sorted = vals[order]
    boundary = np.empty(cols_sorted.size, dtype=bool)
    boundary[0] = True
    np.not_equal(cols_sorted[1:], cols_sorted[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    out_cols = cols_sorted[starts]
    out_vals = semiring.add.reduceat(vals_sorted, starts)
    out_bits = None
    if bits is not None:
        bits_sorted = bits[order]
        out_bits = np.bitwise_or.reduceat(bits_sorted, starts)
    return out_cols, out_vals, out_bits


def _scipy_convertible(mat) -> bool:
    """Whether the scipy fast path can convert ``mat`` at all."""
    return hasattr(mat, "to_scipy") or hasattr(mat, "to_csr")


def _live_entries(a, b, semiring: Semiring):
    """``a`` without the entries that meet an empty row of a smaller ``b``.

    In the Y-term ``A·B*`` almost every entry of the big left operand meets
    an empty row.  The survivors keep their indices and their native in-row
    order (one flat gather, one filter, no sort), so every kernel forms the
    same terms in the same order as on the whole operand: values, explicit
    zeros, Bloom bits and ``spgemm.*`` counts cannot change.  Operands
    without ``nnz`` or row access are returned as they are.
    """
    b_nnz = getattr(b, "nnz", None)
    if b_nnz is None or b_nnz >= getattr(a, "nnz", 0):
        return a
    try:
        fa, fb = flat_rows(a), flat_rows(b)
    except TypeError:
        return a
    keep = np.isin(fa.cols, fb.row_ids[np.diff(fb.row_ptr) > 0])
    rows = np.repeat(fa.row_ids, np.diff(fa.row_ptr))[keep]
    nz_rows, starts = np.unique(rows, return_index=True)
    indptr = np.append(starts, rows.size)
    return DCSRMatrix(a.shape, nz_rows, indptr, fa.cols[keep], fa.vals[keep], semiring)


def _selected_rows(b, inner: np.ndarray, semiring: Semiring):
    """Rows ``inner`` of ``b`` as a DCSR.

    In the X-term ``A*·B'`` these are the few rows the update's columns
    select: one gather where the layout offers it (DHB), else one
    ``row_arrays`` call each; an operand without row access is converted
    whole.
    """
    if hasattr(b, "flat_rows"):
        return DCSRMatrix(b.shape, *b.flat_rows(inner), semiring=semiring)
    try:
        b_row = row_reader(b).row_arrays
    except TypeError:
        return b.to_csr()
    flat = pack_rows((k, *b_row(k)) for k in inner.tolist())
    return DCSRMatrix(b.shape, *flat, semiring=semiring)


def _scipy_fast_path(a, b, semiring: Semiring) -> COOMatrix:
    """``(+, ·)`` fast path via scipy.sparse CSR multiplication.

    An operand with a scipy form of its own (CSR, DCSR, COO) hands over its
    storage.  One without (a DHB block) is read by row, and only where the
    other operand can meet it: :func:`_live_entries` on the left,
    :func:`_selected_rows` on the right.
    """

    def canonical(mat):
        mat = mat.tocsr().astype(np.float64, copy=False)
        if not mat.has_canonical_format:
            # rows read from a DHB block arrive in adjacency order; scipy
            # sums a row's terms in stored order, so sort a private copy
            mat = mat.copy()
            mat.sum_duplicates()
        return mat

    if not hasattr(a, "to_scipy"):
        a = _live_entries(a, b, semiring)
    sa = canonical((a if hasattr(a, "to_scipy") else a.to_csr()).to_scipy())
    if not hasattr(b, "to_scipy"):
        b = _selected_rows(b, np.unique(sa.indices), semiring)
    sc = (sa @ canonical(b.to_scipy())).tocoo()
    return COOMatrix(
        shape=(a.shape[0], b.shape[1]),
        rows=sc.row.astype(np.int64),
        cols=sc.col.astype(np.int64),
        values=semiring.coerce(sc.data),
        semiring=semiring,
    ).sort()


# ----------------------------------------------------------------------
# main kernels
# ----------------------------------------------------------------------
def spgemm_local(
    a,
    b,
    semiring: Semiring,
    *,
    compute_bloom: bool = False,
    use_scipy: bool | None = None,
    inner_offset: int = 0,
    kernel_tier: str | None = None,
) -> tuple[COOMatrix, BloomFilterMatrix | None]:
    """Local SpGEMM ``C = A ⊗.⊕ B`` returning ``(C as COO, bloom or None)``.

    Parameters
    ----------
    a, b:
        Left / right operand in any of the local layouts (COO, CSR, DCSR,
        DHB).  The right operand needs row access and is converted to CSR
        when given as COO.
    semiring:
        Semiring used for ⊗ and ⊕.
    compute_bloom:
        When ``True``, also return a :class:`BloomFilterMatrix` with bit
        ``k mod 64`` set in entry ``(i, j)`` whenever the term
        ``a_{i,k} ⊗ b_{k,j}`` contributed to ``c_{i,j}``.
    use_scipy:
        Force (``True``) or forbid (``False``) the scipy fast path; the
        default picks it automatically for the ``(+, ·)`` semiring when no
        Bloom filter is requested.
    inner_offset:
        Added to the local inner index ``k`` before folding it into the
        Bloom bitfield.  Distributed callers pass the global column offset
        of the left operand's block so that bits refer to *global* inner
        indices.
    kernel_tier:
        Per-call override of the kernel tier (``'python'``, ``'compiled'``
        or ``'auto'``); ``None`` defers to ``REPRO_KERNEL_TIER``.  The
        compiled tier only applies to the rowwise path and falls back to
        Python for semirings its cores cannot represent exactly.
    """
    n, m = _check_shapes(a.shape, b.shape)
    eligible = semiring.name == "plus_times" and not compute_bloom
    # scipy is applicable only when the semiring/Bloom request permit it,
    # both operands are non-empty, and both are convertible — a *forced*
    # request is clamped on all three (an empty operand or a duck-typed
    # layout without to_scipy()/to_csr() used to slip past the clamp and
    # raise TypeError inside the fast path).
    can_scipy = (
        eligible
        and getattr(a, "nnz", 0) > 0
        and getattr(b, "nnz", 0) > 0
        and _scipy_convertible(a)
        and _scipy_convertible(b)
    )
    use_scipy = can_scipy if use_scipy is None else (use_scipy and can_scipy)
    with perf_phase("spgemm_local"):
        if use_scipy:
            result = _scipy_fast_path(a, b, semiring)
            perf_count("spgemm.scipy_calls")
            perf_count("spgemm.output_nnz", result.nnz)
            return result, None

        perf_count("spgemm.rowwise_calls")
        a = _live_entries(a, b, semiring)
        tier = resolve_kernel_tier(kernel_tier)
        if tier == "compiled" and compiled_supported(semiring):
            count_tier("spgemm_rowwise", "compiled")
            result, bloom, n_terms, n_rows = spgemm_rowwise_compiled(
                a,
                b,
                semiring,
                (n, m),
                compute_bloom=compute_bloom,
                inner_offset=inner_offset,
            )
            perf_count("spgemm.terms", n_terms)
            perf_count("spgemm.rows", n_rows)
            perf_count("spgemm.output_nnz", result.nnz)
            return result, bloom
        count_tier("spgemm_rowwise", "python")
        return _spgemm_rowwise(
            a,
            b,
            semiring,
            (n, m),
            compute_bloom=compute_bloom,
            inner_offset=inner_offset,
        )


def _spgemm_rowwise(
    a,
    b,
    semiring: Semiring,
    shape: tuple[int, int],
    *,
    compute_bloom: bool,
    inner_offset: int,
) -> tuple[COOMatrix, BloomFilterMatrix | None]:
    """The vectorised Gustavson loop shared by the scipy-free path."""
    n, m = shape
    b_row = row_reader(b).row_arrays
    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    bloom_entries: list[tuple[int, np.ndarray, np.ndarray]] = []
    n_terms = 0

    for i, a_cols, a_vals in row_reader(a).iter_rows():
        chunks_c: list[np.ndarray] = []
        chunks_v: list[np.ndarray] = []
        chunks_b: list[np.ndarray] = []
        for k, a_ik in zip(a_cols, a_vals):
            b_cols, b_vals = b_row(int(k))
            if b_cols.size == 0:
                continue
            chunks_c.append(b_cols)
            chunks_v.append(semiring.times(a_ik, b_vals))
            if compute_bloom:
                bit = np.uint64(1) << np.uint64((int(k) + inner_offset) % BLOOM_BITS)
                chunks_b.append(np.full(b_cols.size, bit, dtype=np.uint64))
        if not chunks_c:
            continue
        cols = np.concatenate(chunks_c)
        vals = np.concatenate(chunks_v)
        bits = np.concatenate(chunks_b) if compute_bloom else None
        n_terms += cols.size
        cols, vals, bits = _dedup_row(cols, vals, bits, semiring)
        out_rows.append(np.full(cols.size, i, dtype=np.int64))
        out_cols.append(cols)
        out_vals.append(vals)
        if compute_bloom:
            bloom_entries.append((i, cols, bits))

    perf_count("spgemm.terms", n_terms)
    perf_count("spgemm.rows", len(out_rows))

    if not out_rows:
        result = COOMatrix.empty((n, m), semiring)
    else:
        result = COOMatrix(
            shape=(n, m),
            rows=np.concatenate(out_rows),
            cols=np.concatenate(out_cols),
            values=np.concatenate(out_vals),
            semiring=semiring,
        )
    bloom = None
    if compute_bloom:
        bloom = BloomFilterMatrix((n, m))
        for i, cols, bits in bloom_entries:
            for j, bitfield in zip(cols, bits):
                bloom.set_bits(int(i), int(j), int(bitfield))
    perf_count("spgemm.output_nnz", result.nnz)
    return result, bloom


def spgemm_local_masked(
    a,
    b,
    semiring: Semiring,
    mask_rows: dict[int, np.ndarray],
    *,
    compute_bloom: bool = True,
    inner_offset: int = 0,
    kernel_tier: str | None = None,
) -> tuple[COOMatrix, BloomFilterMatrix | None]:
    """Masked local SpGEMM: only output positions present in the mask.

    ``mask_rows`` maps an output row to the sorted array of allowed output
    columns (as produced by
    :func:`repro.sparse.elementwise.pattern_row_index`); rows absent from
    the mapping produce no output.  This is the kernel of Algorithm 2's
    local step ``Z, H ← A^R_{k,i} B'_{i,j} masked at C*_{k,j}``.
    ``kernel_tier`` overrides ``REPRO_KERNEL_TIER`` per call.
    """
    tier = resolve_kernel_tier(kernel_tier)
    with perf_phase("spgemm_local_masked"):
        a = _live_entries(a, b, semiring)
        if tier == "compiled" and compiled_supported(semiring):
            count_tier("spgemm_masked", "compiled")
            result, bloom, n_terms, n_rows = spgemm_rowwise_masked_compiled(
                a,
                b,
                semiring,
                mask_rows,
                _check_shapes(a.shape, b.shape),
                compute_bloom=compute_bloom,
                inner_offset=inner_offset,
            )
            perf_count("spgemm.masked_terms", n_terms)
            perf_count("spgemm.masked_rows", n_rows)
            return result, bloom
        count_tier("spgemm_masked", "python")
        return _spgemm_rowwise_masked(
            a,
            b,
            semiring,
            mask_rows,
            compute_bloom=compute_bloom,
            inner_offset=inner_offset,
        )


def _spgemm_rowwise_masked(
    a,
    b,
    semiring: Semiring,
    mask_rows: dict[int, np.ndarray],
    *,
    compute_bloom: bool,
    inner_offset: int,
) -> tuple[COOMatrix, BloomFilterMatrix | None]:
    """Row-wise masked Gustavson loop behind :func:`spgemm_local_masked`."""
    n, m = _check_shapes(a.shape, b.shape)
    b_row = row_reader(b).row_arrays
    out_rows: list[np.ndarray] = []
    out_cols: list[np.ndarray] = []
    out_vals: list[np.ndarray] = []
    bloom_entries: list[tuple[int, np.ndarray, np.ndarray]] = []
    n_terms = 0

    for i, a_cols, a_vals in row_reader(a).iter_rows():
        allowed = mask_rows.get(int(i))
        if allowed is None or allowed.size == 0:
            continue
        chunks_c: list[np.ndarray] = []
        chunks_v: list[np.ndarray] = []
        chunks_b: list[np.ndarray] = []
        for k, a_ik in zip(a_cols, a_vals):
            b_cols, b_vals = b_row(int(k))
            if b_cols.size == 0:
                continue
            chunks_c.append(b_cols)
            chunks_v.append(semiring.times(a_ik, b_vals))
            if compute_bloom:
                bit = np.uint64(1) << np.uint64((int(k) + inner_offset) % BLOOM_BITS)
                chunks_b.append(np.full(b_cols.size, bit, dtype=np.uint64))
        if not chunks_c:
            continue
        cols = np.concatenate(chunks_c)
        vals = np.concatenate(chunks_v)
        bits = np.concatenate(chunks_b) if compute_bloom else None
        n_terms += cols.size
        # One mask intersection for the whole output row (filtering commutes
        # with the concatenation), instead of one ``np.isin`` per (row, k)
        # term as the loop used to do.
        keep = np.isin(cols, allowed)
        if not np.any(keep):
            continue
        cols = cols[keep]
        vals = vals[keep]
        if bits is not None:
            bits = bits[keep]
        cols, vals, bits = _dedup_row(cols, vals, bits, semiring)
        out_rows.append(np.full(cols.size, i, dtype=np.int64))
        out_cols.append(cols)
        out_vals.append(vals)
        if compute_bloom:
            bloom_entries.append((i, cols, bits))

    perf_count("spgemm.masked_terms", n_terms)
    perf_count("spgemm.masked_rows", len(out_rows))

    if not out_rows:
        result = COOMatrix.empty((n, m), semiring)
    else:
        result = COOMatrix(
            shape=(n, m),
            rows=np.concatenate(out_rows),
            cols=np.concatenate(out_cols),
            values=np.concatenate(out_vals),
            semiring=semiring,
        )
    bloom = None
    if compute_bloom:
        bloom = BloomFilterMatrix((n, m))
        for i, cols, bits in bloom_entries:
            for j, bitfield in zip(cols, bits):
                bloom.set_bits(int(i), int(j), int(bitfield))
    return result, bloom


def spgemm_rowwise_spa(
    a,
    b,
    semiring: Semiring,
    *,
    mask_rows: dict[int, np.ndarray] | None = None,
) -> COOMatrix:
    """Reference Gustavson SpGEMM using an explicit sparse accumulator.

    Slow but simple; used by the test-suite as an independent oracle for
    both the plain and the masked vectorised kernels.
    """
    with perf_phase("spgemm_spa"):
        return _spgemm_rowwise_spa(a, b, semiring, mask_rows=mask_rows)


def _spgemm_rowwise_spa(
    a,
    b,
    semiring: Semiring,
    *,
    mask_rows: dict[int, np.ndarray] | None = None,
) -> COOMatrix:
    """Accumulator loop behind :func:`spgemm_rowwise_spa`."""
    n, m = _check_shapes(a.shape, b.shape)
    b_row = row_reader(b).row_arrays
    spa = SparseAccumulator(semiring)
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    vals_out: list[np.ndarray] = []
    for i, a_cols, a_vals in row_reader(a).iter_rows():
        allowed: set[int] | None = None
        if mask_rows is not None:
            allowed_arr = mask_rows.get(int(i))
            if allowed_arr is None or allowed_arr.size == 0:
                continue
            allowed = {int(c) for c in allowed_arr}
        spa.clear()
        for k, a_ik in zip(a_cols, a_vals):
            b_cols, b_vals = b_row(int(k))
            if b_cols.size == 0:
                continue
            spa.accumulate_scaled_row(a_ik, b_cols, b_vals, allowed=allowed)
        if spa.is_empty():
            continue
        cols, vals, _bits = spa.emit()
        rows_out.append(np.full(cols.size, i, dtype=np.int64))
        cols_out.append(cols)
        vals_out.append(vals)
    if not rows_out:
        return COOMatrix.empty((n, m), semiring)
    return COOMatrix(
        shape=(n, m),
        rows=np.concatenate(rows_out),
        cols=np.concatenate(cols_out),
        values=np.concatenate(vals_out),
        semiring=semiring,
    )
