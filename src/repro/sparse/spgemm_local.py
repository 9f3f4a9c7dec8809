"""Local (within one rank) SpGEMM kernels.

The distributed algorithms reduce to repeated *local* multiplications of a
(usually hypersparse) left operand with a local block of the right operand.
Every such multiplication that scipy does not take runs through one
expand–sort–compress (ESC) kernel, the SpGEMM of Dalton, Olson and Bell
(ACM TOMS 2015), over whole blocks in NumPy:

* **expand** every term ``(i, j, a_ik ⊗ b_kj, bit(k))`` in Gustavson's
  order — the left operand's rows ascending, ``k`` in native in-row order,
  then the ``B`` row in native order;
* **sort** the terms with one stable sort by ``(i, j)``;
* **compress** each run with one ``Semiring.add_reduceat`` and one
  ``bitwise_or.reduceat``.

A stable sort keeps Gustavson's order inside every run, and a ``reduceat``
segment does not depend on where it sits in the buffer, so each output
entry is ⊕-folded exactly as a row-by-row Gustavson loop would fold it.
The entry points:

* :func:`spgemm_local` — ``C = A ⊗.⊕ B``, optionally with the Bloom-filter
  bits of Section V-B; the ``(+, ·)`` semiring without Bloom bits takes a
  ``scipy.sparse`` fast path.
* :func:`spgemm_local_masked` — the masked variant used by the
  general-update algorithm: only output positions in the pattern of a
  ``C*`` block are produced (Section VI-B builds a hash table of the mask;
  here membership is one ``searchsorted`` of ``row·m + col`` keys).
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
from repro.sparse.layout import _ranges, _runs, flat_rows, pack_rows, row_reader
from repro.sparse.spa import SparseAccumulator

__all__ = ["spgemm_local", "spgemm_local_masked", "spgemm_rowwise_spa"]


def _check_shapes(a_shape: tuple[int, int], b_shape: tuple[int, int]) -> tuple[int, int]:
    n, k = a_shape
    k2, m = b_shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_shape} x {b_shape}")
    return n, m


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


def _esc(
    a,
    b,
    semiring: Semiring,
    *,
    compute_bloom: bool,
    inner_offset: int,
    mask=None,
) -> tuple[COOMatrix, BloomFilterMatrix | None, int, int]:
    """Expand–sort–compress ``A·B``, restricted to ``mask``'s pattern if given.

    Returns ``(C, F or None, terms, rows)``: ``terms`` counts the expanded
    terms (of the left rows the mask keeps, before the mask filters them)
    and ``rows`` the output rows that received an entry.
    """
    shape = _check_shapes(a.shape, b.shape)
    m = shape[1]
    fa = flat_rows(a)
    a_rows = np.repeat(fa.row_ids, np.diff(fa.row_ptr))
    a_cols, a_vals = fa.cols, fa.vals
    if mask is not None:
        mask = mask.to_coo()
        in_mask = np.isin(a_rows, mask.rows)
        a_rows, a_cols, a_vals = a_rows[in_mask], a_cols[in_mask], a_vals[in_mask]
    # B's rows: a DHB block gathers only those A selects; the others are
    # read zero-copy (CSR, DCSR) or packed once
    fb = b.flat_rows(np.unique(a_cols)) if hasattr(b, "flat_rows") else flat_rows(b)
    b_start = np.zeros(b.shape[0], dtype=np.int64)
    b_len = np.zeros(b.shape[0], dtype=np.int64)
    b_start[fb.row_ids] = fb.row_ptr[:-1]
    b_len[fb.row_ids] = np.diff(fb.row_ptr)

    # expand
    lens = b_len[a_cols]
    at = _ranges(b_start[a_cols], lens)
    rows = np.repeat(a_rows, lens)
    cols = fb.cols[at]
    vals = semiring.times(np.repeat(a_vals, lens), fb.vals[at])
    n_terms = int(cols.size)
    keys = rows * np.int64(m) + cols
    if compute_bloom:
        shift = (np.repeat(a_cols, lens) + inner_offset) % BLOOM_BITS
        bits = np.uint64(1) << shift.astype(np.uint64)
    if mask is not None:
        mask_keys = np.unique(mask.rows * np.int64(m) + mask.cols)
        pos = np.minimum(np.searchsorted(mask_keys, keys), mask_keys.size - 1)
        kept = mask_keys[pos] == keys
        keys, rows, cols, vals = keys[kept], rows[kept], cols[kept], vals[kept]
        if compute_bloom:
            bits = bits[kept]

    bloom = BloomFilterMatrix(shape) if compute_bloom else None
    if keys.size == 0:
        return COOMatrix.empty(shape, semiring), bloom, n_terms, 0
    # sort
    order = np.argsort(keys, kind="stable")
    starts, _ = _runs(keys[order])
    # compress
    out_rows, out_cols = rows[order][starts], cols[order][starts]
    result = COOMatrix(
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
    use_scipy: bool | None = None,
    inner_offset: int = 0,
) -> tuple[COOMatrix, BloomFilterMatrix | None]:
    """Local SpGEMM ``C = A ⊗.⊕ B`` returning ``(C as COO, bloom or None)``.

    Parameters
    ----------
    a, b:
        Left / right operand in any of the local layouts (COO, CSR, DCSR,
        DHB) or any operand with row access.
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
    """
    _check_shapes(a.shape, b.shape)
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
    """Masked local SpGEMM: only output positions in the pattern of ``mask``.

    ``mask`` is a sparse block of the output's shape (the received ``C*``
    block); its structural entries are the allowed positions, whatever
    their values.  Left rows with no mask entry are not expanded at all.
    This is the kernel of Algorithm 2's local step
    ``Z, H ← A^R_{k,i} B'_{i,j} masked at C*_{k,j}``.
    """
    with perf_phase("spgemm_local_masked"):
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
    both the plain and the masked (``mask``: a pattern block) kernels.
    """
    with perf_phase("spgemm_spa"):
        return _spgemm_rowwise_spa(a, b, semiring, mask=mask)


def _spgemm_rowwise_spa(a, b, semiring: Semiring, *, mask=None) -> COOMatrix:
    """Accumulator loop behind :func:`spgemm_rowwise_spa`."""
    n, m = _check_shapes(a.shape, b.shape)
    allowed_in: dict[int, set[int]] | None = None
    if mask is not None:
        allowed_in = {}
        coo = mask.to_coo()
        for i, j in zip(coo.rows.tolist(), coo.cols.tolist()):
            allowed_in.setdefault(i, set()).add(j)
    b_row = row_reader(b).row_arrays
    spa = SparseAccumulator(semiring)
    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    vals_out: list[np.ndarray] = []
    for i, a_cols, a_vals in row_reader(a).iter_rows():
        allowed: set[int] | None = None
        if allowed_in is not None:
            allowed = allowed_in.get(int(i))
            if not allowed:
                continue
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
