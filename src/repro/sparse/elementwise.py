"""Element-wise operations on static sparse matrices.

The dynamic matrix (:class:`~repro.sparse.dhb.DHBMatrix`) applies updates
in place; the *static* competitors (CombBLAS-, CTF- and PETSc-style
backends) instead rebuild their matrices, which requires out-of-place
element-wise kernels:

* :func:`add_coo` — semiring ``A ⊕ A*``.
* :func:`merge_pattern` — MERGE: overwrite entries of ``A`` present in
  ``A*`` (insert those that are missing).
* :func:`mask_pattern` — MASK: delete entries of ``A`` that are non-zero in
  ``A*``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix

__all__ = ["add_coo", "merge_pattern", "mask_pattern"]


def _coo_of(mat) -> COOMatrix:
    if hasattr(mat, "to_coo"):
        return mat.to_coo()
    raise TypeError(f"expected a sparse matrix, got {type(mat).__name__}")


def _check(a: COOMatrix, b: COOMatrix) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.semiring.name != b.semiring.name:
        raise ValueError(
            f"semiring mismatch: {a.semiring.name} vs {b.semiring.name}"
        )


def add_coo(a, b) -> COOMatrix:
    """Element-wise semiring addition of two sparse matrices (as COO)."""
    ca, cb = _coo_of(a), _coo_of(b)
    _check(ca, cb)
    return ca.add(cb)


def merge_pattern(a, update) -> COOMatrix:
    """MERGE(A, A*): values of ``A*`` replace those of ``A`` where present."""
    ca, cu = _coo_of(a), _coo_of(update)
    _check(ca, cu)
    cu = cu.last_write_wins()
    if cu.nnz == 0:
        return ca.sum_duplicates()
    m = np.int64(ca.shape[1])
    update_keys = cu.rows * m + cu.cols
    base_keys = ca.rows * m + ca.cols
    keep = ~np.isin(base_keys, update_keys)
    merged = COOMatrix(
        shape=ca.shape,
        rows=np.concatenate([ca.rows[keep], cu.rows]),
        cols=np.concatenate([ca.cols[keep], cu.cols]),
        values=np.concatenate([ca.values[keep], cu.values]),
        semiring=ca.semiring,
    )
    return merged.sort()


def mask_pattern(a, update) -> COOMatrix:
    """MASK(A, A*): remove entries of ``A`` where ``A*`` is non-zero."""
    ca, cu = _coo_of(a), _coo_of(update)
    _check(ca, cu)
    if cu.nnz == 0:
        return ca.sum_duplicates()
    m = np.int64(ca.shape[1])
    update_keys = np.unique(cu.rows * m + cu.cols)
    base_keys = ca.rows * m + ca.cols
    keep = ~np.isin(base_keys, update_keys)
    return COOMatrix(
        shape=ca.shape,
        rows=ca.rows[keep],
        cols=ca.cols[keep],
        values=ca.values[keep],
        semiring=ca.semiring,
    ).sum_duplicates()
