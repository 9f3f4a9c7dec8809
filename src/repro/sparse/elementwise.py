"""Element-wise operations on static sparse matrices.

The dynamic matrix (:class:`~repro.sparse.dhb.DHBMatrix`) applies updates
in place; the *static* competitors (CombBLAS-, CTF- and PETSc-style
backends) instead rebuild their matrices, which requires out-of-place
element-wise kernels:

* :func:`merge_pattern` — MERGE: overwrite entries of ``A`` present in
  ``A*`` (insert those that are missing).
* :func:`mask_pattern` — MASK: delete entries of ``A`` that are non-zero in
  ``A*``.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix

__all__ = ["merge_pattern", "mask_pattern"]


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
    return ca._take(keep).concatenate(cu).sort()


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
    return ca._take(keep).sum_duplicates()
