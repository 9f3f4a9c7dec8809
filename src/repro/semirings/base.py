"""Core semiring protocol.

A semiring ``(S, ⊕, ⊗, 0, 1)`` consists of a commutative additive monoid
``(S, ⊕, 0)`` and a multiplicative monoid ``(S, ⊗, 1)`` where ``⊗``
distributes over ``⊕`` and ``0`` annihilates.  Sparse matrices over a
semiring treat *structural zeros* as the additive neutral element ``0``
(e.g. ``+inf`` for ``(min, +)``), exactly as described in Section III of the
paper.

The implementation is deliberately NumPy-first: ``add`` and ``mul`` must be
NumPy ufuncs (or ufunc-like callables supporting ``reduceat`` /
``reduce``) so that the expand–sort–compress kernel in
:mod:`repro.sparse.spgemm_local` can merge duplicate output coordinates
without Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Semiring", "SemiringError"]


class SemiringError(ValueError):
    """Raised when an operation is incompatible with the chosen semiring.

    Typical causes: requesting the *algebraic* dynamic-SpGEMM path for an
    update that cannot be expressed as semiring addition (e.g. a deletion
    under ``(min, +)``).
    """


@dataclass(frozen=True)
class Semiring:
    """A vectorised semiring.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"plus_times"``.
    add:
        Binary NumPy ufunc implementing the additive monoid operation.
    mul:
        Binary NumPy ufunc implementing the multiplicative monoid operation.
    zero:
        Additive neutral element (value of structural zeros).
    one:
        Multiplicative neutral element.
    dtype:
        Preferred NumPy dtype for values of matrices over this semiring.
    is_ring:
        ``True`` when every element has an additive inverse (then *all*
        updates are algebraic updates, cf. Section V).
    is_idempotent:
        ``True`` when ``a ⊕ a = a`` (e.g. ``min``, ``max``, ``or``).  Used by
        tests and by the general-update algorithm to reason about when the
        algebraic shortcut is still valid.
    """

    name: str
    add: np.ufunc
    mul: np.ufunc
    zero: float
    one: float
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    is_ring: bool = False
    is_idempotent: bool = False

    # ------------------------------------------------------------------
    # Scalar / array operations
    # ------------------------------------------------------------------
    def plus(self, a, b):
        """Semiring addition ``a ⊕ b`` (element-wise for arrays)."""
        return self.add(a, b)

    def times(self, a, b):
        """Semiring multiplication ``a ⊗ b`` (element-wise for arrays)."""
        return self.mul(a, b)

    def is_zero(self, a) -> np.ndarray:
        """Element-wise test for the additive neutral element.

        Handles ``±inf`` zeros (``min``/``max`` based semirings) as well as
        ordinary numeric zeros.
        """
        arr = np.asarray(a, dtype=self.dtype)
        if np.isinf(self.zero):
            return np.isinf(arr) & (np.sign(arr) == np.sign(self.zero))
        return arr == self.zero

    # ------------------------------------------------------------------
    # Vectorised helpers used by sparse kernels
    # ------------------------------------------------------------------
    def zeros(self, n: int) -> np.ndarray:
        """An array of ``n`` additive neutral elements."""
        return np.full(n, self.zero, dtype=self.dtype)

    def ones(self, n: int) -> np.ndarray:
        """An array of ``n`` multiplicative neutral elements."""
        return np.full(n, self.one, dtype=self.dtype)

    def coerce(self, values) -> np.ndarray:
        """Coerce ``values`` to this semiring's dtype (contiguous 1-D)."""
        return np.ascontiguousarray(np.asarray(values, dtype=self.dtype))

    def add_reduce(self, values: np.ndarray) -> float:
        """Reduce a 1-D array with the additive monoid (``0`` if empty)."""
        values = self.coerce(values)
        if values.size == 0:
            return self.dtype.type(self.zero)
        return self.add.reduce(values)

    def add_reduceat(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Segmented additive reduction (wrapper around ``ufunc.reduceat``).

        ``starts`` are the segment start offsets into ``values`` (as produced
        by e.g. ``np.flatnonzero`` on a boundary mask); segments must be
        non-empty, matching the semantics of ``np.ufunc.reduceat``.
        """
        values = self.coerce(values)
        if values.size == 0:
            return values
        return self.add.reduceat(values, starts.astype(np.intp, copy=False))

    def sum_duplicates(
        self, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Combine duplicate keys with semiring addition.

        Parameters
        ----------
        keys:
            1-D integer array of (possibly duplicated) keys.
        values:
            1-D value array aligned with ``keys``.

        Returns
        -------
        (unique_keys, combined_values):
            ``unique_keys`` sorted ascending, ``combined_values[i]`` is the
            ⊕-reduction of all values whose key equals ``unique_keys[i]``.
        """
        keys = np.asarray(keys)
        values = self.coerce(values)
        if keys.size == 0:
            return keys.astype(np.int64), values
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        vals_sorted = values[order]
        boundary = np.empty(keys_sorted.size, dtype=bool)
        boundary[0] = True
        np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        combined = self.add_reduceat(vals_sorted, starts)
        return keys_sorted[starts].astype(np.int64), combined

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Semiring({self.name!r})"
