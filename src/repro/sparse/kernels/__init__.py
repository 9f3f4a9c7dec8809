"""Optional compiled kernel tier for the hot sparse kernels.

This package holds numba-compiled implementations of the two hottest
local kernels — rowwise SpGEMM (plain and masked) and the SPA bulk
scatter/merge — selected at run time
by :mod:`repro.sparse.kernels.tier` (``REPRO_KERNEL_TIER`` or a per-call
``kernel_tier=`` override).  The pure-Python kernels remain untouched as
correctness oracles; the compiled tier is pinned byte-identical to them
by ``tests/test_kernels_parity.py``.

numba is strictly optional: without it the package still imports (the
``@njit`` decorator degrades to identity via
:mod:`repro.sparse.kernels._numba`), ``auto`` selection falls back to the
Python tier, and requesting ``compiled`` raises a clear error.
"""

from repro.sparse.kernels.tier import (
    KERNEL_TIER_ENV_VAR,
    KERNEL_TIERS,
    count_tier,
    numba_available,
    resolve_kernel_tier,
)

__all__ = [
    "KERNEL_TIER_ENV_VAR",
    "KERNEL_TIERS",
    "count_tier",
    "numba_available",
    "resolve_kernel_tier",
]
