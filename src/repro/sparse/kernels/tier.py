"""Kernel-tier selection: pure-Python oracles vs optional compiled kernels.

Two hot kernels (rowwise SpGEMM and the SPA bulk scatter/merge) exist in
two implementations: the pure-Python
(NumPy-orchestrated) originals, which are pinned as correctness oracles,
and numba-compiled cores in this package.  This module owns the choice
between them:

* :data:`KERNEL_TIER_ENV_VAR` (``REPRO_KERNEL_TIER``) selects globally —
  ``python`` forces the oracles, ``compiled`` requires numba (raising a
  clear :class:`RuntimeError` when it is missing rather than silently
  degrading), and ``auto`` uses the compiled tier when numba is importable
  and falls back to Python otherwise.  An *explicitly requested* ``auto``
  that has to fall back emits a one-time :class:`RuntimeWarning`; leaving
  the variable unset keeps the silent ``auto`` default.  Any other value
  raises :class:`ValueError` naming the allowed set, matching the repo's
  "typos raise everywhere" convention for environment switches.
* Kernel entry points take a ``kernel_tier=`` keyword that overrides the
  environment per call, validated the same way.

Selection is observable: call sites count ``kernels.tier_compiled`` /
``kernels.tier_python`` (plus a per-site suffix) through
:func:`count_tier`, so bench documents record which tier actually ran.
"""

from __future__ import annotations

import os
import warnings

from repro.perf.recorder import perf_count
from repro.sparse.kernels import _numba

__all__ = [
    "KERNEL_TIER_ENV_VAR",
    "KERNEL_TIERS",
    "count_tier",
    "numba_available",
    "resolve_kernel_tier",
]

#: Environment variable selecting the kernel tier globally; see the module
#: docstring for the semantics of ``python`` / ``compiled`` / ``auto``.
KERNEL_TIER_ENV_VAR = "REPRO_KERNEL_TIER"

#: The recognised tier names.
KERNEL_TIERS = ("python", "compiled", "auto")

#: One-time-warning latch for an explicit ``auto`` falling back to Python
#: (the ``payload_nbytes`` pattern); tests reset it via monkeypatch.
_warned_auto_fallback = False


def numba_available() -> bool:
    """Whether the numba JIT is importable (monkeypatchable for tests)."""
    return _numba.NUMBA_AVAILABLE


def _invalid_tier_error(source: str, raw: str) -> ValueError:
    """The shared "typos raise" error for an unrecognised tier name."""
    return ValueError(
        f"{source}={raw!r} is not a recognised kernel tier "
        "(use 'python', 'compiled' or 'auto')"
    )


def _env_kernel_tier() -> str | None:
    """The validated ``REPRO_KERNEL_TIER`` setting, ``None`` when unset."""
    raw = os.environ.get(KERNEL_TIER_ENV_VAR, "").strip().lower()
    if raw == "":
        return None
    if raw in KERNEL_TIERS:
        return raw
    raise _invalid_tier_error(KERNEL_TIER_ENV_VAR, raw)


def _warn_auto_fallback() -> None:
    """Warn once that an explicit ``auto`` request fell back to Python."""
    global _warned_auto_fallback
    if _warned_auto_fallback:
        return
    _warned_auto_fallback = True
    warnings.warn(
        f"{KERNEL_TIER_ENV_VAR}=auto requested the compiled kernel tier "
        "but numba is not installed; falling back to the pure-Python "
        "kernels (this warning is emitted once)",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_kernel_tier(override: str | None = None) -> str:
    """Resolve the effective tier: ``"python"`` or ``"compiled"``.

    ``override`` is a per-call ``kernel_tier=`` argument and wins over the
    environment; both accept exactly :data:`KERNEL_TIERS`.  ``compiled``
    without numba raises :class:`RuntimeError`; an *explicit* ``auto``
    without numba warns once and returns ``"python"``; an unset
    environment behaves like a silent ``auto``.
    """
    explicit = True
    if override is not None:
        if override not in KERNEL_TIERS:
            raise _invalid_tier_error("kernel_tier", str(override))
        tier = override
    else:
        tier = _env_kernel_tier()
        if tier is None:
            tier, explicit = "auto", False
    if tier == "python":
        return "python"
    available = numba_available()
    if tier == "compiled":
        if not available:
            raise RuntimeError(
                f"{KERNEL_TIER_ENV_VAR}=compiled requires numba, which is "
                "not installed in this environment; install numba or "
                "select the 'python' or 'auto' tier"
            )
        return "compiled"
    # auto
    if available:
        return "compiled"
    if explicit:
        _warn_auto_fallback()
    return "python"


def count_tier(site: str, tier: str) -> None:
    """Record which tier ran at ``site`` (e.g. ``spgemm_rowwise``)."""
    perf_count(f"kernels.tier_{tier}")
    perf_count(f"kernels.tier_{tier}.{site}")
