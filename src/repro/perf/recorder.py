"""Program counters.

:class:`PerfRecorder` is the accumulation target of the counter probes in
this repository: named monotonic tallies (``"dhb.insert.entries"``,
``"spgemm.terms"``, …) incremented by the instrumented kernels.
Communication is not recorded here: every communicator accounts its own
traffic, per category, in its :class:`~repro.runtime.stats.CommStats`
(``comm.stats``).

Instrumented code never holds a recorder reference: it calls the
module-level probe :func:`perf_count`, which consults the *active*
recorder installed with :func:`use_recorder` and no-ops when none is
active.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "PerfRecorder",
    "get_recorder",
    "use_recorder",
    "perf_count",
]


class PerfRecorder:
    """Accumulates named counters."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}

    def count(self, name: str, n: float = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n


# ----------------------------------------------------------------------
# the active recorder
# ----------------------------------------------------------------------
_ACTIVE: PerfRecorder | None = None


def get_recorder() -> PerfRecorder | None:
    """The currently active recorder, or ``None`` when instrumentation is off."""
    return _ACTIVE


@contextmanager
def use_recorder(recorder: PerfRecorder) -> Iterator[PerfRecorder]:
    """Install ``recorder`` as the active recorder for the ``with`` body.

    Nests: the previously active recorder (if any) is restored on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous


def perf_count(name: str, n: float = 1) -> None:
    """Increment a counter on the active recorder (no-op when none)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.count(name, n)

