"""Counters and communication attribution.

:class:`PerfRecorder` is the accumulation target of all performance
instrumentation in this repository.  It records two kinds of facts:

* **counters** — named monotonic tallies (``"dhb.insert.entries"``,
  ``"spgemm.terms"``, …) incremented by the instrumented kernels.
* **communication** — per-category message/byte volume, delivered by the
  :func:`record_comm_event` funnel that both
  :class:`~repro.runtime.simmpi.SimMPI` and
  :class:`~repro.runtime.mpi_backend.MPIBackend` call instead of invoking
  ``CommStats.record`` directly.  This is the single definition of how a
  communication event is accounted, for every backend.

Instrumented code never holds a recorder reference: it calls the
module-level probe :func:`perf_count`, which consults the *active*
recorder installed with :func:`use_recorder` and no-ops when none is
active.  Recorders merge (:meth:`PerfRecorder.merge`), so per-rank
recorders of a real multi-process run can be combined into one global view.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "PerfRecorder",
    "get_recorder",
    "use_recorder",
    "perf_count",
    "record_comm_event",
]


def _empty_comm_bucket() -> dict[str, float]:
    return {"events": 0, "messages": 0, "bytes": 0, "seconds": 0.0}


class PerfRecorder:
    """Accumulates counters and per-category comm volume."""

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        #: per communication category: {"events", "messages", "bytes",
        #: "seconds"} — the recorder-side mirror of ``CommStats``
        self.comm: dict[str, dict[str, float]] = {}

    def count(self, name: str, n: float = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def record_comm(
        self,
        category: str,
        *,
        messages: int = 0,
        nbytes: int = 0,
        seconds: float = 0.0,
    ) -> None:
        """Attribute one communication event to ``category``."""
        bucket = self.comm.setdefault(category, _empty_comm_bucket())
        bucket["events"] += 1
        bucket["messages"] += messages
        bucket["bytes"] += nbytes
        bucket["seconds"] += seconds

    def total_comm(self) -> dict[str, float]:
        """Total messages/bytes over all categories."""
        return {
            "messages": sum(b["messages"] for b in self.comm.values()),
            "bytes": sum(b["bytes"] for b in self.comm.values()),
        }

    def merge(self, other: "PerfRecorder") -> "PerfRecorder":
        """Accumulate ``other``'s counters and comm into ``self``.

        Used to combine per-rank recorders into one global view; returns
        ``self`` so merges chain.
        """
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for category, bucket in other.comm.items():
            mine = self.comm.setdefault(category, _empty_comm_bucket())
            for key, value in bucket.items():
                mine[key] += value
        return self

    def reset(self) -> None:
        """Drop everything accumulated so far."""
        self.counters.clear()
        self.comm.clear()

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view of all counters and comm categories."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "comm": {cat: dict(b) for cat, b in sorted(self.comm.items())},
        }


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


def record_comm_event(
    stats,
    category: str,
    *,
    operations: int = 0,
    messages: int = 0,
    nbytes: int = 0,
    modeled_seconds: float = 0.0,
    measured_seconds: float = 0.0,
) -> None:
    """Account one per-category backend event (communication or compute).

    The single funnel through which both ``SimMPI`` and ``MPIBackend``
    record their per-category accounting: the event lands in the backend's
    ``stats`` (a :class:`~repro.runtime.stats.CommStats`, duck-typed here
    to keep this package import-free of the runtime) *and*, when
    instrumentation is active, in the active :class:`PerfRecorder`.
    """
    stats.record(
        category,
        operations=operations,
        messages=messages,
        nbytes=nbytes,
        modeled_seconds=modeled_seconds,
        measured_seconds=measured_seconds,
    )
    recorder = _ACTIVE
    if recorder is not None:
        recorder.record_comm(
            category,
            messages=messages,
            nbytes=nbytes,
            seconds=modeled_seconds,
        )
