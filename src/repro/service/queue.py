"""Micro-batched ingestion: requests in, coalesced scenario steps out.

The service accepts *requests* — single insert/update/delete calls of any
size — and applies them in *micro-batches*: consecutive same-kind requests
are concatenated into one :class:`~repro.scenarios.model.ScenarioStep`, so
one distributed update (one redistribution, one DHB ``insert_batch``)
amortises over many requests.  Flushing is governed by two policies:

flush-by-count
    A queue holding ``max_requests`` pending requests flushes immediately
    (the service flushes inline on the submit that fills it).
flush-by-deadline
    A non-empty queue whose oldest pending request is ``max_delay`` old
    flushes when the service clock advances past the deadline.

Time here is the service's **logical clock** (explicitly advanced, never
read from the wall): every process of an SPMD world sees identical
timestamps, so flush decisions — which determine the coalesced request
log and therefore the differential oracle — are deterministic and
identical on all processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["IngestRequest", "FlushPolicy", "MicroBatchQueue", "coalesce"]

_KINDS = ("insert", "update", "delete")


@dataclass(frozen=True)
class IngestRequest:
    """One ingestion call: ``kind`` plus global-coordinate tuples.

    ``values`` may be omitted for deletions (the markers are ignored) and
    defaults to ones for insertions/updates without explicit values.
    """

    kind: str
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    label: str = ""

    @staticmethod
    def make(
        kind: str,
        rows,
        cols,
        values=None,
        *,
        label: str = "",
    ) -> "IngestRequest":
        """Validate and normalise one request (int64/float64 arrays)."""
        if kind not in _KINDS:
            raise ValueError(
                f"unknown request kind {kind!r} (use one of {_KINDS})"
            )
        rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
        cols = np.ascontiguousarray(np.asarray(cols, dtype=np.int64))
        if values is None:
            values = np.ones(rows.size, dtype=np.float64)
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if not (rows.size == cols.size == values.size):
            raise ValueError("rows, cols and values must have identical lengths")
        return IngestRequest(kind, rows, cols, values, label)

    @property
    def n_tuples(self) -> int:
        """Number of tuples this request carries."""
        return int(self.rows.size)


@dataclass(frozen=True)
class FlushPolicy:
    """When a tenant's pending requests become a micro-batch.

    ``max_requests=1`` degenerates to one-request-per-batch (the baseline
    the service benchmark gates against); ``max_delay=None`` disables the
    deadline so only the count policy flushes.
    """

    max_requests: int = 8
    max_delay: float | None = None

    def __post_init__(self) -> None:
        if self.max_requests < 1:
            raise ValueError("max_requests must be at least 1")
        if self.max_delay is not None and self.max_delay < 0:
            raise ValueError("max_delay must be non-negative")


@dataclass
class MicroBatchQueue:
    """Pending requests of one tenant, with deterministic flush decisions."""

    policy: FlushPolicy = field(default_factory=FlushPolicy)
    _pending: list[IngestRequest] = field(default_factory=list)
    _oldest: float | None = None

    def offer(self, request: IngestRequest, now: float = 0.0) -> bool:
        """Enqueue one request; True when the count policy demands a flush."""
        if not self._pending:
            self._oldest = float(now)
        self._pending.append(request)
        return len(self._pending) >= self.policy.max_requests

    def due(self, now: float) -> bool:
        """True when the deadline policy demands a flush at logical ``now``."""
        if not self._pending or self.policy.max_delay is None:
            return False
        assert self._oldest is not None
        return float(now) - self._oldest >= self.policy.max_delay

    def drain(self) -> list[IngestRequest]:
        """Remove and return every pending request (possibly empty)."""
        pending, self._pending = self._pending, []
        self._oldest = None
        return pending

    def __len__(self) -> int:
        return len(self._pending)



def coalesce(requests: list[IngestRequest]) -> list[IngestRequest]:
    """Merge runs of consecutive same-kind requests into single requests.

    Order is preserved — an ``insert, insert, delete, insert`` stream
    coalesces to three batches, never two — so the coalesced log applies
    the exact same state transitions as the request stream, just in fewer
    distributed rounds.  Labels join with ``+`` (truncated) for
    traceability.
    """
    groups: list[IngestRequest] = []
    run: list[IngestRequest] = []
    for request in requests:
        if run and request.kind != run[0].kind:
            groups.append(_merge_run(run))
            run = []
        run.append(request)
    if run:
        groups.append(_merge_run(run))
    return groups


def _merge_run(run: list[IngestRequest]) -> IngestRequest:
    if len(run) == 1:
        return run[0]
    labels = [r.label for r in run if r.label]
    label = "+".join(labels[:4]) + ("+…" if len(labels) > 4 else "")
    return IngestRequest(
        kind=run[0].kind,
        rows=np.concatenate([r.rows for r in run]),
        cols=np.concatenate([r.cols for r in run]),
        values=np.concatenate([r.values for r in run]),
        label=label,
    )
