"""Per-category accounting of communication and computation.

The paper breaks running time down into named phases:

* Insertion breakdown (Fig. 7): *Redist. sort*, *Redist. comm.*, *Memory
  management*, *Local construct*, *Local addition*.
* Dynamic SpGEMM breakdown (Fig. 12): *Send/Recv*, *Bcast*, *Local Mult.*,
  *Scatter*, *Reduce-Scatter*.

:class:`CommStats` accumulates, per category: number of operations, number
of point-to-point messages, bytes moved, modelled (parallel) seconds and
measured (single-core wall-clock) seconds.  The benchmark harness snapshots
and diffs these counters to regenerate the breakdown figures.  Each
communicator owns one ``CommStats`` (``comm.stats``) and records every
event into it directly; it is the only ledger of a communicator's traffic.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "StatCategory",
    "CategoryTotals",
    "CommStats",
]

class StatCategory:
    """Well-known category names used throughout the repository."""

    # Figure 7 (insertion breakdown)
    REDIST_SORT = "redist_sort"
    REDIST_COMM = "redist_comm"
    MEMORY_MANAGEMENT = "memory_management"
    LOCAL_CONSTRUCT = "local_construct"
    LOCAL_ADDITION = "local_addition"

    # Figure 12 (dynamic SpGEMM breakdown)
    SEND_RECV = "send_recv"
    BCAST = "bcast"
    LOCAL_MULT = "local_mult"
    SCATTER = "scatter"
    REDUCE_SCATTER = "reduce_scatter"

    # generic buckets
    ALLTOALL = "alltoall"
    REDUCE = "reduce"
    ALLGATHER = "allgather"
    ALLREDUCE = "allreduce"
    GATHER = "gather"
    LOCAL_COMPUTE = "local_compute"
    OTHER = "other"

    #: traffic spent recovering from a crash: shipping snapshot blocks back
    #: into a rebuilt world and any communication while rebuilding it.
    #: Kept out of every other category so a crash-and-restore run stays
    #: byte-comparable to the uninterrupted run on all non-recovery
    #: categories.
    RECOVERY = "recovery"

    INSERTION_BREAKDOWN = (
        REDIST_SORT,
        REDIST_COMM,
        MEMORY_MANAGEMENT,
        LOCAL_CONSTRUCT,
        LOCAL_ADDITION,
    )
    SPGEMM_BREAKDOWN = (
        SEND_RECV,
        BCAST,
        LOCAL_MULT,
        SCATTER,
        REDUCE_SCATTER,
    )


@dataclass
class CategoryTotals:
    """Accumulated totals for one category."""

    operations: int = 0
    messages: int = 0
    bytes: int = 0
    modeled_seconds: float = 0.0
    measured_seconds: float = 0.0

    def add(
        self,
        *,
        operations: int = 0,
        messages: int = 0,
        nbytes: int = 0,
        modeled_seconds: float = 0.0,
        measured_seconds: float = 0.0,
    ) -> None:
        """Accumulate one observation into the totals."""
        self.operations += operations
        self.messages += messages
        self.bytes += nbytes
        self.modeled_seconds += modeled_seconds
        self.measured_seconds += measured_seconds

    @classmethod
    def from_dict(cls, data: "dict[str, float]") -> "CategoryTotals":
        """Rebuild totals from their :meth:`as_dict` form."""
        return cls(
            operations=int(data.get("operations", 0)),
            messages=int(data.get("messages", 0)),
            bytes=int(data.get("bytes", 0)),
            modeled_seconds=float(data.get("modeled_seconds", 0.0)),
            measured_seconds=float(data.get("measured_seconds", 0.0)),
        )

    def copy(self) -> "CategoryTotals":
        """An independent copy of the totals."""
        return CategoryTotals(
            operations=self.operations,
            messages=self.messages,
            bytes=self.bytes,
            modeled_seconds=self.modeled_seconds,
            measured_seconds=self.measured_seconds,
        )

    def minus(self, other: "CategoryTotals") -> "CategoryTotals":
        """Element-wise difference ``self - other`` (for snapshot diffs)."""
        return CategoryTotals(
            operations=self.operations - other.operations,
            messages=self.messages - other.messages,
            bytes=self.bytes - other.bytes,
            modeled_seconds=self.modeled_seconds - other.modeled_seconds,
            measured_seconds=self.measured_seconds - other.measured_seconds,
        )

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly view of the totals."""
        return {
            "operations": self.operations,
            "messages": self.messages,
            "bytes": self.bytes,
            "modeled_seconds": self.modeled_seconds,
            "measured_seconds": self.measured_seconds,
        }


@dataclass
class CommStats:
    """Accumulates per-category totals for a simulated run."""

    categories: dict[str, CategoryTotals] = field(default_factory=dict)
    #: when set, every recorded observation lands in this category instead
    #: of its nominal one — the restore path uses it so any traffic during
    #: state reconstruction is accounted as recovery, never as ordinary
    #: protocol traffic (which must stay byte-identical to a clean run)
    redirect_to: str | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    def category(self, name: str) -> CategoryTotals:
        """The (created-on-demand) totals bucket for ``name``."""
        bucket = self.categories.get(name)
        if bucket is None:
            bucket = CategoryTotals()
            self.categories[name] = bucket
        return bucket

    def record(
        self,
        name: str,
        *,
        operations: int = 0,
        messages: int = 0,
        nbytes: int = 0,
        modeled_seconds: float = 0.0,
        measured_seconds: float = 0.0,
    ) -> None:
        """Add an observation to category ``name``."""
        if self.redirect_to is not None:
            name = self.redirect_to
        self.category(name).add(
            operations=operations,
            messages=messages,
            nbytes=nbytes,
            modeled_seconds=modeled_seconds,
            measured_seconds=measured_seconds,
        )

    @contextmanager
    def redirect(self, name: str) -> "Iterator[CommStats]":
        """Route every observation recorded inside the block into ``name``."""
        previous = self.redirect_to
        self.redirect_to = name
        try:
            yield self
        finally:
            self.redirect_to = previous

    @classmethod
    def from_dict(cls, data: "dict[str, dict[str, float]]") -> "CommStats":
        """Rebuild statistics from their :meth:`as_dict` form."""
        return cls(
            categories={
                name: CategoryTotals.from_dict(totals)
                for name, totals in data.items()
            }
        )

    # ------------------------------------------------------------------
    def total_bytes(self, names: Iterable[str] | None = None) -> int:
        """Total communicated bytes over the given categories (or all)."""
        names = list(names) if names is not None else list(self.categories)
        return sum(self.categories[n].bytes for n in names if n in self.categories)

    def total_messages(self, names: Iterable[str] | None = None) -> int:
        """Total message count over the given categories (or all)."""
        names = list(names) if names is not None else list(self.categories)
        return sum(self.categories[n].messages for n in names if n in self.categories)

    # ------------------------------------------------------------------
    def snapshot(self) -> "CommStats":
        """A deep copy of the current counters (for later diffing)."""
        return CommStats(
            categories={name: tot.copy() for name, tot in self.categories.items()}
        )

    def diff(self, since: "CommStats") -> "CommStats":
        """Counters accumulated since ``since`` was snapshotted."""
        out = CommStats()
        for name, tot in self.categories.items():
            base = since.categories.get(name, CategoryTotals())
            out.categories[name] = tot.minus(base)
        return out

    def merge(self, other: "CommStats") -> "CommStats":
        """Accumulate ``other``'s per-category totals into ``self``.

        Used to combine the per-process partial statistics of a
        multi-process run into one global view (each process records only
        the traffic of the logical ranks it owns); returns ``self`` so
        merges chain and the result can feed ``Communicator.host_fold``.
        """
        for name, tot in other.categories.items():
            self.category(name).add(
                operations=tot.operations,
                messages=tot.messages,
                nbytes=tot.bytes,
                modeled_seconds=tot.modeled_seconds,
                measured_seconds=tot.measured_seconds,
            )
        return self

    def reset(self) -> None:
        """Drop all accumulated counters."""
        self.categories.clear()

    def as_dict(self) -> dict[str, dict[str, float]]:
        """JSON-friendly view of all categories."""
        return {name: tot.as_dict() for name, tot in sorted(self.categories.items())}

    def breakdown(self, names: Iterable[str]) -> dict[str, float]:
        """Modelled seconds per named category (0.0 when absent)."""
        return {
            name: self.categories.get(name, CategoryTotals()).modeled_seconds
            for name in names
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}: {tot.modeled_seconds * 1e3:.3f} ms / {tot.bytes} B"
            for name, tot in sorted(self.categories.items())
        )
        return f"CommStats({parts})"
