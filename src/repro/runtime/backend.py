"""Backend-agnostic communicator protocol and shared helpers.

Every distributed algorithm in this repository is written in bulk-synchronous
"global orchestration" style against a small communicator surface: local
kernels are dispatched per rank via ``run_local``, payloads move between
ranks through ``exchange`` / ``isend`` / ``irecv`` and the collectives
(``ibcast``, ``bcast``, ``alltoallv``, ``gather``, ``reduce``,
``allreduce``), and per-category accounting lands in a
:class:`~repro.runtime.stats.CommStats`.  :class:`Communicator` captures
exactly the members the algorithms call as a structural
:class:`typing.Protocol`, so algorithms depend on the *contract* rather than
on a concrete backend class.

Two backends ship with the repository:

* ``"sim"`` — :class:`repro.runtime.simmpi.SimMPI`: the single-process
  simulator with per-rank modelled clocks and a Hockney ``α + β·bytes`` cost
  model.  This is the default and what the paper-reproduction figures use.
* ``"mpi"`` — :class:`repro.runtime.mpi_backend.MPIBackend`: executes the
  same orchestration programs on top of ``mpi4py``, degrading to a built-in
  single-rank emulator when mpi4py is not installed (so the code path can be
  exercised on any machine).

The name ↔ class table of the two backends and :func:`make_communicator`
live in :mod:`repro.runtime.world`.  Any other implementation of the
protocol can be handed to the algorithms (and to ``replay(comm=...)``)
directly.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterable,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.runtime.config import MachineModel
from repro.runtime.stats import CommStats, StatCategory

__all__ = [
    "CommRequest",
    "Communicator",
    "check_rank",
    "normalize_group",
]


# ----------------------------------------------------------------------
# shared rank/group validation helpers (used by every backend)
# ----------------------------------------------------------------------
def check_rank(n_ranks: int, rank: int) -> None:
    """Raise :class:`IndexError` unless ``0 <= rank < n_ranks``."""
    if not (0 <= rank < n_ranks):
        raise IndexError(f"rank {rank} outside communicator of size {n_ranks}")


def normalize_group(n_ranks: int, group: Sequence[int] | None) -> list[int]:
    """Validate a communication group, defaulting to all ranks.

    Duplicates are dropped (first occurrence wins), order is preserved, and
    an empty group raises :class:`ValueError` — the semantics every backend
    must share so that group-collective call sites behave identically.
    """
    if group is None:
        return list(range(n_ranks))
    ranks = list(dict.fromkeys(int(r) for r in group))
    if not ranks:
        raise ValueError("communication group must not be empty")
    for r in ranks:
        check_rank(n_ranks, r)
    return ranks


# ----------------------------------------------------------------------
# nonblocking request handle (shared by every backend)
# ----------------------------------------------------------------------
class CommRequest:
    """Handle for an in-flight nonblocking communication operation.

    Returned by the nonblocking primitives (``isend`` / ``irecv`` /
    ``ibcast``, and the backends' ``iallgather``).  A request is *completed* exactly once —
    through :meth:`Communicator.wait`, :meth:`Communicator.waitall` or
    :meth:`wait` directly — and completion is when the backend resolves the
    operation's result and records its statistics.  ``waitall`` completes
    requests in posting order, so results and accounting stay deterministic
    across backends and world sizes (a correctness requirement of the
    differential suite, not an optimisation detail).
    """

    __slots__ = ("op", "category", "_complete", "_done", "_result")

    def __init__(
        self, op: str, category: str, complete: Callable[[], Any]
    ) -> None:
        """Wrap backend completion callback ``complete`` for operation ``op``."""
        self.op = op
        self.category = category
        self._complete: Callable[[], Any] | None = complete
        self._done = False
        self._result: Any = None

    @property
    def done(self) -> bool:
        """Whether the request has already been completed by a wait."""
        return self._done

    def wait(self) -> Any:
        """Complete the operation (idempotent) and return its result.

        The first call runs the backend's completion step (delivering the
        payload, advancing modelled clocks, recording statistics); further
        calls return the cached result.
        """
        if not self._done:
            assert self._complete is not None
            result = self._complete()
            self._complete = None  # free captured payloads promptly
            self._result = result
            self._done = True
        return self._result


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
@runtime_checkable
class Communicator(Protocol):
    """Structural protocol of the orchestration-style communicator.

    Implementations execute bulk-synchronous SPMD programs over
    ``n_ranks`` logical ranks.  The orchestration program calls
    ``run_local`` to attribute local kernels to a rank and the collectives
    to move per-rank payload mappings; how ranks map onto real processes
    (all-in-one simulation, mpi4py, …) is the backend's business.

    **Surface.**  The protocol holds what Algorithms 1 and 2, SUMMA and the
    redistribution call and nothing more: ``run_local``; ``exchange`` and
    ``isend`` / ``irecv`` / ``wait`` / ``waitall``; the collectives
    ``alltoallv``, ``bcast`` / ``ibcast``, ``gather``, ``reduce`` and
    ``allreduce``; ``elapsed`` / ``timer``; and the ownership and
    ``host_*`` control plane below.

    **Ownership and partial mappings.**  Logical ranks are partitioned over
    the participating processes (one process owns everything on the
    simulator; a pluggable :mod:`~repro.runtime.partitioner` strategy —
    round-robin by default — on a multi-process backend).  All per-rank state
    mappings (``rank -> block``, ``rank -> payload``) are *partial*: a
    process materialises entries only for the ranks it owns, and every
    collective accepts such partial contribution mappings, merging them
    across processes.  Orchestration code must therefore iterate
    ``owned_ranks()`` instead of ``range(n_ranks)`` whenever it touches
    per-rank data, and must keep any *control-flow decision* (skipping a
    broadcast, gating a reduction) globally deterministic — either derived
    from replicated data or agreed through the ``host_*`` control plane.

    **Control plane.**  ``host_merge`` / ``host_fold`` exchange bookkeeping
    values (block sizes, emptiness flags, assembled test results) between
    processes *without* touching ``stats``.  They model the metadata
    headers a real implementation pays for inside its collectives; keeping
    them uncharged makes byte/message accounting identical across world
    sizes, which the differential harness asserts.
    """

    n_ranks: int
    machine: MachineModel
    stats: CommStats

    # -- clock / bookkeeping ------------------------------------------
    @property
    def p(self) -> int:
        """Number of logical ranks (alias of ``n_ranks``)."""
        ...

    # -- rank ownership / control plane -------------------------------
    def owner_of(self, rank: int) -> int:
        """Index of the process hosting logical ``rank`` (0 on the simulator)."""
        ...

    def owns(self, rank: int) -> bool:
        """``True`` when this process hosts logical ``rank``."""
        ...

    def owned_ranks(self, group: Sequence[int] | None = None) -> list[int]:
        """The ranks of ``group`` (default: all) hosted by this process."""
        ...

    def host_merge(self, mapping: Mapping[int, Any]) -> dict[int, Any]:
        """Union per-rank partial mappings across processes (uncharged).

        Every process passes the entries for its owned ranks and receives
        the full ``rank -> value`` mapping.  Control-plane only: no bytes
        or messages are recorded.
        """
        ...

    def host_fold(self, value: Any, combine: Callable[[Any, Any], Any]) -> Any:
        """Fold one value per process into a global value (uncharged).

        The fold order is ascending process index, so ``combine`` should be
        associative and commutative.  Returns the same result on every
        process.
        """
        ...

    def elapsed(self) -> float:
        """Parallel time so far (modelled or wall-clock, backend-defined)."""
        ...

    def timer(self) -> Any:
        """Context manager yielding an object with a ``seconds`` attribute."""
        ...

    # -- local computation --------------------------------------------
    def run_local(
        self,
        rank: int,
        fn: Callable[..., Any],
        *args: Any,
        category: str = StatCategory.LOCAL_COMPUTE,
        **kwargs: Any,
    ) -> Any:
        """Execute ``fn(*args, **kwargs)`` as local work of ``rank``.

        The kernel's cost is charged to ``rank`` under ``category``;
        returns the kernel's result (``None`` on non-owning processes of a
        multi-process backend).
        """
        ...

    # -- point-to-point -----------------------------------------------
    def exchange(
        self,
        messages: Iterable[tuple[int, int, Any]],
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> dict[int, list[tuple[int, Any]]]:
        """Deliver ``(src, dst, payload)`` messages posted simultaneously.

        Returns ``dst -> [(src, payload), ...]`` in posting order.
        """
        ...

    # -- collectives --------------------------------------------------
    def alltoallv(
        self,
        sendbufs: Mapping[int, Mapping[int, Any]],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLTOALL,
    ) -> dict[int, dict[int, Any]]:
        """Personalised all-to-all of ``sendbufs[src][dst]`` within ``group``.

        Returns ``recvbufs[dst][src]``.
        """
        ...

    def bcast(
        self,
        root: int,
        payload: Any,
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.BCAST,
    ) -> dict[int, Any]:
        """Broadcast ``payload`` from ``root``; returns ``rank -> payload``."""
        ...

    def gather(
        self,
        root: int,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.GATHER,
    ) -> dict[int, Any]:
        """Gather one payload per group member onto ``root`` as ``{src: payload}``."""
        ...

    def reduce(
        self,
        root: int,
        payloads: Mapping[int, Any],
        combine: Callable[[Any, Any], Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.REDUCE,
    ) -> Any:
        """Tree-reduce one payload per rank onto ``root`` with ``combine``."""
        ...

    def allreduce(
        self,
        payloads: Mapping[int, Any],
        combine: Callable[[Any, Any], Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLREDUCE,
    ) -> dict[int, Any]:
        """Reduce-then-broadcast allreduce; returns ``rank -> result``."""
        ...

    # -- nonblocking primitives ---------------------------------------
    def isend(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> CommRequest:
        """Post a nonblocking send of ``payload`` from ``src`` to ``dst``.

        Returns a :class:`CommRequest`; waiting on it means the send buffer
        is reusable (the matching delivery happens at the receiver's
        ``irecv`` wait).  The receiver side records the message statistics,
        so a matched pair counts once — with the same self-message
        convention as :meth:`exchange` (``src == dst`` counts bytes but no
        message).
        """
        ...

    def irecv(
        self,
        src: int,
        dst: int,
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> CommRequest:
        """Post a nonblocking receive at ``dst`` for a message from ``src``.

        Waiting on the returned request delivers (and returns) the payload
        of the matching ``isend``; sends between the same ``(src, dst)``
        pair match in FIFO posting order.  The matching ``isend`` must have
        been posted before this request is waited on.
        """
        ...

    def ibcast(
        self,
        root: int,
        payload: Any,
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.BCAST,
    ) -> CommRequest:
        """Post a nonblocking broadcast of ``payload`` from ``root``.

        Waiting on the returned request yields the same ``rank -> payload``
        mapping as :meth:`bcast`, with identical message/byte accounting;
        only the *charged time* may differ, because the transfer is
        modelled as overlapping with whatever work runs between post and
        wait.
        """
        ...

    def wait(self, request: CommRequest) -> Any:
        """Complete one nonblocking request and return its result."""
        ...

    def waitall(self, requests: Sequence[CommRequest]) -> list[Any]:
        """Complete requests *in posting order*; returns their results.

        The deterministic completion order is what keeps floating-point
        accumulation and statistics byte-identical across backends and
        world sizes.
        """
        ...

