"""In-process multi-process worlds for the MPI backend.

:class:`LoopbackWorld` emulates an ``mpiexec -n p`` launch inside one
Python process: each world process runs on its own thread, and
:class:`LoopbackComm` gives every thread an object speaking the (lowercase,
pickle-based) ``mpi4py.MPI.COMM_WORLD`` surface that
:class:`~repro.runtime.mpi_backend.MPIBackend` uses.  Collectives
rendezvous on a :class:`threading.Barrier`, so the participating threads
advance in lockstep exactly like a bulk-synchronous MPI program.

Every payload crossing the loopback "wire" is pickled and unpickled, for
two reasons: it isolates the processes from each other (no shared mutable
matrices, just like real MPI), and it proves that every payload the
orchestration layer communicates survives real mpi4py serialisation — the
multi-process test suite catches unpicklable payload types without an MPI
installation.

:func:`run_spmd` is the launcher: it runs one SPMD program per world
process and returns the per-process results, re-raising the first worker
exception (after releasing the other threads) so test failures surface
normally.
"""

from __future__ import annotations

import pickle
import threading
from typing import Any, Callable, Sequence

__all__ = ["LoopbackComm", "LoopbackWorld", "run_spmd"]


def _roundtrip(obj: Any) -> Any:
    """Pickle-roundtrip ``obj`` — the loopback stand-in for the MPI wire."""
    return pickle.loads(pickle.dumps(obj))


class LoopbackWorld:
    """A world of ``size`` thread-backed emulated MPI processes."""

    #: seconds a point-to-point receive waits for its matching send before
    #: declaring the world wedged (a deadlocked schedule, not slowness)
    P2P_TIMEOUT = 60.0

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("world needs at least one process")
        self.size = int(size)
        self._barrier = threading.Barrier(self.size)
        self._slots: list[Any] = [None] * self.size
        #: (src_proc, dst_proc, tag) -> FIFO of pickled payloads — the
        #: thread mailboxes behind the nonblocking point-to-point surface
        self._mail: dict[tuple[int, int, int], list[bytes]] = {}
        self._mail_cond = threading.Condition()
        #: set by :meth:`abort`; wakes receivers blocked in fetch_message
        self._aborted = False

    # ------------------------------------------------------------------
    def comm(self, world_rank: int) -> "LoopbackComm":
        """The communicator endpoint of world process ``world_rank``."""
        if not (0 <= world_rank < self.size):
            raise IndexError(f"world rank {world_rank} outside world of {self.size}")
        return LoopbackComm(self, world_rank)

    def exchange_all(self, world_rank: int, value: Any) -> list[Any]:
        """Deposit ``value``, wait for everyone, return all deposits.

        The second barrier keeps the slots stable until every thread has
        taken its snapshot, so back-to-back collectives cannot race.
        """
        self._slots[world_rank] = value
        self._barrier.wait()
        snapshot = list(self._slots)
        self._barrier.wait()
        return snapshot

    def post_message(self, src: int, dst: int, tag: int, payload: Any) -> None:
        """Deposit a pickled point-to-point message into ``dst``'s mailbox.

        Messages on one ``(src, dst, tag)`` channel are matched in FIFO
        order, mirroring MPI's per-source/tag ordering guarantee.
        """
        wire = pickle.dumps(payload)
        with self._mail_cond:
            self._mail.setdefault((src, dst, tag), []).append(wire)
            self._mail_cond.notify_all()

    def fetch_message(self, src: int, dst: int, tag: int) -> Any:
        """Block until a matching message is available; unpickle and return it.

        Raises :class:`threading.BrokenBarrierError` when the world is
        aborted while waiting, like a collective of a crashed world.
        """
        key = (src, dst, tag)
        with self._mail_cond:
            ok = self._mail_cond.wait_for(
                lambda: self._aborted or self._mail.get(key),
                timeout=self.P2P_TIMEOUT,
            )
            if self._aborted:
                raise threading.BrokenBarrierError
            if not ok:
                raise TimeoutError(
                    f"loopback recv (proc {src} -> {dst}, tag {tag}) saw no "
                    "matching send — the schedule must post sends before "
                    "waiting on receives"
                )
            wire = self._mail[key].pop(0)
        return pickle.loads(wire)

    def abort(self) -> None:
        """Break the barrier and wake blocked receivers of a crashed world."""
        self._barrier.abort()
        with self._mail_cond:
            self._aborted = True
            self._mail_cond.notify_all()


class LoopbackComm:
    """One process's endpoint into a :class:`LoopbackWorld`.

    Implements exactly the communicator methods :class:`MPIBackend` and
    :class:`~repro.runtime.world.ServiceWorld` call, with mpi4py's
    lowercase-method semantics (``gather`` returns ``None`` on non-root
    processes, ``alltoall`` takes one send item per destination).
    """

    def __init__(self, world: LoopbackWorld, world_rank: int) -> None:
        self._world = world
        self._rank = int(world_rank)

    # -- identity ------------------------------------------------------
    def Get_rank(self) -> int:
        """World rank of this process."""
        return self._rank

    def Get_size(self) -> int:
        """Number of processes in the world."""
        return self._world.size

    # -- synchronisation ----------------------------------------------
    def barrier(self) -> None:
        """Block until every world process reaches the barrier."""
        self._world.exchange_all(self._rank, None)

    # -- collectives ---------------------------------------------------
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast ``root``'s object to every process."""
        values = self._world.exchange_all(self._rank, obj if self._rank == root else None)
        return _roundtrip(values[root])

    def gather(self, sendobj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per process; the list lands on ``root`` only."""
        values = self._world.exchange_all(self._rank, sendobj)
        if self._rank != root:
            return None
        return [_roundtrip(v) for v in values]

    def allgather(self, sendobj: Any) -> list[Any]:
        """Gather one object per process onto every process."""
        values = self._world.exchange_all(self._rank, sendobj)
        return [_roundtrip(v) for v in values]

    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter ``root``'s per-process sequence; returns this rank's share."""
        values = self._world.exchange_all(self._rank, sendobj if self._rank == root else None)
        buckets = values[root]
        if buckets is None or len(buckets) != self._world.size:
            raise ValueError("scatter payload must have one entry per process")
        return _roundtrip(buckets[self._rank])

    def alltoall(self, sendobj: Sequence[Any]) -> list[Any]:
        """Personalised exchange: item ``i`` of each sequence goes to rank ``i``."""
        if len(sendobj) != self._world.size:
            raise ValueError("alltoall payload must have one entry per process")
        values = self._world.exchange_all(self._rank, list(sendobj))
        return [_roundtrip(values[src][self._rank]) for src in range(self._world.size)]

    # -- nonblocking point-to-point ------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> "_LoopbackSendRequest":
        """Nonblocking send: deposit into the destination's thread mailbox.

        The payload is pickled immediately (buffer reusable right away);
        the returned request's ``wait`` is therefore a no-op, matching how
        :class:`~repro.runtime.mpi_backend.MPIBackend` uses mpi4py's
        ``isend``.
        """
        self._world.post_message(self._rank, int(dest), int(tag), obj)
        return _LoopbackSendRequest()

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of the matching mailbox message (FIFO per channel)."""
        return self._world.fetch_message(int(source), self._rank, int(tag))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"LoopbackComm(rank={self._rank}, size={self._world.size})"


class _LoopbackSendRequest:
    """Completed-at-post send request (the payload was pickled at isend)."""

    @staticmethod
    def wait() -> None:
        """No-op: the loopback send buffer is free as soon as it is posted."""
        return None


def run_spmd(
    world_size: int,
    program: Callable[[LoopbackComm, int], Any],
    *,
    timeout: float = 120.0,
) -> list[Any]:
    """Run ``program(comm, world_rank)`` once per world process, on threads.

    Returns the per-process return values (index = world rank).  If any
    thread raises, the world barrier is aborted (so the surviving threads
    unblock with :class:`threading.BrokenBarrierError`) and the first
    original exception is re-raised in the caller.
    """
    world = LoopbackWorld(world_size)
    results: list[Any] = [None] * world_size
    errors: list[tuple[int, BaseException]] = []
    lock = threading.Lock()

    def _worker(world_rank: int) -> None:
        try:
            results[world_rank] = program(world.comm(world_rank), world_rank)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            with lock:
                errors.append((world_rank, exc))
            world.abort()

    threads = [
        threading.Thread(target=_worker, args=(r,), name=f"loopback-{r}")
        for r in range(world_size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    if any(t.is_alive() for t in threads):
        world.abort()
        raise TimeoutError("loopback SPMD program did not finish in time")
    if errors:
        errors.sort(key=lambda item: item[0])
        rank, exc = next(
            ((r, e) for r, e in errors if not isinstance(e, threading.BrokenBarrierError)),
            errors[0],
        )
        raise RuntimeError(f"loopback world process {rank} failed") from exc
    return results
