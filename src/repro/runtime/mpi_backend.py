"""mpi4py-backed communicator for single- and multi-process worlds.

:class:`MPIBackend` runs the same orchestration-style
:class:`~repro.runtime.backend.Communicator` surface as
:class:`~repro.runtime.simmpi.SimMPI`, but on top of a *real* MPI
communicator, in SPMD fashion: every process executes the same
orchestration program, logical ranks start round-robin on the processes
(rank ``r`` on process ``r % world_size``; :meth:`MPIBackend.set_placement`
installs any :class:`~repro.runtime.partitioner.Partitioner`'s map — see
``docs/backends.md`` for the nnz-aware and locality-aware strategies),
``run_local`` executes kernels only for owned ranks, and the collectives
accept partial per-process payload mappings and merge them through the
corresponding mpi4py collectives.  ``mpiexec -n 1``, ``mpiexec -n p`` and oversubscribed
worlds (more processes than logical ranks — the surplus processes idle
with a warning) are all supported; per-process memory and local compute
scale with the number of *owned* ranks, which is the point of running
multi-process in the first place.

When mpi4py is not installed the underlying communicator is
:class:`EmulatedComm` — a size-1 stand-in for ``mpi4py.MPI.COMM_WORLD`` in
the spirit of cctbx's ``libtbx.mpi4py`` fallback (pass
``comm=EmulatedComm()`` to pick it explicitly).  With a world of one
process every logical rank is owned locally, so the backend behaves like a cost-model-free ``SimMPI``: identical payload
routing and identical per-category byte / message accounting, with
``elapsed()`` reporting real wall-clock time instead of modelled time.
Multi-process behaviour can be exercised without mpi4py through
:class:`repro.runtime.loopback.LoopbackWorld`, which runs each world
process on a thread behind the same communicator interface.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.perf.recorder import perf_count
from repro.runtime.backend import CommRequest, check_rank, normalize_group
from repro.runtime.config import MachineModel
from repro.runtime.partitioner import RoundRobinPartitioner, verify_placement
from repro.runtime.simmpi import payload_nbytes
from repro.runtime.stats import CommStats, StatCategory

__all__ = [
    "EmulatedComm",
    "MPIBackend",
    "load_mpi",
    "world_rank",
    "world_size",
]


class EmulatedComm:
    """Single-process stand-in for ``mpi4py.MPI.COMM_WORLD``.

    Implements the lowercase (pickle-based) mpi4py communicator methods
    that :class:`MPIBackend` and :class:`~repro.runtime.world.ServiceWorld`
    call, for a world of exactly one rank, so the same code path runs
    whether or not mpi4py is installed.  ``isend`` / ``recv`` / ``scatter``
    are absent: a one-process world never sends point to point, and
    :meth:`MPIBackend.scatter` scatters only across processes.
    """

    def Get_rank(self) -> int:
        """World rank of this process (always 0)."""
        return 0

    def Get_size(self) -> int:
        """World size (always 1)."""
        return 1

    def barrier(self) -> None:
        """No-op: a single-rank world is always synchronised."""

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Broadcast: the single rank receives its own object."""
        self._check_root(root)
        return obj

    def gather(self, sendobj: Any, root: int = 0) -> list[Any]:
        """Gather: a one-element list of the single rank's payload."""
        self._check_root(root)
        return [sendobj]

    def allgather(self, sendobj: Any) -> list[Any]:
        """All-gather: a one-element list of the single rank's payload."""
        return [sendobj]

    def alltoall(self, sendobj: Sequence[Any]) -> list[Any]:
        """All-to-all: the single rank's bucket comes straight back."""
        if len(sendobj) != 1:
            raise ValueError("alltoall payload must have one entry per rank")
        return list(sendobj)

    @staticmethod
    def _check_root(root: int) -> None:
        if root != 0:
            raise ValueError(f"emulated single-rank world has no rank {root}")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "EmulatedComm(size=1)"


def world_rank() -> int:
    """This process's rank in ``COMM_WORLD`` (0 when mpi4py is absent).

    The one place that answers "am I one process of an ``mpiexec`` launch?"
    — used by test harnesses and the benchmark driver to elect a single
    writer for shared output files.
    """
    try:
        from mpi4py import MPI

        return int(MPI.COMM_WORLD.Get_rank())
    except ImportError:
        return 0


def world_size() -> int:
    """Size of ``COMM_WORLD`` (1 when mpi4py is absent)."""
    try:
        from mpi4py import MPI

        return int(MPI.COMM_WORLD.Get_size())
    except ImportError:
        return 1


def load_mpi() -> Any:
    """mpi4py's ``COMM_WORLD``, or the single-rank emulator without mpi4py.

    Follows the cctbx ``libtbx.mpi4py`` idiom — try the real package, warn
    once and fall back to the emulator when it is absent.
    """
    try:
        from mpi4py import MPI

        return MPI.COMM_WORLD
    except ImportError:
        warnings.warn(
            "mpi4py is not installed; the 'mpi' backend runs on the "
            "built-in single-rank emulator",
            RuntimeWarning,
            stacklevel=2,
        )
    return EmulatedComm()


class MPIBackend:
    """Orchestration-style communicator over mpi4py (or its emulator).

    Statistics semantics: *logical* messages and bytes are recorded exactly
    like :class:`SimMPI` (a payload travelling between two distinct logical
    ranks counts, even when both ranks live on the same process), so
    communication-volume comparisons are backend-independent.  Per-category
    ``modeled_seconds`` record measured wall-clock time — on a real backend
    the model *is* the measurement.  With a multi-process world each process
    records only the traffic of the logical ranks it owns.

    ``barrier``, ``map_local``, ``sendrecv``, ``scatter``, ``allgather``
    and ``iallgather`` are not part of :class:`Communicator`: nothing in
    the library calls them, and they stay only while the span tracer of
    ``perf_ledger/tracer.py`` names them as targets.
    """

    def __init__(
        self,
        n_ranks: int,
        machine: MachineModel | None = None,
        *,
        comm: Any = None,
    ) -> None:
        if n_ranks < 1:
            raise ValueError("communicator needs at least one rank")
        self.n_ranks = int(n_ranks)
        self.machine = machine if machine is not None else MachineModel()
        self.stats = CommStats()
        if comm is None:
            comm = load_mpi()
        self._comm = comm
        self.is_real_mpi = not isinstance(comm, EmulatedComm)
        self.world_size = int(comm.Get_size())
        self.world_rank = int(comm.Get_rank())
        if self.world_size > self.n_ranks:
            # Oversubscribed world: processes with no owned logical rank
            # idle through the SPMD program (they still participate in the
            # world-level collectives so nothing deadlocks).
            warnings.warn(
                f"MPI world of {self.world_size} processes hosts only "
                f"{self.n_ranks} logical ranks; "
                f"{self.world_size - self.n_ranks} processes will idle",
                RuntimeWarning,
                stacklevel=2,
            )
        self._t0 = time.perf_counter()
        #: (src, dst) -> FIFO of payloads isent between two locally-owned
        #: logical ranks (delivered at the matching irecv wait)
        self._p2p_mail: dict[tuple[int, int], list[Any]] = {}
        # The logical-rank -> process map starts round-robin
        # (``r % world_size``); grid-/weight-aware placements are installed
        # later through :meth:`set_placement` (strategies may need the
        # process grid or nnz estimates the backend does not know about).
        self._placement: dict[int, int] = RoundRobinPartitioner().placement(
            self.n_ranks, self.world_size
        )
        #: physical cross-process traffic recorded by this process
        #: (deterministic modelled counts, not wire measurements)
        self.interprocess_bytes = 0
        self.interprocess_messages = 0

    # ------------------------------------------------------------------
    # rank ownership
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of logical ranks."""
        return self.n_ranks

    def owner_of(self, rank: int) -> int:
        """World rank of the process hosting logical ``rank``."""
        check_rank(self.n_ranks, rank)
        return self._placement[rank]

    def owns(self, rank: int) -> bool:
        """``True`` when this process hosts logical ``rank``."""
        return self.owner_of(rank) == self.world_rank

    def owned_ranks(self, group: Sequence[int] | None = None) -> list[int]:
        """The ranks of ``group`` (default: all) hosted by this process."""
        return [r for r in normalize_group(self.n_ranks, group) if self.owns(r)]

    def placement(self) -> dict[int, int]:
        """Copy of the current ``logical rank -> process`` map."""
        return dict(self._placement)

    def set_placement(self, placement: Mapping[int, int]) -> None:
        """Install a new logical-rank→process map.

        Must be called *before* any per-rank state is materialised (every
        process must call it with the identical map — placement is an SPMD
        agreement); to move already-constructed state use
        :meth:`migrate_ownership` instead.
        """
        verify_placement(placement, self.n_ranks, self.world_size)
        self._placement = {int(r): int(p) for r, p in placement.items()}

    def migrate_ownership(
        self,
        new_placement: Mapping[int, int],
        block_maps: Sequence[dict[int, Any]],
        *,
        category: str = StatCategory.REDIST_COMM,
    ) -> int:
        """Move owned per-rank state to the owners of ``new_placement``.

        ``block_maps`` are partial ``rank -> block`` mappings (e.g. the
        ``DistMatrixBase.blocks`` of every live matrix); blocks whose rank
        changes process are shipped *as pickled objects* through one
        bucketed all-to-all — preserving their exact internal state keeps
        scenario results byte-identical across a migration — and the new
        placement is installed on completion.  Charged under ``category``
        (redistribution traffic); returns the number of blocks moved.
        """
        verify_placement(new_placement, self.n_ranks, self.world_size)
        start = time.perf_counter()
        outgoing: list[list[tuple[int, int, Any]]] = [
            [] for _ in range(self.world_size)
        ]
        total_bytes = 0
        moved = 0
        for index, blocks in enumerate(block_maps):
            for rank in sorted(blocks):
                if not self.owns(rank):
                    continue
                new_owner = int(new_placement[rank])
                if new_owner == self.world_rank:
                    continue
                block = blocks.pop(rank)
                total_bytes += payload_nbytes(block)
                moved += 1
                outgoing[new_owner].append((index, rank, block))
        if self.world_size > 1:
            arrived = self._comm.alltoall(outgoing)
            for bucket in arrived:
                for index, rank, block in bucket:
                    block_maps[index][rank] = block
        self.interprocess_bytes += total_bytes
        self.interprocess_messages += moved
        self.stats.record(
            category,
            operations=1,
            messages=moved,
            nbytes=total_bytes,
            modeled_seconds=time.perf_counter() - start,
        )
        perf_count("partition.migrated_blocks", moved)
        self._placement = {int(r): int(p) for r, p in new_placement.items()}
        return moved

    # ------------------------------------------------------------------
    # physical cross-process traffic
    # ------------------------------------------------------------------
    def interprocess_comm(self) -> dict[str, int]:
        """This process's cross-process traffic ``{"bytes", "messages"}``.

        A deterministic model of the traffic that actually crosses a
        process boundary under the current placement — unlike the
        *logical* ``stats`` (which are placement-invariant by design),
        this is exactly what a better placement shrinks.  Counted once
        per transfer: sender-side for ``exchange``/``alltoallv``/
        ``gather``/``reduce``/block migration, receiver-side for
        ``bcast``/``allgather``/``irecv``, root-side for ``scatter``.
        """
        return {
            "bytes": int(self.interprocess_bytes),
            "messages": int(self.interprocess_messages),
        }

    def global_interprocess_comm(self) -> dict[str, int]:
        """World-summed cross-process traffic (uncharged control plane)."""
        return self.host_fold(
            self.interprocess_comm(),
            lambda a, b: {
                "bytes": a["bytes"] + b["bytes"],
                "messages": a["messages"] + b["messages"],
            },
        )

    # ------------------------------------------------------------------
    # control plane (uncharged: metadata exchange, not payload traffic)
    # ------------------------------------------------------------------
    def host_merge(self, mapping: Mapping[int, Any]) -> dict[int, Any]:
        """Union partial per-rank mappings across the world (uncharged)."""
        merged: dict[int, Any] = {}
        if self.world_size == 1:
            merged.update(mapping)
            return merged
        for part in self._comm.allgather(dict(mapping)):
            merged.update(part)
        return merged

    def host_fold(self, value: Any, combine: Callable[[Any, Any], Any]) -> Any:
        """Fold one value per process, ascending world rank (uncharged)."""
        if self.world_size == 1:
            return value
        parts = self._comm.allgather(value)
        folded = parts[0]
        for part in parts[1:]:
            folded = combine(folded, part)
        return folded

    # ------------------------------------------------------------------
    # clock management
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Wall-clock seconds since the backend was created."""
        return time.perf_counter() - self._t0

    def barrier(self, group: Sequence[int] | None = None) -> None:
        """Synchronise the processes hosting ``group`` (no-op world of 1)."""
        normalize_group(self.n_ranks, group)
        if self.world_size > 1:
            self._comm.barrier()

    @contextmanager
    def timer(self):
        """Context manager measuring wall-clock time of a region."""

        class _Timer:
            seconds = 0.0

        holder = _Timer()
        start = self.elapsed()
        yield holder
        holder.seconds = self.elapsed() - start

    # ------------------------------------------------------------------
    # local computation
    # ------------------------------------------------------------------
    def run_local(
        self,
        rank: int,
        fn: Callable[..., Any],
        *args: Any,
        category: str = StatCategory.LOCAL_COMPUTE,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` as rank-local work; ``None`` on non-owning processes."""
        check_rank(self.n_ranks, rank)
        if not self.owns(rank):
            return None
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        measured = time.perf_counter() - start
        self.stats.record(
            category,
            operations=1,
            modeled_seconds=measured,
            measured_seconds=measured,
        )
        return result

    def map_local(
        self,
        fn: Callable[..., Any],
        per_rank_args: Sequence[tuple] | Mapping[int, tuple],
        *,
        category: str = StatCategory.LOCAL_COMPUTE,
        group: Sequence[int] | None = None,
    ) -> dict[int, Any]:
        """Run ``fn`` per owned rank; returns ``rank -> result`` for them."""
        ranks = normalize_group(self.n_ranks, group)
        if isinstance(per_rank_args, Mapping):
            items = [(r, per_rank_args[r]) for r in ranks if r in per_rank_args]
        else:
            if len(per_rank_args) != len(ranks):
                raise ValueError(
                    "per_rank_args length does not match the group size"
                )
            items = list(zip(ranks, per_rank_args))
        results: dict[int, Any] = {}
        for rank, args in items:
            if self.owns(rank):
                results[rank] = self.run_local(rank, fn, *args, category=category)
        return results

    # ------------------------------------------------------------------
    # point-to-point communication
    # ------------------------------------------------------------------
    def exchange(
        self,
        messages: Iterable[tuple[int, int, Any]],
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> dict[int, list[tuple[int, Any]]]:
        """Deliver point-to-point messages posted by owned source ranks."""
        start = time.perf_counter()
        inbox: dict[int, list[tuple[int, Any]]] = {}
        outgoing: list[list[tuple[int, int, Any]]] = [
            [] for _ in range(self.world_size)
        ]
        total_bytes = 0
        n_msgs = 0
        for src, dst, payload in messages:
            check_rank(self.n_ranks, src)
            check_rank(self.n_ranks, dst)
            if not self.owns(src):
                continue
            # Byte accounting mirrors SimMPI exactly: self-messages count
            # their payload bytes but not as messages.
            nbytes = payload_nbytes(payload)
            total_bytes += nbytes
            if src != dst:
                n_msgs += 1
            owner = self.owner_of(dst)
            if owner == self.world_rank:
                inbox.setdefault(dst, []).append((src, payload))
            else:
                self.interprocess_bytes += nbytes
                self.interprocess_messages += 1
                outgoing[owner].append((src, dst, payload))
        if self.world_size > 1:
            arrived = self._comm.alltoall(outgoing)
            for bucket in arrived:
                for src, dst, payload in bucket:
                    inbox.setdefault(dst, []).append((src, payload))
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=time.perf_counter() - start,
        )
        return inbox

    def sendrecv(
        self,
        rank_a: int,
        rank_b: int,
        payload_ab: Any,
        payload_ba: Any,
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> tuple[Any, Any]:
        """Pairwise exchange: returns ``(received_by_a, received_by_b)``."""
        inbox = self.exchange(
            [(rank_a, rank_b, payload_ab), (rank_b, rank_a, payload_ba)],
            category=category,
        )
        recv_a = inbox.get(rank_a, [(rank_b, None)])[0][1]
        recv_b = inbox.get(rank_b, [(rank_a, None)])[0][1]
        return recv_a, recv_b

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def alltoallv(
        self,
        sendbufs: Mapping[int, Mapping[int, Any]],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLTOALL,
    ) -> dict[int, dict[int, Any]]:
        """Personalised all-to-all; returns ``recvbufs[dst][src]``."""
        start = time.perf_counter()
        ranks = normalize_group(self.n_ranks, group)
        rank_set = set(ranks)
        for src in sendbufs:
            check_rank(self.n_ranks, src)
            if src not in rank_set:
                raise ValueError(f"sender rank {src} is not part of the group")
            for dst in sendbufs[src]:
                if dst not in rank_set:
                    raise ValueError(
                        f"destination rank {dst} is not part of the group"
                    )
        recvbufs: dict[int, dict[int, Any]] = {
            r: {} for r in ranks if self.owns(r)
        }
        outgoing: list[list[tuple[int, int, Any]]] = [
            [] for _ in range(self.world_size)
        ]
        total_bytes = 0
        n_msgs = 0
        for src in ranks:
            if not self.owns(src):
                continue
            for dst, payload in sendbufs.get(src, {}).items():
                if src != dst:
                    total_bytes += payload_nbytes(payload)
                    n_msgs += 1
                owner = self.owner_of(dst)
                if owner == self.world_rank:
                    recvbufs[dst][src] = payload
                else:
                    self.interprocess_bytes += payload_nbytes(payload)
                    self.interprocess_messages += 1
                    outgoing[owner].append((src, dst, payload))
        if self.world_size > 1:
            arrived = self._comm.alltoall(outgoing)
            for bucket in arrived:
                for src, dst, payload in bucket:
                    recvbufs[dst][src] = payload
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=time.perf_counter() - start,
        )
        return recvbufs

    def bcast(
        self,
        root: int,
        payload: Any,
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.BCAST,
    ) -> dict[int, Any]:
        """Broadcast from ``root``; returns ``rank -> payload``."""
        start = time.perf_counter()
        ranks = normalize_group(self.n_ranks, group)
        if root not in ranks:
            raise ValueError(f"broadcast root {root} is not part of the group")
        value = payload
        if self.world_size > 1:
            value = self._comm.bcast(
                payload if self.owns(root) else None, root=self.owner_of(root)
            )
        # Each receiving rank accounts its incoming copy; summed over all
        # processes this equals SimMPI's global (g-1) messages.
        n_recv = sum(1 for r in ranks if self.owns(r) and r != root)
        nbytes = payload_nbytes(value)
        if self.world_size > 1 and not self.owns(root) and any(
            self.owns(r) for r in ranks
        ):
            # One physical copy crosses into this process from root's.
            self.interprocess_bytes += nbytes
            self.interprocess_messages += 1
        self.stats.record(
            category,
            operations=1,
            messages=n_recv,
            nbytes=nbytes * n_recv,
            modeled_seconds=time.perf_counter() - start,
        )
        return {r: value for r in ranks}

    def gather(
        self,
        root: int,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.GATHER,
    ) -> dict[int, Any]:
        """Gather one payload per group member onto ``root``."""
        start = time.perf_counter()
        ranks = normalize_group(self.n_ranks, group)
        if root not in ranks:
            raise ValueError(f"gather root {root} is not part of the group")
        mine = {src: payloads.get(src) for src in ranks if self.owns(src)}
        total_bytes = sum(
            payload_nbytes(v) for src, v in mine.items() if src != root
        )
        n_msgs = sum(1 for src in mine if src != root)
        if self.world_size > 1 and mine and not self.owns(root):
            # This process's contributions cross to the root's process.
            self.interprocess_bytes += sum(
                payload_nbytes(v) for v in mine.values()
            )
            self.interprocess_messages += 1
        merged = mine
        if self.world_size > 1:
            parts = self._comm.gather(mine, root=self.owner_of(root))
            if parts is not None:
                merged = {}
                for part in parts:
                    merged.update(part)
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=time.perf_counter() - start,
        )
        return {src: merged.get(src) for src in ranks}

    def scatter(
        self,
        root: int,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.SCATTER,
    ) -> dict[int, Any]:
        """Scatter rank-specific payloads from ``root`` to the group."""
        start = time.perf_counter()
        ranks = normalize_group(self.n_ranks, group)
        if root not in ranks:
            raise ValueError(f"scatter root {root} is not part of the group")
        total_bytes = 0
        n_msgs = 0
        if self.owns(root):
            for dst in ranks:
                if dst != root:
                    total_bytes += payload_nbytes(payloads.get(dst))
                    n_msgs += 1
                if self.owner_of(dst) != self.world_rank:
                    # Root-side: this share crosses to dst's process.
                    self.interprocess_bytes += payload_nbytes(payloads.get(dst))
                    self.interprocess_messages += 1
        part: Mapping[int, Any] = payloads
        if self.world_size > 1:
            parts = None
            if self.owns(root):
                parts = [
                    {r: payloads.get(r) for r in ranks if self.owner_of(r) == q}
                    for q in range(self.world_size)
                ]
            part = self._comm.scatter(parts, root=self.owner_of(root))
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=time.perf_counter() - start,
        )
        return {dst: part.get(dst) for dst in ranks if self.owns(dst)}

    def allgather(
        self,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLGATHER,
    ) -> dict[int, dict[int, Any]]:
        """All-gather: every rank receives every payload."""
        start = time.perf_counter()
        ranks = normalize_group(self.n_ranks, group)
        g = len(ranks)
        mine = {r: payloads.get(r) for r in ranks if self.owns(r)}
        merged = dict(mine)
        if self.world_size > 1:
            for part in self._comm.allgather(mine):
                merged.update(part)
        gathered = {r: merged.get(r) for r in ranks}
        sizes = {r: payload_nbytes(v) for r, v in gathered.items()}
        total = sum(sizes.values())
        # Per owned rank: g-1 incoming messages carrying everyone else's
        # payload; summed over processes this equals SimMPI's global
        # g·(g-1) messages and total·(g-1) bytes.
        owned = [r for r in ranks if self.owns(r)]
        if self.world_size > 1 and owned:
            # Receiver-side: one copy of every remotely-owned payload
            # crosses into this process.
            remote = [r for r in ranks if not self.owns(r)]
            self.interprocess_bytes += sum(sizes[r] for r in remote)
            self.interprocess_messages += len(remote)
        self.stats.record(
            category,
            operations=1,
            messages=len(owned) * (g - 1),
            nbytes=sum(total - sizes[r] for r in owned),
            modeled_seconds=time.perf_counter() - start,
        )
        return {r: dict(gathered) for r in ranks}

    def reduce(
        self,
        root: int,
        payloads: Mapping[int, Any],
        combine: Callable[[Any, Any], Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.REDUCE,
    ) -> Any:
        """Reduce one payload per rank onto ``root``.

        ``combine`` must be associative; with a multi-process world it must
        also tolerate the cross-process fold order (root's process first,
        then ascending world rank).  The reduced value is returned on the
        process owning ``root`` (and, with a single-process world, always).
        """
        start = time.perf_counter()
        ranks = normalize_group(self.n_ranks, group)
        if root not in ranks:
            raise ValueError(f"reduce root {root} is not part of the group")
        order = [root] + [r for r in ranks if r != root]
        total_bytes = sum(
            payload_nbytes(payloads.get(r))
            for r in order[1:]
            if self.owns(r)
        )
        partial: Any = None
        have_partial = False
        for r in order:
            if not self.owns(r):
                continue
            value = payloads.get(r)
            if not have_partial:
                partial, have_partial = value, True
            else:
                partial = combine(partial, value)
        result = partial
        if self.world_size > 1:
            if have_partial and not self.owns(root):
                # Sender-side: the local partial crosses to root's process.
                self.interprocess_bytes += payload_nbytes(partial)
                self.interprocess_messages += 1
            parts = self._comm.gather(
                (have_partial, partial), root=self.owner_of(root)
            )
            if parts is None:
                # Not the process owning the root: the reduced value is not
                # available here.  Returning the local partial fold would be
                # silently wrong.
                result = None
            else:
                folded: Any = None
                have = False
                for got, value in parts:
                    if not got:
                        continue
                    if not have:
                        folded, have = value, True
                    else:
                        folded = combine(folded, value)
                result = folded
        self.stats.record(
            category,
            operations=1,
            messages=sum(1 for r in order[1:] if self.owns(r)),
            nbytes=total_bytes,
            modeled_seconds=time.perf_counter() - start,
        )
        return result

    def allreduce(
        self,
        payloads: Mapping[int, Any],
        combine: Callable[[Any, Any], Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLREDUCE,
    ) -> dict[int, Any]:
        """Reduce-then-broadcast allreduce; returns ``rank -> result``."""
        ranks = normalize_group(self.n_ranks, group)
        root = ranks[0]
        result = self.reduce(
            root, payloads, combine, group=ranks, category=category
        )
        return self.bcast(root, result, group=ranks, category=category)

    # ------------------------------------------------------------------
    # nonblocking primitives
    # ------------------------------------------------------------------
    def _p2p_tag(self, src: int, dst: int) -> int:
        """MPI tag matching one logical ``(src, dst)`` channel.

        Messages between the same pair match in FIFO order (MPI guarantees
        ordering per source/tag), which is exactly the posting-order
        semantics the simulator implements.
        """
        return src * self.n_ranks + dst + 1

    @staticmethod
    def _noop_request(op: str, category: str) -> CommRequest:
        """A request for the non-owning side of an operation (resolves to None)."""
        return CommRequest(op, category, lambda: None)

    def isend(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> CommRequest:
        """Post a nonblocking send from logical ``src`` to logical ``dst``.

        On the process owning ``src``: delivered through an in-process
        mailbox when ``dst`` lives on the same process, else through
        ``mpi4py``'s nonblocking ``isend`` (the loopback world provides the
        same surface).  Non-owning processes get a no-op request, so SPMD
        call sites can post unconditionally.  Statistics are recorded by
        the matching ``irecv`` wait on the receiving process.
        """
        check_rank(self.n_ranks, src)
        check_rank(self.n_ranks, dst)
        if not self.owns(src):
            return self._noop_request("isend", category)
        perf_count("overlap.requests")
        owner = self.owner_of(dst)
        if owner == self.world_rank:
            self._p2p_mail.setdefault((src, dst), []).append(payload)
            return CommRequest("isend", category, lambda: None)
        mpi_req = self._comm.isend(payload, dest=owner, tag=self._p2p_tag(src, dst))
        return CommRequest("isend", category, mpi_req.wait)

    def irecv(
        self,
        src: int,
        dst: int,
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> CommRequest:
        """Post a nonblocking receive at ``dst`` for a message from ``src``.

        The matching ``isend`` must be posted (on its owning process)
        before this request is waited on — the overlapped schedules
        guarantee that by posting whole rounds of sends before any wait.
        Accounting mirrors :class:`SimMPI`: the receive records the bytes,
        and a message unless ``src == dst``.
        """
        check_rank(self.n_ranks, src)
        check_rank(self.n_ranks, dst)
        if not self.owns(dst):
            return self._noop_request("irecv", category)
        perf_count("overlap.requests")
        owner = self.owner_of(src)

        def complete() -> Any:
            start = time.perf_counter()
            if owner == self.world_rank:
                queue = self._p2p_mail.get((src, dst))
                if not queue:
                    raise RuntimeError(
                        f"irecv({src} -> {dst}) waited with no matching "
                        "isend posted; post the send before waiting"
                    )
                payload = queue.pop(0)
            else:
                payload = self._comm.recv(
                    source=owner, tag=self._p2p_tag(src, dst)
                )
                self.interprocess_bytes += payload_nbytes(payload)
                self.interprocess_messages += 1
            self.stats.record(
                category,
                operations=1,
                messages=0 if src == dst else 1,
                nbytes=payload_nbytes(payload),
                modeled_seconds=time.perf_counter() - start,
            )
            return payload

        return CommRequest("irecv", category, complete)

    def ibcast(
        self,
        root: int,
        payload: Any,
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.BCAST,
    ) -> CommRequest:
        """Post a nonblocking broadcast; completes eagerly at the post.

        MPI permits a nonblocking collective to complete anywhere between
        post and wait; this backend runs the underlying (deadlock-free,
        SPMD-ordered) collective at post time and hands the result to the
        wait, so the single-rank emulator and real multi-process worlds
        behave identically.  Volume accounting is exactly :meth:`bcast`'s.
        """
        perf_count("overlap.requests")
        result = self.bcast(root, payload, group=group, category=category)
        return CommRequest("ibcast", category, lambda: result)

    def iallgather(
        self,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLGATHER,
    ) -> CommRequest:
        """Post a nonblocking allgather; completes eagerly at the post.

        Same eager-completion semantics (and accounting) as :meth:`ibcast`.
        """
        perf_count("overlap.requests")
        result = self.allgather(payloads, group=group, category=category)
        return CommRequest("iallgather", category, lambda: result)

    def wait(self, request: CommRequest) -> Any:
        """Complete one nonblocking request and return its result."""
        return request.wait()

    def waitall(self, requests: Sequence[CommRequest]) -> list[Any]:
        """Complete requests in posting order; returns their results."""
        return [request.wait() for request in requests]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        kind = "mpi4py" if self.is_real_mpi else "emulated"
        return (
            f"MPIBackend(p={self.n_ranks}, world={self.world_size}, "
            f"backend={kind})"
        )
