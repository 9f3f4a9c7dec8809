"""The simulated MPI communicator.

:class:`SimMPI` executes bulk-synchronous SPMD algorithms for ``p``
simulated ranks inside a single Python process.  Algorithms are written in
"global orchestration" style: local kernels are applied rank-by-rank via
:meth:`SimMPI.run_local` / :meth:`SimMPI.map_local` (their wall-clock time
is measured and converted into modelled rank time), while communication
primitives move payloads between ranks and charge a Hockney ``α + β·bytes``
cost model.

Each rank has a *modelled clock*.  Local work advances only the executing
rank's clock; collectives synchronise the clocks of the participating group
(every member must have arrived before data can flow) and then advance them
by the per-rank communication cost.  ``elapsed()`` (the maximum clock)
therefore behaves like the wall-clock time of a real bulk-synchronous MPI
program, which is what the paper reports.

**Nonblocking operations and overlap charging.**  The ``isend`` / ``irecv``
/ ``ibcast`` / ``iallgather`` primitives split a transfer into a *post* and
a *wait*.  At post time the simulator computes the same per-rank cost the
blocking operation would charge and captures the group's synchronised start
time, but does **not** advance any clock; at wait time each participant's
clock advances to ``max(own clock, start + cost)``.  A rank that computes
between post and wait therefore pays ``max(compute, outstanding_comm)``
over the window instead of the sum — overlap is *charged by the model*, so
the benefit of a pipelined schedule is measurable (and regression-gatable)
without hardware.  Message/byte accounting is identical to the blocking
operations and recorded at wait; the exposed (non-hidden) fraction of the
cost is reported as the event's modelled seconds, and the
``overlap.hidden_seconds`` / ``overlap.exposed_seconds`` perf counters
accumulate the split.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.perf.recorder import perf_count
from repro.runtime.backend import CommRequest, check_rank, normalize_group
from repro.runtime.config import MachineModel
from repro.runtime.stats import CommStats, StatCategory

__all__ = ["SimMPI", "payload_nbytes"]

#: Payload types already reported by the unknown-type fallback warning
#: (keyed by the type object — distinct types may share a qualname).
_UNSIZED_PAYLOAD_TYPES: set[type] = set()


def payload_nbytes(obj: Any) -> int:
    """Estimate the number of bytes needed to transfer ``obj``.

    Supports NumPy arrays, Python scalars, ``None``, nested tuples / lists /
    dicts thereof, and any object exposing an ``nbytes`` attribute (all
    sparse matrix classes in :mod:`repro.sparse` do).
    """
    if obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    nbytes_attr = getattr(obj, "nbytes", None)
    if nbytes_attr is not None and not isinstance(obj, (list, tuple, dict)):
        return int(nbytes_attr)
    if isinstance(obj, Mapping):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(item) for item in obj)
    # Fallback: unknown object; charge a fixed small overhead so it is not
    # free to communicate, and warn once per type — a flat 64 bytes for a
    # large payload would silently corrupt the communication cost model.
    if type(obj) not in _UNSIZED_PAYLOAD_TYPES:
        _UNSIZED_PAYLOAD_TYPES.add(type(obj))
        warnings.warn(
            f"payload_nbytes: unknown payload type {type(obj).__qualname__!r}; charging a "
            "flat 64 bytes — implement an 'nbytes' attribute for accurate "
            "communication costs",
            RuntimeWarning,
            stacklevel=2,
        )
    return 64


class SimMPI:
    """A simulated MPI communicator over ``n_ranks`` ranks.

    ``barrier``, ``map_local``, ``sendrecv``, ``scatter``, ``allgather``
    and ``iallgather`` are not part of :class:`Communicator`: nothing in
    the library calls them, and they stay only while the span tracer of
    ``perf_ledger/tracer.py`` names them as targets.
    """

    def __init__(self, n_ranks: int, machine: MachineModel | None = None) -> None:
        if n_ranks < 1:
            raise ValueError("communicator needs at least one rank")
        self.n_ranks = int(n_ranks)
        self.machine = machine if machine is not None else MachineModel()
        self.stats = CommStats()
        self._clock = np.zeros(self.n_ranks, dtype=np.float64)
        #: (src, dst) -> FIFO of (finish_time, payload, nbytes) posted by
        #: isend and not yet consumed by a matching irecv wait
        self._mailboxes: dict[tuple[int, int], list] = {}
        #: per-rank time at which the rank's send link becomes free again
        #: (consecutive isends from one rank serialise on its link)
        self._send_busy = np.zeros(self.n_ranks, dtype=np.float64)

    # ------------------------------------------------------------------
    # clock management
    # ------------------------------------------------------------------
    @property
    def p(self) -> int:
        """Number of simulated ranks."""
        return self.n_ranks

    # ------------------------------------------------------------------
    # rank ownership / control plane (trivial: one process owns all ranks)
    # ------------------------------------------------------------------
    def owner_of(self, rank: int) -> int:
        """Hosting process of ``rank`` — always process 0 on the simulator."""
        check_rank(self.n_ranks, rank)
        return 0

    def owns(self, rank: int) -> bool:
        """``True`` for every valid rank: the simulator hosts all of them."""
        check_rank(self.n_ranks, rank)
        return True

    def owned_ranks(self, group: Sequence[int] | None = None) -> list[int]:
        """All ranks of ``group`` (default: all ranks) — everything is local."""
        return normalize_group(self.n_ranks, group)

    def host_merge(self, mapping: Mapping[int, Any]) -> dict[int, Any]:
        """Union of partial per-rank mappings — the identity on one process."""
        return dict(mapping)

    def host_fold(self, value: Any, combine: Callable[[Any, Any], Any]) -> Any:
        """Fold per-process values — the identity on one process."""
        return value

    @property
    def clock(self) -> np.ndarray:
        """Per-rank modelled clocks (seconds); a view, do not mutate."""
        return self._clock

    def elapsed(self) -> float:
        """Modelled parallel time so far (maximum over rank clocks)."""
        return float(self._clock.max())

    def barrier(self, group: Sequence[int] | None = None) -> None:
        """Synchronise the clocks of ``group`` (default: all ranks)."""
        ranks = self._group(group)
        t = float(self._clock[ranks].max())
        self._clock[ranks] = t

    @contextmanager
    def timer(self):
        """Context manager measuring modelled parallel time of a region.

        Example
        -------
        >>> comm = SimMPI(4)
        >>> with comm.timer() as t:
        ...     comm.barrier()
        >>> t.seconds >= 0.0
        True
        """

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
        """Execute ``fn(*args, **kwargs)`` as local work of ``rank``.

        The wall-clock duration is measured, divided by the machine model's
        shared-memory speedup and added to ``rank``'s modelled clock under
        ``category``.
        """
        self._check_rank(rank)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        measured = time.perf_counter() - start
        modeled = self.machine.compute_time(measured)
        self._clock[rank] += modeled
        self.stats.record(
            category,
            operations=1,
            modeled_seconds=modeled,
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
        """Run ``fn`` once per rank with rank-specific arguments.

        ``per_rank_args`` is either a mapping ``rank -> argument tuple`` or a
        sequence aligned with ``group`` (default: all ranks).  Returns a dict
        ``rank -> result``.
        """
        ranks = self._group(group)
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
        """Deliver a set of point-to-point messages "simultaneously".

        ``messages`` is an iterable of ``(src, dst, payload)``.  All messages
        are considered posted at each sender's current clock; a receiver's
        clock advances to the latest arrival.  Returns a dict
        ``dst -> [(src, payload), ...]`` in posting order.

        This primitive implements the transpose send/receive round of
        Algorithms 1 and 2 ("send A*_{i,j} to process (j,i)").
        """
        msgs = list(messages)
        inbox: dict[int, list[tuple[int, Any]]] = {}
        arrival = dict(enumerate(self._clock))
        send_finish: dict[int, float] = {}
        total_bytes = 0
        n_msgs = 0
        start_max = 0.0
        for src, dst, payload in msgs:
            self._check_rank(src)
            self._check_rank(dst)
            nbytes = payload_nbytes(payload)
            total_bytes += nbytes
            cost = self.machine.message_cost(src, dst, nbytes)
            depart = float(self._clock[src])
            start_max = max(start_max, depart)
            send_finish[src] = max(send_finish.get(src, depart), depart + cost)
            arrival[dst] = max(arrival.get(dst, 0.0), depart + cost)
            inbox.setdefault(dst, []).append((src, payload))
            if src != dst:
                n_msgs += 1
        before = self._clock.copy()
        for rank, t in send_finish.items():
            self._clock[rank] = max(self._clock[rank], t)
        for rank, t in arrival.items():
            self._clock[rank] = max(self._clock[rank], t)
        modeled = float(self._clock.max() - before.max()) if msgs else 0.0
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=max(modeled, 0.0),
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
        """Personalised all-to-all within ``group``.

        ``sendbufs[src][dst]`` is the payload rank ``src`` sends to rank
        ``dst`` (both global rank ids; ``dst`` must belong to the group).
        Returns ``recvbufs[dst][src]``.

        Cost model: the group synchronises, then each rank pays the sum of
        its outgoing message costs plus the sum of its incoming message
        costs (a linear-time personalised exchange, the standard model for
        ``MPI_Alltoallv`` with irregular payloads).
        """
        ranks = self._group(group)
        rank_set = set(ranks)
        for src in sendbufs:
            self._check_rank(src)
            if src not in rank_set:
                raise ValueError(f"sender rank {src} is not part of the group")
            for dst in sendbufs[src]:
                if dst not in rank_set:
                    raise ValueError(
                        f"destination rank {dst} is not part of the group"
                    )
        t0 = float(self._clock[ranks].max())
        send_cost = {r: 0.0 for r in ranks}
        recv_cost = {r: 0.0 for r in ranks}
        recvbufs: dict[int, dict[int, Any]] = {r: {} for r in ranks}
        total_bytes = 0
        n_msgs = 0
        for src in ranks:
            for dst, payload in sendbufs.get(src, {}).items():
                nbytes = payload_nbytes(payload)
                recvbufs[dst][src] = payload
                if src == dst:
                    continue
                cost = self.machine.message_cost(src, dst, nbytes)
                send_cost[src] += cost
                recv_cost[dst] += cost
                total_bytes += nbytes
                n_msgs += 1
        max_finish = t0
        for r in ranks:
            finish = t0 + max(send_cost[r], recv_cost[r])
            self._clock[r] = finish
            max_finish = max(max_finish, finish)
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=max_finish - t0,
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
        """Broadcast ``payload`` from ``root`` to every rank in ``group``.

        Uses a binomial-tree cost: ``ceil(log2 g) * (α + β·bytes)``.
        Returns a dict ``rank -> payload`` (all entries reference the same
        object; distributed code must not mutate received broadcast data).
        """
        ranks = self._group(group)
        if root not in ranks:
            raise ValueError(f"broadcast root {root} is not part of the group")
        g = len(ranks)
        nbytes = payload_nbytes(payload)
        rounds = max(1, math.ceil(math.log2(g))) if g > 1 else 0
        cost = rounds * (self.machine.alpha + self.machine.beta * nbytes)
        t0 = float(self._clock[ranks].max())
        self._clock[ranks] = t0 + cost
        self.stats.record(
            category,
            operations=1,
            messages=max(0, g - 1),
            nbytes=nbytes * max(0, g - 1),
            modeled_seconds=cost,
        )
        return {r: payload for r in ranks}

    def gather(
        self,
        root: int,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.GATHER,
    ) -> dict[int, Any]:
        """Gather one payload per group member onto ``root``.

        Returns ``{src: payload}`` visible only at the root (the caller is
        the orchestrator, so the dict is simply returned).
        """
        ranks = self._group(group)
        if root not in ranks:
            raise ValueError(f"gather root {root} is not part of the group")
        t0 = float(self._clock[ranks].max())
        total_bytes = 0
        n_msgs = 0
        root_cost = 0.0
        for src in ranks:
            payload = payloads.get(src)
            nbytes = payload_nbytes(payload)
            if src != root:
                cost = self.machine.message_cost(src, root, nbytes)
                root_cost += cost
                self._clock[src] = max(self._clock[src], t0 + cost)
                total_bytes += nbytes
                n_msgs += 1
        self._clock[root] = t0 + root_cost
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=root_cost,
        )
        return {src: payloads.get(src) for src in ranks}

    def scatter(
        self,
        root: int,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.SCATTER,
    ) -> dict[int, Any]:
        """Scatter rank-specific payloads from ``root`` to the group."""
        ranks = self._group(group)
        if root not in ranks:
            raise ValueError(f"scatter root {root} is not part of the group")
        t0 = float(self._clock[ranks].max())
        total_bytes = 0
        n_msgs = 0
        root_cost = 0.0
        for dst in ranks:
            payload = payloads.get(dst)
            nbytes = payload_nbytes(payload)
            if dst != root:
                cost = self.machine.message_cost(root, dst, nbytes)
                root_cost += cost
                self._clock[dst] = max(self._clock[dst], t0 + cost)
                total_bytes += nbytes
                n_msgs += 1
        self._clock[root] = t0 + root_cost
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=root_cost,
        )
        return {dst: payloads.get(dst) for dst in ranks}

    def allgather(
        self,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLGATHER,
    ) -> dict[int, dict[int, Any]]:
        """All-gather: every rank receives every payload.

        Cost: ring model, ``(g-1)·α + β·(total bytes excluding own)``.
        """
        ranks = self._group(group)
        g = len(ranks)
        t0 = float(self._clock[ranks].max())
        sizes = {r: payload_nbytes(payloads.get(r)) for r in ranks}
        total = sum(sizes.values())
        per_rank_cost = {
            r: (g - 1) * self.machine.alpha + self.machine.beta * (total - sizes[r])
            for r in ranks
        }
        for r in ranks:
            self._clock[r] = t0 + per_rank_cost[r]
        self.stats.record(
            category,
            operations=1,
            messages=g * (g - 1),
            nbytes=total * max(0, g - 1),
            modeled_seconds=(max(per_rank_cost.values()) if ranks else 0.0),
        )
        gathered = {r: payloads.get(r) for r in ranks}
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
        """Tree reduction of one payload per rank onto ``root``.

        ``combine(a, b)`` must be associative.  The reduction is executed as
        an actual binomial tree so that intermediate payload sizes (which may
        grow for sparse data) are charged accurately; combine time is
        measured and charged to the combining rank.
        """
        ranks = list(self._group(group))
        if root not in ranks:
            raise ValueError(f"reduce root {root} is not part of the group")
        # Rotate so the root is position 0 of the tree.
        order = [root] + [r for r in ranks if r != root]
        values = {r: payloads.get(r) for r in order}
        t0 = float(self._clock[ranks].max())
        self._clock[ranks] = t0
        active = list(order)
        total_bytes = 0
        n_msgs = 0
        while len(active) > 1:
            next_active = []
            for idx in range(0, len(active), 2):
                if idx + 1 >= len(active):
                    next_active.append(active[idx])
                    continue
                dst, src = active[idx], active[idx + 1]
                payload = values[src]
                nbytes = payload_nbytes(payload)
                cost = self.machine.message_cost(src, dst, nbytes)
                arrive = max(self._clock[src], self._clock[dst]) + cost
                self._clock[src] = arrive
                self._clock[dst] = arrive
                total_bytes += nbytes
                n_msgs += 1
                start = time.perf_counter()
                values[dst] = combine(values[dst], payload)
                measured = time.perf_counter() - start
                self._clock[dst] += self.machine.compute_time(measured)
                next_active.append(dst)
            active = next_active
        modeled = float(self._clock[ranks].max() - t0)
        self.stats.record(
            category,
            operations=1,
            messages=n_msgs,
            nbytes=total_bytes,
            modeled_seconds=modeled,
        )
        return values[root]

    def allreduce(
        self,
        payloads: Mapping[int, Any],
        combine: Callable[[Any, Any], Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLREDUCE,
    ) -> dict[int, Any]:
        """Reduce-then-broadcast allreduce; returns ``rank -> result``."""
        ranks = self._group(group)
        root = ranks[0]
        result = self.reduce(
            root, payloads, combine, group=ranks, category=category
        )
        return self.bcast(root, result, group=ranks, category=category)

    # ------------------------------------------------------------------
    # nonblocking primitives (overlap-charged)
    # ------------------------------------------------------------------
    def _overlap_finish(
        self,
        ranks: Sequence[int],
        start: float,
        costs: Mapping[int, float],
        *,
        category: str,
        messages: int,
        nbytes: int,
    ) -> None:
        """Advance group clocks at wait time and record the overlap split.

        Each participant advances to ``max(own clock, start + cost)`` — the
        transfer ran in the background since the post.  The exposed time is
        the growth of the group's frontier clock; the remainder of the full
        cost was hidden behind computation.
        """
        before_max = float(self._clock[list(ranks)].max())
        for r in ranks:
            self._clock[r] = max(self._clock[r], start + costs[r])
        after_max = float(self._clock[list(ranks)].max())
        full = max(costs.values()) if costs else 0.0
        exposed = max(0.0, after_max - before_max)
        hidden = max(0.0, full - exposed)
        self.stats.record(
            category,
            operations=1,
            messages=messages,
            nbytes=nbytes,
            modeled_seconds=exposed,
        )
        perf_count("overlap.exposed_seconds", exposed)
        perf_count("overlap.hidden_seconds", hidden)

    def isend(
        self,
        src: int,
        dst: int,
        payload: Any,
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> CommRequest:
        """Post a nonblocking send; the payload departs at the sender's clock.

        Consecutive isends from one rank serialise on its link (the message
        occupies it for the Hockney cost).  Statistics are recorded by the
        matching ``irecv`` wait; waiting on the send request only advances
        the sender to the departure-complete time (the buffer is free).
        """
        self._check_rank(src)
        self._check_rank(dst)
        nbytes = payload_nbytes(payload)
        cost = self.machine.message_cost(src, dst, nbytes)
        start = max(float(self._clock[src]), float(self._send_busy[src]))
        finish = start + cost
        self._send_busy[src] = finish
        self._mailboxes.setdefault((src, dst), []).append(
            (finish, payload, nbytes)
        )
        perf_count("overlap.requests")

        def complete() -> None:
            self._clock[src] = max(self._clock[src], finish)
            return None

        return CommRequest("isend", category, complete)

    def irecv(
        self,
        src: int,
        dst: int,
        *,
        category: str = StatCategory.SEND_RECV,
    ) -> CommRequest:
        """Post a nonblocking receive; wait delivers the matching isend.

        Sends between the same ``(src, dst)`` pair match in FIFO order.  At
        wait time the receiver's clock advances to the message's arrival
        time; bytes are counted like :meth:`exchange` (self-messages count
        bytes but no message) and the exposed wait time is the event's
        modelled seconds.
        """
        self._check_rank(src)
        self._check_rank(dst)
        perf_count("overlap.requests")

        def complete() -> Any:
            queue = self._mailboxes.get((src, dst))
            if not queue:
                raise RuntimeError(
                    f"irecv({src} -> {dst}) waited with no matching isend "
                    "posted; post the send before waiting on the receive"
                )
            finish, payload, nbytes = queue.pop(0)
            cost = self.machine.message_cost(src, dst, nbytes)
            before = float(self._clock[dst])
            self._clock[dst] = max(before, finish)
            # The clock delta also contains catching up to a sender whose
            # clock was already ahead (rank skew).  Blocking collectives
            # absorb that skew silently in their group sync, so only the
            # transfer-cost share counts as exposed communication here.
            exposed = min(max(0.0, float(self._clock[dst]) - before), cost)
            hidden = max(0.0, cost - exposed)
            self.stats.record(
                category,
                operations=1,
                messages=0 if src == dst else 1,
                nbytes=nbytes,
                modeled_seconds=exposed,
            )
            perf_count("overlap.exposed_seconds", exposed)
            perf_count("overlap.hidden_seconds", hidden)
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
        """Post a nonblocking broadcast from ``root`` to ``group``.

        Cost and volume match :meth:`bcast` exactly; the group's start time
        is captured at the post, clocks advance only at wait — work done in
        between hides the transfer.
        """
        ranks = self._group(group)
        if root not in ranks:
            raise ValueError(f"broadcast root {root} is not part of the group")
        g = len(ranks)
        nbytes = payload_nbytes(payload)
        rounds = max(1, math.ceil(math.log2(g))) if g > 1 else 0
        cost = rounds * (self.machine.alpha + self.machine.beta * nbytes)
        start = float(self._clock[ranks].max())
        perf_count("overlap.requests")

        def complete() -> dict[int, Any]:
            self._overlap_finish(
                ranks,
                start,
                {r: cost for r in ranks},
                category=category,
                messages=max(0, g - 1),
                nbytes=nbytes * max(0, g - 1),
            )
            return {r: payload for r in ranks}

        return CommRequest("ibcast", category, complete)

    def iallgather(
        self,
        payloads: Mapping[int, Any],
        *,
        group: Sequence[int] | None = None,
        category: str = StatCategory.ALLGATHER,
    ) -> CommRequest:
        """Post a nonblocking allgather; cost and volume match :meth:`allgather`."""
        ranks = self._group(group)
        g = len(ranks)
        sizes = {r: payload_nbytes(payloads.get(r)) for r in ranks}
        total = sum(sizes.values())
        costs = {
            r: (g - 1) * self.machine.alpha + self.machine.beta * (total - sizes[r])
            for r in ranks
        }
        start = float(self._clock[ranks].max())
        gathered = {r: payloads.get(r) for r in ranks}
        perf_count("overlap.requests")

        def complete() -> dict[int, dict[int, Any]]:
            self._overlap_finish(
                ranks,
                start,
                costs,
                category=category,
                messages=g * (g - 1),
                nbytes=total * max(0, g - 1),
            )
            return {r: dict(gathered) for r in ranks}

        return CommRequest("iallgather", category, complete)

    def wait(self, request: CommRequest) -> Any:
        """Complete one nonblocking request and return its result."""
        return request.wait()

    def waitall(self, requests: Sequence[CommRequest]) -> list[Any]:
        """Complete requests in posting order; returns their results."""
        return [request.wait() for request in requests]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _group(self, group: Sequence[int] | None) -> list[int]:
        return normalize_group(self.n_ranks, group)

    def _check_rank(self, rank: int) -> None:
        check_rank(self.n_ranks, rank)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SimMPI(p={self.n_ranks}, elapsed={self.elapsed():.6f}s)"
