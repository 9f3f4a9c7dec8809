"""Routing update tuples to their owning ranks.

Section IV-B: ranks generate ``(i, j, x)`` update tuples with no knowledge
of the data distribution, so tuples must be redistributed to the rank that
owns block ``(i, j)``.  The paper's scheme:

1. group the local tuples by their destination *process-grid row* with a
   counting sort over ``√p`` buckets (cheap — the key range is tiny);
2. ``ALLTOALL`` within the grid *column*, so every tuple reaches the correct
   process row;
3. group by destination *process-grid column* (counting sort again);
4. ``ALLTOALL`` within the grid *row*.

The ``√p`` group-local exchanges of one phase are posted together as
nonblocking point-to-point messages rather than one group after another.
Each ``ALLTOALL`` involves only ``√p`` peers, in contrast to the
single-phase scheme used by CombBLAS (one global ``ALLTOALL`` over all
``p`` ranks preceded by a comparison sort of the whole tuple set), which is
also implemented here for the competitor backends.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.perf.recorder import perf_count
from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.distributed.distribution import BlockDistribution

__all__ = [
    "group_by_buckets",
    "redistribute_tuples",
    "redistribute_tuples_single_phase",
]

TupleArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _empty_tuples(dtype) -> TupleArrays:
    return (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=dtype),
    )


def _as_tuple_arrays(data, dtype) -> TupleArrays:
    if data is None:
        return _empty_tuples(dtype)
    rows, cols, vals = data
    rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
    cols = np.ascontiguousarray(np.asarray(cols, dtype=np.int64))
    vals = np.ascontiguousarray(np.asarray(vals, dtype=dtype))
    if not (rows.size == cols.size == vals.size):
        raise ValueError("tuple arrays must have identical lengths")
    return rows, cols, vals


def _route_tuples(
    comm: Communicator,
    grid: ProcessGrid,
    dist: BlockDistribution,
    tuples_per_rank: Mapping[int, TupleArrays],
    redistribution: str,
    value_dtype,
) -> dict[int, TupleArrays]:
    """Route with the named scheme: ``"two_phase"`` or ``"single_phase"``.

    Every owned rank has an entry in the result (possibly empty).  A
    non-empty share on a rank outside the grid is a ``ValueError``, raised
    before any communication: the schemes read only the grid's ranks, so
    those tuples would be lost.
    """
    grid_ranks = set(grid.all_ranks())
    stray = sorted(
        rank
        for rank, data in tuples_per_rank.items()
        if rank not in grid_ranks and data is not None and np.size(data[0])
    )
    if stray:
        raise ValueError(
            f"tuples held by ranks {stray} outside the {grid.n_ranks}-rank grid"
        )
    if redistribution == "two_phase":
        route = redistribute_tuples
    elif redistribution == "single_phase":
        route = redistribute_tuples_single_phase
    else:
        raise ValueError(
            f"unknown redistribution mode {redistribution!r} "
            "(use 'two_phase' or 'single_phase')"
        )
    return route(comm, grid, dist, tuples_per_rank, value_dtype=value_dtype)


def group_by_buckets(
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    bucket_of: np.ndarray,
    n_buckets: int,
) -> tuple[TupleArrays, np.ndarray]:
    """Group tuples by destination bucket: the counting sort of the paper.

    Only the (small-range) bucket key orders the tuples, and tuples of one
    bucket keep their input order.  Returns the reordered tuple arrays plus
    the bucket boundary offsets (length ``n_buckets + 1``).
    """
    bucket_of = np.asarray(bucket_of, dtype=np.int64)
    offsets = _bucket_offsets(rows, bucket_of, n_buckets)
    # A stable sort keyed only by the bucket id: identical grouping
    # semantics (and identical output) to a counting sort over
    # n_buckets buckets.
    order = np.argsort(bucket_of, kind="stable")
    return (rows[order], cols[order], vals[order]), offsets


def _bucket_offsets(
    rows: np.ndarray, bucket_of: np.ndarray, n_buckets: int
) -> np.ndarray:
    """Where each bucket starts once the tuples are in bucket order."""
    if bucket_of.size != rows.size:
        raise ValueError("bucket array must align with the tuple arrays")
    if bucket_of.size and (bucket_of.min() < 0 or bucket_of.max() >= n_buckets):
        raise ValueError("bucket id outside [0, n_buckets)")
    counts = np.bincount(bucket_of, minlength=n_buckets)
    offsets = np.zeros(n_buckets + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _bucket_for_sending(comm, rank, tuples, group, dests) -> dict[int, TupleArrays]:
    """Group ``rank``'s tuples by bucket (charged to it) and slice per receiver.

    ``group(rows, cols, vals)`` returns the tuples in bucket order and the
    bucket offsets, and ``dests[bucket]`` is the rank that bucket travels
    to; empty buckets send nothing.
    """
    data, offsets = comm.run_local(
        rank, group, *tuples, category=StatCategory.REDIST_SORT
    )
    outgoing: dict[int, TupleArrays] = {}
    for bucket, dest in enumerate(dests):
        lo, hi = offsets[bucket], offsets[bucket + 1]
        if hi > lo:
            outgoing[dest] = (data[0][lo:hi], data[1][lo:hi], data[2][lo:hi])
    return outgoing


def _concat_inbox(inbox: Mapping[int, TupleArrays], dtype) -> TupleArrays:
    """Received chunks concatenated in source-rank order."""
    if not inbox:
        return _empty_tuples(dtype)
    chunks = [inbox[src] for src in sorted(inbox)]
    return (
        np.concatenate([c[0] for c in chunks]),
        np.concatenate([c[1] for c in chunks]),
        np.concatenate([c[2] for c in chunks]),
    )


def _exchange_chunks(
    comm: Communicator, sendbufs: dict[int, dict[int, TupleArrays]]
) -> dict[int, dict[int, TupleArrays]]:
    """Deliver per-rank outgoing chunks with ``isend``/``irecv``.

    Every cross-rank chunk travels as one point-to-point message, all
    sends are posted before any receive is waited on, and self-addressed
    chunks are delivered locally *without* posting a request — exactly
    like ``alltoallv``, which never charges self-messages — so the
    per-category communication volume equals that of one ``alltoallv``
    per process-grid line.  The send pattern is agreed
    through the uncharged ``host_merge`` control plane, so every process
    knows which sources each of its ranks must wait on; receives are
    completed in sorted ``(rank, src)`` order, keeping assembly
    deterministic.
    """
    pattern = comm.host_merge(
        {rank: sorted(out.keys()) for rank, out in sendbufs.items()}
    )
    inbox: dict[int, dict[int, TupleArrays]] = {rank: {} for rank in sendbufs}
    send_reqs = []
    for rank in sorted(sendbufs):
        for dst in sorted(sendbufs[rank]):
            chunk = sendbufs[rank][dst]
            if dst == rank:
                inbox[rank][rank] = chunk
            else:
                send_reqs.append(
                    comm.isend(rank, dst, chunk, category=StatCategory.REDIST_COMM)
                )
    sources: dict[int, list[int]] = {rank: [] for rank in sendbufs}
    for src in sorted(pattern):
        for dst in pattern[src]:
            if src != dst and dst in sources:
                sources[dst].append(src)
    for rank in sorted(sources):
        for src in sorted(sources[rank]):
            inbox[rank][src] = comm.wait(
                comm.irecv(src, rank, category=StatCategory.REDIST_COMM)
            )
    comm.waitall(send_reqs)
    return inbox


def redistribute_tuples(
    comm: Communicator,
    grid: ProcessGrid,
    dist: BlockDistribution,
    tuples_per_rank: Mapping[int, TupleArrays],
    *,
    value_dtype=np.float64,
) -> dict[int, TupleArrays]:
    """Two-phase redistribution of update tuples (the paper's scheme).

    Parameters
    ----------
    tuples_per_rank:
        ``rank -> (rows, cols, values)`` with *global* coordinates; ranks
        may be missing (treated as empty).

    Returns
    -------
    dict rank -> (rows, cols, values)
        Tuples grouped on their owning rank, still in global coordinates.
    """
    dtype = np.dtype(value_dtype)
    q = grid.q
    owned = comm.owned_ranks(grid.all_ranks())

    def route(local, bucket_of, dest_rank_of) -> dict[int, TupleArrays]:
        """One phase: bucket each rank's tuples, deliver, reassemble.

        The chunks of all ``√p`` groups travel in one point-to-point
        exchange, concurrently rather than one group barrier at a time.
        """

        def group(rows, cols, vals):
            return group_by_buckets(rows, cols, vals, bucket_of(rows, cols), q)

        sendbufs: dict[int, dict[int, TupleArrays]] = {}
        for rank in owned:
            dests = [dest_rank_of(rank, bucket) for bucket in range(q)]
            sendbufs[rank] = _bucket_for_sending(comm, rank, local[rank], group, dests)
        recv = _exchange_chunks(comm, sendbufs)
        return {rank: _concat_inbox(recv[rank], dtype) for rank in owned}

    # Per-rank state is partial: this process materialises (and sorts,
    # and sends) only the tuples generated by the ranks it owns.
    local = {
        rank: _as_tuple_arrays(tuples_per_rank.get(rank), dtype)
        for rank in owned
    }
    perf_count("redistribute.tuples", sum(t[0].size for t in local.values()))
    # phase 1: route to the correct process-grid row, communicating
    # within each grid column
    local = route(
        local,
        lambda rows, cols: dist.block_row_of(rows),
        lambda rank, dest_row: grid.rank_of(dest_row, grid.col_of(rank)),
    )
    # phase 2: tuples are now on the right grid row; route to the
    # correct process-grid column, communicating within each grid row
    return route(
        local,
        lambda rows, cols: dist.block_col_of(cols),
        lambda rank, dest_col: grid.rank_of(grid.row_of(rank), dest_col),
    )


def redistribute_tuples_single_phase(
    comm: Communicator,
    grid: ProcessGrid,
    dist: BlockDistribution,
    tuples_per_rank: Mapping[int, TupleArrays],
    *,
    value_dtype=np.float64,
) -> dict[int, TupleArrays]:
    """Single-phase redistribution: one global ``ALLTOALL`` over all ranks.

    This is the strategy the paper attributes to CombBLAS ("a comparison
    sort and a global ALLTOALL"); the competitor backends use it.  The
    comparison sort orders each rank's tuples by ``(owner, row, col)``.
    """
    dtype = np.dtype(value_dtype)
    p = grid.n_ranks
    owned = comm.owned_ranks(grid.all_ranks())

    def sort_by_owner(rows, cols, vals):
        owner = dist.owner_of(rows, cols)
        offsets = _bucket_offsets(rows, owner, p)
        order = np.lexsort((cols, rows, owner))
        return (rows[order], cols[order], vals[order]), offsets

    sendbufs: dict[int, dict[int, TupleArrays]] = {}
    for rank in owned:
        tuples = _as_tuple_arrays(tuples_per_rank.get(rank), dtype)
        sendbufs[rank] = _bucket_for_sending(comm, rank, tuples, sort_by_owner, range(p))
    recv = comm.alltoallv(
        sendbufs, group=grid.all_ranks(), category=StatCategory.REDIST_COMM
    )
    return {rank: _concat_inbox(recv.get(rank, {}), dtype) for rank in owned}
