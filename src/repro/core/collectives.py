"""Communication patterns of Algorithms 1–2 and SUMMA, written once.

The three algorithms of :mod:`repro.core` share three patterns; each lives
here exactly once, so the posting-order invariant every process must
follow is kept in one place:

* :func:`pipelined_broadcasts` — the double-buffered ``√p``-round
  broadcast loop of SUMMA, Algorithm 1 and step 5 of Algorithm 2.  The
  callers only say *what* each round broadcasts.
* :func:`transpose_blocks` — the transpose send/receive round that moves
  every block to its transposed grid position (Algorithms 1–2 and
  :func:`repro.core.transpose.transpose_dist`).
* The custom sparse reduce-scatter of Section VI-A.  The partial products
  ``X^i_{k,j}`` produced on different ranks have *different sparsity
  patterns*, so a plain ``MPI_Reduce`` over dense buffers is not
  applicable; one skeleton runs

  1. every contributing rank splits its local partial result into ``g``
     row ranges (one per group member) — the *scatter* pattern;
  2. one ``ALLTOALLV`` inside the group delivers each row range to the
     rank responsible for it (charged to the *Reduce-Scatter* category of
     the Fig. 12 breakdown);
  3. each rank combines the pieces it received (local work);
  4. the combined row ranges are gathered onto the root (charged to the
     *Scatter* category, matching the paper's naming of the final
     redistribution step).

  :func:`sparse_reduce_to_root` ⊕-combines COO partials and
  :func:`bloom_reduce_to_root` ORs Bloom-filter matrices with it;
  :func:`reduce_line` is the gated pair of both that Algorithms 1–2 run
  per process line and round.

Both reductions follow the partial-mapping contract of the communicator
protocol: ``contributions`` holds entries only for the group ranks this
process owns (possibly none), which is why the output block ``shape`` is an
explicit required argument — it cannot be inferred from a mapping that may
legitimately be empty on some processes.  The reduced result is returned on
the process owning ``root`` and is ``None`` everywhere else.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.runtime.backend import Communicator
from repro.runtime.grid import ProcessGrid
from repro.runtime.stats import StatCategory
from repro.semirings import Semiring
from repro.sparse import BloomFilterMatrix, COOMatrix

__all__ = [
    "Broadcast", "pipelined_broadcasts", "transpose_blocks", "sum_pieces",
    "sparse_reduce_to_root", "bloom_reduce_to_root", "reduce_line",
]

#: one broadcast of a round: ``(root, payload, group)``, or ``None`` if skipped
Broadcast = tuple[int, Any, Sequence[int]] | None


def pipelined_broadcasts(
    comm: Communicator,
    n_rounds: int,
    plan: Callable[[int], Sequence[Broadcast]],
) -> Iterator[tuple[int, list[dict[int, Any] | None]]]:
    """Double-buffered broadcast rounds: yield ``(k, received)``.

    ``plan(k)`` lists round ``k``'s broadcasts in posting order, each as
    ``(root, payload, group)`` or ``None`` for a skipped one; every entry is
    posted with :meth:`Communicator.ibcast`.  ``received[i]`` is the
    ``rank -> payload`` mapping of entry ``i`` (``None`` if it was skipped).
    Round 0 is posted up front; then, for each ``k``, round ``k`` is
    completed, round ``k + 1`` is posted, and only then is round ``k``
    yielded to the caller's local work — so the next round's transfers
    progress while this round multiplies.

    Posting-order invariant: every process posts the same requests in the
    same order (round by round, and within a round in plan order) and
    waits on them in that order.  Which entries ``plan`` skips may depend
    only on globally agreed facts (grid shape, nnz censuses), never on
    local data.
    """

    def post(k: int) -> list:
        requests = []
        for entry in plan(k):
            if entry is not None:
                root, payload, group = entry
                entry = comm.ibcast(
                    root, payload, group=group, category=StatCategory.BCAST
                )
            requests.append(entry)
        return requests

    if n_rounds < 1:
        return
    pending = post(0)
    for k in range(n_rounds):
        received = [None if req is None else comm.wait(req) for req in pending]
        if k + 1 < n_rounds:
            pending = post(k + 1)
        yield k, received


def transpose_blocks(
    comm: Communicator, grid: ProcessGrid, blocks: Mapping[int, Any]
) -> dict[int, Any]:
    """Send every block to its transposed grid position.

    ``blocks`` is a partial ``rank -> block`` mapping over this process's
    owned ranks.  The returned (again partial) mapping holds, for each owned
    rank ``(r, c)``, the block stored on rank ``(c, r)`` — the block that
    rank broadcasts in round ``r`` (row broadcasts) or ``c`` (column
    broadcasts).  One point-to-point message per off-diagonal rank.
    """
    owned = comm.owned_ranks(grid.all_ranks())
    inbox = comm.exchange(
        [(rank, grid.transpose_rank(rank), blocks[rank]) for rank in owned],
        category=StatCategory.SEND_RECV,
    )
    received: dict[int, Any] = {}
    for rank in owned:
        items = inbox.get(rank, [])
        if len(items) != 1:
            raise RuntimeError(
                f"transpose exchange delivered {len(items)} blocks to rank {rank}"
            )
        received[rank] = items[0][1]
    return received


def sum_pieces(
    pieces: Sequence[COOMatrix], shape: tuple[int, int], semiring: Semiring
) -> COOMatrix:
    """⊕-combine sparse pieces of one block; empty pieces are ignored."""
    pieces = [p for p in pieces if p.nnz]
    if not pieces:
        return COOMatrix.empty(shape, semiring)
    return pieces[0].concatenate(*pieces[1:]).sum_duplicates()


def _row_range_offsets(n_rows: int, parts: int) -> np.ndarray:
    base = n_rows // parts
    rem = n_rows % parts
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    offsets = np.zeros(parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _reduce_to_root(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, Any],
    shape: tuple[int, int],
    empty: Callable[[], Any],
    split: Callable[[Any, np.ndarray], dict[int, Any]],
    fold: Callable[[list], Any],
) -> Any:
    """Split, exchange, combine and gather ``contributions`` onto ``root``.

    ``split(item, offsets)`` cuts one partial into its non-empty row ranges
    keyed by group slot, ``fold(pieces)`` combines pieces of one block, and
    ``empty()`` stands in for an owned rank without a contribution.
    """
    group = list(group)
    if root not in group:
        raise ValueError(f"reduction root {root} is not part of the group")
    mismatched = {
        c.shape for c in contributions.values() if c is not None and c.shape != shape
    }
    if mismatched:
        raise ValueError(
            f"contributions disagree with the declared block shape {shape}: "
            f"{sorted(mismatched)}"
        )
    offsets = _row_range_offsets(shape[0], len(group))

    # Steps 1+2: split by destination row range, exchange within the group.
    sendbufs: dict[int, dict[int, Any]] = {}
    for rank in comm.owned_ranks(group):
        item = contributions.get(rank)
        if item is None:
            item = empty()
        pieces = comm.run_local(
            rank, split, item, offsets, category=StatCategory.REDUCE_SCATTER
        )
        sendbufs[rank] = {group[slot]: piece for slot, piece in pieces.items()}
    received = comm.alltoallv(
        sendbufs, group=group, category=StatCategory.REDUCE_SCATTER
    )

    # Step 3: locally combine the received row-range pieces.
    combined: dict[int, Any] = {}
    for rank in comm.owned_ranks(group):
        pieces = [p for _src, p in sorted(received.get(rank, {}).items())]
        combined[rank] = comm.run_local(
            rank, fold, pieces, category=StatCategory.REDUCE_SCATTER
        )

    # Step 4: gather the combined row ranges onto the root.
    gathered = comm.gather(root, combined, group=group, category=StatCategory.SCATTER)
    if not comm.owns(root):
        return None
    pieces = [p for _r, p in sorted(gathered.items()) if p is not None]
    return comm.run_local(root, fold, pieces, category=StatCategory.REDUCE_SCATTER)


def sparse_reduce_to_root(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, COOMatrix],
    semiring: Semiring,
    *,
    shape: tuple[int, int],
) -> COOMatrix | None:
    """⊕-reduce sparse partial results of a group onto ``root``.

    ``contributions[rank]`` is the local partial result of ``rank`` (a COO
    matrix in the *output block's local coordinates*); the mapping is
    partial — it covers at most the group ranks owned by this process, and
    missing owned ranks contribute nothing.  ``shape`` is the output
    block's shape and must be passed explicitly (it is a global fact the
    caller knows; inferring it from a possibly-empty mapping silently
    produced ``(0, 0)`` results, a live bug with partial mappings).

    Returns the combined COO matrix on the process owning ``root`` and
    ``None`` on every other process.
    """

    def split(coo: COOMatrix, offsets: np.ndarray) -> dict[int, COOMatrix]:
        dest = np.searchsorted(offsets, coo.rows, side="right") - 1
        pieces: dict[int, COOMatrix] = {}
        for slot in np.unique(dest):
            sel = dest == slot
            pieces[int(slot)] = COOMatrix._unchecked(
                shape, coo.rows[sel], coo.cols[sel], coo.values[sel], semiring
            )
        return pieces

    return _reduce_to_root(
        comm, group, root, contributions, shape,
        lambda: COOMatrix.empty(shape, semiring),
        split,
        lambda pieces: sum_pieces(pieces, shape, semiring),
    )


def bloom_reduce_to_root(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, BloomFilterMatrix],
    *,
    shape: tuple[int, int],
) -> BloomFilterMatrix | None:
    """Bitwise-OR reduce Bloom-filter partials of a group onto ``root``.

    Same partial-mapping contract and explicit ``shape`` as
    :func:`sparse_reduce_to_root`; returns ``None`` on processes that do
    not own ``root``.
    """
    return _reduce_to_root(
        comm, group, root, contributions, shape,
        lambda: BloomFilterMatrix(shape),
        BloomFilterMatrix.split_rows,
        lambda pieces: BloomFilterMatrix(shape).or_with(*pieces),
    )


def reduce_line(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, COOMatrix],
    blooms: Mapping[int, BloomFilterMatrix] | None,
    semiring: Semiring,
    *,
    shape: tuple[int, int],
) -> tuple[COOMatrix | None, BloomFilterMatrix | None]:
    """Reduce one line's partial products (and Bloom bits) onto ``root``.

    Nothing is communicated unless some process holds a non-empty
    contribution — a decision agreed over the uncharged ``host_fold``
    control plane, so every process takes the same branch.  Otherwise the
    sparse reduce runs, then the Bloom reduce unless ``blooms`` is ``None``.
    Returns ``(values, bloom)`` as the two reduces do (``None`` off the
    root); ``(None, None)`` when the gate skips the line.
    """
    local_any = any(coo.nnz > 0 for coo in contributions.values())
    if not comm.host_fold(local_any, lambda x, y: x or y):
        return None, None
    reduced = sparse_reduce_to_root(
        comm, group, root, contributions, semiring, shape=shape
    )
    if blooms is None:
        return reduced, None
    return reduced, bloom_reduce_to_root(comm, group, root, blooms, shape=shape)
