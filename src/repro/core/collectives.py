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

  Every piece is one payload: a COO partial, plus the Bloom bits aligned
  with its entries when Algorithm 2 needs them, so each coordinate travels
  once.  :func:`sparse_reduce_to_root` ⊕-combines COO partials,
  :func:`bloom_reduce_to_root` also ORs their bits, and the gated
  :func:`reduce_line` runs one of them per process line and round.

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
from repro.sparse.layout import _runs

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
    return _fold([(piece, None) for piece in pieces], shape, semiring)[0]


def _row_range_offsets(n_rows: int, parts: int) -> np.ndarray:
    base = n_rows // parts
    rem = n_rows % parts
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    offsets = np.zeros(parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


#: a partial of the reduce: values and the Bloom bits aligned with them
#: (``None`` in a values-only reduce)
_Partial = tuple[COOMatrix, np.ndarray | None]


def _split(partial: _Partial, offsets: np.ndarray) -> dict[int, _Partial]:
    """The non-empty row ranges ``[offsets[s], offsets[s + 1])``, keyed by ``s``."""
    coo, bits = partial
    dest = np.searchsorted(offsets, coo.rows, side="right") - 1
    pieces: dict[int, _Partial] = {}
    for slot in np.unique(dest):
        sel = dest == slot
        pieces[int(slot)] = (coo._take(sel), None if bits is None else bits[sel])
    return pieces


def _fold(
    pieces: Sequence[_Partial], shape: tuple[int, int], semiring: Semiring
) -> _Partial:
    """⊕-combine the values and OR the bits of pieces of one block.

    One stable key sort; values fold as :meth:`COOMatrix.sum_duplicates`
    does, bits with ``bitwise_or.reduceat`` over the same runs.
    """
    pieces = [p for p in pieces if p[0].nnz]
    if not pieces:
        return COOMatrix.empty(shape, semiring), None
    coo = pieces[0][0].concatenate(*(p[0] for p in pieces[1:]))
    keys = coo._sort_key()
    order = np.argsort(keys, kind="stable")
    starts, _ = _runs(keys[order])
    rows, cols = np.divmod(keys[order[starts]], np.int64(shape[1]))
    values = semiring.add_reduceat(coo.values[order], starts)
    folded = COOMatrix._unchecked(shape, rows, cols, values, semiring)
    if pieces[0][1] is None:
        return folded, None
    bits = np.concatenate([p[1] for p in pieces])
    return folded, np.bitwise_or.reduceat(bits[order], starts)


def _reduce_to_root(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, _Partial],
    shape: tuple[int, int],
    semiring: Semiring,
) -> _Partial | None:
    """Split, exchange, combine and gather ``contributions`` onto ``root``."""
    group = list(group)
    if root not in group:
        raise ValueError(f"reduction root {root} is not part of the group")
    mismatched = {coo.shape for coo, _bits in contributions.values()} - {shape}
    if mismatched:
        raise ValueError(
            f"contributions disagree with the declared block shape {shape}: "
            f"{sorted(mismatched)}"
        )
    offsets = _row_range_offsets(shape[0], len(group))

    # Steps 1+2: split by destination row range, exchange within the group.
    sendbufs: dict[int, dict[int, _Partial]] = {}
    for rank in comm.owned_ranks(group):
        partial = contributions.get(rank, (COOMatrix.empty(shape, semiring), None))
        pieces = comm.run_local(
            rank, _split, partial, offsets, category=StatCategory.REDUCE_SCATTER
        )
        sendbufs[rank] = {group[slot]: piece for slot, piece in pieces.items()}
    received = comm.alltoallv(
        sendbufs, group=group, category=StatCategory.REDUCE_SCATTER
    )

    # Step 3: locally combine the received row-range pieces.
    combined: dict[int, _Partial] = {}
    for rank in comm.owned_ranks(group):
        pieces = [p for _src, p in sorted(received.get(rank, {}).items())]
        combined[rank] = comm.run_local(
            rank, _fold, pieces, shape, semiring,
            category=StatCategory.REDUCE_SCATTER,
        )

    # Step 4: gather the combined row ranges onto the root.
    gathered = comm.gather(root, combined, group=group, category=StatCategory.SCATTER)
    if not comm.owns(root):
        return None
    pieces = [p for _r, p in sorted(gathered.items()) if p is not None]
    return comm.run_local(
        root, _fold, pieces, shape, semiring, category=StatCategory.REDUCE_SCATTER
    )


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
    block's shape.  Returns the combined COO matrix on the process owning
    ``root`` and ``None`` on every other process.
    """
    partials = {rank: (coo, None) for rank, coo in contributions.items()}
    reduced = _reduce_to_root(comm, group, root, partials, shape, semiring)
    return None if reduced is None else reduced[0]


def bloom_reduce_to_root(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, tuple[COOMatrix, BloomFilterMatrix]],
    semiring: Semiring,
    *,
    shape: tuple[int, int],
) -> tuple[COOMatrix, BloomFilterMatrix] | None:
    """⊕-reduce partial products and OR their Bloom bits onto ``root``.

    ``contributions[rank]`` is a ``(values, bloom)`` pair whose coordinates
    are identical and in the same order, as the local multiplies return
    them (else :class:`ValueError`); each coordinate travels once, with its
    value and its 64 bits.  Otherwise as :func:`sparse_reduce_to_root`;
    returns ``(values, bloom)`` on the root.
    """
    partials: dict[int, _Partial] = {}
    for rank, (coo, bloom) in contributions.items():
        rows, cols, bits = bloom.to_arrays()
        if not (np.array_equal(rows, coo.rows) and np.array_equal(cols, coo.cols)):
            raise ValueError(f"rank {rank}: bloom and value coordinates differ")
        partials[rank] = (coo, bits)
    reduced = _reduce_to_root(comm, group, root, partials, shape, semiring)
    if reduced is None:
        return None
    coo, bits = reduced
    if bits is None:  # nothing was contributed
        return coo, BloomFilterMatrix(shape)
    return coo, BloomFilterMatrix.from_arrays(shape, coo.rows, coo.cols, bits)


def reduce_line(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    products: Mapping[int, tuple[COOMatrix, BloomFilterMatrix | None]],
    semiring: Semiring,
    *,
    shape: tuple[int, int],
    with_bloom: bool,
) -> tuple[COOMatrix | None, BloomFilterMatrix | None]:
    """Reduce one line's partial products (and their Bloom bits) onto ``root``.

    ``products[rank]`` is a local multiply's ``(values, bloom or None)``.
    Nothing is communicated unless some process holds a non-empty product
    — a decision agreed over the uncharged ``host_fold`` control plane, so
    every process takes the same branch.  Otherwise one reduce runs, with
    the bits if ``with_bloom`` (a global fact, as a process may hold no
    product).  Returns ``(values, bloom or None)`` on the root, else
    ``(None, None)``.
    """
    local_any = any(coo.nnz > 0 for coo, _bloom in products.values())
    if not comm.host_fold(local_any, lambda x, y: x or y):
        return None, None
    if with_bloom:
        reduced = bloom_reduce_to_root(
            comm, group, root, products, semiring, shape=shape
        )
        return (None, None) if reduced is None else reduced
    values = {rank: coo for rank, (coo, _bloom) in products.items()}
    reduced = sparse_reduce_to_root(comm, group, root, values, semiring, shape=shape)
    return reduced, None
