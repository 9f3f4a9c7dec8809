"""Communication patterns of Algorithms 1–2 and SUMMA, written once.

The three algorithms of :mod:`repro.core` share three patterns; each lives
here exactly once, so the posting-order invariant every process must
follow is kept in one place:

* :func:`pipelined_broadcasts` — the double-buffered ``√p``-round
  broadcast loop of SUMMA, Algorithm 1 and step 5 of Algorithm 2.  The
  callers only say *what* each round broadcasts (step 5's ``C*`` mask is
  a ``(rows, cols)`` pattern, 16 B per entry).
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

  Every piece is one payload of aligned arrays: the coordinates, the
  values, and the Bloom bits when Algorithm 2 needs them, so each
  coordinate travels once.  :func:`sparse_reduce_to_root` ⊕-combines COO
  partials, :func:`bloom_reduce_to_root` also ORs their bits — or, for
  ``COMPUTE_PATTERN``, which reads only the pattern of ``C*``, reduces
  coordinates and bits without values — and the gated :func:`reduce_line`
  runs one of them per process line and round.

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
    partials = [(p.rows, p.cols, p.values, None) for p in pieces]
    return _values(_fold(partials, shape, semiring), shape, semiring)


def _row_range_offsets(n_rows: int, parts: int) -> np.ndarray:
    base = n_rows // parts
    rem = n_rows % parts
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    offsets = np.zeros(parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


#: a partial of the reduce: aligned ``(rows, cols, values, bits)`` arrays in
#: the output block's local coordinates; ``bits`` is ``None`` in a
#: values-only reduce and ``values`` is ``None`` in a pattern reduce
_Partial = tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]


def _values(partial: _Partial, shape: tuple[int, int], semiring: Semiring) -> COOMatrix:
    """The COO block of a folded partial that carries values."""
    rows, cols, values, _bits = partial
    return COOMatrix._unchecked(shape, rows, cols, values, semiring)


def _check_shapes(shapes: set[tuple[int, int]], shape: tuple[int, int]) -> None:
    mismatched = shapes - {shape}
    if mismatched:
        raise ValueError(
            f"contributions disagree with the declared block shape {shape}: "
            f"{sorted(mismatched)}"
        )


def _split(partial: _Partial, offsets: np.ndarray) -> dict[int, _Partial]:
    """The non-empty row ranges ``[offsets[s], offsets[s + 1])``, keyed by ``s``."""
    dest = np.searchsorted(offsets, partial[0], side="right") - 1
    pieces: dict[int, _Partial] = {}
    for slot in np.unique(dest):
        sel = dest == slot
        pieces[int(slot)] = tuple(None if a is None else a[sel] for a in partial)
    return pieces


def _fold(
    pieces: Sequence[_Partial], shape: tuple[int, int], semiring: Semiring
) -> _Partial:
    """⊕-combine the values and OR the bits of pieces of one block.

    One stable key sort; values fold as :meth:`COOMatrix.sum_duplicates`
    does, bits with ``bitwise_or.reduceat`` over the same runs.  The
    non-empty pieces all carry values, or all carry none (and likewise
    bits); with no entry at all the result holds empty values and no bits.
    """
    pieces = [p for p in pieces if p[0].size]
    if not pieces:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=semiring.dtype), None
    rows, cols, values, bits = (
        None if column[0] is None else np.concatenate(column)
        for column in zip(*pieces)
    )
    keys = rows * np.int64(shape[1]) + cols
    order = np.argsort(keys, kind="stable")
    starts, _ = _runs(keys[order])
    rows, cols = np.divmod(keys[order[starts]], np.int64(shape[1]))
    if values is not None:
        values = semiring.add_reduceat(values[order], starts)
    if bits is not None:
        bits = np.bitwise_or.reduceat(bits[order], starts)
    return rows, cols, values, bits


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
    offsets = _row_range_offsets(shape[0], len(group))

    # Steps 1+2: split by destination row range, exchange within the group.
    nothing = _fold((), shape, semiring)
    sendbufs: dict[int, dict[int, _Partial]] = {}
    for rank in comm.owned_ranks(group):
        partial = contributions.get(rank, nothing)
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
    _check_shapes({coo.shape for coo in contributions.values()}, shape)
    partials = {
        rank: (coo.rows, coo.cols, coo.values, None)
        for rank, coo in contributions.items()
    }
    reduced = _reduce_to_root(comm, group, root, partials, shape, semiring)
    return None if reduced is None else _values(reduced, shape, semiring)


def bloom_reduce_to_root(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, tuple[COOMatrix | None, BloomFilterMatrix]],
    semiring: Semiring,
    *,
    shape: tuple[int, int],
) -> tuple[COOMatrix | None, BloomFilterMatrix] | None:
    """⊕-reduce partial products and OR their Bloom bits onto ``root``.

    ``contributions[rank]`` is a ``(values, bloom)`` pair whose coordinates
    are identical and in the same order, as the local multiplies return
    them (else :class:`ValueError`); each coordinate travels once, with its
    value and its 64 bits (32 B per entry).  A pair whose values are
    ``None`` ships the bloom's coordinates and bits only (24 B per entry):
    the pattern reduce of ``COMPUTE_PATTERN``, which never reads ``C*``'s
    values.  Otherwise as :func:`sparse_reduce_to_root`; returns
    ``(values, bloom)`` on the root, ``values`` being ``None`` when the
    reduced entries carried none.
    """
    _check_shapes(
        {bloom.shape for _coo, bloom in contributions.values()}
        | {coo.shape for coo, _bloom in contributions.values() if coo is not None},
        shape,
    )
    partials: dict[int, _Partial] = {}
    for rank, (coo, bloom) in contributions.items():
        rows, cols, bits = bloom.to_arrays()
        if coo is None:
            partials[rank] = (rows, cols, None, bits)
            continue
        if not (np.array_equal(rows, coo.rows) and np.array_equal(cols, coo.cols)):
            raise ValueError(f"rank {rank}: bloom and value coordinates differ")
        partials[rank] = (coo.rows, coo.cols, coo.values, bits)
    reduced = _reduce_to_root(comm, group, root, partials, shape, semiring)
    if reduced is None:
        return None
    rows, cols, values, bits = reduced
    coo = None if values is None else _values(reduced, shape, semiring)
    if bits is None:  # nothing was contributed
        return coo, BloomFilterMatrix(shape)
    return coo, BloomFilterMatrix.from_arrays(shape, rows, cols, bits)


def reduce_line(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    products: Mapping[int, tuple[COOMatrix | None, BloomFilterMatrix | None]],
    semiring: Semiring,
    *,
    shape: tuple[int, int],
    with_bloom: bool,
) -> tuple[COOMatrix | None, BloomFilterMatrix | None]:
    """Reduce one line's partial products (and their Bloom bits) onto ``root``.

    ``products[rank]`` is a local multiply's ``(values, bloom or None)``;
    with the bits, ``values`` may be ``None`` (a pattern reduce, see
    :func:`bloom_reduce_to_root`).  Nothing is communicated unless some
    process holds a non-empty product — a decision agreed over the
    uncharged ``host_fold`` control plane, so every process takes the same
    branch.  Otherwise one reduce runs, with the bits if ``with_bloom`` (a
    global fact, as a process may hold no product).  Returns ``(values,
    bloom or None)`` on the root, else ``(None, None)``.
    """
    local_any = any(
        (bloom if with_bloom else coo).nnz > 0 for coo, bloom in products.values()
    )
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
