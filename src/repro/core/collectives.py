"""Sparse aggregation collectives.

The partial products ``X^i_{k,j}`` produced on different ranks have
*different sparsity patterns*, so a plain ``MPI_Reduce`` over dense buffers
is not applicable.  Section VI-A describes the solution: "an approach based
on a custom reduce-scatter implementation for sparse matrices".

:func:`sparse_reduce_to_root` implements that scheme on the orchestration
runtime:

1. every contributing rank splits its local sparse partial result into
   ``g`` row ranges (one per group member) — the *scatter* pattern;
2. one ``ALLTOALLV`` inside the group delivers each row range to the rank
   responsible for it (charged to the *Reduce-Scatter* category of the
   Fig. 12 breakdown);
3. each rank ⊕-combines the pieces it received (local work);
4. the combined row ranges are gathered onto the root (charged to the
   *Scatter* category, matching the paper's naming of the final
   redistribution step).

:func:`bloom_reduce_to_root` is the same pattern for Bloom-filter matrices
with bitwise-OR combination.

:func:`pipelined_rounds` is the double-buffered ``√p``-round broadcast
loop shared by SUMMA, Algorithm 1 and step 5 of Algorithm 2.

Both reductions follow the partial-mapping contract of the communicator
protocol: ``contributions`` holds entries only for the group ranks this
process owns (possibly none), which is why the output block ``shape`` is an
explicit required argument — it cannot be inferred from a mapping that may
legitimately be empty on some processes.  The reduced result is returned on
the process owning ``root`` and is ``None`` everywhere else.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import Semiring
from repro.sparse import BloomFilterMatrix, COOMatrix

__all__ = ["pipelined_rounds", "sparse_reduce_to_root", "bloom_reduce_to_root"]

Posted = TypeVar("Posted")
Received = TypeVar("Received")


def pipelined_rounds(
    n_rounds: int,
    post: Callable[[int], Posted],
    complete: Callable[[Posted], Received],
) -> Iterator[tuple[int, Received]]:
    """Double-buffered broadcast rounds: yield ``(k, complete(post(k)))``.

    ``post(k)`` issues round ``k``'s nonblocking broadcasts and returns
    their handles; ``complete`` waits on them and returns what arrived.
    Round 0 is posted up front; then, for each ``k``, round ``k`` is
    completed, round ``k + 1`` is posted, and only then is round ``k``
    yielded to the caller's local work — so the next round's transfers
    progress while this round multiplies.

    Posting-order invariant: every process posts the same requests in the
    same order (round by round, and within a round in the order ``post``
    issues them), and ``complete`` must wait on them in that order.  The
    set of posted broadcasts may depend only on globally agreed facts
    (grid shape, nnz censuses), never on local data.
    """
    if n_rounds < 1:
        return
    pending = post(0)
    for k in range(n_rounds):
        received = complete(pending)
        if k + 1 < n_rounds:
            pending = post(k + 1)
        yield k, received


def _row_range_offsets(n_rows: int, parts: int) -> np.ndarray:
    base = n_rows // parts
    rem = n_rows % parts
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:rem] += 1
    offsets = np.zeros(parts + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _check_contribution_shapes(
    contributions: Mapping[int, object], shape: tuple[int, int]
) -> None:
    mismatched = {
        c.shape for c in contributions.values() if c is not None and c.shape != shape
    }
    if mismatched:
        raise ValueError(
            f"contributions disagree with the declared block shape {shape}: "
            f"{sorted(mismatched)}"
        )


def sparse_reduce_to_root(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, COOMatrix],
    semiring: Semiring,
    *,
    shape: tuple[int, int],
    scatter_category: str = StatCategory.REDUCE_SCATTER,
    gather_category: str = StatCategory.SCATTER,
    combine_category: str = StatCategory.REDUCE_SCATTER,
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
    group = list(group)
    if root not in group:
        raise ValueError(f"reduction root {root} is not part of the group")
    _check_contribution_shapes(contributions, shape)
    g = len(group)
    offsets = _row_range_offsets(shape[0], g)

    # Step 1+2: split by destination row range, exchange within the group.
    sendbufs: dict[int, dict[int, COOMatrix]] = {}
    for rank in comm.owned_ranks(group):
        coo = contributions.get(rank)
        if coo is None:
            coo = COOMatrix.empty(shape, semiring)

        def _split(coo=coo):
            pieces: dict[int, COOMatrix] = {}
            if coo.nnz == 0:
                return pieces
            dest = np.searchsorted(offsets, coo.rows, side="right") - 1
            for slot in np.unique(dest):
                sel = dest == slot
                pieces[int(slot)] = COOMatrix(
                    shape=shape,
                    rows=coo.rows[sel],
                    cols=coo.cols[sel],
                    values=coo.values[sel],
                    semiring=semiring,
                )
            return pieces

        pieces = comm.run_local(rank, _split, category=combine_category)
        sendbufs[rank] = {
            group[slot]: piece for slot, piece in pieces.items() if piece.nnz
        }
    received = comm.alltoallv(sendbufs, group=group, category=scatter_category)

    # Step 3: locally ⊕-combine the received row-range pieces.
    combined: dict[int, COOMatrix] = {}
    for rank in comm.owned_ranks(group):
        pieces = [p for _src, p in sorted(received.get(rank, {}).items())]

        def _combine(pieces=pieces):
            if not pieces:
                return COOMatrix.empty(shape, semiring)
            return pieces[0].concatenate(*pieces[1:]).sum_duplicates()

        combined[rank] = comm.run_local(rank, _combine, category=combine_category)

    # Step 4: gather the combined row ranges onto the root.
    gathered = comm.gather(root, combined, group=group, category=gather_category)

    if not comm.owns(root):
        return None

    def _assemble():
        pieces = [p for _r, p in sorted(gathered.items()) if p is not None and p.nnz]
        if not pieces:
            return COOMatrix.empty(shape, semiring)
        # Row ranges are disjoint, so a plain concatenation would suffice;
        # sum_duplicates keeps the result canonical regardless.
        return pieces[0].concatenate(*pieces[1:]).sum_duplicates()

    return comm.run_local(root, _assemble, category=combine_category)


def bloom_reduce_to_root(
    comm: Communicator,
    group: Sequence[int],
    root: int,
    contributions: Mapping[int, BloomFilterMatrix],
    *,
    shape: tuple[int, int],
    scatter_category: str = StatCategory.REDUCE_SCATTER,
    gather_category: str = StatCategory.SCATTER,
    combine_category: str = StatCategory.REDUCE_SCATTER,
) -> BloomFilterMatrix | None:
    """Bitwise-OR reduce Bloom-filter partials of a group onto ``root``.

    Same partial-mapping contract and explicit ``shape`` as
    :func:`sparse_reduce_to_root`; returns ``None`` on processes that do
    not own ``root``.
    """
    group = list(group)
    if root not in group:
        raise ValueError(f"reduction root {root} is not part of the group")
    _check_contribution_shapes(contributions, shape)
    g = len(group)
    offsets = _row_range_offsets(shape[0], g)

    sendbufs: dict[int, dict[int, BloomFilterMatrix]] = {}
    for rank in comm.owned_ranks(group):
        bloom = contributions.get(rank)
        if bloom is None:
            bloom = BloomFilterMatrix(shape)

        pieces = comm.run_local(
            rank, bloom.split_rows, offsets, category=combine_category
        )
        sendbufs[rank] = {group[slot]: piece for slot, piece in pieces.items()}
    received = comm.alltoallv(sendbufs, group=group, category=scatter_category)

    combined: dict[int, BloomFilterMatrix] = {}
    for rank in comm.owned_ranks(group):
        pieces = [p for _src, p in sorted(received.get(rank, {}).items())]

        def _combine(pieces=pieces):
            return BloomFilterMatrix(shape).or_with(*pieces)

        combined[rank] = comm.run_local(rank, _combine, category=combine_category)

    gathered = comm.gather(root, combined, group=group, category=gather_category)

    if not comm.owns(root):
        return None

    def _assemble():
        pieces = [p for _r, p in sorted(gathered.items()) if p is not None]
        return BloomFilterMatrix(shape).or_with(*pieces)

    return comm.run_local(root, _assemble, category=combine_category)
