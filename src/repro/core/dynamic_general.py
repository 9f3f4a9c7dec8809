"""Algorithm 2 — MPI-parallel dynamic SpGEMM for general updates.

General updates (e.g. deletions under ``(min, +)`` or value increases under
an idempotent ``⊕``) cannot be folded into ``C`` by addition, so the
affected entries of ``C`` must be *recomputed*.  The algorithm limits both
communication and computation to what the update can actually influence:

1. ``C*, F* ← COMPUTE_PATTERN(A, A*, B', B*)`` — the Bloom filter ``F*``
   of ``C* = A*·B' ⊕ A·B*``, computed with the machinery of Algorithm 1
   (:func:`repro.core.dynamic_algebraic.compute_cstar` with
   ``compute_bloom=True``).  Its coordinates are the sparsity pattern of
   ``C*`` (the entries of ``C`` that may change), the only part of ``C*``
   the algorithm reads, so the reduce ships coordinates and OR-ed bits
   (24 B per entry) and no value of ``C*``.
2. ``E ← (F | F*)`` masked at the pattern of ``C*`` — a Bloom filter for
   exactly the output entries that need recomputation.
3. ``R`` — the row-wise OR of ``E``, reduced across each process row; bit
   ``k mod 64`` of ``r_i`` says "some output in row ``i`` may need inner
   index ``k``".
4. ``A^R`` — ``A'`` filtered by ``R``: only rows with ``r_i ≠ 0`` and within
   them only columns admitted by the bitfield are kept.  This is the only
   part of the (large) ``A'`` that is ever communicated.
5. A SUMMA-like loop broadcasting ``A^R`` over process rows and the ``C*``
   pattern — ``(rows, cols)`` arrays, 16 B per entry — over process
   columns; the local multiplication is *masked* at ``C*`` and also
   produces fresh Bloom bits ``H``.
6. ``Z`` and ``H`` are aggregated with one sparse reduce-scatter (each entry
   of ``Z`` carries its ``H`` bits) and merged into ``C`` and ``F``: every
   entry in the ``C*`` pattern is overwritten with its recomputed value — or
   deleted, if no term contributes any more.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.perf.recorder import perf_count
from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import Semiring
from repro.sparse import (
    BLOOM_BITS,
    BloomFilterMatrix,
    COOMatrix,
    DCSRMatrix,
    spgemm_local_masked,
)
from repro.distributed import DynamicDistMatrix
from repro.distributed.dist_matrix import DistMatrixBase
from repro.core.collectives import (
    Broadcast,
    pipelined_broadcasts,
    reduce_line,
    sum_pieces,
    transpose_blocks,
)
from repro.core.dynamic_algebraic import compute_cstar

__all__ = ["dynamic_spgemm_general", "filter_by_row_bloom"]


def filter_by_row_bloom(
    block, row_bits: np.ndarray, col_offset: int, semiring: Semiring
) -> DCSRMatrix:
    """Filter a local block of ``A'`` by the row Bloom vector ``R``.

    Keeps entry ``(r, k)`` only when bit ``(k + col_offset) mod 64`` is set
    in ``row_bits[r]`` (``col_offset`` converts block-local columns to
    global inner indices; rows past ``row_bits`` admit nothing).  One pass
    over the block's flat rows; returns the hypersparse DCSR block ``A^R``.
    """
    flat = block.flat_rows()
    rows = np.repeat(flat.row_ids, np.diff(flat.row_ptr))
    bits = np.zeros(rows.size, dtype=np.uint64)
    inside = rows < row_bits.size
    bits[inside] = row_bits[rows[inside]]
    shift = ((flat.cols + col_offset) % BLOOM_BITS).astype(np.uint64)
    admitted = ((bits >> shift) & np.uint64(1)).astype(bool)
    survivors = COOMatrix._unchecked(
        block.shape, rows[admitted], flat.cols[admitted], flat.vals[admitted], semiring
    )
    return DCSRMatrix.from_coo(survivors, dedup=False)


def dynamic_spgemm_general(
    comm: Communicator,
    grid: ProcessGrid,
    a_old: DistMatrixBase,
    a_prime: DistMatrixBase,
    b_prime: DistMatrixBase,
    a_star: DistMatrixBase | None,
    b_star: DistMatrixBase | None,
    c: DynamicDistMatrix,
    f: Mapping[int, BloomFilterMatrix],
    *,
    semiring: Semiring | None = None,
) -> int:
    """Apply a *general* update to the maintained product ``C`` (and ``F``).

    Parameters
    ----------
    a_old:
        The left operand *before* the update (needed by ``COMPUTE_PATTERN``;
        pass ``a_prime`` if the old matrix is no longer available — the
        computed pattern is then still a superset for pure insertions, but
        simultaneous deletions on both operands require the true old ``A``).
    a_prime, b_prime:
        The operands *after* the update.
    a_star, b_star:
        Hypersparse update-pattern matrices (structure = changed entries,
        deletions included as structural non-zeros).  ``None`` means that
        operand did not change.
    c, f:
        The maintained dynamic result matrix and its per-rank Bloom filter;
        both are updated in place.

    Returns the number of output entries that were recomputed.  Operands
    of the wrong shape, or an ``f`` without a block for some owned rank,
    raise :class:`ValueError` before anything is communicated.
    """
    semiring = semiring if semiring is not None else c.semiring
    q = grid.q
    out_dist = c.dist
    owned = comm.owned_ranks(grid.all_ranks())
    if a_old.shape != a_prime.shape:
        raise ValueError(
            f"old A shape {a_old.shape} does not match A' shape {a_prime.shape}"
        )
    if c.shape != (a_prime.shape[0], b_prime.shape[1]):
        raise ValueError(
            f"result shape {c.shape} does not match A' x B' = "
            f"({a_prime.shape[0]}, {b_prime.shape[1]})"
        )
    missing = [rank for rank in owned if rank not in f]
    if missing:
        raise ValueError(f"Bloom filter F has no block for owned ranks {missing}")

    # ------------------------------------------------------------------
    # 1. F* and with it the C* pattern (COMPUTE_PATTERN).  The mapping is
    #    partial (owned ranks only); the nnz census makes the pattern sizes
    #    — which gate broadcasts and the early exit — globally known.
    # ------------------------------------------------------------------
    sent = comm.stats.total_bytes()
    fstar_blocks = compute_cstar(
        comm,
        grid,
        a_old,
        b_prime,
        a_star,
        b_star,
        semiring=semiring,
        compute_bloom=True,
    )
    perf_count("alg2.pattern_bytes", comm.stats.total_bytes() - sent)
    cstar = {rank: blk.pattern() for rank, blk in fstar_blocks.items()}

    cstar_nnz = comm.host_merge(
        {rank: int(blk.nnz) for rank, blk in fstar_blocks.items()}
    )
    total_pattern = sum(cstar_nnz.values())
    if total_pattern == 0:
        return 0
    sent = comm.stats.total_bytes()

    # ------------------------------------------------------------------
    # 2. E = (F | F*) masked at the pattern of C*  (local).
    # 3. R = row-wise OR of E, allreduced over each process row.
    # ------------------------------------------------------------------
    row_bits_per_rank: dict[int, np.ndarray] = {}
    for rank in owned:
        block_rows = out_dist.block_shape_of_rank(rank)[0]
        f_blk = f[rank]
        fstar_blk = fstar_blocks[rank]

        def _row_or(f_blk=f_blk, fstar_blk=fstar_blk, block_rows=block_rows):
            e = f_blk.or_with(fstar_blk).masked_by(*fstar_blk.pattern())
            rows, bits = e.reduce_rows_or()
            row_bits = np.zeros(block_rows, dtype=np.uint64)
            row_bits[rows] = bits
            return row_bits

        row_bits_per_rank[rank] = comm.run_local(
            rank, _row_or, category=StatCategory.LOCAL_COMPUTE
        )

    for i in range(q):
        row_ranks = grid.row_group(i)
        payloads = {r: row_bits_per_rank[r] for r in comm.owned_ranks(row_ranks)}
        reduced = comm.allreduce(
            payloads,
            lambda x, y: np.bitwise_or(x, y),
            group=row_ranks,
            category=StatCategory.ALLREDUCE,
        )
        for r in comm.owned_ranks(row_ranks):
            row_bits_per_rank[r] = reduced[r]

    # ------------------------------------------------------------------
    # 4. A^R: filter A' by R  (local).
    # ------------------------------------------------------------------
    ar_blocks: dict[int, DCSRMatrix] = {}
    for rank in owned:
        _br, bc = grid.coords_of(rank)
        col_offset = int(a_prime.dist.col_offsets[bc])
        block = a_prime.blocks[rank]
        bits = row_bits_per_rank[rank]

        def _filter(block=block, bits=bits, col_offset=col_offset):
            return filter_by_row_bloom(block, bits, col_offset, semiring)

        ar_blocks[rank] = comm.run_local(
            rank, _filter, category=StatCategory.LOCAL_COMPUTE
        )

    # ------------------------------------------------------------------
    # 5. SUMMA-like masked multiplication loop.
    # ------------------------------------------------------------------
    ar_t = transpose_blocks(comm, grid, ar_blocks)
    z_blocks: dict[int, list[COOMatrix]] = {r: [] for r in owned}
    h_blocks: dict[int, BloomFilterMatrix] = {
        r: BloomFilterMatrix(out_dist.block_shape_of_rank(r)) for r in owned
    }

    def _plan(k: int) -> list[Broadcast]:
        """Round ``k``: ``A^R_{i,k}`` across each process row ``i``, then the
        ``C*_{k,j}`` pattern down each process column ``j`` unless it is
        empty — a gate read from the globally known nnz census."""
        rows = [(grid.rank_of(i, k), grid.row_group(i)) for i in range(q)]
        cols = [(grid.rank_of(k, j), grid.col_group(j)) for j in range(q)]
        return [(root, ar_t.get(root), ranks) for root, ranks in rows] + [
            (root, cstar.get(root), ranks) if cstar_nnz[root] else None
            for root, ranks in cols
        ]

    # Round k+1's broadcasts travel while round k's masked multiplies and
    # reductions run.
    for k, received in pipelined_broadcasts(comm, q, _plan):
        for j in range(q):
            cstar_recv = received[q + j]
            if cstar_recv is None:
                continue
            col_ranks = grid.col_group(j)
            root = grid.rank_of(k, j)
            products: dict[int, tuple[COOMatrix, BloomFilterMatrix]] = {}
            for rank in comm.owned_ranks(col_ranks):
                i = grid.row_of(rank)
                # Section VI-B: each rank masks at the broadcast C* pattern
                # itself rather than receiving a hash table of it.
                products[rank] = comm.run_local(
                    rank,
                    spgemm_local_masked,
                    received[i][rank],
                    b_prime.blocks[rank],
                    semiring,
                    cstar_recv[rank],
                    compute_bloom=True,
                    inner_offset=int(a_prime.dist.col_offsets[i]),
                    category=StatCategory.LOCAL_MULT,
                )
            reduced, reduced_bloom = reduce_line(
                comm,
                col_ranks,
                root,
                products,
                semiring,
                shape=out_dist.block_shape_of_rank(root),
                with_bloom=True,
            )
            if reduced is not None and reduced.nnz:
                z_blocks[root].append(reduced)
            if reduced_bloom is not None:
                h_blocks[root].or_inplace(reduced_bloom)

    # ------------------------------------------------------------------
    # 6. Merge Z into C and H into F, masked at the pattern of C* (local).
    # ------------------------------------------------------------------
    recomputed = 0
    for rank in owned:
        rows, cols = cstar[rank]
        if rows.size == 0:
            continue
        recomputed += rows.size
        pieces = z_blocks[rank]
        h_blk = h_blocks[rank]
        c_blk = c.blocks[rank]
        f_blk = f[rank]
        shape = out_dist.block_shape_of_rank(rank)

        def _merge(
            pieces=pieces, rows=rows, cols=cols, shape=shape,
            c_blk=c_blk, f_blk=f_blk, h_blk=h_blk,
        ):
            kept = np.zeros(rows.size, dtype=bool)
            if pieces:
                z = sum_pieces(pieces, shape, semiring)
                width = shape[1]
                kept = np.isin(rows * width + cols, z.rows * width + z.cols)
                c_blk.insert_batch(z.rows, z.cols, z.values, combine=None)
            # No surviving contribution: the entry becomes a structural
            # zero of C'.
            c_blk.delete_batch(rows[~kept], cols[~kept])
            # F' = (F without C*) | (H at the recomputed entries)
            f_blk.drop_pattern(rows, cols)
            f_blk.or_inplace(h_blk.masked_by(rows[kept], cols[kept]))

        comm.run_local(rank, _merge, category=StatCategory.LOCAL_ADDITION)
    perf_count("alg2.recompute_bytes", comm.stats.total_bytes() - sent)
    return int(comm.host_fold(recomputed, lambda x, y: x + y))
