"""Static sparse SUMMA (the baseline the dynamic algorithms replace).

Sparse SUMMA performs ``√p`` rounds; in round ``k`` the blocks ``A_{i,k}``
are broadcast across the ``i``-th process row and the blocks ``B_{k,j}``
across the ``j``-th process column, after which each rank multiplies the two
blocks it received and accumulates into its *local* output block — the
aggregation is entirely local, which is SUMMA's advantage when both
operands have similar sizes and its disadvantage when one operand is tiny
(the whole large operand still gets broadcast).

SUMMA only says which panels each round broadcasts; the double-buffered
rounds are :func:`repro.core.collectives.pipelined_broadcasts`, which posts
round ``k + 1``'s panels before the round-``k`` local multiplies run, so
panel transfers overlap with compute, and completes them in posting order,
which keeps the payload placement deterministic.

This implementation is used

* as the reference static algorithm for correctness tests,
* by the CombBLAS/CTF-style competitor backends, and
* by :class:`repro.core.api.DynamicProduct` to compute the initial product
  (optionally together with the Bloom filter ``F`` needed by the
  general-update algorithm).
"""

from __future__ import annotations

from repro.core.collectives import Broadcast, pipelined_broadcasts, sum_pieces
from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import Semiring
from repro.sparse import BloomFilterMatrix, COOMatrix, CSRMatrix, DHBMatrix, spgemm_local
from repro.distributed import BlockDistribution, DynamicDistMatrix, StaticDistMatrix
from repro.distributed.dist_matrix import DistMatrixBase

__all__ = ["summa_spgemm"]


def summa_spgemm(
    comm: Communicator,
    grid: ProcessGrid,
    a: DistMatrixBase,
    b: DistMatrixBase,
    *,
    semiring: Semiring | None = None,
    output: str = "dynamic",
    compute_bloom: bool = False,
) -> tuple[DistMatrixBase, dict[int, BloomFilterMatrix] | None]:
    """Distributed ``C = A·B`` with the sparse SUMMA algorithm.

    Parameters
    ----------
    a, b:
        Distributed operands on the same process grid; ``a.shape = (n, k)``
        and ``b.shape = (k, m)``.
    output:
        ``"dynamic"`` (DHB blocks, the layout the paper uses for results) or
        ``"static"`` (CSR blocks).
    compute_bloom:
        Also build, per rank, the Bloom-filter matrix ``F`` of the local
        output block (bit ``k mod 64`` set for every contributing global
        inner index ``k``) — required to seed the general-update algorithm.

    Returns
    -------
    (C, blooms):
        ``C`` is a distributed matrix on the same grid; ``blooms`` maps rank
        to its local Bloom filter (``None`` unless ``compute_bloom``).
    """
    if output not in ("dynamic", "static"):
        raise ValueError(f"unknown output layout {output!r} (use 'dynamic' or 'static')")
    semiring = semiring if semiring is not None else a.semiring
    n, k_dim = a.shape
    k_dim2, m = b.shape
    if k_dim != k_dim2:
        raise ValueError(f"inner dimensions do not match: {a.shape} x {b.shape}")
    if a.grid.n_ranks != grid.n_ranks or b.grid.n_ranks != grid.n_ranks:
        raise ValueError("operands must live on the given process grid")
    q = grid.q
    out_dist = BlockDistribution(n, m, grid)
    owned = comm.owned_ranks(grid.all_ranks())

    # Per-rank accumulators for the ranks this process owns: partial COO
    # contributions and (optionally) the bloom bits, merged after √p rounds.
    partials: dict[int, list[COOMatrix]] = {r: [] for r in owned}
    blooms: dict[int, BloomFilterMatrix] | None = None
    if compute_bloom:
        blooms = {
            r: BloomFilterMatrix(out_dist.block_shape_of_rank(r)) for r in owned
        }

    def _plan(k: int) -> list[Broadcast]:
        """Round ``k``: ``A_{i,k}`` across each process row ``i``, then
        ``B_{k,j}`` down each process column ``j``."""
        rows = [(grid.rank_of(i, k), grid.row_group(i)) for i in range(q)]
        cols = [(grid.rank_of(k, j), grid.col_group(j)) for j in range(q)]
        return [(root, a.blocks.get(root), ranks) for root, ranks in rows] + [
            (root, b.blocks.get(root), ranks) for root, ranks in cols
        ]

    for k, received in pipelined_broadcasts(comm, q, _plan):
        inner_offset = int(a.dist.col_offsets[k])
        for rank in owned:
            coo, bloom = comm.run_local(
                rank,
                spgemm_local,
                received[grid.row_of(rank)][rank],
                received[q + grid.col_of(rank)][rank],
                semiring,
                compute_bloom=compute_bloom,
                inner_offset=inner_offset,
                category=StatCategory.LOCAL_MULT,
            )
            if coo.nnz:
                partials[rank].append(coo)
            if compute_bloom and bloom is not None and blooms is not None:
                blooms[rank].or_inplace(bloom)

    # Local accumulation of the per-round partial products.
    out_blocks: dict[int, object] = {}
    for rank in owned:
        block_shape = out_dist.block_shape_of_rank(rank)
        pieces = partials[rank]

        def _accumulate(pieces=pieces, block_shape=block_shape):
            combined = sum_pieces(pieces, block_shape, semiring)
            if output == "dynamic":
                return DHBMatrix.from_coo(combined, combine_duplicates=False)
            return CSRMatrix.from_coo(combined, dedup=False)

        out_blocks[rank] = comm.run_local(
            rank, _accumulate, category=StatCategory.LOCAL_MULT
        )

    if output == "dynamic":
        result: DistMatrixBase = DynamicDistMatrix(
            comm, grid, out_dist, semiring, out_blocks
        )
    else:
        result = StaticDistMatrix(comm, grid, out_dist, semiring, out_blocks, layout="csr")
    return result, blooms
