"""CombBLAS-style backend: 2D static doubly-compressed blocks.

CombBLAS 2.0 stores each block in DCSC (doubly-compressed sparse column)
and has no in-place update path: applying a batch of updates means

1. assembling the update matrix with a *comparison sort* of the tuples and
   a single *global* ``ALLTOALL`` over all ``p`` ranks (in contrast to the
   paper's two-phase √p-peer exchange), and
2. rebuilding the static block from scratch by merging the old block with
   the update (concatenate + full lexicographic re-sort), because the
   compressed layout cannot absorb new entries incrementally.

This is exactly the cost structure the paper measures: the rebuild is
proportional to ``nnz(A)/p`` per batch regardless of the batch size, which
is why the speedup of the dynamic structure shrinks as batches grow
(Fig. 4) — for huge batches the rebuild amortises.
"""

from __future__ import annotations

from typing import Mapping

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse import COOMatrix, DCSRMatrix
from repro.distributed import BlockDistribution, StaticDistMatrix
from repro.distributed.redistribution import redistribute_tuples_single_phase
from repro.competitors.base import Backend, TupleArrays

__all__ = ["CombBLASBackend"]


class CombBLASBackend(Backend):
    """Static 2D doubly-compressed blocks rebuilt on every batch."""

    name = "CombBLAS 2.0"
    supports_deletions = True
    supports_semirings = True
    #: per-entry work multiplier of the rebuild relative to a plain merge;
    #: models DCSC's column-pointer reconstruction on top of the sort.
    rebuild_overhead = 1.0

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        shape: tuple[int, int],
        semiring: Semiring = PLUS_TIMES,
    ) -> None:
        super().__init__(comm, grid, shape, semiring)
        self.dist = BlockDistribution(shape[0], shape[1], grid)
        # DCSR over the transposed block is the row-major stand-in for the
        # column-major DCSC layout; the rebuild cost structure is identical.
        self.blocks: dict[int, DCSRMatrix] = {
            rank: DCSRMatrix.empty(self.dist.block_shape_of_rank(rank), semiring)
            for rank in comm.owned_ranks(grid.all_ranks())
        }

    # ------------------------------------------------------------------
    def _route(self, tuples_per_rank: Mapping[int, TupleArrays]) -> dict[int, TupleArrays]:
        return redistribute_tuples_single_phase(
            self.comm,
            self.grid,
            self.dist,
            tuples_per_rank,
            value_dtype=self.semiring.dtype,
            sort_mode="comparison",
        )

    def _local_coo(self, rank: int, routed: Mapping[int, TupleArrays]) -> COOMatrix:
        rows, cols, vals = routed[rank]
        lrows, lcols = self.dist.to_local(rank, rows, cols)
        return COOMatrix._unchecked(
            self.dist.block_shape_of_rank(rank), lrows, lcols, vals, self.semiring
        )

    def _rebuild(self, rank: int, merged: COOMatrix) -> DCSRMatrix:
        """Full static rebuild: sort all non-zeros, recreate the layout."""
        canon = merged.sort().sum_duplicates()
        return DCSRMatrix.from_coo(canon, dedup=False)

    # ------------------------------------------------------------------
    def construct(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        routed = self._route(tuples_per_rank)
        for rank in list(self.blocks):
            coo = self._local_coo(rank, routed)
            self.blocks[rank] = self.comm.run_local(
                rank, self._rebuild, rank, coo, category=StatCategory.LOCAL_CONSTRUCT
            )

    def insert_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        routed = self._route(tuples_per_rank)
        for rank in list(self.blocks):
            update = self._local_coo(rank, routed)
            old = self.blocks[rank]

            def _merge_rebuild(old=old, update=update):
                merged = old.to_coo().concatenate(update)
                return self._rebuild(0, merged)

            self.blocks[rank] = self.comm.run_local(
                rank, _merge_rebuild, category=StatCategory.LOCAL_CONSTRUCT
            )

    def update_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        from repro.sparse.elementwise import merge_pattern

        routed = self._route(tuples_per_rank)
        for rank in list(self.blocks):
            update = self._local_coo(rank, routed)
            old = self.blocks[rank]

            def _merge_rebuild(old=old, update=update):
                merged = merge_pattern(old, update)
                return DCSRMatrix.from_coo(merged, dedup=False)

            self.blocks[rank] = self.comm.run_local(
                rank, _merge_rebuild, category=StatCategory.LOCAL_CONSTRUCT
            )

    def delete_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        from repro.sparse.elementwise import mask_pattern

        routed = self._route(tuples_per_rank)
        for rank in list(self.blocks):
            update = self._local_coo(rank, routed)
            old = self.blocks[rank]

            def _mask_rebuild(old=old, update=update):
                masked = mask_pattern(old, update)
                return DCSRMatrix.from_coo(masked, dedup=False)

            self.blocks[rank] = self.comm.run_local(
                rank, _mask_rebuild, category=StatCategory.LOCAL_CONSTRUCT
            )

    # ------------------------------------------------------------------
    def local_nnz(self) -> int:
        return sum(block.nnz for block in self.blocks.values())

    def to_coo_global(self) -> COOMatrix:
        return self.as_static_dist().to_coo_global()

    def as_static_dist(self) -> StaticDistMatrix:
        """View of the backend's matrix as a :class:`StaticDistMatrix`."""
        return StaticDistMatrix(
            self.comm,
            self.grid,
            self.dist,
            self.semiring,
            dict(self.blocks),
            layout="dcsr",
        )
