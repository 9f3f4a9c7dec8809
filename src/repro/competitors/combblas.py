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

from typing import Callable, Mapping

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse import COOMatrix, DCSRMatrix
from repro.sparse.elementwise import mask_pattern, merge_pattern
from repro.distributed import BlockDistribution, StaticDistMatrix
from repro.distributed.redistribution import redistribute_tuples_single_phase
from repro.competitors.base import Backend, TupleArrays

__all__ = ["CombBLASBackend"]


class CombBLASBackend(Backend):
    """Static 2D doubly-compressed blocks rebuilt on every batch."""

    name = "CombBLAS 2.0"
    supports_deletions = True
    supports_semirings = True

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
        )

    def _local_coo(self, rank: int, routed: Mapping[int, TupleArrays]) -> COOMatrix:
        rows, cols, vals = routed[rank]
        lrows, lcols = self.dist.to_local(rank, rows, cols)
        return COOMatrix._unchecked(
            self.dist.block_shape_of_rank(rank), lrows, lcols, vals, self.semiring
        )

    def _rebuild_blocks(
        self,
        tuples_per_rank: Mapping[int, TupleArrays],
        rebuild: Callable[[DCSRMatrix, COOMatrix], DCSRMatrix],
    ) -> None:
        """Route the batch, then replace every block by ``rebuild(old, update)``.

        The rebuild is the rank's local construction work; the compressed
        layout has no other way to absorb a batch.
        """
        routed = self._route(tuples_per_rank)
        for rank, old in list(self.blocks.items()):
            update = self._local_coo(rank, routed)
            self.blocks[rank] = self.comm.run_local(
                rank, rebuild, old, update, category=StatCategory.LOCAL_CONSTRUCT
            )

    # ------------------------------------------------------------------
    def construct(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._rebuild_blocks(tuples_per_rank, lambda old, update: _sorted_build(update))

    def insert_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._rebuild_blocks(
            tuples_per_rank,
            lambda old, update: _sorted_build(old.to_coo().concatenate(update)),
        )

    def update_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._rebuild_blocks(
            tuples_per_rank,
            lambda old, update: DCSRMatrix.from_coo(
                merge_pattern(old, update), dedup=False
            ),
        )

    def delete_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._rebuild_blocks(
            tuples_per_rank,
            lambda old, update: DCSRMatrix.from_coo(
                mask_pattern(old, update), dedup=False
            ),
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


def _sorted_build(merged: COOMatrix) -> DCSRMatrix:
    """Full static rebuild: sort all non-zeros, recreate the layout."""
    return DCSRMatrix.from_coo(merged.sort().sum_duplicates(), dedup=False)
