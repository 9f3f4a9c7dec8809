"""Distributed transposition (Section V-C).

The dynamic SpGEMM algorithms extend naturally to transposed operands: the
update blocks are broadcast over columns instead of rows (and vice versa)
and in some cases the initial transpose send/receive round disappears.
Rather than duplicating every algorithm with ``transA`` / ``transB`` flags,
this module provides an explicit distributed transposition: block
``(i, j)`` is sent to grid position ``(j, i)`` and transposed locally, which
yields a correctly distributed ``Aᵀ`` that can be fed to any of the
algorithms.  Because all block splits are the same even split, the
transposed block shapes line up with the ``(m, n)`` distribution exactly.
"""

from __future__ import annotations

from repro.core.collectives import transpose_blocks
from repro.runtime.stats import StatCategory
from repro.distributed import BlockDistribution, StaticDistMatrix
from repro.distributed.dist_matrix import DistMatrixBase, static_layout

__all__ = ["transpose_dist"]


def transpose_dist(mat: DistMatrixBase, *, layout: str = "csr") -> StaticDistMatrix:
    """Distributed transpose of a 2D-distributed matrix.

    Every block is exchanged with its transposed grid position
    (:func:`repro.core.collectives.transpose_blocks`) and transposed
    locally.  The result is a static distributed matrix in the requested
    layout; an unknown layout raises :class:`ValueError` before any block
    is sent.
    """
    _, build = static_layout(layout)
    comm, grid = mat.comm, mat.grid
    n, m = mat.shape
    out_dist = BlockDistribution(m, n, grid)

    out_blocks: dict[int, object] = {}
    for rank, block in transpose_blocks(comm, grid, mat.blocks).items():

        def _local_transpose(block=block):
            return build(block.to_coo().transpose())

        out_blocks[rank] = comm.run_local(
            rank, _local_transpose, category=StatCategory.LOCAL_COMPUTE
        )

    return StaticDistMatrix(comm, grid, out_dist, mat.semiring, out_blocks, layout=layout)
