"""Dynamic triangle counting via SpGEMM.

The algebraic formulation (Azad et al., and the GraphBLAS triangle-counting
benchmark) counts triangles of an undirected graph with adjacency matrix
``A`` as ``sum(A² ∘ A) / 6`` where ``∘`` is the element-wise (Hadamard)
product.  Because ``A²`` is maintained incrementally by
:class:`repro.core.DynamicProduct`, the triangle count can be refreshed
after every batch of edge insertions without recomputing the full product —
exactly the kind of workload the paper's introduction motivates.

The count itself is computed *in place*: ``A²`` and ``A`` share one block
distribution, so each rank intersects its two local blocks and contributes
one partial sum, and the partials are combined in canonical rank order
(:func:`repro.apps.reductions.rank_ordered_sum`) so the query is
byte-identical across backends and world sizes — no global gather of either
matrix is required.
"""

from __future__ import annotations

import numpy as np

from repro.perf import perf_count
from repro.runtime import Communicator, ProcessGrid
from repro.runtime.stats import StatCategory
from repro.semirings import PLUS_TIMES
from repro.distributed import DynamicDistMatrix, UpdateBatch
from repro.core import DynamicProduct
from repro.apps.reductions import rank_ordered_sum

__all__ = ["DynamicTriangleCounter", "count_triangles_reference"]


def count_triangles_reference(n: int, rows: np.ndarray, cols: np.ndarray) -> int:
    """Reference triangle count (dense/NetworkX-free, for verification)."""
    import scipy.sparse as sp

    adj = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n, n)
    ).tocsr()
    adj = ((adj + adj.T) > 0).astype(np.float64)
    adj.setdiag(0)
    adj.eliminate_zeros()
    a2 = adj @ adj
    closed = a2.multiply(adj)
    return int(round(closed.sum() / 6.0))


def _block_closed_weight(dist, rank: int, a2_block, adj_block) -> float:
    """Rank-local ``sum(A² ∘ A)`` restricted to off-diagonal entries.

    ``A²`` and ``A`` live on the same distribution, so the Hadamard mask is
    a purely local pattern intersection; the diagonal test must use global
    coordinates (a block's local diagonal is not the global one).
    """
    m = dist.shape[1]

    def global_coords(block):
        flat = block.flat_rows()
        rows = np.repeat(flat.row_ids, np.diff(flat.row_ptr))
        grows, gcols = dist.to_global(rank, rows, flat.cols)
        return grows, gcols, flat.vals

    grows, gcols, values = global_coords(a2_block)
    adj_rows, adj_cols, _ = global_coords(adj_block)
    hit = np.isin(grows * m + gcols, adj_rows * m + adj_cols) & (grows != gcols)
    return float(np.sum(values[hit]))


class DynamicTriangleCounter:
    """Maintains the triangle count of an undirected graph under insertions."""

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        n: int,
        rows: np.ndarray,
        cols: np.ndarray,
        *,
        seed: int = 0,
    ) -> None:
        self.comm = comm
        self.grid = grid
        self.n = int(n)
        rows, cols = self._symmetrize(rows, cols)
        rows, cols = self._unique_edges(rows, cols)
        values = np.ones(rows.size, dtype=np.float64)
        batch = UpdateBatch.from_global(
            (n, n), rows, cols, values, grid.n_ranks, seed=seed
        )
        adj = DynamicDistMatrix.from_tuples(
            comm, grid, (n, n), batch.tuples_per_rank, PLUS_TIMES, combine="last"
        )
        # Both operands are the one adjacency matrix (an aliased product).
        # The product is maintained in algebraic mode because edge
        # insertions are additive in (+, ·) as long as every edge is
        # inserted at most once.
        self.product = DynamicProduct(comm, grid, adj, adj, mode="algebraic")

    # ------------------------------------------------------------------
    @staticmethod
    def _symmetrize(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        keep = rows != cols
        rows, cols = rows[keep], cols[keep]
        r = np.concatenate([rows, cols])
        c = np.concatenate([cols, rows])
        return r, c

    def _unique_edges(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop duplicate directed pairs (first occurrence wins).

        A batch that names the same undirected edge twice must still insert
        each directed non-zero exactly once, or the additive (+, ·)
        maintenance of ``A²`` double-counts the edge.
        """
        if rows.size == 0:
            return rows, cols
        keys = rows * self.n + cols
        _, first = np.unique(keys, return_index=True)
        first.sort()
        return rows[first], cols[first]

    @property
    def adjacency(self) -> DynamicDistMatrix:
        """The maintained symmetric adjacency matrix (both operands of ``A²``)."""
        return self.product.a

    def _new_edges_only(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop edges already present (re-inserting would double-count)."""
        present = self.adjacency.contains_tuples(rows, cols)
        keep = ~present
        return rows[keep], cols[keep]

    def insert_edges(self, rows: np.ndarray, cols: np.ndarray, *, seed: int = 0) -> int:
        """Insert undirected edges and update the maintained ``A²``.

        Self-loops, duplicate edges within the batch and edges already
        present in the graph are all screened out; returns the number of new
        directed non-zeros actually inserted.
        """
        rows, cols = self._symmetrize(rows, cols)
        rows, cols = self._unique_edges(rows, cols)
        if rows.size:
            rows, cols = self._new_edges_only(rows, cols)
        if rows.size == 0:
            return 0
        perf_count("app_triangle_edges_inserted", rows.size)
        values = np.ones(rows.size, dtype=np.float64)
        # (A+Δ)² = A² + A·Δ + Δ·A': the aliased product applies the one
        # batch to both sides.
        batch = UpdateBatch.from_global(
            (self.n, self.n), rows, cols, values, self.grid.n_ranks, seed=seed
        )
        self.product.apply_updates(a_batch=batch)
        return int(rows.size)

    # ------------------------------------------------------------------
    def closed_wedge_weight(self) -> float:
        """``sum(A² ∘ A)`` over off-diagonal entries (6× the triangle count).

        Each rank intersects its local ``A²`` and ``A`` blocks (they share
        one distribution) and the per-rank partials are summed in canonical
        rank order, so the value is byte-identical on every backend and
        world size.
        """
        c = self.product.c
        adj = self.adjacency
        partials: dict[int, float] = {}
        for rank in c.owned_ranks():
            partials[rank] = self.comm.run_local(
                rank,
                _block_closed_weight,
                c.dist,
                rank,
                c.blocks[rank],
                adj.blocks[rank],
                category=StatCategory.LOCAL_COMPUTE,
            )
        return rank_ordered_sum(self.comm, partials)

    def triangle_count(self) -> int:
        """Current number of triangles: ``sum(A² ∘ A) / 6``."""
        perf_count("app_triangle_queries")
        return int(round(self.closed_wedge_weight() / 6.0))

    def verify(self) -> bool:
        """Check the maintained product against a fresh recomputation."""
        return self.product.check_consistency()
