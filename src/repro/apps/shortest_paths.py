"""Dynamic multi-source shortest paths over the ``(min, +)`` semiring.

Multi-source shortest-path distance matrices can be computed algebraically:
with ``D_h = S ⊗ A^h`` in the tropical semiring (``S`` selects the source
rows), ``D_h[s, v]`` is the length of the shortest path from source ``s``
to ``v`` using at most ``h + 1`` hops.  The paper uses exactly this
``(min, +)`` setting to motivate the *general* update case: inserting a
lighter edge is an algebraic update (``min`` absorbs it), but increasing a
weight or deleting an edge is not, so the Bloom-filter-driven masked
recomputation of Algorithm 2 is required.

:class:`DynamicMultiSourceShortestPaths` maintains the h-hop distance
product ``S·A`` (one hop beyond the sources by default) under edge
insertions, weight changes and deletions, and exposes a full shortest-path
solve (repeated min-plus products) for the example scripts.
"""

from __future__ import annotations

import numpy as np

from repro.perf import perf_count
from repro.runtime import Communicator, ProcessGrid
from repro.semirings import MIN_PLUS
from repro.sparse import CSRMatrix, COOMatrix, spgemm_local
from repro.distributed import DynamicDistMatrix, UpdateBatch
from repro.core import DynamicProduct

__all__ = [
    "DynamicMultiSourceShortestPaths",
    "sssp_reference",
    "sssp_minplus_reference",
    "distances_to_tuples",
]


def sssp_reference(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Reference multi-source shortest paths via NetworkX (Dijkstra).

    Returns a dense ``len(sources) × n`` distance matrix with ``inf`` for
    unreachable vertices.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(range(int(n)))
    graph.add_weighted_edges_from(
        zip(rows.tolist(), cols.tolist(), weights.tolist())
    )
    out = np.full((len(sources), n), np.inf)
    for si, s in enumerate(sources):
        lengths = nx.single_source_dijkstra_path_length(graph, int(s))
        for v, d in lengths.items():
            out[si, v] = d
    return out


def sssp_minplus_reference(
    n: int,
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray,
    sources: np.ndarray,
    *,
    max_hops: int | None = None,
) -> np.ndarray:
    """Dense min-plus Bellman-Ford reference, bit-compatible with the app.

    Performs exactly the relaxation the distributed app performs —
    ``D ← min(D, D·A)`` with per-entry candidates ``D[s, k] + A[k, v]`` —
    on a dense adjacency matrix, so the resulting distances are
    byte-identical to :meth:`DynamicMultiSourceShortestPaths.full_distances`
    (the same IEEE additions, and ``min`` is exact).  Scenario generators
    use this to bake expected distances into
    :class:`~repro.scenarios.model.ShortestPathCheck` steps without
    replaying the scenario.
    """
    n = int(n)
    adjacency = np.full((n, n), np.inf)
    # last write wins, matching the MERGE semantics of repeated updates
    adjacency[np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)] = (
        np.asarray(weights, dtype=np.float64)
    )
    sources = np.asarray(sources, dtype=np.int64)
    dist = np.full((sources.size, n), np.inf)
    dist[np.arange(sources.size), sources] = 0.0
    hops = max_hops if max_hops is not None else n
    for _ in range(hops):
        with np.errstate(invalid="ignore"):
            candidates = (dist[:, :, None] + adjacency[None, :, :]).min(axis=1)
        new_dist = np.minimum(dist, candidates)
        if np.array_equal(
            np.nan_to_num(new_dist, posinf=1e300), np.nan_to_num(dist, posinf=1e300)
        ):
            break
        dist = new_dist
    return dist


def distances_to_tuples(
    distances: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical sparse form of a dense distance matrix.

    Returns ``(source_index, vertex, distance)`` arrays for the finite
    entries, in row-major (source, vertex) order — the representation the
    scenario engine records and the differential harness compares
    byte-for-byte.
    """
    src, vertex = np.nonzero(np.isfinite(distances))
    return (
        src.astype(np.int64),
        vertex.astype(np.int64),
        distances[src, vertex].astype(np.float64),
    )


class DynamicMultiSourceShortestPaths:
    """Maintains ``S·A`` (1-hop bounded distances) under general updates."""

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        n: int,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray,
        sources: np.ndarray,
        *,
        seed: int = 0,
    ) -> None:
        self.comm = comm
        self.grid = grid
        self.n = int(n)
        self.sources = np.asarray(sources, dtype=np.int64)
        n_src = self.sources.size

        # Selector matrix S: one row per source, s[k, sources[k]] = 0
        # (the multiplicative identity of (min, +)).
        sel_batch = UpdateBatch.from_global(
            (n_src, n),
            np.arange(n_src, dtype=np.int64),
            self.sources,
            np.zeros(n_src),
            grid.n_ranks,
            semiring=MIN_PLUS,
            seed=seed,
        )
        selector = DynamicDistMatrix.from_tuples(
            comm, grid, (n_src, n), sel_batch.tuples_per_rank, MIN_PLUS, combine="last"
        )
        adj_batch = UpdateBatch.from_global(
            (n, n), rows, cols, weights, grid.n_ranks, semiring=MIN_PLUS, seed=seed + 1
        )
        adjacency = DynamicDistMatrix.from_tuples(
            comm, grid, (n, n), adj_batch.tuples_per_rank, MIN_PLUS, combine="last"
        )
        # General mode: weight increases and deletions are not expressible
        # as (min, +) additions.
        self.product = DynamicProduct(
            comm, grid, selector, adjacency, semiring=MIN_PLUS, mode="general"
        )

    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> DynamicDistMatrix:
        """The maintained weighted adjacency matrix (right operand of ``S·A``)."""
        return self.product.b

    def one_hop_distances(self) -> COOMatrix:
        """The maintained ``S·A`` product (1-hop bounded distances)."""
        return self.product.result_coo()

    # ------------------------------------------------------------------
    def update_edges(
        self, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, *, seed: int = 0
    ) -> int:
        """Insert edges or overwrite edge weights (general update).

        Duplicate coordinates within one batch resolve last-write-wins.
        Returns the number of maintained-product entries recomputed.
        """
        perf_count("app_sssp_edges_updated", len(rows))
        batch = UpdateBatch.from_global(
            (self.n, self.n),
            rows,
            cols,
            weights,
            self.grid.n_ranks,
            kind="update",
            semiring=MIN_PLUS,
            seed=seed,
        )
        return int(self.product.apply_updates(b_batch=batch).touched_outputs)

    def delete_edges(self, rows: np.ndarray, cols: np.ndarray, *, seed: int = 0) -> int:
        """Delete edges (general update; triggers masked recomputation).

        Deleting a coordinate that is not present is a structural no-op.
        Returns the number of maintained-product entries recomputed.
        """
        perf_count("app_sssp_edges_deleted", len(rows))
        batch = UpdateBatch.from_global(
            (self.n, self.n),
            rows,
            cols,
            np.zeros(len(rows)),
            self.grid.n_ranks,
            kind="delete",
            semiring=MIN_PLUS,
            seed=seed,
        )
        return int(self.product.apply_updates(b_batch=batch).touched_outputs)

    # ------------------------------------------------------------------
    def full_distances(self, *, max_hops: int | None = None) -> np.ndarray:
        """Full shortest-path distances from the sources (dense).

        Iterates ``D ← min(D, D·A)`` until convergence (or ``max_hops``),
        i.e. an algebraic Bellman-Ford sweep over the current adjacency
        matrix.  Runs sequentially on the gathered adjacency (assembled
        through the uncharged control plane), so every process computes the
        identical dense matrix.
        """
        adjacency = CSRMatrix.from_coo(
            self.adjacency.to_coo_global(), dedup=False
        )
        n_src = self.sources.size
        dist = np.full((n_src, self.n), np.inf)
        dist[np.arange(n_src), self.sources] = 0.0
        max_hops = max_hops if max_hops is not None else self.n
        frontier = CSRMatrix.from_dense(dist, MIN_PLUS)
        for _ in range(max_hops):
            product, _ = spgemm_local(frontier, adjacency, MIN_PLUS)
            new_dist = np.minimum(dist, product.to_dense())
            if np.array_equal(
                np.nan_to_num(new_dist, posinf=1e300),
                np.nan_to_num(dist, posinf=1e300),
            ):
                break
            dist = new_dist
            frontier = CSRMatrix.from_dense(dist, MIN_PLUS)
        return dist

    def distance_tuples(
        self, *, max_hops: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical finite-distance tuples ``(source_index, vertex, distance)``.

        The sparse, byte-comparable form of :meth:`full_distances` — what
        :class:`~repro.scenarios.model.ShortestPathCheck` steps record and
        the differential harness compares across backends and world sizes.
        """
        perf_count("app_sssp_queries")
        return distances_to_tuples(self.full_distances(max_hops=max_hops))

    def verify_one_hop(self) -> bool:
        """Check the maintained one-hop product against recomputation."""
        return self.product.check_consistency()
