"""Graph contraction (coarsening) expressed with SpGEMM.

Contracting a graph along a clustering ``π : V → {0, …, k-1}`` is the
triple product ``A_c = Sᵀ · A · S`` where ``S`` is the ``n × k``
cluster-membership matrix (``s_{v, π(v)} = 1``).  Contraction is one of the
two "popular applications" of SpGEMM the paper's introduction cites; it is
included here both as an example workload for the distributed SpGEMM and as
a building block for multilevel algorithms.
"""

from __future__ import annotations

import numpy as np

from repro.perf import perf_count
from repro.runtime import Communicator, ProcessGrid
from repro.semirings import PLUS_TIMES
from repro.sparse import COOMatrix
from repro.distributed import DynamicDistMatrix, StaticDistMatrix, UpdateBatch
from repro.core import summa_spgemm, transpose_dist

__all__ = ["contraction_matrix", "contract_graph"]


def contraction_matrix(
    comm: Communicator,
    grid: ProcessGrid,
    clusters: np.ndarray,
    *,
    n_clusters: int | None = None,
    seed: int = 0,
) -> DynamicDistMatrix:
    """Build the distributed ``n × k`` cluster-membership matrix ``S``."""
    clusters = np.asarray(clusters, dtype=np.int64)
    n = clusters.size
    k = int(n_clusters) if n_clusters is not None else int(clusters.max()) + 1 if n else 0
    if clusters.size and (clusters.min() < 0 or clusters.max() >= k):
        raise ValueError("cluster ids must lie in [0, n_clusters)")
    batch = UpdateBatch.from_global(
        (n, k),
        np.arange(n, dtype=np.int64),
        clusters,
        np.ones(n, dtype=np.float64),
        grid.n_ranks,
        seed=seed,
    )
    return DynamicDistMatrix.from_tuples(
        comm, grid, (n, k), batch.tuples_per_rank, PLUS_TIMES, combine="last"
    )


def contract_graph(
    comm: Communicator,
    grid: ProcessGrid,
    adjacency: DynamicDistMatrix | StaticDistMatrix,
    clusters: np.ndarray,
    *,
    n_clusters: int | None = None,
    drop_self_loops: bool = False,
) -> COOMatrix:
    """Contract a distributed graph along a clustering.

    Computes ``A_c = Sᵀ · (A · S)`` with two distributed SUMMA products and
    returns the contracted adjacency matrix as a global COO (cluster-level
    edge weights are the sums of the underlying inter-cluster edge weights).
    """
    clusters = np.asarray(clusters, dtype=np.int64)
    n = adjacency.shape[0]
    if clusters.size != n:
        raise ValueError(
            f"clustering has {clusters.size} entries but the graph has {n} vertices"
        )
    s = contraction_matrix(comm, grid, clusters, n_clusters=n_clusters)
    # A · S  (n × k)
    a_s, _ = summa_spgemm(comm, grid, adjacency, s, output="static")
    # Sᵀ (k × n) by distributed transposition, then Sᵀ · (A·S)
    s_t = transpose_dist(s)
    contracted, _ = summa_spgemm(comm, grid, s_t, a_s, output="static")
    result = contracted.to_coo_global()
    if drop_self_loops:
        result = result._take(result.rows != result.cols)
    perf_count("app_contract_nnz", result.nnz)
    return result
