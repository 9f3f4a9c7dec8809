"""Online repartitioning: nnz-imbalance diagnostics and block migration.

Skewed update streams (the bursty R-MAT scenarios) concentrate nnz in a
few blocks over time, so a placement that was balanced at construction
drifts: a few processes carry most of the data while others idle.  This
module watches the per-process nnz loads between batches and, when the
``max/mean`` imbalance exceeds the armed ``REPRO_REPARTITION`` threshold
(parsed by :class:`repro.runtime.config.RuntimeConfig`), computes a
fresh nnz-aware placement and migrates block ownership through
:meth:`~repro.runtime.mpi_backend.MPIBackend.migrate_ownership` — the
blocks travel as intact pickled objects over the same bucketed all-to-all
transport the two-phase redistribution uses, charged as redistribution
traffic, so scenario results stay byte-identical across a migration.
"""

from __future__ import annotations

from typing import Sequence

from repro.perf.recorder import perf_count
from repro.runtime.grid import ProcessGrid
from repro.runtime.partitioner import NnzAwarePartitioner

__all__ = ["process_nnz_loads", "nnz_imbalance", "maybe_repartition"]


def process_nnz_loads(comm, matrices: Sequence) -> tuple[dict[int, float], dict[int, float]]:
    """Current ``(rank -> nnz, process -> nnz)`` loads, globally agreed.

    Per-rank nnz comes from each matrix's host-merged ``block_nnz()`` (so
    every process sees the same view); per-process loads group the rank
    weights by the communicator's current placement.
    """
    rank_nnz: dict[int, float] = {}
    for matrix in matrices:
        for rank, nnz in matrix.block_nnz().items():
            rank_nnz[rank] = rank_nnz.get(rank, 0.0) + float(nnz)
    active = min(comm.world_size, comm.n_ranks)
    loads = {q: 0.0 for q in range(active)}
    for rank, nnz in rank_nnz.items():
        owner = comm.owner_of(rank)
        loads[owner] = loads.get(owner, 0.0) + nnz
    return rank_nnz, loads


def nnz_imbalance(loads: dict[int, float]) -> float:
    """``max/mean`` of the per-process loads (1.0 when empty or uniform)."""
    if not loads:
        return 1.0
    mean = sum(loads.values()) / len(loads)
    if mean <= 0.0:
        return 1.0
    return max(loads.values()) / mean


def maybe_repartition(
    comm,
    grid: ProcessGrid,
    matrices: Sequence,
    *,
    threshold: float,
) -> bool:
    """Migrate block ownership if the nnz imbalance exceeds ``threshold``.

    Returns ``True`` when a migration happened.  No-op (``False``) when the
    communicator has no placement surface (the simulator), when the
    imbalance is within the threshold, or when the nnz-aware placement
    would not actually lower the maximum per-process load.  Every process
    reaches the identical decision from host-merged loads — the migration
    is a collective, so agreement is a correctness requirement.
    """
    if not hasattr(comm, "migrate_ownership"):
        return False
    rank_nnz, loads = process_nnz_loads(comm, matrices)
    ratio = nnz_imbalance(loads)
    perf_count("partition.imbalance_checks")
    if ratio <= threshold:
        return False
    new_placement = NnzAwarePartitioner().placement(
        comm.n_ranks, comm.world_size, grid=grid, weights=rank_nnz
    )
    if new_placement == comm.placement():
        return False
    new_loads: dict[int, float] = {}
    for rank, nnz in rank_nnz.items():
        owner = new_placement[rank]
        new_loads[owner] = new_loads.get(owner, 0.0) + nnz
    if max(new_loads.values(), default=0.0) >= max(loads.values(), default=0.0):
        return False
    comm.migrate_ownership(new_placement, [matrix.blocks for matrix in matrices])
    perf_count("partition.repartitions")
    return True
