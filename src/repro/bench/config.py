"""Benchmark scale profiles.

The paper's workloads (billions of non-zeros, 64 MPI ranks, 100 Gbit
interconnect) are scaled down so the simulation finishes in minutes on one
core.  A :class:`BenchProfile` bundles every scaling knob so the same
experiment code can run at three sizes:

* ``smoke``   — seconds; the benchmark suite's default run, CI and tier-1.
* ``default`` — a couple of minutes.
* ``large``   — tens of minutes; closest to the paper's regime.

Select one with ``benchmarks/run_suite.py --profile`` (default ``smoke``).

The SpGEMM experiments additionally use a *paper-regime* machine model: the
paper's data is ~10³–10⁴× larger than the surrogates, so keeping the
100 Gbit-link parameters would make communication (the quantity the dynamic
algorithm optimises) vanish next to the interpreted local compute.  The
paper-regime model scales the latency/bandwidth terms so that the
communication : computation balance is representative of the original
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.config import MachineModel

__all__ = ["BenchProfile", "PROFILES", "get_profile", "paper_regime_machine"]


def paper_regime_machine() -> MachineModel:
    """Machine model with communication scaled to the surrogate data size."""
    return MachineModel(
        alpha=5.0e-5,
        beta=2.0e-8,
        intra_node_alpha=1.0e-5,
        intra_node_beta=5.0e-9,
    )


@dataclass(frozen=True)
class BenchProfile:
    """All scaling knobs of the benchmark suite."""

    name: str
    #: simulated MPI ranks for the single-configuration experiments
    n_ranks: int
    #: divisor applied to the Table-I instance sizes
    scale_divisor: int
    #: instances used for the per-instance experiments (Figs. 2–5, 9, 10)
    instances: tuple[str, ...]
    #: per-rank batch sizes for the insertion/update/deletion experiments
    update_batch_sizes: tuple[int, ...]
    #: per-rank batch sizes for the algebraic dynamic SpGEMM experiment
    spgemm_batch_sizes: tuple[int, ...]
    #: per-rank batch sizes for the general dynamic SpGEMM experiment
    spgemm_general_batch_sizes: tuple[int, ...]
    #: batches measured per configuration (the paper uses 10)
    batches_per_config: int
    #: rank counts for the scaling experiments (paper: 4, 16, 64)
    scaling_ranks: tuple[int, ...]
    #: per-rank insertions for the weak-scaling experiments
    weak_scaling_batch: int
    #: per-rank non-zeros for the SpGEMM weak-scaling experiment (Fig. 11)
    spgemm_scaling_nnz_per_rank: int
    #: R-MAT scale (log2 of total insertions) for the strong-scaling run
    rmat_strong_total_log2: int
    #: R-MAT insertions per rank (log2) for the weak-scaling run
    rmat_weak_per_rank_log2: int
    #: machine model for the data-structure experiments
    machine: MachineModel = field(default_factory=MachineModel)
    #: machine model for the SpGEMM experiments (paper-regime calibration)
    spgemm_machine: MachineModel = field(default_factory=paper_regime_machine)


PROFILES: dict[str, BenchProfile] = {
    "smoke": BenchProfile(
        name="smoke",
        n_ranks=16,
        scale_divisor=4096,
        instances=("LiveJournal", "orkut"),
        update_batch_sizes=(16, 64, 256),
        spgemm_batch_sizes=(8, 32),
        spgemm_general_batch_sizes=(8, 16),
        batches_per_config=4,
        scaling_ranks=(4, 16),
        weak_scaling_batch=256,
        spgemm_scaling_nnz_per_rank=512,
        rmat_strong_total_log2=14,
        rmat_weak_per_rank_log2=10,
    ),
    "default": BenchProfile(
        name="default",
        n_ranks=16,
        scale_divisor=1024,
        instances=("LiveJournal", "orkut", "tech-p2p", "indochina", "uk2002"),
        update_batch_sizes=(32, 64, 128, 256, 512, 1024),
        spgemm_batch_sizes=(32, 64, 128, 256),
        spgemm_general_batch_sizes=(16, 32, 64, 128),
        batches_per_config=3,
        scaling_ranks=(4, 16, 64),
        weak_scaling_batch=1024,
        spgemm_scaling_nnz_per_rank=1024,
        rmat_strong_total_log2=17,
        rmat_weak_per_rank_log2=12,
    ),
    "large": BenchProfile(
        name="large",
        n_ranks=16,
        scale_divisor=256,
        instances=(
            "LiveJournal",
            "orkut",
            "tech-p2p",
            "indochina",
            "uk2002",
            "sinaweibo",
        ),
        update_batch_sizes=(32, 64, 128, 256, 512, 1024, 2048, 4096),
        spgemm_batch_sizes=(32, 64, 128, 256, 512),
        spgemm_general_batch_sizes=(16, 32, 64, 128, 256),
        batches_per_config=5,
        scaling_ranks=(4, 16, 64),
        weak_scaling_batch=2048,
        spgemm_scaling_nnz_per_rank=2048,
        rmat_strong_total_log2=19,
        rmat_weak_per_rank_log2=14,
    ),
}


def get_profile(name: str = "smoke") -> BenchProfile:
    """Resolve a profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(PROFILES)
        raise KeyError(
            f"unknown benchmark profile {name!r}; known profiles: {known}"
        ) from None
