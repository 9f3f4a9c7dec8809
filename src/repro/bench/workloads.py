"""Workload generation for the benchmark experiments.

Reproduces the experimental protocols of Section VII:

* adjacency matrices are built from the (surrogate) instances with a random
  index permutation for load balancing;
* insertion experiments pre-load half of the non-zeros and draw batches
  from the remaining half;
* update / deletion experiments pre-load the full matrix and draw batches
  from the existing non-zeros;
* dynamic-SpGEMM experiments grow the left operand from empty by drawing
  insertions from the adjacency matrix while the right operand stays fixed.

Batch randomness is derived through :class:`numpy.random.SeedSequence`
children (:func:`~repro.scenarios.model.spawn_seeds`): per-batch streams
are statistically independent and two workloads with different seeds never
share an ``rng.choice`` stream — unlike the additive ``seed + b`` scheme
this module used to carry, where ``seed=17`` batch 1 collided with
``seed=18`` batch 0.

The ``*_scenario`` builders at the bottom express the protocols as
replayable :class:`~repro.scenarios.model.Scenario` traces; the figure
registry (``benchmarks/figures.py``) replays those scenarios instead of
carrying bespoke batch loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed import IndexPermutation, partition_tuples_round_robin
from repro.graphs import generate_instance
from repro.scenarios import (
    DeleteBatch,
    InsertBatch,
    Scenario,
    SpGEMMStep,
    ValueUpdateBatch,
)
from repro.scenarios.model import seed_int, spawn_seeds

__all__ = [
    "InstanceWorkload",
    "prepare_instance",
    "draw_batch",
    "split_batches",
    "batched_operation_scenario",
    "spgemm_stream_scenario",
    "construction_scenario",
]

TupleArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class InstanceWorkload:
    """A prepared (permuted) instance plus update pools."""

    name: str
    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    permutation: IndexPermutation

    @property
    def nnz(self) -> int:
        return int(self.rows.size)

    def all_tuples(self) -> TupleArrays:
        return self.rows, self.cols, self.values

    def all_tuples_per_rank(self, n_ranks: int, *, seed: int = 0) -> dict[int, TupleArrays]:
        """The full adjacency matrix scattered round-robin over ranks."""
        return partition_tuples_round_robin(
            self.rows, self.cols, self.values, n_ranks, seed=seed
        )

    def split_half(
        self, *, seed: int | np.random.SeedSequence = 0
    ) -> tuple[TupleArrays, TupleArrays]:
        """(initial half, insertion pool) split of the non-zeros."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.nnz)
        half = self.nnz // 2
        first, second = order[:half], order[half:]
        return (
            (self.rows[first], self.cols[first], self.values[first]),
            (self.rows[second], self.cols[second], self.values[second]),
        )


def prepare_instance(
    name: str,
    *,
    scale_divisor: int,
    seed: int = 0,
    permute: bool = True,
    weights: str = "uniform",
) -> InstanceWorkload:
    """Generate a surrogate instance and apply the random permutation."""
    n, rows, cols, values = generate_instance(
        name, scale_divisor=scale_divisor, seed=seed, weights=weights
    )
    perm = IndexPermutation(n, seed=seed + 17) if permute else IndexPermutation.identity(n)
    rows = perm.apply(rows)
    cols = perm.apply(cols)
    return InstanceWorkload(
        name=name, n=n, rows=rows, cols=cols, values=values, permutation=perm
    )


def draw_batch(
    pool: TupleArrays,
    batch_total: int,
    *,
    seed: int | np.random.SeedSequence = 0,
    replace: bool = True,
) -> TupleArrays:
    """Draw a batch of tuples uniformly at random from a pool.

    ``seed`` may be an integer or a :class:`numpy.random.SeedSequence`
    child from :func:`~repro.scenarios.model.spawn_seeds`; prefer the latter
    when drawing several batches from one pool.
    """
    rows, cols, values = pool
    if rows.size == 0:
        return rows, cols, values
    rng = np.random.default_rng(seed)
    size = int(batch_total) if replace else min(int(batch_total), rows.size)
    idx = rng.choice(rows.size, size=size, replace=replace)
    return rows[idx], cols[idx], values[idx]


def split_batches(
    pool: TupleArrays,
    n_batches: int,
    batch_total: int,
    *,
    seed: int | np.random.SeedSequence = 0,
) -> list[TupleArrays]:
    """Draw ``n_batches`` disjoint batches from a pool (without replacement).

    Used for deletion experiments where deleting the same entry twice would
    distort the measurement; falls back to sampling with replacement across
    batches when the pool is too small.
    """
    rows, cols, values = pool
    rng = np.random.default_rng(seed)
    needed = n_batches * batch_total
    if rows.size >= needed:
        idx = rng.choice(rows.size, size=needed, replace=False)
    else:
        idx = rng.choice(rows.size, size=needed, replace=True)
    batches = []
    for b in range(n_batches):
        sel = idx[b * batch_total : (b + 1) * batch_total]
        batches.append((rows[sel], cols[sel], values[sel]))
    return batches


# ----------------------------------------------------------------------
# protocol -> scenario builders
# ----------------------------------------------------------------------
def batched_operation_scenario(
    workload: InstanceWorkload,
    operation: str,
    *,
    n_batches: int,
    batch_total: int,
    seed: int = 0,
) -> Scenario:
    """The Fig. 4/5 protocol as a replayable scenario.

    * ``"insert"`` — pre-load half the non-zeros, insert batches drawn
      (with replacement) from the other half;
    * ``"update"`` — pre-load the full matrix, overwrite batches drawn from
      all non-zeros;
    * ``"delete"`` — pre-load the full matrix, delete disjoint batches.
    """
    if operation not in ("insert", "update", "delete"):
        raise ValueError(f"unknown operation {operation!r}")
    split_seed, construct_seed, draw_parent, part_parent = spawn_seeds(seed, 4)
    if operation == "insert":
        initial, pool = workload.split_half(seed=split_seed)
    else:
        initial, pool = workload.all_tuples(), workload.all_tuples()
    part_seeds = [seed_int(s) for s in part_parent.spawn(n_batches)]
    steps: list = []
    if operation == "delete":
        batches = split_batches(pool, n_batches, batch_total, seed=draw_parent)
        for b, (br, bc, bv) in enumerate(batches):
            steps.append(
                DeleteBatch(br, bc, bv, partition_seed=part_seeds[b], label=f"delete[{b}]")
            )
    else:
        step_cls = InsertBatch if operation == "insert" else ValueUpdateBatch
        for b, draw_seed in enumerate(draw_parent.spawn(n_batches)):
            br, bc, bv = draw_batch(pool, batch_total, seed=draw_seed)
            steps.append(
                step_cls(
                    br, bc, bv, partition_seed=part_seeds[b], label=f"{operation}[{b}]"
                )
            )
    return Scenario(
        name=f"{workload.name}:{operation}",
        shape=(workload.n, workload.n),
        steps=steps,
        initial_tuples=initial,
        seed=seed,
        construct_seed=seed_int(construct_seed),
        metadata={
            "protocol": f"fig4/5:{operation}",
            "instance": workload.name,
            "batch_total": batch_total,
        },
    )


def spgemm_stream_scenario(
    workload: InstanceWorkload,
    *,
    n_batches: int,
    batch_total: int,
    mode: str = "algebraic",
    kind: str = "insert",
    semiring_name: str = "plus_times",
    seed: int = 0,
) -> Scenario:
    """The Fig. 9/10/11 protocol as a scenario.

    The left operand grows from empty by batches drawn from the adjacency
    matrix, each driving one dynamic-SpGEMM round against the fixed right
    operand ``B`` (the full adjacency matrix).
    """
    construct_seed, draw_parent, part_parent = spawn_seeds(seed, 3)
    pool = workload.all_tuples()
    part_seeds = [seed_int(s) for s in part_parent.spawn(n_batches)]
    steps: list = []
    for b, draw_seed in enumerate(draw_parent.spawn(n_batches)):
        br, bc, bv = draw_batch(pool, batch_total, seed=draw_seed)
        steps.append(
            SpGEMMStep(
                br,
                bc,
                bv,
                partition_seed=part_seeds[b],
                label=f"spgemm[{b}]",
                mode=mode,
                kind=kind,
            )
        )
    return Scenario(
        name=f"{workload.name}:spgemm-{mode}",
        shape=(workload.n, workload.n),
        steps=steps,
        b_tuples=pool,
        semiring_name=semiring_name,
        seed=seed,
        construct_seed=seed_int(construct_seed),
        metadata={
            "protocol": f"fig9/10/11:{mode}",
            "instance": workload.name,
            "batch_total": batch_total,
        },
    )


def construction_scenario(
    name: str,
    shape: tuple[int, int],
    tuples: TupleArrays,
    *,
    seed: int = 0,
) -> Scenario:
    """A timed bulk-construction trace (the Fig. 8 protocol)."""
    (construct_seed,) = spawn_seeds(seed, 1)
    return Scenario(
        name=name,
        shape=shape,
        steps=[],
        initial_tuples=tuples,
        seed=seed,
        construct_seed=seed_int(construct_seed),
        timed_construction=True,
        metadata={"protocol": "fig8:construction"},
    )
