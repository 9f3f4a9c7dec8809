"""Batches of dynamic updates and distributed update matrices.

The experimental workflow of the paper (Sections IV-A and VII) is:

1. every rank independently generates a *batch* of update tuples
   ``(i, j, x)`` — insertions, value updates, or deletions;
2. an *update matrix* ``A*`` is built from the batch: tuples are
   redistributed to the owning rank and assembled into hypersparse DCSR
   blocks;
3. the update is applied to the (dynamic) target matrix purely locally —
   semiring ``ADD`` for algebraic updates, ``MERGE`` for general value
   updates, ``MASK`` for deletions;
4. for dynamic SpGEMM, the same ``A*`` also drives Algorithm 1 / 2.

:class:`UpdateBatch` is the per-rank tuple container;
:func:`build_update_matrix` performs step 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse import COOMatrix
from repro.distributed.dist_matrix import StaticDistMatrix
from repro.distributed.distribution import BlockDistribution

__all__ = ["UpdateBatch", "build_update_matrix", "partition_tuples_round_robin"]

TupleArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def partition_tuples_round_robin(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    n_ranks: int,
    *,
    seed: int | None = None,
) -> dict[int, TupleArrays]:
    """Split global tuple arrays across ranks (round-robin after a shuffle).

    Models the paper's assumption that "MPI processes can generate updates
    independently and without knowledge of the distribution of data": each
    rank ends up with ``nnz/p`` tuples drawn without regard to ownership.

    The shuffle is unconditional: dealing tuples in generation order would
    correlate batch skew (generators emit hot rows in bursts) with rank
    assignment, which is exactly the imbalance the shuffle is documented to
    break.  ``seed=None`` derives a deterministic seed from the batch
    geometry, so replays stay reproducible without callers having to pick
    a seed.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values)
    if not (rows.size == cols.size == values.size):
        raise ValueError("rows, cols and values must have identical lengths")
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if seed is None:
        seed = (rows.size * 0x9E3779B1 + n_ranks) & 0xFFFFFFFF
    rng = np.random.default_rng(seed)
    order = rng.permutation(rows.size)
    out: dict[int, TupleArrays] = {}
    for rank in range(n_ranks):
        sel = order[rank::n_ranks]
        out[rank] = (rows[sel], cols[sel], values[sel])
    return out


@dataclass
class UpdateBatch:
    """One batch of per-rank update tuples.

    ``kind`` is one of ``"insert"``, ``"update"`` or ``"delete"`` and only
    documents intent (deletions carry dummy values); the same container is
    used for all three.
    """

    shape: tuple[int, int]
    tuples_per_rank: dict[int, TupleArrays] = field(default_factory=dict)
    kind: str = "insert"
    semiring: Semiring = PLUS_TIMES

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "update", "delete"):
            raise ValueError(f"unknown update kind {self.kind!r}")
        clean: dict[int, TupleArrays] = {}
        for rank, (rows, cols, vals) in self.tuples_per_rank.items():
            rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
            cols = np.ascontiguousarray(np.asarray(cols, dtype=np.int64))
            vals = self.semiring.coerce(vals)
            if not (rows.size == cols.size == vals.size):
                raise ValueError("tuple arrays must have identical lengths")
            n, m = self.shape
            if rows.size and (
                rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m
            ):
                raise ValueError("update coordinate outside the matrix shape")
            clean[int(rank)] = (rows, cols, vals)
        self.tuples_per_rank = clean

    # ------------------------------------------------------------------
    @classmethod
    def from_global(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        n_ranks: int,
        *,
        kind: str = "insert",
        semiring: Semiring = PLUS_TIMES,
        seed: int | None = None,
    ) -> "UpdateBatch":
        """Build a batch by distributing global tuples round-robin."""
        return cls(
            shape=shape,
            tuples_per_rank=partition_tuples_round_robin(
                rows, cols, values, n_ranks, seed=seed
            ),
            kind=kind,
            semiring=semiring,
        )

    @property
    def total_tuples(self) -> int:
        return sum(rows.size for rows, _c, _v in self.tuples_per_rank.values())

    def to_global_coo(self) -> COOMatrix:
        """All tuples of the batch as one global COO matrix (⊕-combined)."""
        pieces_r, pieces_c, pieces_v = [], [], []
        for rows, cols, vals in self.tuples_per_rank.values():
            pieces_r.append(rows)
            pieces_c.append(cols)
            pieces_v.append(vals)
        if not pieces_r:
            return COOMatrix.empty(self.shape, self.semiring)
        coo = COOMatrix._unchecked(
            self.shape,
            np.concatenate(pieces_r),
            np.concatenate(pieces_c),
            np.concatenate(pieces_v),
            self.semiring,
        )
        return coo.sum_duplicates() if self.kind != "update" else coo.last_write_wins()


def build_update_matrix(
    comm: Communicator,
    grid: ProcessGrid,
    dist: BlockDistribution,
    batch: UpdateBatch | Mapping[int, TupleArrays],
    semiring: Semiring = PLUS_TIMES,
    *,
    layout: str = "dcsr",
    combine: str = "add",
    redistribution: str = "two_phase",
) -> StaticDistMatrix:
    """Assemble a distributed (hypersparse) update matrix from a batch.

    This is the communication step of a dynamic update: tuples are routed
    to their owning ranks (two-phase counting-sort ``ALLTOALL`` by default)
    and assembled into DCSR blocks.  After this call, applying the update
    to a dynamic matrix is purely local.
    """
    if isinstance(batch, UpdateBatch):
        tuples_per_rank = batch.tuples_per_rank
        shape = batch.shape
        if combine == "add" and batch.kind == "update":
            combine = "last"
    else:
        tuples_per_rank = dict(batch)
        shape = dist.shape
    if shape != dist.shape:
        raise ValueError(
            f"batch shape {shape} does not match distribution shape {dist.shape}"
        )
    out = StaticDistMatrix.empty(comm, grid, dist.shape, semiring, layout=layout)
    # Reuse the *target* distribution rather than the freshly created one so
    # that the update matrix is block-aligned with the matrix it updates.
    out.dist = dist
    out._assemble(tuples_per_rank, combine, redistribution)
    return out
