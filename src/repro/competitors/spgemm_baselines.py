"""Competitor-style distributed SpGEMM baselines (Figs. 9–12).

The paper's dynamic-SpGEMM experiments compare against the *static*
distributed SpGEMM of each framework:

* Figure 9 (algebraic case): competitors compute ``A*·B`` with their static
  SpGEMM and add the result to ``C``.  CombBLAS/CTF use sparse SUMMA on the
  2D grid — which broadcasts the full blocks of the (large) right operand
  ``B`` every round; CTF additionally re-maps the operands into its cyclic
  layout before multiplying.  PETSc uses a 1D row algorithm where every rank
  must fetch the remote rows of ``B`` referenced by its rows of ``A*``.
* Figure 10 (general case): the competitors cannot update incrementally at
  all and recompute ``A'·B`` from scratch with the same static algorithms.

These functions reproduce those cost structures on the simulated runtime;
:func:`spgemm_stream` wraps them into the per-batch protocol each framework
follows over a stream of updates to the left operand, which is what
:class:`~repro.scenarios.executors.CompetitorExecutor` replays
:class:`~repro.scenarios.model.SpGEMMStep` steps through.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Mapping

import numpy as np

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import Semiring
from repro.sparse import COOMatrix, CSRMatrix, spgemm_local
from repro.distributed import (
    DynamicDistMatrix,
    StaticDistMatrix,
    UpdateBatch,
    build_update_matrix,
)
from repro.distributed.dist_matrix import DistMatrixBase
from repro.core.summa import summa_spgemm
from repro.competitors.base import Backend, TupleArrays, UnsupportedOperation
from repro.competitors.combblas import CombBLASBackend
from repro.competitors.ctf import CTFBackend
from repro.competitors.petsc import PETScBackend

__all__ = ["spgemm_stream"]


def add_product_to_result(
    product: DistMatrixBase, c: DynamicDistMatrix | None
) -> None:
    """Fold a freshly computed distributed product into ``C`` (local adds)."""
    if c is None:
        return
    for rank, block in product.blocks.items():
        coo = block.to_coo()
        if coo.nnz == 0:
            continue
        c.comm.run_local(
            rank,
            c.blocks[rank].add_update,
            coo,
            category=StatCategory.LOCAL_ADDITION,
        )


def static_spgemm_combblas(
    comm: Communicator,
    grid: ProcessGrid,
    a: DistMatrixBase,
    b: DistMatrixBase,
    *,
    semiring: Semiring | None = None,
    accumulate_into: DynamicDistMatrix | None = None,
) -> DistMatrixBase:
    """CombBLAS-style static SpGEMM: plain sparse SUMMA on the 2D grid."""
    product, _ = summa_spgemm(
        comm, grid, a, b, semiring=semiring, output="static", compute_bloom=False
    )
    add_product_to_result(product, accumulate_into)
    return product


def static_spgemm_ctf(
    comm: Communicator,
    grid: ProcessGrid,
    a: DistMatrixBase,
    b: DistMatrixBase,
    *,
    semiring: Semiring | None = None,
    accumulate_into: DynamicDistMatrix | None = None,
) -> DistMatrixBase:
    """CTF-style static SpGEMM: operand re-mapping, then SUMMA.

    CTF contracts tensors in a layout chosen per contraction, which means
    both operands are redistributed (an all-to-all of *all* their non-zeros)
    before the actual multiplication.  The extra re-mapping round is what
    makes CTF slower than CombBLAS on these workloads.
    """
    semiring = semiring if semiring is not None else a.semiring
    # Model the re-mapping: every rank ships its full block to the rank that
    # owns it under the contraction layout (here: the transposed position,
    # any fixed non-identity permutation has the same cost profile), and the
    # blocks travel back afterwards.
    for operand in (a, b):
        messages = []
        for rank in comm.owned_ranks(grid.all_ranks()):
            dst = grid.transpose_rank(rank)
            messages.append((rank, dst, operand.blocks[rank]))
        inbox = comm.exchange(messages, category=StatCategory.ALLTOALL)
        # Return leg: every rank ships the block it just received straight
        # back to its origin (same volume as the outbound leg, posted by
        # the rank that actually holds the copy).
        messages = [
            (rank, grid.transpose_rank(rank), inbox[rank][0][1])
            for rank in comm.owned_ranks(grid.all_ranks())
            if inbox.get(rank)
        ]
        comm.exchange(messages, category=StatCategory.ALLTOALL)
    product, _ = summa_spgemm(
        comm, grid, a, b, semiring=semiring, output="static", compute_bloom=False
    )
    add_product_to_result(product, accumulate_into)
    return product


def static_spgemm_petsc_1d(
    comm: Communicator,
    a_rows_per_rank: dict[int, CSRMatrix],
    row_offsets: np.ndarray,
    b_global: CSRMatrix,
    *,
    semiring: Semiring,
    n_ranks: int,
    accumulate_into: dict[int, COOMatrix] | None = None,
) -> dict[int, COOMatrix]:
    """PETSc-style 1D ``MatMatMult``.

    ``a_rows_per_rank[rank]`` holds the local block-row slice of ``A`` (a
    CSR with local row indices), ``b_global`` is the full ``B`` (PETSc also
    distributes ``B`` 1D; the off-process rows a rank needs are gathered
    during the symbolic phase).  The communication charged here is the
    gather of the remote ``B`` rows referenced by each rank's ``A`` slice —
    for an adjacency-matrix workload that is effectively most of ``B``.

    Returns the per-rank local result rows (COO with local row indices).
    """
    results: dict[int, COOMatrix] = {}
    group = list(range(n_ranks))

    # Symbolic phase: every rank's referenced-row list, computed locally and
    # made globally visible in ONE control-plane merge (the stand-in for a
    # real implementation's row-request exchange) instead of one collective
    # per rank.
    needed_local: dict[int, np.ndarray] = {}
    for rank in comm.owned_ranks(group):
        a_local = a_rows_per_rank.get(rank)
        if a_local is None:
            continue

        def _needed_rows(a_local=a_local):
            return np.unique(a_local.indices)

        needed_local[rank] = comm.run_local(
            rank, _needed_rows, category=StatCategory.LOCAL_COMPUTE
        )
    needed_by_rank = comm.host_merge(needed_local)

    for rank in group:
        needed = needed_by_rank.get(rank)
        if needed is None:
            continue
        # Gather the needed rows of B from their owners (modelled as one
        # gather of the corresponding row slices onto this rank).  Each
        # process extracts only the slices of the owners it hosts — the
        # gather reads nothing else from it.
        payloads = {}
        for owner in group:
            if not comm.owns(owner):
                continue
            lo = int(row_offsets[owner])
            hi = int(row_offsets[owner + 1])
            owned = needed[(needed >= lo) & (needed < hi)]
            if owner == rank or owned.size == 0:
                payloads[owner] = None
                continue
            payloads[owner] = b_global.extract_rows(owned)
        comm.gather(rank, payloads, group=group, category=StatCategory.BCAST)
        a_local = a_rows_per_rank.get(rank)

        def _multiply(a_local=a_local):
            product, _ = spgemm_local(a_local, b_global, semiring)
            return product

        if a_local is not None and comm.owns(rank):
            results[rank] = comm.run_local(
                rank, _multiply, category=StatCategory.LOCAL_MULT
            )
            if accumulate_into is not None:
                prev = accumulate_into.get(rank)
                accumulate_into[rank] = (
                    results[rank]
                    if prev is None
                    else prev.concatenate(results[rank]).sum_duplicates()
                )
    return results


# ----------------------------------------------------------------------
# update streams: what each framework does per batch (Figs. 9 and 10)
# ----------------------------------------------------------------------
class _SummaStream:
    """Dynamic SpGEMM the CombBLAS/CTF way: one static SUMMA per batch.

    ``A`` grows from empty against the fixed right operand ``B``.  An
    algebraic batch becomes ``A*`` through a comparison sort and one global
    ``ALLTOALL``, ``multiply`` computes ``A*·B`` and the product is added to
    ``C``.  A general batch has no incremental path at all: ``A'`` lives in
    CombBLAS-style static blocks that are rebuilt, and ``C = A'·B`` is
    recomputed from scratch.
    """

    def __init__(
        self,
        backend: Backend,
        b_tuples_per_rank: Mapping[int, TupleArrays],
        general: bool,
        *,
        multiply: Callable[..., DistMatrixBase],
    ) -> None:
        comm, grid, shape = backend.comm, backend.grid, backend.shape
        self.comm, self.grid, self.semiring = comm, grid, backend.semiring
        self.multiply = multiply
        self.general = general
        self.b = StaticDistMatrix.from_tuples(
            comm, grid, shape, b_tuples_per_rank, self.semiring, layout="csr"
        )
        if general:
            self.a = CombBLASBackend(comm, grid, shape, self.semiring)
            self.c = None
        else:
            self.a = DynamicDistMatrix.empty(comm, grid, shape, self.semiring)
            self.c = DynamicDistMatrix.empty(comm, grid, shape, self.semiring)

    def apply(self, tuples_per_rank: Mapping[int, TupleArrays], kind: str) -> None:
        """One batch: update ``A`` and bring ``C = A·B`` up to date."""
        comm, grid = self.comm, self.grid
        if self.general:
            self.a.apply_batch(kind, tuples_per_rank)
            self.c = self.multiply(
                comm, grid, self.a.as_static_dist(), self.b, semiring=self.semiring
            )
            return
        a_star = build_update_matrix(
            comm,
            grid,
            self.a.dist,
            tuples_per_rank,
            self.semiring,
            redistribution="single_phase",
        )
        self.multiply(comm, grid, a_star, self.b, accumulate_into=self.c)
        self.a.add_update(a_star)

    def to_coo_global(self) -> COOMatrix:
        """The streamed left operand ``A`` (world-wide query)."""
        return self.a.to_coo_global()

    def product_global(self) -> COOMatrix | None:
        """The current product ``C`` (``None`` before the first batch)."""
        return None if self.c is None else self.c.to_coo_global()


def _gathered(
    tuples_per_rank: Mapping[int, TupleArrays], backend: Backend
) -> COOMatrix:
    """Scattered tuples back as one global matrix (duplicates ⊕-combined)."""
    batch = UpdateBatch(backend.shape, dict(tuples_per_rank), semiring=backend.semiring)
    return batch.to_global_coo()


class _PETScStream:
    """Dynamic SpGEMM the PETSc way: a 1D ``MatMatMult`` per batch, ``(+, ·)`` only.

    An algebraic batch multiplies its own block rows against ``B`` and adds
    the result rows to ``C``; a general batch recomputes ``A'·B`` from every
    tuple streamed so far.  Deletions cannot be expressed.
    """

    def __init__(
        self,
        backend: PETScBackend,
        b_tuples_per_rank: Mapping[int, TupleArrays],
        general: bool,
    ) -> None:
        self.backend = backend
        self.general = general
        self.b_global = CSRMatrix.from_coo(_gathered(b_tuples_per_rank, backend))
        self.a = COOMatrix.empty(backend.shape, backend.semiring)
        self.c: dict[int, COOMatrix] = {}

    def apply(self, tuples_per_rank: Mapping[int, TupleArrays], kind: str) -> None:
        """One batch: multiply it (algebraic) or everything so far (general)."""
        if kind == "delete":
            raise UnsupportedOperation(
                "PETSc does not support efficiently masking out non-zeros"
            )
        backend = self.backend
        batch = _gathered(tuples_per_rank, backend)
        self.a = self.a.concatenate(batch)
        results = static_spgemm_petsc_1d(
            backend.comm,
            backend.row_slices(self.a if self.general else batch),
            backend.row_offsets,
            self.b_global,
            semiring=backend.semiring,
            n_ranks=backend.n_ranks,
            accumulate_into=None if self.general else self.c,
        )
        if self.general:
            self.c = results

    def to_coo_global(self) -> COOMatrix:
        """The streamed left operand ``A`` (duplicates ``+``-combined)."""
        return self.a.sum_duplicates()

    def product_global(self) -> COOMatrix:
        """The current product ``C``, assembled from its block rows."""
        return self.backend.rows_to_global(self.c)


_STREAMS = {
    CombBLASBackend: partial(_SummaStream, multiply=static_spgemm_combblas),
    CTFBackend: partial(_SummaStream, multiply=static_spgemm_ctf),
    PETScBackend: _PETScStream,
}


def spgemm_stream(
    backend: Backend,
    b_tuples_per_rank: Mapping[int, TupleArrays],
    *,
    general: bool,
):
    """``backend``'s framework maintaining ``C = A·B`` under batches to ``A``.

    ``B`` is built from ``b_tuples_per_rank`` and stays fixed; ``A`` starts
    empty.  The returned stream has ``apply(tuples_per_rank, kind)`` for one
    batch (``general`` selects Fig. 10's recompute protocol over Fig. 9's
    additive one), ``to_coo_global()`` for the streamed ``A`` and
    ``product_global()`` for ``C``.
    """
    return _STREAMS[type(backend)](backend, b_tuples_per_rank, general)
