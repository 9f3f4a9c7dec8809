"""Distributed sparse matrices (2D block decomposition).

Two flavours, mirroring Section IV of the paper:

* :class:`DynamicDistMatrix` — every rank stores its block as a DHB dynamic
  matrix; updates are applied *in place* and purely locally once the update
  tuples (or a distributed update matrix) have been routed to their owners.
* :class:`StaticDistMatrix` — every rank stores a block that is not updated
  in place, built in one layout of :data:`STATIC_LAYOUTS` (CSR, DCSR or
  DHB); used for the right-hand operand of SpGEMM, for update matrices
  (DCSR, hypersparse) and by the competitor backends that rebuild static
  storage on every batch.

Both classes live on the orchestration runtime and follow its
partial-mapping contract: ``blocks`` holds the local block of every rank
*this process owns* — all of them on the simulator, a round-robin share
under a multi-process MPI world — so per-process memory scales with
``owned/p``.  All per-rank kernels are executed through
``Communicator.run_local`` so that their cost lands on the right rank, and
the global queries (``nnz``, ``to_coo_global``, ``get``) assemble their
answers through the uncharged ``host_*`` control plane, returning the same
value on every process.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix
from repro.distributed.distribution import BlockDistribution
from repro.distributed.redistribution import _route_tuples

__all__ = [
    "STATIC_LAYOUTS",
    "DistMatrixBase",
    "DynamicDistMatrix",
    "StaticDistMatrix",
    "static_layout",
]

TupleArrays = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Layouts of a :class:`StaticDistMatrix` block: name → (block class,
#: builder).  A builder takes a duplicate-free COO in any order and returns
#: the block with its entries in (row, col) order.  The lambdas look
#: ``from_coo`` up when called, so a wrapped constructor is the one used.
STATIC_LAYOUTS: dict[str, tuple[type, Callable[[COOMatrix], object]]] = {
    "csr": (CSRMatrix, lambda coo: CSRMatrix.from_coo(coo, dedup=False)),
    "dcsr": (DCSRMatrix, lambda coo: DCSRMatrix.from_coo(coo, dedup=False)),
    "dhb": (
        DHBMatrix,
        lambda coo: DHBMatrix.from_coo(coo.sort(), combine_duplicates=False),
    ),
}


def static_layout(layout: str) -> tuple[type, Callable[[COOMatrix], object]]:
    """The ``(block class, builder)`` of a static layout (ValueError if unknown)."""
    try:
        return STATIC_LAYOUTS[layout]
    except KeyError:
        raise ValueError(
            f"unknown static layout {layout!r} (use one of {tuple(STATIC_LAYOUTS)})"
        ) from None


class DistMatrixBase:
    """Shared plumbing of distributed matrices."""

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        dist: BlockDistribution,
        semiring: Semiring,
        blocks: dict[int, object],
    ) -> None:
        if grid.n_ranks > comm.p:
            raise ValueError(
                f"grid needs {grid.n_ranks} ranks but communicator has {comm.p}"
            )
        if dist.grid is not grid and dist.grid.n_ranks != grid.n_ranks:
            raise ValueError("distribution and grid disagree on the rank count")
        self.comm = comm
        self.grid = grid
        self.dist = dist
        self.semiring = semiring
        self.blocks = blocks

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.dist.shape

    def owned_ranks(self) -> list[int]:
        """Grid ranks whose block lives on this process."""
        return self.comm.owned_ranks(self.grid.all_ranks())

    def block(self, rank: int):
        """The local block stored by ``rank`` (KeyError when not owned here)."""
        return self.blocks[rank]

    def nnz(self) -> int:
        """Total structural non-zeros over all blocks (global, every process)."""
        local = sum(block.nnz for block in self.blocks.values())
        return int(self.comm.host_fold(local, lambda x, y: x + y))

    def nbytes(self) -> int:
        """Total block bytes over all processes."""
        local = sum(block.nbytes for block in self.blocks.values())
        return int(self.comm.host_fold(local, lambda x, y: x + y))

    def to_coo_global(self) -> COOMatrix:
        """The full matrix in global coordinates, sorted by ``(row, col)``.

        The snapshot read behind ``ScenarioEngine.result()``,
        ``DynamicProduct.check_consistency``, the SSSP query,
        ``contract_graph`` and the competitors' read-back.  Each owned block
        contributes its ``flat_rows()`` as global ``row·m + col`` keys (no
        per-block sort); the pieces are merged through the control plane in
        rank order and sorted once by :meth:`Semiring.sum_duplicates`, so
        every process receives the same matrix.
        """
        m = np.int64(self.shape[1])
        local: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for rank, block in self.blocks.items():
            flat = block.flat_rows()
            if flat.cols.size == 0:
                continue
            grows, gcols = self.dist.to_global(
                rank, np.repeat(flat.row_ids, np.diff(flat.row_ptr)), flat.cols
            )
            local[rank] = (grows * m + gcols, flat.vals)
        merged = self.comm.host_merge(local)
        if not merged:
            return COOMatrix.empty(self.shape, self.semiring)
        pieces = [merged[rank] for rank in sorted(merged)]
        keys, vals = self.semiring.sum_duplicates(
            np.concatenate([keys for keys, _ in pieces]),
            np.concatenate([vals for _, vals in pieces]),
        )
        rows, cols = np.divmod(keys, m)
        return COOMatrix(self.shape, rows, cols, vals, self.semiring)

    def to_dense(self) -> np.ndarray:
        return self.to_coo_global().to_dense()

    def contains_tuples(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vectorised global membership test for ``(rows[k], cols[k])`` pairs.

        Each owning rank probes its block once for all the coordinates it
        hosts (charged as local compute); the hit indices are merged through
        the control plane, so every process receives the same boolean mask.
        One collective round instead of one :meth:`get` per coordinate —
        the applications use this to screen whole edge batches.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        out = np.zeros(rows.size, dtype=bool)
        if rows.size == 0:
            return out
        owners = self.dist.owner_of(rows, cols)
        hits: dict[int, np.ndarray] = {}
        for rank in self.owned_ranks():
            sel = np.nonzero(owners == rank)[0]
            if sel.size == 0:
                continue
            lrows, lcols = self.dist.to_local(rank, rows[sel], cols[sel])
            block = self.blocks[rank]

            def _probe(block=block, lrows=lrows, lcols=lcols):
                if hasattr(block, "contains_batch"):
                    return block.contains_batch(lrows, lcols)
                coo = block.to_coo()
                keys = coo.rows * block.shape[1] + coo.cols
                return np.isin(lrows * block.shape[1] + lcols, keys)

            present = self.comm.run_local(rank, _probe)
            hits[rank] = sel[present]
        for sel in self.comm.host_merge(hits).values():
            out[sel] = True
        return out

    def get(self, i: int, j: int):
        """Global entry lookup (owning process answers, everyone receives)."""
        owner = int(self.dist.owner_of(np.array([i]), np.array([j]))[0])
        found: dict[int, object] = {}
        if self.comm.owns(owner):
            li, lj = self.dist.to_local(owner, np.array([i]), np.array([j]))
            block = self.blocks[owner]
            if isinstance(block, (CSRMatrix, DHBMatrix)):
                found[owner] = block.get(int(li[0]), int(lj[0]))
            else:
                coo = block.to_coo()
                hits = (coo.rows == li[0]) & (coo.cols == lj[0])
                if not np.any(hits):
                    found[owner] = self.semiring.zero
                else:
                    found[owner] = float(self.semiring.add_reduce(coo.values[hits]))
        return self.comm.host_merge(found)[owner]

    # ------------------------------------------------------------------
    def _route_to_blocks(
        self, tuples_per_rank: Mapping[int, TupleArrays], redistribution: str
    ) -> dict[int, TupleArrays]:
        """Route raw tuples to their owners, in block-local coordinates."""
        routed = _route_tuples(
            self.comm,
            self.grid,
            self.dist,
            tuples_per_rank,
            redistribution,
            self.semiring.dtype,
        )
        out: dict[int, TupleArrays] = {}
        for rank in self.owned_ranks():
            rows, cols, vals = routed[rank]
            lrows, lcols = self.dist.to_local(rank, rows, cols)
            out[rank] = (lrows, lcols, vals)
        return out


# ----------------------------------------------------------------------
class DynamicDistMatrix(DistMatrixBase):
    """Distributed matrix with DHB (dynamic) blocks."""

    @classmethod
    def empty(
        cls,
        comm: Communicator,
        grid: ProcessGrid,
        shape: tuple[int, int],
        semiring: Semiring = PLUS_TIMES,
    ) -> "DynamicDistMatrix":
        dist = BlockDistribution(shape[0], shape[1], grid)
        blocks = {
            rank: DHBMatrix(dist.block_shape_of_rank(rank), semiring)
            for rank in comm.owned_ranks(grid.all_ranks())
        }
        return cls(comm, grid, dist, semiring, blocks)

    @classmethod
    def from_tuples(
        cls,
        comm: Communicator,
        grid: ProcessGrid,
        shape: tuple[int, int],
        tuples_per_rank: Mapping[int, TupleArrays],
        semiring: Semiring = PLUS_TIMES,
        *,
        combine: str = "add",
        redistribution: str = "two_phase",
    ) -> "DynamicDistMatrix":
        """Construct by redistributing tuples and building DHB blocks.

        ``combine`` chooses how duplicate coordinates are handled:
        ``"add"`` (⊕-combine, the adjacency-matrix semantics used in the
        experiments) or ``"last"`` (last write wins).
        """
        mat = cls.empty(comm, grid, shape, semiring)
        mat.insert_tuples(
            tuples_per_rank, combine=combine, redistribution=redistribution
        )
        return mat

    # ------------------------------------------------------------------
    def insert_tuples(
        self,
        tuples_per_rank: Mapping[int, TupleArrays],
        *,
        combine: str = "add",
        redistribution: str = "two_phase",
        reserve: bool = True,
    ) -> int:
        """Redistribute raw update tuples and insert them into the blocks.

        Returns the *global* number of newly created structural non-zeros
        (identical on every process).  The phases are charged to the Fig. 7
        categories: redistribution sort and communication inside
        :func:`redistribute_tuples`, adjacency-array growth to *memory
        management* (``reserve=True``; otherwise rows grow inside the
        insert, exactly as far as the new entries need) and the per-entry
        inserts to *local construct*.
        """
        combine_fn = self._combine_fn(combine)
        local = self._route_to_blocks(tuples_per_rank, redistribution)
        created = 0
        for rank, (lrows, lcols, vals) in local.items():
            block: DHBMatrix = self.blocks[rank]
            if reserve:
                self.comm.run_local(
                    rank,
                    block.reserve_batch,
                    lrows,
                    category=StatCategory.MEMORY_MANAGEMENT,
                )
            created += self.comm.run_local(
                rank,
                block.insert_batch,
                lrows,
                lcols,
                vals,
                combine_fn,
                category=StatCategory.LOCAL_CONSTRUCT,
            )
        return int(self.comm.host_fold(created, lambda x, y: x + y))

    def delete_tuples(
        self,
        tuples_per_rank: Mapping[int, TupleArrays],
        *,
        redistribution: str = "two_phase",
    ) -> int:
        """Redistribute raw coordinates and delete them from the blocks (MASK).

        The values are ignored markers; coordinates that are absent or
        repeated delete nothing extra.  Returns the *global* number of
        deleted non-zeros (identical on every process); the per-block
        deletes are charged to *local addition*, like :meth:`mask_update`.
        """
        local = self._route_to_blocks(tuples_per_rank, redistribution)
        deleted = 0
        for rank, (lrows, lcols, _) in local.items():
            deleted += self.comm.run_local(
                rank,
                self.blocks[rank].delete_batch,
                lrows,
                lcols,
                category=StatCategory.LOCAL_ADDITION,
            )
        return int(self.comm.host_fold(deleted, lambda x, y: x + y))

    def add_update(self, update: "StaticDistMatrix") -> int:
        """``A ← A ⊕ A*`` block-by-block; purely local (no communication).

        Returns the global count of created non-zeros on every process.
        """
        self._check_update(update)
        created = 0
        for rank, block in self.blocks.items():
            created += self.comm.run_local(
                rank,
                block.add_update,
                update.blocks[rank],
                category=StatCategory.LOCAL_ADDITION,
            )
        return int(self.comm.host_fold(created, lambda x, y: x + y))

    def merge_update(self, update: "StaticDistMatrix") -> int:
        """MERGE: overwrite entries present in the update matrix (local)."""
        self._check_update(update)
        changed = 0
        for rank, block in self.blocks.items():
            changed += self.comm.run_local(
                rank,
                block.merge_update,
                update.blocks[rank],
                category=StatCategory.LOCAL_ADDITION,
            )
        return int(self.comm.host_fold(changed, lambda x, y: x + y))

    def mask_update(self, update: "StaticDistMatrix") -> int:
        """MASK: delete entries that are non-zero in the update matrix."""
        self._check_update(update)
        deleted = 0
        for rank, block in self.blocks.items():
            deleted += self.comm.run_local(
                rank,
                block.mask_update,
                update.blocks[rank],
                category=StatCategory.LOCAL_ADDITION,
            )
        return int(self.comm.host_fold(deleted, lambda x, y: x + y))

    # ------------------------------------------------------------------
    def to_static(self, layout: str = "csr") -> "StaticDistMatrix":
        """Freeze the dynamic blocks into a static distributed matrix."""
        return StaticDistMatrix.from_dynamic(self, layout=layout)

    def copy(self) -> "DynamicDistMatrix":
        blocks = {rank: block.copy() for rank, block in self.blocks.items()}
        return DynamicDistMatrix(self.comm, self.grid, self.dist, self.semiring, blocks)

    # ------------------------------------------------------------------
    def _combine_fn(self, combine: str) -> Callable | None:
        if combine == "add":
            return self.semiring.plus
        if combine == "last":
            return None
        raise ValueError(f"unknown combine mode {combine!r} (use 'add' or 'last')")

    def _check_update(self, update: "StaticDistMatrix") -> None:
        if update.shape != self.shape:
            raise ValueError(
                f"update shape {update.shape} does not match matrix shape {self.shape}"
            )
        if update.semiring.name != self.semiring.name:
            raise ValueError("update semiring does not match matrix semiring")
        if update.grid.n_ranks != self.grid.n_ranks:
            raise ValueError("update lives on a different process grid")


# ----------------------------------------------------------------------
class StaticDistMatrix(DistMatrixBase):
    """Distributed matrix whose blocks are built once, in one static layout."""

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        dist: BlockDistribution,
        semiring: Semiring,
        blocks: dict[int, object],
        layout: str = "csr",
    ) -> None:
        static_layout(layout)
        super().__init__(comm, grid, dist, semiring, blocks)
        self.layout = layout

    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls,
        comm: Communicator,
        grid: ProcessGrid,
        shape: tuple[int, int],
        semiring: Semiring = PLUS_TIMES,
        *,
        layout: str = "csr",
    ) -> "StaticDistMatrix":
        dist = BlockDistribution(shape[0], shape[1], grid)
        block_cls, _ = static_layout(layout)
        blocks = {
            rank: block_cls.empty(dist.block_shape_of_rank(rank), semiring)
            for rank in comm.owned_ranks(grid.all_ranks())
        }
        return cls(comm, grid, dist, semiring, blocks, layout=layout)

    @classmethod
    def from_tuples(
        cls,
        comm: Communicator,
        grid: ProcessGrid,
        shape: tuple[int, int],
        tuples_per_rank: Mapping[int, TupleArrays],
        semiring: Semiring = PLUS_TIMES,
        *,
        layout: str = "csr",
        combine: str = "add",
        redistribution: str = "two_phase",
    ) -> "StaticDistMatrix":
        """Construct a static distributed matrix from raw tuples."""
        out = cls.empty(comm, grid, shape, semiring, layout=layout)
        out._assemble(tuples_per_rank, combine, redistribution)
        return out

    def _assemble(
        self,
        tuples_per_rank: Mapping[int, TupleArrays],
        combine: str,
        redistribution: str,
    ) -> None:
        """Route raw tuples to their owners and build every owned block.

        Duplicates are ⊕-combined (``combine="add"``) or resolved last write
        wins; the blocks follow ``self.dist`` and ``self.layout``.
        """
        semiring = self.semiring
        _, build = static_layout(self.layout)
        local = self._route_to_blocks(tuples_per_rank, redistribution)
        for rank, (lrows, lcols, vals) in local.items():
            block_shape = self.dist.block_shape_of_rank(rank)

            def _build(
                lrows=lrows, lcols=lcols, vals=vals, block_shape=block_shape
            ):
                coo = COOMatrix(
                    shape=block_shape,
                    rows=lrows,
                    cols=lcols,
                    values=vals,
                    semiring=semiring,
                )
                return build(
                    coo.sum_duplicates() if combine == "add" else coo.last_write_wins()
                )

            self.blocks[rank] = self.comm.run_local(
                rank, _build, category=StatCategory.LOCAL_CONSTRUCT
            )

    @classmethod
    def from_dynamic(
        cls, dynamic: DynamicDistMatrix, *, layout: str = "csr"
    ) -> "StaticDistMatrix":
        _, build = static_layout(layout)
        blocks = {rank: build(block.to_coo()) for rank, block in dynamic.blocks.items()}
        return cls(
            dynamic.comm,
            dynamic.grid,
            dynamic.dist,
            dynamic.semiring,
            blocks,
            layout=layout,
        )

    # ------------------------------------------------------------------
    def to_dynamic(self) -> DynamicDistMatrix:
        _, build = static_layout("dhb")
        blocks = {rank: build(block.to_coo()) for rank, block in self.blocks.items()}
        return DynamicDistMatrix(self.comm, self.grid, self.dist, self.semiring, blocks)

    def copy(self) -> "StaticDistMatrix":
        blocks = {rank: block.copy() for rank, block in self.blocks.items()}
        return StaticDistMatrix(
            self.comm, self.grid, self.dist, self.semiring, blocks, layout=self.layout
        )
