"""PETSc-style backend: 1D row distribution, per-element assembly.

PETSc's ``MatMPIAIJ`` distributes whole block-rows to ranks (the paper runs
PETSc with one rank per node), stores CSR locally and mutates matrices via
``MatSetValues`` + ``MatAssemblyBegin/End``:

* each value is inserted individually (stash / hash per rank, a per-element
  cost rather than a vectorised batch cost),
* values destined for remote rows are accumulated in a *stash* and shipped
  during assembly,
* assembly then rebuilds the compressed rows that received new entries —
  and inserting into rows without preallocated space forces reallocation of
  the whole local matrix, which is the behaviour that dominates PETSc's
  insertion times in the paper (≥ 460× slower than the dynamic structure).

Deletions are not supported (``supports_deletions = False``), matching the
paper's note, and only the ``(+, ·)`` semiring is available.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse import COOMatrix, CSRMatrix
from repro.competitors.base import Backend, TupleArrays, UnsupportedOperation

__all__ = ["PETScBackend"]


class PETScBackend(Backend):
    """1D row-distributed CSR matrix with MatSetValues-style updates."""

    name = "PETSc 3.17.1"
    supports_deletions = False
    supports_semirings = False

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        shape: tuple[int, int],
        semiring: Semiring = PLUS_TIMES,
        *,
        n_ranks: int | None = None,
    ) -> None:
        if semiring.name != "plus_times":
            raise UnsupportedOperation(
                "PETSc supports only the (+, *) semiring"
            )
        super().__init__(comm, grid, shape, semiring)
        # The paper runs PETSc with one MPI rank per node (24 threads); by
        # default use p / ranks_per_node ranks of the shared communicator.
        if n_ranks is None:
            n_ranks = max(1, grid.n_ranks // comm.machine.ranks_per_node)
        self.n_ranks = int(n_ranks)
        self.row_offsets = self._row_offsets(shape[0], self.n_ranks)
        self.local_csr: dict[int, CSRMatrix] = {
            rank: CSRMatrix.empty(self._local_shape(rank), semiring)
            for rank in comm.owned_ranks(list(range(self.n_ranks)))
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _row_offsets(n_rows: int, parts: int) -> np.ndarray:
        base = n_rows // parts
        rem = n_rows % parts
        sizes = np.full(parts, base, dtype=np.int64)
        sizes[:rem] += 1
        offsets = np.zeros(parts + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        return offsets

    def _local_shape(self, rank: int) -> tuple[int, int]:
        return (
            int(self.row_offsets[rank + 1] - self.row_offsets[rank]),
            self.shape[1],
        )

    def _owner_of_rows(self, rows: np.ndarray) -> np.ndarray:
        return (np.searchsorted(self.row_offsets, rows, side="right") - 1).astype(np.int64)

    # ------------------------------------------------------------------
    def _set_values(
        self, tuples_per_rank: Mapping[int, TupleArrays], *, mode: str
    ) -> None:
        """MatSetValues + MatAssembly: stash remote values, then rebuild rows."""
        # Map the caller's per-rank batches (defined over the full grid) to
        # the PETSc ranks that generated them.
        petsc_ranks = self.comm.owned_ranks(list(range(self.n_ranks)))
        stash_inputs: dict[int, list[TupleArrays]] = {r: [] for r in petsc_ranks}
        for src_rank, data in tuples_per_rank.items():
            petsc_rank = int(src_rank) % self.n_ranks
            if petsc_rank in stash_inputs:
                stash_inputs[petsc_rank].append(data)

        # Per-rank MatSetValues loop: values for local rows are stored, the
        # rest goes into the communication stash (per destination rank).
        sendbufs: dict[int, dict[int, TupleArrays]] = {}
        local_pending: dict[int, list[tuple[int, int, float]]] = {
            r: [] for r in petsc_ranks
        }
        for rank in petsc_ranks:
            pieces = stash_inputs[rank]

            def _mat_set_values(pieces=pieces, rank=rank):
                stash: dict[int, list[tuple[int, int, float]]] = {}
                local: list[tuple[int, int, float]] = []
                for rows, cols, vals in pieces:
                    owners = self._owner_of_rows(np.asarray(rows, dtype=np.int64))
                    # per-element insertion, as MatSetValues does
                    for i, j, v, owner in zip(rows, cols, vals, owners):
                        entry = (int(i), int(j), float(v))
                        if owner == rank:
                            local.append(entry)
                        else:
                            stash.setdefault(int(owner), []).append(entry)
                return local, stash

            local, stash = self.comm.run_local(
                rank, _mat_set_values, category=StatCategory.LOCAL_CONSTRUCT
            )
            local_pending[rank].extend(local)
            sendbufs[rank] = {
                dest: (
                    np.array([e[0] for e in entries], dtype=np.int64),
                    np.array([e[1] for e in entries], dtype=np.int64),
                    np.array([e[2] for e in entries], dtype=np.float64),
                )
                for dest, entries in stash.items()
            }

        # Assembly: ship the stashes, then rebuild each local CSR.
        recv = self.comm.alltoallv(
            sendbufs,
            group=list(range(self.n_ranks)),
            category=StatCategory.REDIST_COMM,
        )
        for rank in petsc_ranks:
            incoming = [payload for _src, payload in sorted(recv.get(rank, {}).items())]
            pending = local_pending[rank]
            old = self.local_csr[rank]
            row_base = int(self.row_offsets[rank])

            def _assemble(incoming=incoming, pending=pending, old=old, row_base=row_base):
                rows = [np.array([e[0] for e in pending], dtype=np.int64)]
                cols = [np.array([e[1] for e in pending], dtype=np.int64)]
                vals = [np.array([e[2] for e in pending], dtype=np.float64)]
                for r, c, v in incoming:
                    rows.append(np.asarray(r, dtype=np.int64))
                    cols.append(np.asarray(c, dtype=np.int64))
                    vals.append(np.asarray(v, dtype=np.float64))
                new_rows = np.concatenate(rows) - row_base
                new_cols = np.concatenate(cols)
                new_vals = np.concatenate(vals)
                update = COOMatrix._unchecked(
                    old.shape,
                    new_rows,
                    new_cols,
                    self.semiring.coerce(new_vals),
                    self.semiring,
                )
                base = old.to_coo()
                if mode == "add":
                    merged = base.concatenate(update).sum_duplicates()
                else:  # overwrite (INSERT_VALUES)
                    from repro.sparse.elementwise import merge_pattern

                    merged = merge_pattern(base, update)
                # The assembly compresses the *whole* local matrix again.
                return CSRMatrix.from_coo(merged)

            self.local_csr[rank] = self.comm.run_local(
                rank, _assemble, category=StatCategory.LOCAL_CONSTRUCT
            )

    # ------------------------------------------------------------------
    def construct(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self.local_csr = {
            rank: CSRMatrix.empty(self._local_shape(rank), self.semiring)
            for rank in self.comm.owned_ranks(list(range(self.n_ranks)))
        }
        self._set_values(tuples_per_rank, mode="add")

    def insert_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._set_values(tuples_per_rank, mode="add")

    def update_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._set_values(tuples_per_rank, mode="overwrite")

    def delete_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        raise UnsupportedOperation(
            "PETSc does not support efficiently masking out non-zeros"
        )

    # ------------------------------------------------------------------
    def local_nnz(self) -> int:
        return sum(csr.nnz for csr in self.local_csr.values())

    def to_coo_global(self) -> COOMatrix:
        return self.rows_to_global(
            {rank: csr.to_coo() for rank, csr in self.local_csr.items()}
        )

    def row_slices(self, matrix: COOMatrix) -> dict[int, CSRMatrix]:
        """A global matrix as per-rank block-row CSR slices (local row indices)."""
        owners = self._owner_of_rows(matrix.rows)
        out: dict[int, CSRMatrix] = {}
        for rank in range(self.n_ranks):
            sel = owners == rank
            coo = COOMatrix._unchecked(
                self._local_shape(rank),
                matrix.rows[sel] - self.row_offsets[rank],
                matrix.cols[sel],
                matrix.values[sel],
                self.semiring,
            )
            out[rank] = CSRMatrix.from_coo(coo)
        return out

    def rows_to_global(self, local_rows: Mapping[int, COOMatrix]) -> COOMatrix:
        """Assemble owned block-row pieces (local row indices) on every process."""
        merged = self.comm.host_merge(dict(local_rows))
        if not merged:
            return COOMatrix.empty(self.shape, self.semiring)
        ranks = sorted(merged)
        return COOMatrix._unchecked(
            self.shape,
            np.concatenate(
                [merged[rank].rows + int(self.row_offsets[rank]) for rank in ranks]
            ),
            np.concatenate([merged[rank].cols for rank in ranks]),
            np.concatenate([merged[rank].values for rank in ranks]),
            self.semiring,
        ).sum_duplicates()
