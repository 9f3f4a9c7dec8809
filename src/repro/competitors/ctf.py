"""CTF-style backend: cyclic layout, global re-shuffle per write epoch.

Cyclops Tensor Framework treats a sparse write as a *tensor redistribution*:
the new values are combined with the existing tensor and the whole tensor
is re-mapped (re-sorted and re-shuffled across all ranks) to restore its
cyclic layout.  That makes every batch cost ``O(nnz(A))`` communication and
computation — not ``O(batch)`` — which is why the paper measures CTF to be
at least 55× (insertions) to 100× (deletions) slower than the dynamic data
structure.

The simulation mirrors that behaviour literally: each batch triggers a
global ``ALLTOALL`` of *all* non-zeros (old and new) followed by a full
comparison sort and rebuild on every rank.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse import COOMatrix
from repro.distributed import BlockDistribution
from repro.competitors.base import Backend, TupleArrays

__all__ = ["CTFBackend"]


class CTFBackend(Backend):
    """Cyclically distributed static tensor rebuilt globally per batch."""

    name = "CTF 1.35"
    supports_deletions = True
    supports_semirings = True

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        shape: tuple[int, int],
        semiring: Semiring = PLUS_TIMES,
    ) -> None:
        super().__init__(comm, grid, shape, semiring)
        self.dist = BlockDistribution(shape[0], shape[1], grid)
        # Per-rank shard of the cyclic layout, stored as raw triplets in
        # *global* coordinates (CTF keeps index-value pairs per processor).
        self.shards: dict[int, COOMatrix] = {
            rank: COOMatrix.empty(shape, semiring)
            for rank in comm.owned_ranks(grid.all_ranks())
        }

    # ------------------------------------------------------------------
    def _cyclic_owner(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Cyclic ownership: ``(i + j) mod p`` — CTF's element-cyclic map."""
        return ((rows + cols) % self.grid.n_ranks).astype(np.int64)

    def _global_remap(
        self,
        tuples_per_rank: Mapping[int, TupleArrays],
        *,
        combine: str,
    ) -> None:
        """Combine new tuples with the existing tensor and re-shuffle it all."""
        p = self.grid.n_ranks
        # Every rank contributes its *entire* shard plus its share of the
        # new tuples; everything is exchanged and re-sorted.
        sendbufs: dict[int, dict[int, TupleArrays]] = {}
        for rank in list(self.shards):
            shard = self.shards[rank]
            new = tuples_per_rank.get(rank, ((), (), ()))
            rows = np.concatenate([shard.rows, np.asarray(new[0], dtype=np.int64)])
            cols = np.concatenate([shard.cols, np.asarray(new[1], dtype=np.int64)])
            vals = np.concatenate([shard.values, self.semiring.coerce(new[2])])
            # mark which entries are "new" so MERGE/MASK semantics survive
            # the shuffle: new entries are appended after old ones and a
            # stable sort keeps that order per coordinate.
            flags = np.concatenate(
                [np.zeros(shard.nnz, dtype=np.int64), np.ones(len(new[0]), dtype=np.int64)]
            )

            def _sort_and_split(rows=rows, cols=cols, vals=vals, flags=flags):
                owner = self._cyclic_owner(rows, cols)
                order = np.lexsort((cols, rows, owner))
                return rows[order], cols[order], vals[order], flags[order], owner[order]

            rows_s, cols_s, vals_s, flags_s, owner_s = self.comm.run_local(
                rank, _sort_and_split, category=StatCategory.REDIST_SORT
            )
            outgoing: dict[int, TupleArrays] = {}
            flag_payload: dict[int, np.ndarray] = {}
            for dest in range(p):
                sel = owner_s == dest
                if np.any(sel):
                    outgoing[dest] = (rows_s[sel], cols_s[sel], vals_s[sel])
                    flag_payload[dest] = flags_s[sel]
            # piggyback the flags with the values (counts towards volume)
            sendbufs[rank] = {
                dest: (r, c, np.stack([v, flag_payload[dest].astype(v.dtype)]))
                for dest, (r, c, v) in outgoing.items()
            }
        recv = self.comm.alltoallv(
            sendbufs, group=self.grid.all_ranks(), category=StatCategory.REDIST_COMM
        )
        for rank in list(self.shards):
            pieces = [payload for _src, payload in sorted(recv.get(rank, {}).items())]

            def _rebuild(pieces=pieces):
                if not pieces:
                    return COOMatrix.empty(self.shape, self.semiring)
                rows = np.concatenate([piece[0] for piece in pieces])
                cols = np.concatenate([piece[1] for piece in pieces])
                vals = np.concatenate([piece[2][0] for piece in pieces])
                flags = np.concatenate([piece[2][1] for piece in pieces]).astype(bool)
                shuffled = COOMatrix._unchecked(
                    self.shape, rows, cols, vals, self.semiring
                )
                coo_old, coo_new = shuffled._take(~flags), shuffled._take(flags)
                if combine == "add":
                    return coo_old.concatenate(coo_new).sum_duplicates()
                if combine == "merge":
                    from repro.sparse.elementwise import merge_pattern

                    return merge_pattern(coo_old, coo_new)
                if combine == "mask":
                    from repro.sparse.elementwise import mask_pattern

                    return mask_pattern(coo_old, coo_new)
                raise ValueError(combine)

            self.shards[rank] = self.comm.run_local(
                rank, _rebuild, category=StatCategory.LOCAL_CONSTRUCT
            )

    # ------------------------------------------------------------------
    def construct(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self.shards = {
            rank: COOMatrix.empty(self.shape, self.semiring)
            for rank in self.comm.owned_ranks(self.grid.all_ranks())
        }
        self._global_remap(tuples_per_rank, combine="add")

    def insert_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._global_remap(tuples_per_rank, combine="add")

    def update_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._global_remap(tuples_per_rank, combine="merge")

    def delete_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        self._global_remap(tuples_per_rank, combine="mask")

    # ------------------------------------------------------------------
    def local_nnz(self) -> int:
        return sum(shard.nnz for shard in self.shards.values())

    def to_coo_global(self) -> COOMatrix:
        merged = self.comm.host_merge(self.shards)
        out = COOMatrix.empty(self.shape, self.semiring)
        for rank in sorted(merged):
            out = out.concatenate(merged[rank])
        return out.sum_duplicates()
