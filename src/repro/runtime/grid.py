"""Square process grid (2D matrix distribution).

CombBLAS, CTF and the paper's framework all require a square ``√p × √p``
process grid so that a 2D block distribution of the matrix maps one block
per MPI rank.  :class:`ProcessGrid` provides the rank ↔ (row, column)
mapping and the row/column sub-groups used by the broadcast, aggregation
and redistribution steps of the algorithms.

Grid coordinates are 0-based here (the paper uses 1-based indices in its
pseudocode); ``rank = row * √p + col`` (row-major).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

__all__ = ["ProcessGrid"]


@dataclass(frozen=True)
class ProcessGrid:
    """A square ``q × q`` grid of ``p = q²`` simulated MPI ranks."""

    n_ranks: int

    @classmethod
    def fit(cls, n_ranks: int) -> "ProcessGrid":
        """The largest square grid fitting into ``n_ranks`` ranks.

        ``ProcessGrid(p)`` is strict: a non-square ``p`` raises.  ``fit``
        instead degrades gracefully — ``fit(6)`` builds the 2×2 grid, the
        two surplus ranks stay idle (they own no block and participate in
        no grid collective), and a warning records the waste.  This is what
        keeps ``mpiexec -n 6`` runs working instead of aborting deep inside
        grid construction.
        """
        if n_ranks < 1:
            raise ValueError("process grid needs at least one rank")
        q = math.isqrt(n_ranks)
        if q * q != n_ranks:
            warnings.warn(
                f"{n_ranks} ranks do not form a square grid; using the "
                f"largest {q}x{q} subgrid and idling {n_ranks - q * q} "
                "surplus ranks",
                RuntimeWarning,
                stacklevel=2,
            )
        return cls(q * q)

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise ValueError("process grid needs at least one rank")
        q = math.isqrt(self.n_ranks)
        if q * q != self.n_ranks:
            raise ValueError(
                f"process count {self.n_ranks} is not a perfect square; "
                "the 2D distribution requires a square process grid"
            )

    # ------------------------------------------------------------------
    @property
    def q(self) -> int:
        """Grid side length ``√p``."""
        return math.isqrt(self.n_ranks)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.q, self.q)

    # ------------------------------------------------------------------
    def rank_of(self, row: int, col: int) -> int:
        """Rank of the process at grid position ``(row, col)``."""
        q = self.q
        if not (0 <= row < q and 0 <= col < q):
            raise IndexError(f"grid position ({row}, {col}) outside {q}x{q} grid")
        return row * q + col

    def coords_of(self, rank: int) -> tuple[int, int]:
        """Grid position ``(row, col)`` of ``rank``."""
        if not (0 <= rank < self.n_ranks):
            raise IndexError(f"rank {rank} outside communicator of size {self.n_ranks}")
        return divmod(rank, self.q)

    def row_of(self, rank: int) -> int:
        return self.coords_of(rank)[0]

    def col_of(self, rank: int) -> int:
        return self.coords_of(rank)[1]

    def transpose_rank(self, rank: int) -> int:
        """Rank at the transposed grid position (used by Algorithm 1/2)."""
        row, col = self.coords_of(rank)
        return self.rank_of(col, row)

    # ------------------------------------------------------------------
    def row_group(self, row: int) -> list[int]:
        """Ranks forming grid row ``row`` (the row communicator)."""
        q = self.q
        if not (0 <= row < q):
            raise IndexError(f"row {row} outside {q}x{q} grid")
        return [self.rank_of(row, c) for c in range(q)]

    def col_group(self, col: int) -> list[int]:
        """Ranks forming grid column ``col`` (the column communicator)."""
        q = self.q
        if not (0 <= col < q):
            raise IndexError(f"col {col} outside {q}x{q} grid")
        return [self.rank_of(r, col) for r in range(q)]

    def all_ranks(self) -> list[int]:
        return list(range(self.n_ranks))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ProcessGrid({self.q}x{self.q}, p={self.n_ranks})"
