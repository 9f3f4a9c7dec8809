"""Pluggable logical-rank→process placement strategies.

The multi-process backends host ``n_ranks`` *logical* ranks on
``world_size`` real processes.  Which process hosts which rank is a purely
*physical* decision — results are byte-identical under any placement,
because all payload routing goes through ``owner_of`` and the logical
communication accounting is placement-invariant by construction (the
differential suite sweeps partitioners the way it sweeps layouts and world
sizes).  What placement does change is *performance*: per-process memory,
local compute, and how much of the logical traffic crosses a process
boundary.

A :class:`Partitioner` owns the ``logical rank -> process`` map.  The
:data:`PARTITIONERS` table holds three strategies, each with a claim on
the ``partition`` figure (``round_robin`` is the baseline of both):

``round_robin``
    ``r % n_processes`` — the historical default and the oracle the
    differential suite compares everything against.

``nnz_aware``
    Greedy longest-processing-time bin-packing on per-rank nnz weights
    (from the initial matrix or a scenario prefix): ranks are sorted by
    descending weight and each is assigned to the least-loaded process.
    With uniform weights this degenerates to ``round_robin`` exactly.

``locality_aware``
    Grid-binned (in the spirit of GriT-DBSCAN's grid partitioning):
    the ``q×q`` :class:`~repro.runtime.grid.ProcessGrid` is cut into
    ``pr × pc`` contiguous bands of rows and columns, one band per
    process, so grid row/column neighbours — the SUMMA broadcast and
    two-phase redistribution peers — land on the same process and their
    traffic never crosses a process boundary.

A multi-process backend starts round-robin; the scenario engine installs
the strategy named by ``replay(partitioner=...)`` once, before any
per-rank state exists — see ``docs/backends.md``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Mapping, Sequence

__all__ = [
    "PARTITIONERS",
    "Partitioner",
    "RoundRobinPartitioner",
    "NnzAwarePartitioner",
    "LocalityAwarePartitioner",
    "available_partitioners",
    "make_partitioner",
    "verify_placement",
]


def _active_processes(n_ranks: int, n_processes: int) -> int:
    """Size of the placement domain: surplus processes stay idle.

    An oversubscribed world (``mpiexec -n 6`` over four logical ranks)
    must idle its surplus processes — exactly what the historical
    ``r % world_size`` placement did — so every strategy places ranks
    onto the first ``min(n_processes, n_ranks)`` processes only.
    """
    if n_ranks < 1:
        raise ValueError("placement needs at least one logical rank")
    if n_processes < 1:
        raise ValueError("placement needs at least one process")
    return min(n_processes, n_ranks)


def verify_placement(
    placement: Mapping[int, int], n_ranks: int, n_processes: int
) -> None:
    """Validate a ``logical rank -> process`` map (nengo_mpi style).

    Every logical rank must be mapped exactly once, and every owner must
    lie inside the active-process domain — in particular, no rank may be
    placed on a surplus (idle) process of an oversubscribed world.
    """
    active = _active_processes(n_ranks, n_processes)
    if sorted(placement) != list(range(n_ranks)):
        raise ValueError(
            f"placement must map every logical rank 0..{n_ranks - 1} "
            f"exactly once, got keys {sorted(placement)}"
        )
    bad = {r: p for r, p in placement.items() if not 0 <= p < active}
    if bad:
        raise ValueError(
            f"placement targets outside the active process domain "
            f"[0, {active}): {bad}"
        )


class Partitioner:
    """Base class: a strategy producing the logical-rank→process map."""

    #: key in :data:`PARTITIONERS` (subclasses override)
    name = "abstract"
    #: whether :meth:`placement` makes use of per-rank nnz weights
    uses_weights = False

    def placement(
        self,
        n_ranks: int,
        n_processes: int,
        *,
        grid=None,
        weights: Mapping[int, float] | Sequence[float] | None = None,
    ) -> dict[int, int]:
        """Return the ``logical rank -> process`` map.

        ``grid`` is the :class:`~repro.runtime.grid.ProcessGrid` the ranks
        form (locality-aware strategies bin by grid coordinates); ``weights``
        are per-rank nnz estimates (load-aware strategies bin-pack on them).
        Both are optional — every strategy must produce a valid placement
        without them.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class RoundRobinPartitioner(Partitioner):
    """``r % n_processes`` — the historical default placement."""

    name = "round_robin"

    def placement(self, n_ranks, n_processes, *, grid=None, weights=None):
        """Deal ranks cyclically over the active processes."""
        active = _active_processes(n_ranks, n_processes)
        return {r: r % active for r in range(n_ranks)}


class NnzAwarePartitioner(Partitioner):
    """Greedy LPT bin-packing on per-rank nnz weights."""

    name = "nnz_aware"
    uses_weights = True

    def placement(self, n_ranks, n_processes, *, grid=None, weights=None):
        """Assign heaviest-first, each rank to the least-loaded process.

        Ties (equal loads, equal weights) resolve to the lowest index, so
        uniform weights reproduce ``round_robin`` exactly and the result is
        deterministic.  Missing or degenerate (all non-positive) weights
        fall back to uniform.
        """
        active = _active_processes(n_ranks, n_processes)
        if weights is None:
            resolved = [1.0] * n_ranks
        elif isinstance(weights, Mapping):
            resolved = [float(weights.get(r, 0.0)) for r in range(n_ranks)]
        else:
            if len(weights) != n_ranks:
                raise ValueError(
                    f"weights must cover all {n_ranks} ranks, got {len(weights)}"
                )
            resolved = [float(w) for w in weights]
        if all(w <= 0.0 for w in resolved):
            resolved = [1.0] * n_ranks
        order = sorted(range(n_ranks), key=lambda r: (-resolved[r], r))
        loads = [0.0] * active
        out: dict[int, int] = {}
        for rank in order:
            proc = min(range(active), key=lambda q: (loads[q], q))
            out[rank] = proc
            loads[proc] += resolved[rank]
        return out


def _even_cuts(n: int, parts: int) -> list[int]:
    """Offsets of an as-even-as-possible split of ``n`` items into ``parts``."""
    base, rem = divmod(n, parts)
    offsets = [0]
    for index in range(parts):
        offsets.append(offsets[-1] + base + (1 if index < rem else 0))
    return offsets


class LocalityAwarePartitioner(Partitioner):
    """Grid-binned placement: contiguous row/column bands per process."""

    name = "locality_aware"

    def placement(self, n_ranks, n_processes, *, grid=None, weights=None):
        """Cut the ``q×q`` grid into ``pr × pc`` bands, one per process.

        ``n_processes`` is factored as ``pr × pc`` with ``pr <= q`` and
        ``pc <= q``, preferring the factorisation closest to square and
        breaking ties towards ``pr <= pc`` (fewer row bands keep grid
        *columns* — the phase-1 redistribution groups — intra-process).
        When no factorisation fits, the grid ranks fall back to contiguous
        row-major chunks.  Surplus logical ranks beyond the ``q²`` grid
        (``ProcessGrid.fit`` idles them) are dealt round-robin.
        """
        active = _active_processes(n_ranks, n_processes)
        if grid is None:
            from repro.runtime.grid import ProcessGrid
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                grid = ProcessGrid.fit(n_ranks)
        q = grid.q
        out: dict[int, int] = {}
        factors = self._factor(active, q)
        if factors is None:
            # no pr×pc fits the grid: contiguous row-major chunks
            cuts = _even_cuts(q * q, active)
            for rank in range(min(n_ranks, q * q)):
                out[rank] = bisect_right(cuts, rank) - 1
        else:
            pr, pc = factors
            row_cuts = _even_cuts(q, pr)
            col_cuts = _even_cuts(q, pc)
            for rank in range(min(n_ranks, q * q)):
                row, col = divmod(rank, q)
                band_row = bisect_right(row_cuts, row) - 1
                band_col = bisect_right(col_cuts, col) - 1
                out[rank] = band_row * pc + band_col
        for rank in range(q * q, n_ranks):
            out[rank] = rank % active
        return out

    @staticmethod
    def _factor(active: int, q: int) -> tuple[int, int] | None:
        """The ``pr × pc = active`` factorisation fitting a ``q×q`` grid."""
        best: tuple[tuple[int, int], tuple[int, int]] | None = None
        for pr in range(1, min(q, active) + 1):
            if active % pr:
                continue
            pc = active // pr
            if pc > q:
                continue
            key = (abs(pr - pc), 0 if pr <= pc else 1)
            if best is None or key < best[0]:
                best = (key, (pr, pc))
        return best[1] if best else None


# ----------------------------------------------------------------------
# the strategy table
# ----------------------------------------------------------------------
#: strategy name -> class
PARTITIONERS: dict[str, type[Partitioner]] = {
    "round_robin": RoundRobinPartitioner,
    "nnz_aware": NnzAwarePartitioner,
    "locality_aware": LocalityAwarePartitioner,
}


def available_partitioners() -> tuple[str, ...]:
    """Strategy names, sorted."""
    return tuple(sorted(PARTITIONERS))


def make_partitioner(name: str | Partitioner) -> Partitioner:
    """Instantiate a strategy by name (an instance passes through).

    Unknown names raise ``ValueError`` listing the strategies.
    """
    if isinstance(name, Partitioner):
        return name
    if name not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {name!r} "
            f"(available: {', '.join(available_partitioners())})"
        )
    return PARTITIONERS[name]()
