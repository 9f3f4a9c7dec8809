"""Common interface of all (simulated) backends.

A backend owns one distributed adjacency matrix and exposes the operations
measured by the paper's data-structure experiments (Figs. 2–8):
construction from scattered tuples, batched insertions, batched value
updates and batched deletions.  The benchmark drivers time these calls with
the communicator's clock, so every backend must perform its work through the
shared :class:`~repro.runtime.backend.Communicator`.
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.semirings import PLUS_TIMES, Semiring
from repro.sparse import COOMatrix

__all__ = ["Backend", "UnsupportedOperation", "get_backend"]

TupleArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


class UnsupportedOperation(RuntimeError):
    """Raised when a backend does not support an operation.

    Mirrors the paper's treatment of missing features (e.g. "PETSc does not
    support an efficient way to mask non-zeros in matrices; thus, we do not
    compare against PETSc for deletions").
    """


class Backend(abc.ABC):
    """Abstract distributed-adjacency-matrix backend."""

    #: human-readable name as used in the paper's plots
    name: str = "abstract"
    #: whether the backend supports deletions (Fig. 5b)
    supports_deletions: bool = True
    #: whether the backend supports arbitrary semirings (Fig. 10)
    supports_semirings: bool = True

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        shape: tuple[int, int],
        semiring: Semiring = PLUS_TIMES,
    ) -> None:
        self.comm = comm
        self.grid = grid
        self.shape = shape
        self.semiring = semiring

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def construct(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        """Build the adjacency matrix from per-rank tuple arrays."""

    @abc.abstractmethod
    def insert_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        """Insert a batch of new non-zeros (⊕-combining collisions)."""

    @abc.abstractmethod
    def update_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        """Overwrite the values of existing non-zeros (MERGE semantics)."""

    @abc.abstractmethod
    def delete_batch(self, tuples_per_rank: Mapping[int, TupleArrays]) -> None:
        """Delete the given non-zeros (MASK semantics)."""

    def apply_batch(
        self, kind: str, tuples_per_rank: Mapping[int, TupleArrays]
    ) -> None:
        """Apply one batch by its kind: ``insert``, ``update`` or ``delete``."""
        apply = {
            "insert": self.insert_batch,
            "update": self.update_batch,
            "delete": self.delete_batch,
        }[kind]
        apply(tuples_per_rank)

    @abc.abstractmethod
    def local_nnz(self) -> int:
        """Structural non-zeros of the locally owned state only.

        Collective-free, so it is safe in contexts that may run on a single
        process of a larger world (``__repr__``, logging, error paths) —
        the global :meth:`nnz` would block in the control plane there while
        the peers are elsewhere.
        """

    def nnz(self) -> int:
        """Current *global* number of structural non-zeros.

        A world-wide query: folds the owned counts through the control
        plane, so every process must call it at the same point of the
        program.
        """
        return int(self.comm.host_fold(self.local_nnz(), lambda x, y: x + y))

    @abc.abstractmethod
    def to_coo_global(self) -> COOMatrix:
        """Assembled global matrix (verification only; world-wide query)."""

    def describe(self) -> dict[str, object]:
        """Metadata used by the benchmark reports (collective-free)."""
        return {
            "name": self.name,
            "supports_deletions": self.supports_deletions,
            "supports_semirings": self.supports_semirings,
            "shape": self.shape,
            "nnz": self.local_nnz(),
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(shape={self.shape}, local_nnz={self.local_nnz()})"


def _registry() -> dict[str, type[Backend]]:
    from repro.competitors.combblas import CombBLASBackend
    from repro.competitors.ctf import CTFBackend
    from repro.competitors.petsc import PETScBackend

    return {
        "combblas": CombBLASBackend,
        "ctf": CTFBackend,
        "petsc": PETScBackend,
    }


def get_backend(name: str) -> type[Backend]:
    """Look up a backend class by name (``combblas``/``ctf``/``petsc``)."""
    registry = _registry()
    try:
        return registry[name]
    except KeyError:
        known = ", ".join(registry)
        raise KeyError(f"unknown backend {name!r}; known backends: {known}") from None
