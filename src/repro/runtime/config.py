"""Run configuration: the simulated cluster's machine model and the run switches.

:class:`RuntimeConfig` is the one reader of the process environment: the
two switches ``REPRO_BACKEND`` and ``REPRO_FAULTS`` are parsed by
:meth:`RuntimeConfig.from_env` and nowhere else (see ``docs/backends.md``
for the table of switches).

The paper's testbed: 16 nodes, 2× Intel Xeon 6126 (12 cores each), 192 GB
RAM, 100 GBit Omni-Path.  CombBLAS/CTF/our-code run 4 MPI ranks per node
with 6 OpenMP threads each; PETSc runs 1 rank per node with 24 threads.

:class:`MachineModel` captures the parameters the simulator needs to turn
*communicated bytes* and *measured local compute* into a modelled parallel
time:

* ``alpha`` — per-message latency (seconds).
* ``beta`` — per-byte transfer time (seconds/byte), i.e. 1/bandwidth.
* ``intra_node_alpha`` / ``intra_node_beta`` — cheaper costs for messages
  that stay within a node (the simulator uses them when both endpoints map
  to the same node).
* ``threads_per_rank`` and ``omp_efficiency`` — the modelled shared-memory
  speedup applied to measured local compute time: local kernels written in
  NumPy run on one core here, whereas the paper's kernels use 6 OpenMP
  threads, so measured time is divided by
  ``threads_per_rank * omp_efficiency``.
* ``compute_scale`` — a uniform scale factor applied to local compute; it
  does not change any *relative* result and defaults to 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Mapping

from repro.runtime.faults import FaultPlan

__all__ = [
    "BACKEND_ENV_VAR",
    "FAULTS_ENV_VAR",
    "MachineModel",
    "RuntimeConfig",
]

#: communicator backend built when no ``backend=``/``comm=`` is given
BACKEND_ENV_VAR = "REPRO_BACKEND"
#: fault plan a replay arms when none is given
FAULTS_ENV_VAR = "REPRO_FAULTS"


def _backend(text: str) -> str:
    from repro.runtime.world import BACKENDS

    name = text.lower() or "sim"
    if name not in BACKENDS:
        raise ValueError(f"unknown backend (available: {', '.join(sorted(BACKENDS))})")
    return name


@dataclass(frozen=True)
class RuntimeConfig:
    """The two run switches of this process, parsed and validated once.

    ``faults`` is ``None`` when no plan is armed.  Readers build one with
    :meth:`from_env` where they act on a switch; nothing takes a
    ``RuntimeConfig`` argument.  Placement is not a switch: it is the
    ``partitioner=`` argument of ``replay()`` and the service.
    """

    backend: str = "sim"
    faults: FaultPlan | None = None

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) -> "RuntimeConfig":
        """Parse the switches from ``environ`` (default: ``os.environ``).

        Every value is checked here, so a typo raises a ``ValueError``
        naming its switch before any work starts.
        """
        env = os.environ if environ is None else environ

        def parse(name, parser):
            text = env.get(name, "").strip()
            try:
                return parser(text)
            except ValueError as exc:
                raise ValueError(f"{name}={text!r}: {exc}") from None

        return cls(
            backend=parse(BACKEND_ENV_VAR, _backend),
            faults=parse(FAULTS_ENV_VAR, lambda t: FaultPlan.parse(t) if t else None),
        )


@dataclass(frozen=True)
class MachineModel:
    """Cost-model parameters for the simulated cluster."""

    #: per-message latency for inter-node messages (seconds)
    alpha: float = 2.0e-6
    #: per-byte cost for inter-node messages (seconds/byte); 100 Gbit/s link
    beta: float = 8.0e-11
    #: per-message latency for intra-node messages (seconds)
    intra_node_alpha: float = 5.0e-7
    #: per-byte cost for intra-node messages (seconds/byte)
    intra_node_beta: float = 2.0e-11
    #: MPI ranks per physical node
    ranks_per_node: int = 4
    #: OpenMP threads per MPI rank
    threads_per_rank: int = 6
    #: parallel efficiency of the modelled OpenMP parallelism in [0, 1]
    omp_efficiency: float = 0.75
    #: uniform scaling of measured local compute time
    compute_scale: float = 1.0

    def __post_init__(self) -> None:
        if min(self.alpha, self.beta, self.intra_node_alpha, self.intra_node_beta) < 0:
            raise ValueError("latency/bandwidth parameters must be non-negative")
        if self.ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        if self.threads_per_rank < 1:
            raise ValueError("threads_per_rank must be >= 1")
        if not (0.0 < self.omp_efficiency <= 1.0):
            raise ValueError("omp_efficiency must be in (0, 1]")
        if self.compute_scale <= 0:
            raise ValueError("compute_scale must be positive")

    # ------------------------------------------------------------------
    @property
    def local_speedup(self) -> float:
        """Modelled shared-memory speedup applied to measured local time."""
        return max(1.0, self.threads_per_rank * self.omp_efficiency)

    def compute_time(self, measured_seconds: float) -> float:
        """Convert measured single-core local time to modelled rank time."""
        return measured_seconds * self.compute_scale / self.local_speedup

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank`` under a block rank-to-node mapping."""
        return rank // self.ranks_per_node

    def message_cost(self, src: int, dst: int, nbytes: int) -> float:
        """Hockney cost of a single point-to-point message."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if src == dst:
            return 0.0
        if self.node_of(src) == self.node_of(dst):
            return self.intra_node_alpha + self.intra_node_beta * nbytes
        return self.alpha + self.beta * nbytes

    def with_ranks_per_node(self, ranks_per_node: int) -> "MachineModel":
        """A copy of this model with a different ranks-per-node mapping."""
        return replace(self, ranks_per_node=ranks_per_node)

    def with_threads(self, threads_per_rank: int) -> "MachineModel":
        """A copy of this model with a different thread count per rank."""
        return replace(self, threads_per_rank=threads_per_rank)

