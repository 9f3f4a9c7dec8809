"""Runtime substrate: communicator backends, process grids, statistics.

Distributed algorithms in this repository are written in bulk-synchronous
SPMD "orchestration" style against the :class:`Communicator` protocol; which
runtime actually executes them is selected by :func:`make_communicator`
(``backend=...`` argument or the ``REPRO_BACKEND`` environment variable):

* ``"sim"`` (default) — :class:`SimMPI`, a single-process simulator.  Each
  simulated rank owns local state; local kernels are executed rank-by-rank
  while their wall-clock time is measured, and communication primitives move
  NumPy payloads between rank-local stores while charging a Hockney
  ``α + β·bytes`` cost model with logarithmic trees for broadcast/reduce,
  mirroring the latency/bandwidth analysis in Sections IV and V of the
  paper.  It reports *modelled parallel time*: absolute values are not
  comparable to the paper's cluster, but relative behaviour (who wins,
  crossovers, scaling shape) is preserved.
* ``"mpi"`` — :class:`MPIBackend`, the same orchestration surface on top of
  ``mpi4py``, falling back to a built-in single-rank emulator when mpi4py
  is not installed.

:class:`CommStats` records per-category bytes, message counts, modelled time
and measured local time for either backend — this is what the paper's
breakdown figures (Fig. 7 and Fig. 12) report.
"""

from repro.runtime.backend import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    CommRequest,
    Communicator,
    available_backends,
    make_communicator,
    register_backend,
    resolve_backend_name,
)
from repro.runtime.config import MachineModel, NODE_CONFIGS, ranks_for_nodes
from repro.runtime.grid import ProcessGrid
from repro.runtime.loopback import LoopbackComm, LoopbackWorld, run_spmd
from repro.runtime.mpi_backend import (
    EmulatedComm,
    MPIBackend,
    mpi_is_available,
    world_rank,
    world_size,
)
from repro.runtime.partitioner import (
    DEFAULT_PARTITIONER,
    PARTITIONER_ENV_VAR,
    REPARTITION_ENV_VAR,
    Partitioner,
    available_partitioners,
    make_partitioner,
    register_partitioner,
    repartition_threshold,
    resolve_partitioner_name,
    verify_placement,
)
from repro.runtime.simmpi import SimMPI, payload_nbytes
from repro.runtime.stats import CommStats, StatCategory
from repro.runtime.world import ServiceWorld

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "CommRequest",
    "Communicator",
    "available_backends",
    "make_communicator",
    "register_backend",
    "resolve_backend_name",
    "MachineModel",
    "NODE_CONFIGS",
    "ranks_for_nodes",
    "ProcessGrid",
    "CommStats",
    "StatCategory",
    "SimMPI",
    "payload_nbytes",
    "EmulatedComm",
    "LoopbackComm",
    "LoopbackWorld",
    "MPIBackend",
    "mpi_is_available",
    "run_spmd",
    "world_rank",
    "world_size",
    "DEFAULT_PARTITIONER",
    "PARTITIONER_ENV_VAR",
    "REPARTITION_ENV_VAR",
    "Partitioner",
    "available_partitioners",
    "make_partitioner",
    "register_partitioner",
    "repartition_threshold",
    "resolve_partitioner_name",
    "verify_placement",
    "ServiceWorld",
]
