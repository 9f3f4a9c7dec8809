"""Runtime substrate: communicator backends, process grids, statistics.

Distributed algorithms in this repository are written in bulk-synchronous
SPMD "orchestration" style against the :class:`Communicator` protocol; which
runtime actually executes them is selected by :func:`make_communicator`
(``backend=...`` argument or the ``REPRO_BACKEND`` switch, the one
environment variable the package reads, through :func:`backend_switch`):

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

from repro.runtime.backend import CommRequest, Communicator
from repro.runtime.config import BACKEND_ENV_VAR, MachineModel, backend_switch
from repro.runtime.grid import ProcessGrid
from repro.runtime.loopback import LoopbackComm, LoopbackWorld, run_spmd
from repro.runtime.mpi_backend import (
    EmulatedComm,
    MPIBackend,
    world_rank,
    world_size,
)
from repro.runtime.partitioner import (
    Partitioner,
    available_partitioners,
    make_partitioner,
    verify_placement,
)
from repro.runtime.simmpi import SimMPI, payload_nbytes
from repro.runtime.stats import CommStats, StatCategory
from repro.runtime.world import (
    BACKENDS,
    ServiceWorld,
    backend_name_of,
    make_communicator,
)

__all__ = [
    "BACKENDS",
    "CommRequest",
    "Communicator",
    "backend_name_of",
    "make_communicator",
    "BACKEND_ENV_VAR",
    "MachineModel",
    "backend_switch",
    "ProcessGrid",
    "CommStats",
    "StatCategory",
    "SimMPI",
    "payload_nbytes",
    "EmulatedComm",
    "LoopbackComm",
    "LoopbackWorld",
    "MPIBackend",
    "run_spmd",
    "world_rank",
    "world_size",
    "Partitioner",
    "available_partitioners",
    "make_partitioner",
    "verify_placement",
    "ServiceWorld",
]
