"""Making communicators: the backend table, the factory and long-lived worlds.

:data:`BACKENDS` is the one name ↔ class table of the communicator
backends: :func:`make_communicator` and :class:`ServiceWorld` read it by
name, :func:`backend_name_of` by class.

Everything in the batch pipeline tears its world down after one trace.
:class:`ServiceWorld` inverts that lifecycle, following the long-running
driver/worker pattern of nengo_mpi: the expensive resource — the set of
OS processes and their low-level communicator — is acquired **once** and
then *mints* as many orchestration-level communicators as callers need,
all multiplexed over the same underlying processes.

Minting is cheap and collective-free: a :class:`~repro.runtime.simmpi.SimMPI`
(``sim`` backend) or an :class:`~repro.runtime.mpi_backend.MPIBackend`
bound to the shared low-level comm (``mpi`` backend) is pure per-process
bookkeeping.  Each minted communicator carries

* its own logical rank count (a *rank namespace*: tenants of the
  always-on service may size their grids independently),
* its own placement map (``mpi``),
* its own :class:`~repro.runtime.stats.CommStats` — per-tenant traffic
  accounting is isolated by construction, which is what makes the
  service's per-tenant comm signature comparable to a cold replay.

The one rule multiplexing imposes: operations on communicators minted
from the same world must be *serialised in the same order on every
process* (the usual SPMD discipline — the service guarantees it by
flushing tenants sequentially).  Concurrent collectives from two minted
communicators over one world would interleave on the shared transport.

Worlds accept any mpi4py-surface low-level comm: the genuine
``MPI.COMM_WORLD``, a :class:`~repro.runtime.loopback.LoopbackComm` from a
threaded test world, or the single-rank emulator when mpi4py is absent.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.backend import Communicator
from repro.runtime.config import BACKEND_ENV_VAR, MachineModel, backend_switch
from repro.runtime.mpi_backend import MPIBackend, load_mpi
from repro.runtime.simmpi import SimMPI

__all__ = ["BACKENDS", "ServiceWorld", "backend_name_of", "make_communicator"]

#: backend name -> communicator class
BACKENDS: dict[str, type] = {"sim": SimMPI, "mpi": MPIBackend}


def backend_name_of(comm: Communicator) -> str:
    """The :data:`BACKENDS` name of ``comm``'s class (else the class name)."""
    cls = type(comm)
    return next(
        (name for name, known in BACKENDS.items() if known is cls),
        cls.__name__.lower(),
    )


def _backend_name(backend: str | None) -> str:
    """``backend``, else the ``REPRO_BACKEND`` switch; checked against the table."""
    name = backend.strip().lower() if backend else backend_switch()
    if name not in BACKENDS:
        given = "" if backend else f"{BACKEND_ENV_VAR}={name!r}: "
        raise ValueError(
            f"{given}unknown communicator backend {name!r}; "
            f"available: {', '.join(sorted(BACKENDS))}"
        )
    return name


def make_communicator(
    backend: str | None = None,
    *,
    n_ranks: int = 1,
    machine: MachineModel | None = None,
    **kwargs: Any,
) -> Communicator:
    """Create a communicator for ``n_ranks`` logical ranks.

    Parameters
    ----------
    backend:
        A :data:`BACKENDS` name (``"sim"`` or ``"mpi"``); when omitted, the
        ``REPRO_BACKEND`` switch, whose default is ``"sim"``.
    n_ranks:
        Number of logical ranks the orchestration program addresses.
    machine:
        Optional :class:`MachineModel` (cost model for the simulator;
        carried as metadata by real backends).
    kwargs:
        Passed to the backend class — the mpi backend's ``comm=``.
    """
    return BACKENDS[_backend_name(backend)](n_ranks, machine, **kwargs)


class ServiceWorld:
    """A persistent execution substrate shared by many communicators.

    Parameters
    ----------
    backend:
        A :data:`BACKENDS` name; resolved like :func:`make_communicator`
        (``REPRO_BACKEND`` applies when ``None``).
    comm:
        Low-level mpi4py-surface communicator to multiplex (``mpi``
        backend only): ``MPI.COMM_WORLD``, a loopback world's
        ``LoopbackComm``, or ``None`` to load mpi4py / the single-rank
        emulator once for the world's lifetime.
    machine:
        Default :class:`~repro.runtime.config.MachineModel` for minted
        communicators (per-mint override available).
    """

    def __init__(
        self,
        backend: str | None = None,
        *,
        comm: Any = None,
        machine: MachineModel | None = None,
    ) -> None:
        self.backend_name = _backend_name(backend)
        if self.backend_name == "sim" and comm is not None:
            raise ValueError(
                "the sim backend is single-process and owns its world; "
                "a low-level comm only applies to backend='mpi'"
            )
        self.machine = machine
        self._closed = False
        self._minted = 0
        if self.backend_name == "mpi" and comm is None:
            comm = load_mpi()
        self._comm = comm

    # ------------------------------------------------------------------
    @property
    def world_size(self) -> int:
        """Number of OS processes backing the world (1 for ``sim``)."""
        return 1 if self._comm is None else int(self._comm.Get_size())

    @property
    def world_rank(self) -> int:
        """This process's rank in the world (0 for ``sim``)."""
        return 0 if self._comm is None else int(self._comm.Get_rank())

    @property
    def minted(self) -> int:
        """How many communicators this world has handed out so far."""
        return self._minted

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` ran; minting then raises."""
        return self._closed

    # ------------------------------------------------------------------
    def communicator(
        self,
        n_ranks: int,
        *,
        machine: MachineModel | None = None,
    ) -> Communicator:
        """Mint a fresh orchestration communicator over this world.

        The minted communicator has ``n_ranks`` logical ranks, its own
        statistics and (on ``mpi``) its own placement over the world's
        processes; construction performs no collectives, so minting mid-
        service is safe on every process as long as all processes mint in
        the same order.
        """
        if self._closed:
            raise RuntimeError("ServiceWorld is shut down; no new communicators")
        machine = machine if machine is not None else self.machine
        if self.backend_name == "sim":
            comm: Communicator = SimMPI(n_ranks, machine)
        else:
            comm = MPIBackend(n_ranks, machine, comm=self._comm)
        self._minted += 1
        return comm

    def barrier(self) -> None:
        """Synchronise every process of the world (no-op for ``sim``)."""
        if self._comm is not None:
            self._comm.barrier()

    def shutdown(self) -> None:
        """Retire the world: final barrier, then refuse further minting.

        Idempotent.  The low-level comm is *not* freed — `COMM_WORLD` and
        loopback comms are owned by their creators — but the world object
        stops handing out communicators, so a shut-down service cannot
        silently keep serving.
        """
        if self._closed:
            return
        self.barrier()
        self._closed = True

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServiceWorld":
        """Context-manager entry: the world itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: shut the world down."""
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "closed" if self._closed else "open"
        return (
            f"ServiceWorld(backend={self.backend_name!r}, "
            f"world_size={self.world_size}, minted={self._minted}, {state})"
        )
