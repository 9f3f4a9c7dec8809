"""Replay driver: run a :class:`~repro.scenarios.model.Scenario` anywhere.

:func:`replay` executes a scenario against any registered communicator
backend (``sim``, ``mpi``, …) and any rank count, and returns a structured
:class:`~repro.scenarios.model.ScenarioResult`.
It is a thin driver: communicator resolution, fault arming and the
crash/recovery loop live here, while the actual step application is the
shared :class:`~repro.scenarios.engine.ScenarioEngine` (also driven,
incrementally, by the always-on :class:`repro.service.GraphService`) and
the per-step semantics live in the executors
(:mod:`repro.scenarios.executors`):

* :class:`NativeExecutor` — the paper's own machinery (Algorithm 1 / 2,
  app-aware on ``AppSpec`` scenarios).
* :class:`CompetitorExecutor` — wraps any :mod:`repro.competitors`
  backend; unsupported steps truncate the replay
  (``ScenarioResult.truncated_at``).

Timing semantics match the bespoke loops the benchmark drivers used to
carry: construction is untimed unless ``scenario.timed_construction`` is
set, batch scattering (``partition_tuples_round_robin``) happens outside
the timed region, and each step's timed region covers exactly the update /
multiply work.

Configuration is one :class:`~repro.scenarios.options.ReplayOptions`,
passed whole, field by field as keywords, or both (keywords win).  Faults
are armed only by the ``faults=`` argument; the environment selects at
most the backend (``REPRO_BACKEND``).
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.runtime import backend_name_of, make_communicator
from repro.runtime.backend import Communicator
from repro.runtime.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.scenarios.engine import ScenarioEngine
from repro.scenarios.executors import (
    CompetitorExecutor,
    NativeExecutor,
    ScenarioCheckError,
)
from repro.scenarios.model import Scenario, ScenarioResult
from repro.scenarios.options import ReplayOptions

__all__ = [
    "ReplayOptions",
    "ScenarioCheckError",
    "ScenarioEngine",
    "NativeExecutor",
    "CompetitorExecutor",
    "replay",
]

#: crashes ``on_crash="restore"`` recovers from before the replay re-raises
MAX_RECOVERIES = 8


def replay(
    scenario: Scenario,
    options: ReplayOptions | None = None,
    *,
    comm: Communicator | None = None,
    **fields,
) -> ScenarioResult:
    """Replay ``scenario`` and return its structured result.

    Parameters
    ----------
    options:
        A bundled :class:`~repro.scenarios.options.ReplayOptions`.  Every
        other keyword is one of its fields, listed below, and overrides the
        bundled value; any other keyword raises ``TypeError``.
    comm:
        A ready communicator to replay on (any
        :class:`~repro.runtime.backend.Communicator`); built from
        ``backend``, ``n_ranks`` and ``machine`` when omitted.
    backend:
        Communicator backend name (``"sim"`` or ``"mpi"``); the
        ``REPRO_BACKEND`` switch when omitted.  With ``comm`` given it
        only labels the result, and must name ``comm``'s backend.
    n_ranks, machine:
        Communicator configuration (ignored when ``comm`` is passed).
    partitioner:
        Logical-rank→process placement strategy (a name or a
        :class:`~repro.runtime.partitioner.Partitioner`); ``None`` leaves
        ``comm``'s placement as it is (round-robin on a fresh backend).  Placement is physical
        — results are byte-identical under every strategy; only the
        multi-process backends act on it.  Weight-using strategies
        (``nnz_aware``) estimate per-rank nnz from the initial matrix and
        a scenario prefix.  A resume on the snapshot's world size
        re-installs the snapshot's placement over this one.
    executor_factory:
        ``(comm, grid, scenario) -> executor``; defaults to
        :class:`NativeExecutor`.  Use
        ``CompetitorExecutor.factory("combblas")`` to replay against a
        benchmark backend.
    check_snapshots:
        When False, :class:`~repro.scenarios.model.SnapshotCheck` steps are
        recorded but not evaluated (useful while benchmarking competitors).
    collect_final:
        When False, skip assembling the global final tuples (cheaper for
        timing-only replays).
    checkpoint_store:
        :class:`~repro.scenarios.checkpoint.CheckpointStore` the
        :class:`~repro.scenarios.model.CheckpointStep` steps save into and
        the ``on_crash="restore"`` policy resumes from, keyed by this
        trace's fingerprint.  A run-local store is created when the
        scenario contains checkpoint steps and none is passed; share one
        store across the processes of a loopback drill.
    resume_from:
        A snapshot ``dict`` (or path to a snapshot file) to continue
        from: construction is skipped, the world state is rebuilt
        (recovery traffic charged to the ``recovery`` category), and the
        returned result covers the *whole* trace — the snapshot's progress
        prefix stitched to the resumed suffix.  A snapshot of another
        trace raises
        :class:`~repro.scenarios.checkpoint.SnapshotFormatError`; this and
        ``on_crash="restore"`` are the only ways a snapshot re-enters a
        world.
    faults:
        Fault injection: a :class:`~repro.runtime.faults.FaultPlan`, a
        string in its grammar (:meth:`~repro.runtime.faults.FaultPlan.parse`),
        or a pre-armed :class:`~repro.runtime.faults.FaultInjector` (pass
        the same injector across recovery attempts so fired kills do not
        refire).  ``kill@k`` crashes before trace step ``k`` (checkpoint
        steps count); a kill past the trace or the world raises
        :class:`~repro.runtime.faults.FaultPlanError` before the replay
        starts.  ``None`` (default) arms nothing.
    on_crash:
        What to do when an injected crash fires: ``"raise"`` (default —
        the multi-process harness catches it and restarts the world) or
        ``"restore"`` (resume from the latest checkpoint this trace
        stored, or rerun from scratch when it stored none yet; after
        :data:`MAX_RECOVERIES` recoveries the crash is re-raised).
        In-process backends only.
    """
    from repro.scenarios.checkpoint import (
        CheckpointStore,
        load_snapshot,
        scenario_fingerprint,
    )
    from repro.scenarios.model import CheckpointStep

    opts = replace(options or ReplayOptions(), **fields).validate()
    if comm is None:
        comm = make_communicator(
            opts.backend, n_ranks=opts.n_ranks, machine=opts.machine
        )
    elif opts.backend and opts.backend.strip().lower() != backend_name_of(comm):
        raise ValueError(
            f"backend={opts.backend!r} disagrees with comm=, "
            f"a {backend_name_of(comm)!r} communicator"
        )
    injector = opts.faults
    if isinstance(injector, str):
        injector = FaultPlan.parse(injector)
    if isinstance(injector, FaultPlan):
        injector = FaultInjector(injector)
    if injector is not None:
        injector.plan.check_reachable(
            len(scenario.steps), int(getattr(comm, "world_size", 1))
        )
    store = opts.checkpoint_store
    if store is None and any(isinstance(s, CheckpointStep) for s in scenario.steps):
        store = CheckpointStore()
    resume = opts.resume_from
    if isinstance(resume, (str, os.PathLike)):
        resume = load_snapshot(resume)
    world_rank = int(getattr(comm, "world_rank", 0))

    recoveries = 0
    while True:
        try:
            return _replay_once(
                scenario,
                comm=comm,
                opts=opts,
                store=store,
                resume=resume,
                injector=injector,
                world_rank=world_rank,
            )
        except SimulatedCrash:
            recoveries += 1
            if opts.on_crash == "raise" or recoveries > MAX_RECOVERIES:
                raise
            resume = (
                store.latest(world_rank, scenario_fingerprint(scenario))
                if store is not None
                else None
            )


def _replay_once(
    scenario: Scenario,
    *,
    comm: Communicator,
    opts: ReplayOptions,
    store,
    resume,
    injector,
    world_rank: int,
) -> ScenarioResult:
    """One replay attempt (the crash/recovery loop lives in :func:`replay`)."""
    engine = ScenarioEngine(
        scenario,
        comm,
        partitioner=opts.partitioner,
        executor_factory=opts.executor_factory,
        check_snapshots=opts.check_snapshots,
        store=store,
        injector=injector,
        world_rank=world_rank,
    )
    engine.begin(resume=resume)
    engine.advance()
    return engine.result(collect_final=opts.collect_final)
