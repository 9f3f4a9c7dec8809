"""Replay driver: run a :class:`~repro.scenarios.model.Scenario` anywhere.

:func:`replay` executes a scenario against any registered communicator
backend (``sim``, ``mpi``, …), any rank count and either replay layout of
the static right operand, and returns a structured :class:`~repro.scenarios.model.ScenarioResult`.
It is a thin driver: communicator resolution, fault arming and the
crash/recovery loop live here, while the actual step application is the
shared :class:`~repro.scenarios.engine.ScenarioEngine` (also driven,
incrementally, by the always-on :class:`repro.service.GraphService`) and
the per-step semantics live in the executors
(:mod:`repro.scenarios.executors`):

* :class:`NativeExecutor` — the paper's own machinery (both replay
  layouts, Algorithm 1 / 2, app-aware on ``AppSpec`` scenarios).
* :class:`CompetitorExecutor` — wraps any :mod:`repro.competitors`
  backend; unsupported steps truncate the replay
  (``ScenarioResult.truncated_at``).

Timing semantics match the bespoke loops the benchmark drivers used to
carry: construction is untimed unless ``scenario.timed_construction`` is
set, batch scattering (``partition_tuples_round_robin``) happens outside
the timed region, and each step's timed region covers exactly the update /
multiply work.

Configuration is one :class:`~repro.scenarios.options.ReplayOptions`,
passed whole, field by field as keywords, or both (keywords win).
"""

from __future__ import annotations

import os
from dataclasses import replace
from functools import partial

from repro.runtime import RuntimeConfig, backend_name_of, make_communicator
from repro.runtime.backend import Communicator
from repro.runtime.faults import FaultInjector, FaultPlan, SimulatedCrash
from repro.scenarios.engine import ScenarioEngine
from repro.scenarios.executors import (
    REPLAY_LAYOUTS,
    CompetitorExecutor,
    NativeExecutor,
    ScenarioCheckError,
)
from repro.scenarios.model import Scenario, ScenarioResult
from repro.scenarios.options import ReplayOptions

__all__ = [
    "REPLAY_LAYOUTS",
    "ReplayOptions",
    "ScenarioCheckError",
    "ScenarioEngine",
    "NativeExecutor",
    "CompetitorExecutor",
    "replay",
]


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
    layout:
        Local storage layout of the static right-hand operand, one of
        :data:`REPLAY_LAYOUTS` (``"csr"`` or ``"dhb"``).
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
        ``(comm, grid, scenario, *, layout) -> executor``; defaults to
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
        :class:`~repro.scenarios.checkpoint.CheckpointStore` used by
        :class:`~repro.scenarios.model.CheckpointStep` /
        :class:`~repro.scenarios.model.RestoreStep` steps and the
        ``on_crash="restore"`` policy.  A run-local store is created when
        the scenario contains checkpoint steps and none is passed; share
        one store across the processes of a loopback drill.
    resume_from:
        A snapshot ``dict`` (or path to a snapshot file) to continue
        from: construction is skipped, the world state is rebuilt
        (recovery traffic charged to the ``recovery`` category), and the
        returned result covers the *whole* trace — the snapshot's progress
        prefix stitched to the resumed suffix.
    faults:
        Fault injection: a :class:`~repro.runtime.faults.FaultPlan`, a
        ``REPRO_FAULTS``-grammar string, or a pre-armed
        :class:`~repro.runtime.faults.FaultInjector` (pass the same
        injector across recovery attempts so fired kills do not refire).
        Drops and delays are charged to ``comm.stats`` only.  Defaults to
        the ``REPRO_FAULTS`` switch.
    on_crash:
        What to do when an injected crash fires: ``"raise"`` (default —
        the multi-process harness catches it and restarts the world),
        ``"restore"`` (resume from the latest checkpoint, or retry from
        scratch when none exists yet) or ``"retry"`` (always restart the
        replay from scratch).  In-process backends only.
    """
    from repro.scenarios.checkpoint import CheckpointStore, load_snapshot
    from repro.scenarios.model import CheckpointStep, RestoreStep

    opts = replace(options or ReplayOptions(), **fields).validate()
    env = RuntimeConfig.from_env()
    if comm is None:
        comm = make_communicator(
            opts.backend or env.backend, n_ranks=opts.n_ranks, machine=opts.machine
        )
    elif opts.backend and opts.backend.strip().lower() != backend_name_of(comm):
        raise ValueError(
            f"backend={opts.backend!r} disagrees with comm=, "
            f"a {backend_name_of(comm)!r} communicator"
        )
    faults = opts.faults if opts.faults is not None else env.faults
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    injector = (
        faults
        if isinstance(faults, FaultInjector)
        else (FaultInjector(faults) if faults is not None else None)
    )
    store = opts.checkpoint_store
    if store is None and any(
        isinstance(s, (CheckpointStep, RestoreStep)) for s in scenario.steps
    ):
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
            if opts.on_crash == "raise":
                raise
            recoveries += 1
            if recoveries > opts.max_recoveries:
                raise
            resume = (
                store.latest(world_rank)
                if (opts.on_crash == "restore" and store is not None)
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
        layout=opts.layout,
        partitioner=opts.partitioner,
        executor_factory=opts.executor_factory,
        check_snapshots=opts.check_snapshots,
        store=store,
        injector=injector,
        world_rank=world_rank,
    )
    previous = comm.stats.faults
    if injector is not None:
        comm.stats.faults = partial(injector.on_message, world_rank)
    try:
        engine.begin(resume=resume)
        engine.advance()
    finally:
        comm.stats.faults = previous
    return engine.result(collect_final=opts.collect_final)
