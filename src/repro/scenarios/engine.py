"""The step-application engine shared by ``replay()`` and the service.

:class:`ScenarioEngine` owns everything one scenario execution needs —
the executor, the process grid, placement, the per-step statistics and
the progress accumulators — and exposes a small incremental surface:

``begin(resume=None)``
    Install placement and construct the world (or rebuild it from a
    snapshot), exactly as the batch replay driver always did.
``advance(stop=None)``
    Apply scenario steps from the current cursor up to ``stop``
    (default: every step currently in the trace).  The trace may *grow*
    between calls — :class:`repro.service.GraphService` appends coalesced
    micro-batches to a live request log and advances the same engine.
``result(collect_final=True)``
    Assemble the structured :class:`~repro.scenarios.model.ScenarioResult`
    for everything applied so far.  Callable mid-trace: global state
    queries go through the uncharged control plane, so sampling a result
    between batches adds no charged traffic and keeps the
    service-versus-cold-replay comparison byte-exact.

:func:`repro.scenarios.replay.replay` drives one engine to completion
(with crash/recovery around it); the always-on service keeps one engine
per tenant alive for as long as the tenant exists.  Both therefore run
the *same* step-application code, which is what makes the differential
suite the service's correctness oracle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.distributed.distribution import BlockDistribution
from repro.runtime import ProcessGrid, backend_name_of
from repro.runtime.backend import Communicator
from repro.runtime.partitioner import Partitioner, make_partitioner
from repro.runtime.stats import CommStats
from repro.scenarios.executors import NativeExecutor, ScenarioCheckError
from repro.scenarios.model import (
    AppQueryResult,
    AppQueryStep,
    CheckpointStep,
    CrashStep,
    RestoreStep,
    Scenario,
    ScenarioResult,
    ScenarioStep,
    SnapshotCheck,
    StepStats,
    TupleArrays,
)

__all__ = [
    "ScenarioEngine",
    "install_placement",
    "scenario_nnz_weights",
    "global_stats_diff",
    "merged_stats",
]

def scenario_nnz_weights(
    scenario: Scenario, grid: ProcessGrid, n_ranks: int
) -> dict[int, float]:
    """Per-rank nnz estimates from the initial matrix and a step prefix.

    Counts how many tuples of the initial matrix plus the first few
    insert/update steps land on each grid rank under the block
    distribution — the weights the ``nnz_aware`` partitioner bin-packs on.
    Pure host-side arithmetic on the scenario description (identical on
    every process), no communication.
    """
    dist = BlockDistribution(*scenario.shape, grid)
    weights = np.zeros(n_ranks, dtype=np.float64)
    sources: list[tuple[np.ndarray, np.ndarray]] = []
    if scenario.initial_tuples is not None:
        sources.append(scenario.initial_tuples[:2])
    prefix = 0
    for step in scenario.steps:
        if isinstance(step, ScenarioStep) and step.kind in ("insert", "update"):
            sources.append((step.rows, step.cols))
            prefix += 1
            if prefix >= 8:
                break
    for rows, cols in sources:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            continue
        owners = dist.owner_of(rows, cols)
        counts = np.bincount(owners, minlength=n_ranks)
        weights += counts[:n_ranks]
    return {rank: float(weights[rank]) for rank in range(n_ranks)}


def install_placement(
    comm: Communicator,
    scenario: Scenario,
    grid: ProcessGrid,
    partitioner: "str | Partitioner | None",
) -> None:
    """Install the placement of ``partitioner`` (``None``: leave it alone).

    Strategy names are validated even when the communicator has no
    placement surface (the simulator), so typos fail loudly on every
    backend.  Nothing is installed unless a strategy was requested: a
    caller-provided communicator may already carry a custom placement that
    an unsolicited reset to the default would silently destroy.
    """
    if partitioner is None:
        return
    strategy = make_partitioner(partitioner)
    if not hasattr(comm, "set_placement"):
        return
    weights = (
        scenario_nnz_weights(scenario, grid, comm.p)
        if strategy.uses_weights
        else None
    )
    comm.set_placement(
        strategy.placement(comm.p, comm.world_size, grid=grid, weights=weights)
    )


def global_stats_diff(comm: Communicator, since) -> CommStats:
    """Statistics accumulated since ``since``, merged over all processes.

    On a multi-process backend each process records only the traffic of its
    owned ranks; folding the per-process diffs through the control plane
    yields the same global per-category volume the simulator reports, which
    is what the differential harness compares.
    """
    return comm.host_fold(comm.stats.diff(since), lambda a, b: a.merge(b))


def merged_stats(
    prefix: "dict[str, dict[str, float]] | None", comm: Communicator, since
) -> CommStats:
    """Global statistics since ``since``, merged onto a snapshot prefix."""
    suffix = global_stats_diff(comm, since)
    if prefix:
        return CommStats.from_dict(prefix).merge(suffix)
    return suffix


class ScenarioEngine:
    """Applies the steps of one scenario to one live world, incrementally.

    The engine is bound to a communicator and a scenario at construction
    (placement is installed immediately, before any per-rank state is
    materialised; ``partitioner=None`` leaves the communicator's placement
    as it is — round-robin on a fresh backend).
    Non-square rank counts degrade to the largest ``q×q`` subgrid —
    surplus ranks idle — so e.g. ``mpiexec -n 6`` replays on a 2×2 grid
    instead of aborting inside grid construction; everything downstream
    uses the effective ``self.n_ranks``.

    The scenario's step list may grow *after* construction: ``advance()``
    re-reads ``scenario.steps`` on every call and applies whatever lies
    between the cursor and the end.  This is the contract the always-on
    service builds on (its request log is the scenario).
    """

    def __init__(
        self,
        scenario: Scenario,
        comm: Communicator,
        *,
        layout: str = "csr",
        partitioner: "str | Partitioner | None" = None,
        executor_factory: Callable | None = None,
        check_snapshots: bool = True,
        store=None,
        injector=None,
        world_rank: int | None = None,
    ) -> None:
        self.scenario = scenario
        self.comm = comm
        self.backend_name = backend_name_of(comm)
        self.layout = layout
        self.check_snapshots = check_snapshots
        self.store = store
        self.injector = injector
        self.world_rank = (
            int(getattr(comm, "world_rank", 0)) if world_rank is None else world_rank
        )
        self.grid = ProcessGrid.fit(comm.p)
        self.n_ranks = self.grid.n_ranks
        # Placement must be agreed before any per-rank state is materialised.
        install_placement(comm, scenario, self.grid, partitioner)
        factory = executor_factory or NativeExecutor
        self.executor = factory(comm, self.grid, scenario, layout=layout)

        self.step_stats: list[StepStats] = []
        self.applied_counts: dict[str, int] = {}
        self.app_results: list[AppQueryResult] = []
        self.truncated_at: int | None = None
        #: index of the next step to apply
        self.cursor = 0
        self._prefix_comm: dict[str, dict[str, float]] | None = None
        self._prefix_update: dict[str, dict[str, float]] | None = None
        self._prefix_elapsed = 0.0
        self._elapsed_start = comm.elapsed()
        self._start = comm.stats.snapshot()
        self._post_construct = None
        self._begun = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self, resume=None) -> "ScenarioEngine":
        """Construct the world — or rebuild it from a ``resume`` snapshot.

        Resuming skips construction, restores the executor state (recovery
        traffic charged to the ``recovery`` category) and stitches the
        snapshot's progress prefix onto the accumulators, so the eventual
        result covers the whole trace.
        """
        from repro.scenarios.checkpoint import (
            SnapshotFormatError,
            check_snapshot,
            restore_state,
            scenario_fingerprint,
        )

        if self._begun:
            raise RuntimeError("ScenarioEngine.begin() may only run once")
        self._begun = True
        comm, scenario = self.comm, self.scenario
        if resume is not None:
            check_snapshot(resume)
            fingerprint = scenario_fingerprint(scenario)
            if resume["fingerprint"] != fingerprint:
                raise SnapshotFormatError(
                    f"snapshot fingerprint {resume['fingerprint']} does not match "
                    f"scenario {scenario.name!r} ({fingerprint}); refusing to "
                    "continue a different trace"
                )
            if resume["layout"] != self.layout:
                raise SnapshotFormatError(
                    f"snapshot was taken with layout {resume['layout']!r}; "
                    f"resuming with {self.layout!r} would diverge"
                )
            progress = resume["progress"]
            self.cursor = int(resume["cursor"])
            self.step_stats = [StepStats(**dict(s)) for s in progress["step_stats"]]
            self.applied_counts = dict(progress["applied_counts"])
            self.app_results = [
                AppQueryResult(
                    index=int(r["index"]),
                    kind=str(r["kind"]),
                    label=str(r["label"]),
                    payload=r["payload"],
                )
                for r in progress["app_results"]
            ]
            self._prefix_comm = progress["comm_stats"]
            self._prefix_update = progress["update_stats"]
            self._prefix_elapsed = float(progress["elapsed"])
            restore_state(self.executor, resume)
            # Recovery traffic lands between `_start` and here: it shows up
            # in the run's comm_stats (recovery category only) but not in
            # the update-phase statistics.
            self._post_construct = comm.stats.snapshot()
            return self
        # ------------ construction (optionally timed) -------------------
        # The round-robin scatter is measurement infrastructure, not part
        # of the construction protocol: it always stays outside the timed
        # region.
        self.executor.prepare()
        if scenario.timed_construction:
            before = comm.stats.snapshot()
            with comm.timer() as timer:
                self.executor.construct()
            diff = global_stats_diff(comm, before)
            n_initial = (
                int(scenario.initial_tuples[0].size)
                if scenario.initial_tuples is not None
                else 0
            )
            self.step_stats.append(
                StepStats(
                    index=-1,
                    kind="construct",
                    label="construct",
                    n_tuples=n_initial,
                    applied=n_initial,
                    seconds=timer.seconds,
                    comm_messages=diff.total_messages(),
                    comm_bytes=diff.total_bytes(),
                )
            )
        else:
            self.executor.construct()
        self._post_construct = comm.stats.snapshot()
        return self

    # ------------------------------------------------------------------
    # the trace
    # ------------------------------------------------------------------
    def advance(self, stop: int | None = None) -> "ScenarioEngine":
        """Apply steps from the cursor up to ``stop`` (default: all).

        A truncating step (one the executor reports as unsupported) ends
        the engine permanently: further ``advance`` calls are no-ops and
        the result reports ``truncated_at``.
        """
        if not self._begun:
            raise RuntimeError("call begin() before advance()")
        steps = self.scenario.steps
        limit = len(steps) if stop is None else min(int(stop), len(steps))
        while self.cursor < limit and self.truncated_at is None:
            index = self.cursor
            self._apply_one(index, steps[index])
            self.cursor = index + 1
        return self

    def _apply_one(self, index: int, step) -> None:
        from repro.competitors import UnsupportedOperation
        from repro.scenarios.checkpoint import build_snapshot

        comm, executor = self.comm, self.executor
        if self.injector is not None:
            self.injector.check_step(index, process=self.world_rank)
        if isinstance(step, CheckpointStep):
            # The checkpoint's own (untimed, zero-comm) statistics are
            # part of the snapshot, so the restored run replays it as
            # already-done.
            self.step_stats.append(
                StepStats(
                    index=index,
                    kind="checkpoint",
                    label=step.label,
                    n_tuples=0,
                    applied=0,
                    seconds=0.0,
                )
            )
            snapshot = build_snapshot(
                executor,
                cursor=index + 1,
                step_stats=self.step_stats,
                applied_counts=self.applied_counts,
                app_results=self.app_results,
                comm_stats=merged_stats(
                    self._prefix_comm, comm, self._start
                ).as_dict(),
                update_stats=merged_stats(
                    self._prefix_update, comm, self._post_construct
                ).as_dict(),
                elapsed=self._prefix_elapsed + comm.elapsed() - self._elapsed_start,
            )
            if self.store is not None:
                self.store.save(step.tag, self.world_rank, snapshot)
            return
        if isinstance(step, RestoreStep):
            from repro.scenarios.checkpoint import restore_state

            if self.store is None:
                raise ScenarioCheckError(
                    f"step {step.label!r}: RestoreStep needs a checkpoint "
                    "store (did a CheckpointStep run first?)"
                )
            snapshot = self.store.load(step.tag, self.world_rank)
            before = comm.stats.snapshot()
            n_blocks = restore_state(executor, snapshot)
            diff = global_stats_diff(comm, before)
            self.step_stats.append(
                StepStats(
                    index=index,
                    kind="restore",
                    label=step.label,
                    n_tuples=0,
                    applied=int(n_blocks),
                    seconds=0.0,
                    comm_messages=diff.total_messages(),
                    comm_bytes=diff.total_bytes(),
                )
            )
            return
        if isinstance(step, CrashStep):
            if self.injector is not None:
                self.injector.fire_crash(index, step.process, process=self.world_rank)
            self.step_stats.append(
                StepStats(
                    index=index,
                    kind="crash",
                    label=step.label,
                    n_tuples=0,
                    applied=0,
                    seconds=0.0,
                )
            )
            return
        if isinstance(step, SnapshotCheck):
            if self.check_snapshots:
                executor.snapshot(step)
            self.step_stats.append(
                StepStats(
                    index=index,
                    kind="snapshot",
                    label=step.label,
                    n_tuples=0,
                    applied=0,
                    seconds=0.0,
                )
            )
            return
        if isinstance(step, AppQueryStep):
            before = comm.stats.snapshot()
            try:
                with comm.timer() as timer:
                    applied, payload = executor.query(
                        step, check=self.check_snapshots
                    )
            except UnsupportedOperation:
                self.step_stats.append(
                    StepStats(
                        index=index,
                        kind=step.kind,
                        label=step.label,
                        n_tuples=0,
                        applied=0,
                        seconds=0.0,
                        supported=False,
                    )
                )
                self.truncated_at = index
                return
            diff = global_stats_diff(comm, before)
            self.step_stats.append(
                StepStats(
                    index=index,
                    kind=step.kind,
                    label=step.label,
                    n_tuples=0,
                    applied=int(applied),
                    seconds=timer.seconds,
                    comm_messages=diff.total_messages(),
                    comm_bytes=diff.total_bytes(),
                )
            )
            self.app_results.append(
                AppQueryResult(
                    index=index, kind=step.kind, label=step.label, payload=payload
                )
            )
            self.applied_counts[step.kind] = self.applied_counts.get(
                step.kind, 0
            ) + int(applied)
            return
        # the applications re-scatter their (transformed) batches themselves
        per_rank = (
            step.per_rank(self.n_ranks)
            if getattr(executor, "app", None) is None
            else {}
        )
        before = comm.stats.snapshot()
        try:
            with comm.timer() as timer:
                applied = executor.apply(step, per_rank)
        except UnsupportedOperation:
            self.step_stats.append(
                StepStats(
                    index=index,
                    kind=step.kind,
                    label=step.label,
                    n_tuples=step.n_tuples,
                    applied=0,
                    seconds=0.0,
                    supported=False,
                )
            )
            self.truncated_at = index
            return
        diff = global_stats_diff(comm, before)
        self.step_stats.append(
            StepStats(
                index=index,
                kind=step.kind,
                label=step.label,
                n_tuples=step.n_tuples,
                applied=int(applied),
                seconds=timer.seconds,
                comm_messages=diff.total_messages(),
                comm_bytes=diff.total_bytes(),
            )
        )
        self.applied_counts[step.kind] = self.applied_counts.get(
            step.kind, 0
        ) + int(applied)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def result(self, collect_final: bool = True) -> ScenarioResult:
        """Assemble the structured result for everything applied so far.

        Safe to call between batches: the global queries (final tuples,
        merged statistics) go through the uncharged control plane, so
        sampling a mid-trace result leaves the charged comm volume — the
        quantity the differential oracle compares — untouched.
        """
        comm = self.comm
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        final_a: TupleArrays = self.executor.final_a() if collect_final else empty
        final_c = self.executor.final_c() if collect_final else None
        return ScenarioResult(
            scenario=self.scenario.name,
            backend=self.backend_name,
            n_ranks=self.n_ranks,
            layout=self.layout,
            semiring_name=self.scenario.semiring_name,
            steps=list(self.step_stats),
            final_a=final_a,
            final_c=final_c,
            applied_counts=dict(self.applied_counts),
            comm_stats=merged_stats(self._prefix_comm, comm, self._start).as_dict(),
            update_stats=merged_stats(
                self._prefix_update, comm, self._post_construct
            ).as_dict(),
            truncated_at=self.truncated_at,
            elapsed_modeled=self._prefix_elapsed + comm.elapsed() - self._elapsed_start,
            app_results=list(self.app_results),
        )
