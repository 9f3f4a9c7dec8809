"""Kill-and-recover drill matrix: byte-identical continuation after crashes.

The centrepiece of the fault-tolerance contract: for every scenario
generator, both in-process backends and both replay layouts, a run that
is killed at a chosen step and restored from its last checkpoint must be
**byte-identical** to the uninterrupted run — final tuples of ``A`` (and
``C`` where maintained), application query payloads, and per-category
communication volume, with all recovery traffic confined to the dedicated
``recovery`` category.

Kill points are parametrised over the interesting positions:

* the very first step (nothing checkpointed yet → full rerun from scratch);
* mid-stream (the common case, restored from the checkpoint);
* immediately after a dynamic-SpGEMM multiply (product + filter state);
* on a non-default (nnz-aware or locality-aware) placement, resumed
  without naming it (placement state travels in the snapshot).

Loopback (emulated multi-process) worlds of size 1, 2 and 4 run the same
drills through :func:`repro.scenarios.run_with_recovery`, sharing one
durable :class:`~repro.scenarios.CheckpointStore` and one fault injector
across world restarts — the same shape as the ``mpiexec`` CI leg.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.scenarios as S
from repro.runtime import MPIBackend
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    SimulatedCrash,
)
from repro.runtime.loopback import run_spmd
from repro.runtime.partitioner import RoundRobinPartitioner
from repro.scenarios.checkpoint import crash_cause
from repro.scenarios.replay import MAX_RECOVERIES

N_RANKS = 4
SEED = 2022
CHECKPOINT_AT = 3
CRASH_AT = 5
BACKENDS = ("sim", "mpi")
#: loopback world sizes for the multi-process drill leg
WORLD_SIZES = (1, 2, 4)
#: generators for the loopback leg (the in-process matrix sweeps them all)
LOOPBACK_GENERATORS = (
    "grow_from_empty",
    "mixed_update_multiply",
    "social_triangle_stream",
    "dhb_bucket_collision_stream",
)


def _scenario(generator_name: str) -> S.Scenario:
    return S.SCENARIO_GENERATORS[generator_name](seed=SEED)


def _base_trace(generator_name: str) -> S.Scenario:
    """The checkpointed trace both the reference and the drill replay."""
    return S.with_checkpoint(_scenario(generator_name), at=CHECKPOINT_AT)


def _replay(scenario: S.Scenario, backend: str, layout: str, **kwargs):
    with warnings.catch_warnings():
        # the emulated-mpi backend warns once when mpi4py is absent
        warnings.simplefilter("ignore", RuntimeWarning)
        return S.replay(
            scenario, backend=backend, n_ranks=N_RANKS, layout=layout, **kwargs
        )


def _assert_continuation_identical(reference, recovered, *, what: str) -> None:
    """Tuples, app payloads and non-recovery comm volume must all match."""
    for name, a, b in zip("rcv", reference.final_a, recovered.final_a):
        assert np.array_equal(a, b), f"{what}: final A ({name}) differs"
    assert (reference.final_c is None) == (recovered.final_c is None)
    if reference.final_c is not None:
        for name, a, b in zip("rcv", reference.final_c, recovered.final_c):
            assert np.array_equal(a, b), f"{what}: final C ({name}) differs"
    assert len(reference.app_results) == len(recovered.app_results), what
    for want, got in zip(reference.app_results, recovered.app_results):
        assert (want.kind, want.label) == (got.kind, got.label), what
        if isinstance(want.payload, tuple):
            for a, b in zip(want.payload, got.payload):
                assert np.array_equal(a, b), f"{what}: {want.label} payload"
        else:
            assert want.payload == got.payload, f"{what}: {want.label} payload"
    signature = dict(recovered.comm_signature())
    signature.pop("recovery", None)
    assert signature == dict(reference.comm_signature()), (
        f"{what}: non-recovery comm volume differs"
    )


@pytest.fixture(scope="module")
def references() -> dict:
    """Uninterrupted reference runs, computed once per (gen, backend, layout)."""
    return {}


def _reference(references: dict, generator_name: str, backend: str, layout: str):
    key = (generator_name, backend, layout)
    if key not in references:
        references[key] = _replay(_base_trace(generator_name), backend, layout)
    return references[key]


# ----------------------------------------------------------------------
# the in-process crash matrix: every generator × backend × layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", S.REPLAY_LAYOUTS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("generator_name", sorted(S.SCENARIO_GENERATORS))
def test_crash_and_restore_matches_uninterrupted_run(
    references, generator_name, backend, layout
):
    reference = _reference(references, generator_name, backend, layout)
    executors = []

    def capture(*args, **kwargs):
        executors.append(S.NativeExecutor(*args, **kwargs))
        return executors[-1]

    recovered = _replay(
        _base_trace(generator_name),
        backend,
        layout,
        checkpoint_store=S.CheckpointStore(),
        faults=f"kill@{CRASH_AT}",
        on_crash="restore",
        executor_factory=capture,
    )
    restored = executors[-1]
    assert len(executors) == 2
    if restored.scenario.app is not None and restored.scenario.app.name == "triangle":
        # the snapshot stores the one adjacency once and restores the alias,
        # so recovery ships A and C — one message per block, not three
        assert restored.product.a is restored.product.b is restored.a
        assert dict(recovered.comm_signature())["recovery"][0] == 2 * N_RANKS
    _assert_continuation_identical(
        reference,
        recovered,
        what=f"{generator_name}/{backend}/{layout}",
    )
    recovery = dict(recovered.comm_signature()).get("recovery")
    assert recovery is not None and recovery[1] > 0, (
        "restore must ship snapshot blocks through the recovery category"
    )


# ----------------------------------------------------------------------
# kill-point parametrisation (in-process)
# ----------------------------------------------------------------------
def test_kill_at_first_step_retries_from_scratch(references):
    """Nothing is checkpointed yet: ``restore`` without a stored snapshot is
    a full, identical rerun."""
    scenario = _scenario("grow_from_empty")
    reference = _replay(scenario, "sim", "dhb")
    recovered = _replay(scenario, "sim", "dhb", faults="kill@0", on_crash="restore")
    _assert_continuation_identical(reference, recovered, what="kill@first-step")
    # a rerun from scratch ships no snapshot blocks
    assert "recovery" not in dict(recovered.comm_signature())


def test_restore_skips_another_traces_snapshot():
    """A store shared with another trace: that trace's snapshot is not this
    one's checkpoint, so the kill reruns this trace from scratch."""
    store = S.CheckpointStore()
    other = S.with_checkpoint(S.SCENARIO_GENERATORS["grow_from_empty"](seed=1), 2)
    _replay(other, "sim", "csr", checkpoint_store=store)
    assert store.latest(0, S.scenario_fingerprint(other)) is not None
    scenario = S.SCENARIO_GENERATORS["steady_state_churn"](seed=1)
    reference = _replay(scenario, "sim", "csr")
    recovered = _replay(
        scenario,
        "sim",
        "csr",
        checkpoint_store=store,
        faults="kill@1",
        on_crash="restore",
    )
    _assert_continuation_identical(reference, recovered, what="foreign snapshot")
    assert "recovery" not in dict(recovered.comm_signature())


def test_kill_immediately_after_multiply(references):
    """Crash right after a dynamic-SpGEMM round: the maintained product and
    the per-step accounting must continue from the checkpoint, not from a
    recompute."""
    scenario = _scenario("mixed_update_multiply")
    base = S.with_checkpoint(scenario, at=3)
    reference = _replay(base, "sim", "dhb")
    # base steps: [SpGEMM, SpGEMM, Snap, CP, SpGEMM, SpGEMM, Snap];
    # index 5 is the step right after the post-checkpoint multiply
    assert isinstance(base.steps[4], S.SpGEMMStep)
    recovered = _replay(
        base,
        "sim",
        "dhb",
        checkpoint_store=S.CheckpointStore(),
        faults="kill@5",
        on_crash="restore",
    )
    _assert_continuation_identical(reference, recovered, what="kill@after-multiply")


@pytest.mark.parametrize("crash_at", (1, 4, 6))
def test_kills_armed_by_faults_argument_recover_identically(references, crash_at):
    """A ``faults="kill@k"`` plan drives the drill before the
    checkpoint (a rerun from scratch) and after it."""
    base = _base_trace("grow_from_empty")
    reference = _reference(references, "grow_from_empty", "sim", "csr")
    recovered = _replay(
        base,
        "sim",
        "csr",
        checkpoint_store=S.CheckpointStore(),
        faults=f"kill@{crash_at}",
        on_crash="restore",
    )
    _assert_continuation_identical(
        reference, recovered, what=f"faults kill@{crash_at}"
    )


ARMED = pytest.mark.parametrize(
    "armed",
    (str, lambda spec: FaultInjector(FaultPlan.parse(spec))),
    ids=("spec", "injector"),
)


@ARMED
@pytest.mark.parametrize("spec", ("kill@3:proc=1", "kill@99", "kill@{n_steps}"))
def test_kill_that_cannot_fire_is_refused(spec, armed):
    """A kill on a process the world lacks, or at or past the trace's
    length, would let the drill pass without crashing; replay refuses it."""
    base = S.with_checkpoint(S.grow_from_empty(seed=1), at=2)
    assert len(base.steps) < 99
    spec = spec.format(n_steps=len(base.steps))
    with pytest.raises(FaultPlanError, match="can never fire"):
        S.replay(base, backend="sim", n_ranks=4, faults=armed(spec), on_crash="raise")


@ARMED
def test_kill_at_the_last_step_fires(armed):
    """The last trace step is the last reachable kill point: a kill there
    is accepted and crashes the replay."""
    base = S.with_checkpoint(S.grow_from_empty(seed=1), at=2)
    last = len(base.steps) - 1
    with pytest.raises(SimulatedCrash) as excinfo:
        S.replay(
            base, backend="sim", n_ranks=4, faults=armed(f"kill@{last}"), on_crash="raise"
        )
    assert excinfo.value.step_index == last


def test_restore_gives_up_after_eight_recoveries(references):
    """Every kill fires once, so eight kills recover; a ninth crash in one
    replay is re-raised instead of recovered."""
    base = _base_trace("grow_from_empty")
    assert len(base.steps) > MAX_RECOVERIES
    reference = _reference(references, "grow_from_empty", "sim", "csr")

    def drill(n_kills: int):
        kills = ";".join(f"kill@{k}" for k in range(n_kills))
        return _replay(base, "sim", "csr", faults=kills, on_crash="restore")

    recovered = drill(MAX_RECOVERIES)
    _assert_continuation_identical(reference, recovered, what="eight kills")
    with pytest.raises(SimulatedCrash):
        drill(MAX_RECOVERIES + 1)


# ----------------------------------------------------------------------
# loopback worlds: kill the whole world, restart, resume from the store
# ----------------------------------------------------------------------
def _loopback_reference(scenario: S.Scenario, world: int, *, layout: str = "csr"):
    def program(comm_obj, world_rank):
        comm = MPIBackend(N_RANKS, comm=comm_obj)
        return S.replay(scenario, comm=comm, layout=layout)

    return run_spmd(world, program)


def _loopback_drill(
    scenario: S.Scenario,
    world: int,
    *,
    injector: FaultInjector,
    store: S.CheckpointStore | None = None,
    layout: str = "csr",
):
    store = store if store is not None else S.CheckpointStore()

    def program(comm_obj, world_rank):
        comm = MPIBackend(N_RANKS, comm=comm_obj)
        return S.replay(
            scenario,
            comm=comm,
            layout=layout,
            checkpoint_store=store,
            resume_from=store.latest(world_rank, S.scenario_fingerprint(scenario)),
            faults=injector,
            on_crash="raise",
        )

    return S.run_with_recovery(world, program)


@pytest.mark.parametrize("world", WORLD_SIZES)
@pytest.mark.parametrize("generator_name", LOOPBACK_GENERATORS)
def test_loopback_world_crash_and_restore(generator_name, world):
    base = _base_trace(generator_name)
    refs = _loopback_reference(base, world)
    plan = FaultPlan.parse(f"kill@{CRASH_AT}")
    results = _loopback_drill(base, world, injector=FaultInjector(plan))
    assert len(results) == world
    for rank, (reference, recovered) in enumerate(zip(refs, results)):
        _assert_continuation_identical(
            reference,
            recovered,
            what=f"{generator_name}@world={world} rank {rank}",
        )


@pytest.mark.parametrize("world", (2, 4))
@pytest.mark.parametrize("proc", (0, 1))
def test_loopback_process_specific_kill(proc, world):
    """Killing a single process still tears down (and recovers) the world."""
    base = _base_trace("grow_from_empty")
    refs = _loopback_reference(base, world)
    plan = FaultPlan.parse(f"kill@{CRASH_AT}:proc={proc}")
    results = _loopback_drill(base, world, injector=FaultInjector(plan))
    for reference, recovered in zip(refs, results):
        _assert_continuation_identical(
            reference, recovered, what=f"proc{proc}-kill@world={world}"
        )


@pytest.mark.parametrize("world", (2, 4))
def test_loopback_kill_right_after_checkpoint(world):
    """A world kill at the step after the checkpoint: every process has
    stored the checkpoint before any of them can reach the kill, so all
    resume from the same cursor."""
    base = _base_trace("grow_from_empty")
    refs = _loopback_reference(base, world)
    plan = FaultPlan.parse(f"kill@{CHECKPOINT_AT + 1}")
    results = _loopback_drill(base, world, injector=FaultInjector(plan))
    for reference, recovered in zip(refs, results):
        _assert_continuation_identical(
            reference, recovered, what=f"kill-after-checkpoint@world={world}"
        )


def test_loopback_gives_up_after_eight_restarts():
    """The loopback restart loop shares replay's cap: eight world kills
    recover, a ninth crash is re-raised."""
    base = _base_trace("grow_from_empty")
    assert len(base.steps) > MAX_RECOVERIES
    refs = _loopback_reference(base, 2)

    def drill(n_kills: int):
        kills = ";".join(f"kill@{k}" for k in range(n_kills))
        injector = FaultInjector(FaultPlan.parse(kills))
        return _loopback_drill(base, 2, injector=injector)

    for reference, recovered in zip(refs, drill(MAX_RECOVERIES)):
        _assert_continuation_identical(reference, recovered, what="eight kills")
    with pytest.raises(RuntimeError) as excinfo:
        drill(MAX_RECOVERIES + 1)
    assert crash_cause(excinfo.value) is not None


def _placement_kill_drill(world: int, partitioner: str) -> None:
    """Crash a world running on ``partitioner``'s placement and resume it
    *without* ``partitioner=``: the restored world must re-install the
    snapshot's map and continue byte-identically."""
    # 9 logical ranks over 2/4 processes: neither world divides the 3x3
    # grid, so neither strategy's placement is round-robin
    n_ranks = 9
    base = S.with_checkpoint(
        S.SCENARIO_GENERATORS["bursty_skewed_stream"](seed=SEED), at=3
    )

    def reference_program(comm_obj, world_rank):
        comm = MPIBackend(n_ranks, comm=comm_obj)
        result = S.replay(base, comm=comm, layout="csr", partitioner=partitioner)
        return result, comm.placement()

    refs = run_spmd(world, reference_program)
    round_robin = RoundRobinPartitioner().placement(n_ranks, world)
    assert all(placement != round_robin for _, placement in refs)

    store = S.CheckpointStore()
    injector = FaultInjector(FaultPlan.parse("kill@6"))

    def drill_program(comm_obj, world_rank):
        comm = MPIBackend(n_ranks, comm=comm_obj)
        resume = store.latest(world_rank, S.scenario_fingerprint(base))
        result = S.replay(
            base,
            comm=comm,
            layout="csr",
            partitioner=None if resume is not None else partitioner,
            checkpoint_store=store,
            resume_from=resume,
            faults=injector,
            on_crash="raise",
        )
        return result, comm.placement()

    results = S.run_with_recovery(world, drill_program)
    for (reference, ref_placement), (recovered, got_placement) in zip(refs, results):
        _assert_continuation_identical(
            reference, recovered, what=f"kill@{partitioner} world={world}"
        )
        assert got_placement == ref_placement


@pytest.mark.parametrize("world", (2, 4))
def test_kill_on_nnz_aware_placement_resumes_it(world):
    """Crash on a weight-derived placement: the snapshot carries the map."""
    _placement_kill_drill(world, "nnz_aware")


@pytest.mark.parametrize("world", (2, 4))
def test_kill_on_locality_aware_placement_resumes_it(world):
    """Crash on a grid-banded placement: the snapshot carries the map."""
    _placement_kill_drill(world, "locality_aware")
