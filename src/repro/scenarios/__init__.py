"""Replayable dynamic-graph scenarios.

The paper's experiments are all instances of one pattern — seeded streams
of insert / update / delete batches interleaved with dynamic SpGEMM — and
this package makes that pattern a first-class, declarative object instead
of a bespoke loop per benchmark driver.

Module map
----------
==============  ==========================================================
``model``       :class:`Scenario` (the declarative, fully seeded trace),
                the step types :class:`InsertBatch`, :class:`DeleteBatch`,
                :class:`ValueUpdateBatch`, :class:`SpGEMMStep`,
                :class:`SnapshotCheck`, the fault-tolerance step
                :class:`CheckpointStep`, the application pieces
                :class:`AppSpec` / :class:`TriangleCountCheck` /
                :class:`ShortestPathCheck` / :class:`ContractStep`, and the
                structured results :class:`ScenarioResult` /
                :class:`StepStats` / :class:`AppQueryResult`.
``generators``  The trace library: ``grow_from_empty``,
                ``steady_state_churn``, ``sliding_window``,
                ``bursty_skewed_stream``, ``mixed_update_multiply``, the
                application traces ``social_triangle_stream``,
                ``road_churn_sssp``, ``multilevel_contraction``, plus the
                adversarial traces ``hotspot_vertex_stream``,
                ``oscillating_insert_delete``,
                ``dhb_bucket_collision_stream``;
                registry ``SCENARIO_GENERATORS`` and
                :func:`library_scenarios`.
``engine``      :class:`ScenarioEngine` — the incremental step-application
                engine shared by :func:`replay` and the always-on
                :class:`repro.service.GraphService` (construct / advance /
                result over a trace that may keep growing).
``executors``   :class:`NativeExecutor` (the paper's machinery, app-aware
                on :class:`AppSpec` scenarios) and
                :class:`CompetitorExecutor` (benchmark backends).
``options``     :class:`ReplayOptions` — the replay configuration bundle,
                shared with the service config (the cold-replay oracle
                runs under exactly the tenant's options).
``replay``      :func:`replay` — run any scenario on any communicator
                backend and rank count, with fault injection
                (``faults=``, whose ``kill@k`` clause is the one way to
                crash a replay) and raise-or-restore crash recovery
                (``on_crash=``).
``checkpoint``  Durable snapshots and the drill helpers:
                :func:`build_snapshot` / :func:`restore_state` (called
                only by ``ScenarioEngine.begin(resume=)``),
                :func:`save_snapshot` / :func:`load_snapshot`,
                :class:`CheckpointStore` (keyed by trace fingerprint and
                process), :func:`scenario_fingerprint`,
                the trace editor :func:`with_checkpoint`, and the
                loopback drill loop :func:`run_with_recovery`.
==============  ==========================================================

A scenario materialises all randomness at generation time (per-step tuples
plus explicit partition seeds derived via ``SeedSequence``), so one trace
replays bit-for-bit on the ``sim`` and ``mpi`` backends — the property the
cross-backend differential suite (``tests/test_scenarios_differential.py``)
asserts for every library scenario on both backends.
"""

from repro.scenarios.model import (
    AppQueryResult,
    AppQueryStep,
    AppSpec,
    CheckpointStep,
    ContractStep,
    DeleteBatch,
    InsertBatch,
    Scenario,
    ScenarioResult,
    ScenarioStep,
    ShortestPathCheck,
    SnapshotCheck,
    SpGEMMStep,
    StepStats,
    TriangleCountCheck,
    ValueUpdateBatch,
    canonical_tuples,
)
from repro.scenarios.generators import (
    SCENARIO_GENERATORS,
    bursty_skewed_stream,
    dhb_bucket_collision_stream,
    grow_from_empty,
    hotspot_vertex_stream,
    library_scenarios,
    mixed_update_multiply,
    multilevel_contraction,
    oscillating_insert_delete,
    road_churn_sssp,
    sliding_window,
    social_triangle_stream,
    steady_state_churn,
)
from repro.scenarios.engine import ScenarioEngine
from repro.scenarios.options import ReplayOptions
from repro.scenarios.replay import (
    CompetitorExecutor,
    NativeExecutor,
    ScenarioCheckError,
    replay,
)
from repro.scenarios.checkpoint import (
    SNAPSHOT_VERSION,
    CheckpointStore,
    SnapshotFormatError,
    build_snapshot,
    check_snapshot,
    load_snapshot,
    restore_state,
    run_with_recovery,
    save_snapshot,
    scenario_fingerprint,
    with_checkpoint,
)

__all__ = [
    "Scenario",
    "ScenarioStep",
    "InsertBatch",
    "DeleteBatch",
    "ValueUpdateBatch",
    "SpGEMMStep",
    "SnapshotCheck",
    "AppSpec",
    "AppQueryStep",
    "TriangleCountCheck",
    "ShortestPathCheck",
    "ContractStep",
    "AppQueryResult",
    "ScenarioResult",
    "StepStats",
    "canonical_tuples",
    "SCENARIO_GENERATORS",
    "library_scenarios",
    "grow_from_empty",
    "steady_state_churn",
    "sliding_window",
    "bursty_skewed_stream",
    "mixed_update_multiply",
    "social_triangle_stream",
    "road_churn_sssp",
    "multilevel_contraction",
    "hotspot_vertex_stream",
    "oscillating_insert_delete",
    "dhb_bucket_collision_stream",
    "CheckpointStep",
    "replay",
    "ReplayOptions",
    "ScenarioEngine",
    "NativeExecutor",
    "CompetitorExecutor",
    "ScenarioCheckError",
    "SNAPSHOT_VERSION",
    "CheckpointStore",
    "SnapshotFormatError",
    "build_snapshot",
    "check_snapshot",
    "load_snapshot",
    "restore_state",
    "run_with_recovery",
    "save_snapshot",
    "scenario_fingerprint",
    "with_checkpoint",
]
