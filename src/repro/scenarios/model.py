"""Declarative, fully seeded scenario model for dynamic-graph traces.

A :class:`Scenario` is a replayable description of one experiment protocol:
an optional pre-loaded initial matrix, an optional fixed right-hand operand
``B`` for SpGEMM steps, and an ordered list of *steps*.  Steps carry their
update tuples in **global** coordinates plus an explicit per-step partition
seed, so a scenario replays bit-for-bit on any
:class:`~repro.runtime.backend.Communicator` backend, any rank count and any
local storage layout — the property the cross-backend differential harness
in ``tests/test_scenarios_differential.py`` relies on.

Step types (mirroring the paper's Sections IV-A and VII):

* :class:`InsertBatch` — structural insertions (semiring ``ADD``);
* :class:`ValueUpdateBatch` — value overwrites (``MERGE``);
* :class:`DeleteBatch` — deletions (``MASK``);
* :class:`SpGEMMStep` — a dynamic-SpGEMM round: apply the carried batch to
  ``A`` *and* bring the maintained product ``C = A·B`` up to date
  (Algorithm 1 for ``mode="algebraic"``, Algorithm 2 for ``mode="general"``);
* :class:`SnapshotCheck` — an untimed assertion point (expected ``nnz``
  and/or a full recompute-and-compare of the maintained product);
* the *application* steps (Section I workloads): :class:`TriangleCountCheck`
  and :class:`ShortestPathCheck` query the incremental application state an
  :class:`AppSpec` scenario maintains across its update steps, and
  :class:`ContractStep` contracts the current graph along a clustering —
  each records a byte-comparable result the differential harness pins
  across backends and world sizes.

:class:`ScenarioResult` is the structured outcome of one replay: canonical
final tuples, per-step statistics, recorded application query results and
the per-category communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from repro.semirings import Semiring, get_semiring

__all__ = [
    "TupleArrays",
    "ScenarioStep",
    "InsertBatch",
    "DeleteBatch",
    "ValueUpdateBatch",
    "SpGEMMStep",
    "SnapshotCheck",
    "CheckpointStep",
    "AppSpec",
    "AppQueryStep",
    "TriangleCountCheck",
    "ShortestPathCheck",
    "ContractStep",
    "AppQueryResult",
    "Scenario",
    "StepStats",
    "CONTROL_KINDS",
    "ScenarioResult",
    "canonical_tuples",
    "spawn_seeds",
    "seed_int",
]

TupleArrays = tuple[np.ndarray, np.ndarray, np.ndarray]

#: step kinds that steer a replay rather than measure it; neither
#: ``measured_steps()`` nor ``applied_counts`` reads their records
CONTROL_KINDS = ("snapshot", "checkpoint")

#: Salt mixed into the scenario seed when deriving per-step partition seeds.
_PARTITION_SALT = 0x5CE7A410

#: Dedicated salt for the construction scatter seed.  It must NOT share the
#: partition-seed stream: the construct seed used to be the last child of
#: that pool, which made its value depend on *how many* step seeds were
#: still missing — so a scenario rebuilt from fully-seeded steps (the
#: checkpoint/trace-log path) silently constructed with a different scatter
#: order than the original.
_CONSTRUCT_SALT = 0x5CE7A411


def spawn_seeds(
    key: "int | list[int] | np.random.SeedSequence", n: int
) -> list[np.random.SeedSequence]:
    """``n`` independent child seed sequences of an entropy key.

    The single derivation point for all scenario-related seeding (step
    partition seeds, generator pools, workload batches): children of
    different keys never collide, and keeping one implementation guarantees
    that every producer derives seeds the same way — the property the
    bit-identical replay contract rests on.
    """
    parent = (
        key
        if isinstance(key, np.random.SeedSequence)
        else np.random.SeedSequence(key)
    )
    return parent.spawn(n)


def seed_int(seq: np.random.SeedSequence) -> int:
    """Collapse a seed sequence to a plain ``int`` seed."""
    return int(seq.generate_state(1)[0])


def _clean_tuples(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> TupleArrays:
    rows = np.ascontiguousarray(np.asarray(rows, dtype=np.int64))
    cols = np.ascontiguousarray(np.asarray(cols, dtype=np.int64))
    values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if not (rows.size == cols.size == values.size):
        raise ValueError("rows, cols and values must have identical lengths")
    return rows, cols, values


def trimmed_mean_seconds(times: "list[float]") -> float:
    """Mean with the extreme samples dropped: the smallest and the largest
    of ≥ 4 samples, the largest of 3, none of fewer.

    Per-step wall-clock measurements at benchmark smoke scale are sub-100µs,
    where a single GC pause or scheduler stall (or the interpreter's cold
    start on the very first step) can dwarf the signal; trimming both ends
    makes the reported means robust against such outliers.
    """
    if not times:
        return float("nan")
    times = sorted(times)
    if len(times) >= 4:
        times = times[1:-1]
    elif len(times) == 3:
        times = times[:-1]
    return sum(times) / len(times)


def canonical_tuples(coo) -> TupleArrays:
    """Sorted ``(rows, cols, values)`` of a COO matrix, for comparisons."""
    coo = coo.sort()
    return (
        np.asarray(coo.rows, dtype=np.int64).copy(),
        np.asarray(coo.cols, dtype=np.int64).copy(),
        np.asarray(coo.values).copy(),
    )


# ----------------------------------------------------------------------
# steps
# ----------------------------------------------------------------------
@dataclass
class ScenarioStep:
    """Base class of the tuple-carrying steps (global coordinates)."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    #: seed used to scatter the batch round-robin over ranks at replay time;
    #: assigned deterministically by :class:`Scenario` when left ``None``.
    partition_seed: int | None = None
    label: str = ""

    kind = "insert"

    def __post_init__(self) -> None:
        self.rows, self.cols, self.values = _clean_tuples(
            self.rows, self.cols, self.values
        )

    @property
    def n_tuples(self) -> int:
        return int(self.rows.size)

    def tuples(self) -> TupleArrays:
        return self.rows, self.cols, self.values

    def per_rank(self, n_ranks: int) -> dict[int, TupleArrays]:
        """The batch scattered over ranks exactly as replay scatters it."""
        from repro.distributed import partition_tuples_round_robin

        return partition_tuples_round_robin(
            self.rows, self.cols, self.values, n_ranks, seed=self.partition_seed
        )


@dataclass
class InsertBatch(ScenarioStep):
    """Structural insertions, ⊕-combined with existing entries (ADD)."""

    kind = "insert"


@dataclass
class ValueUpdateBatch(ScenarioStep):
    """Value overwrites of existing (or new) entries (MERGE)."""

    kind = "update"


@dataclass
class DeleteBatch(ScenarioStep):
    """Deletions; the values are ignored markers (MASK)."""

    kind = "delete"


@dataclass
class SpGEMMStep(ScenarioStep):
    """One dynamic-SpGEMM round driven by the carried batch.

    The batch is one ``a_batch`` of the scenario's
    :class:`~repro.core.api.DynamicProduct`.  ``mode="algebraic"`` runs
    Algorithm 1: the batch becomes the hypersparse update matrix ``A*``,
    ``C ⊕= A*·B`` and then ``A ⊕= A*`` (additive inserts only).
    ``mode="general"`` applies the batch with ``kind`` semantics and runs
    Algorithm 2.
    """

    mode: str = "algebraic"
    #: how the batch applies to ``A`` (general mode): insert/update/delete
    kind: str = "insert"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("algebraic", "general"):
            raise ValueError(
                f"unknown SpGEMM mode {self.mode!r} (use 'algebraic' or 'general')"
            )
        if self.kind not in ("insert", "update", "delete"):
            raise ValueError(
                f"unknown SpGEMM batch kind {self.kind!r} "
                "(use 'insert', 'update' or 'delete')"
            )
        if self.mode == "algebraic" and self.kind != "insert":
            raise ValueError(
                f"an algebraic SpGEMM step only takes additive inserts, not "
                f"kind {self.kind!r} (use mode='general')"
            )


@dataclass
class SnapshotCheck:
    """Untimed assertion point in a scenario.

    ``expect_nnz`` checks the structural non-zero count of the maintained
    matrix ``A``; ``verify_product`` recomputes ``A·B`` from scratch and
    compares it against the maintained ``C`` (only meaningful for scenarios
    whose every ``A`` change flows through :class:`SpGEMMStep`).
    """

    expect_nnz: int | None = None
    verify_product: bool = False
    label: str = ""

    kind = "snapshot"

    @property
    def n_tuples(self) -> int:
        return 0


# ----------------------------------------------------------------------
# fault-tolerance control steps
# ----------------------------------------------------------------------
@dataclass
class CheckpointStep:
    """Snapshot the full world state into the replay's checkpoint store.

    The snapshot (see :mod:`repro.scenarios.checkpoint`) captures every
    piece of state the remaining trace needs: owned blocks in their exact
    layout-internal form, the placement map, app/product state, per-step
    statistics and communication counters up to (and including) this step.
    Untimed and communication-free on the charged categories — assembling
    the snapshot uses the uncharged control plane.
    """

    label: str = ""

    kind = "checkpoint"

    @property
    def n_tuples(self) -> int:
        return 0


# ----------------------------------------------------------------------
# application steps
# ----------------------------------------------------------------------
@dataclass
class AppSpec:
    """Application state a scenario maintains across its update steps.

    ``name`` selects the application the replay executor instantiates at
    construction time and routes every update step through:

    * ``"triangle"`` — :class:`repro.apps.DynamicTriangleCounter`; insert
      steps become undirected edge insertions maintaining ``A²``.
    * ``"sssp"`` — :class:`repro.apps.DynamicMultiSourceShortestPaths`
      (requires ``sources`` and a ``min_plus`` scenario semiring); insert
      and value-update steps become general weight updates, delete steps
      become edge deletions.
    """

    name: str
    #: source vertices of the ``"sssp"`` application
    sources: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.name not in ("triangle", "sssp"):
            raise ValueError(
                f"unknown application {self.name!r} (use 'triangle' or 'sssp')"
            )
        if self.name == "sssp":
            if self.sources is None:
                raise ValueError("the sssp application requires source vertices")
            self.sources = np.ascontiguousarray(
                np.asarray(self.sources, dtype=np.int64)
            )


@dataclass
class AppQueryStep:
    """Base class of the application query steps (no update tuples).

    Query steps are timed like update steps (they do real distributed
    work), return an operation count via ``StepStats.applied`` and record a
    byte-comparable payload in ``ScenarioResult.app_results``.
    """

    label: str = ""

    kind = "app_query"

    @property
    def n_tuples(self) -> int:
        return 0


@dataclass
class TriangleCountCheck(AppQueryStep):
    """Query the maintained triangle count (``triangle`` scenarios).

    When ``expect`` is set, replay raises
    :class:`~repro.scenarios.replay.ScenarioCheckError` on a mismatch
    (suppressed by ``check_snapshots=False``, like :class:`SnapshotCheck`).
    """

    expect: int | None = None

    kind = "triangle_count"


@dataclass
class ShortestPathCheck(AppQueryStep):
    """Query the full multi-source distances (``sssp`` scenarios).

    Records the canonical finite-distance tuples
    ``(source_index, vertex, distance)``; ``expect_tuples`` (same form)
    pins them at replay time.  ``max_hops`` bounds the Bellman-Ford sweep.
    """

    expect_tuples: TupleArrays | None = None
    max_hops: int | None = None

    kind = "shortest_path"


@dataclass
class ContractStep(AppQueryStep):
    """Contract the current graph along ``clusters`` (``Sᵀ·A·S``).

    Available in any scenario (with or without an :class:`AppSpec`):
    the contraction runs on the maintained matrix ``A`` — two distributed
    SUMMA products — and records the contracted graph's canonical COO
    tuples.  ``expect_tuples`` pins structure exactly and values up to
    float round-off.
    """

    clusters: np.ndarray = None  # type: ignore[assignment]
    n_clusters: int | None = None
    drop_self_loops: bool = False
    expect_tuples: TupleArrays | None = None

    kind = "contract"

    def __post_init__(self) -> None:
        if self.clusters is None:
            raise ValueError("ContractStep requires a clusters array")
        self.clusters = np.ascontiguousarray(np.asarray(self.clusters, dtype=np.int64))


# ----------------------------------------------------------------------
# the scenario
# ----------------------------------------------------------------------
@dataclass
class Scenario:
    """A replayable, fully seeded dynamic-graph trace.

    All randomness that went into the trace is already materialised in the
    step tuples; the only seeds consumed at replay time are the per-step
    partition seeds (assigned here when missing, derived from ``seed``), so
    two replays of the same scenario are identical regardless of backend.
    """

    name: str
    shape: tuple[int, int]
    steps: list[
        ScenarioStep | SnapshotCheck | CheckpointStep | AppQueryStep
    ] = field(default_factory=list)
    #: pre-loaded matrix content, constructed before the trace runs
    initial_tuples: TupleArrays | None = None
    #: fixed right-hand operand for SpGEMM steps
    b_tuples: TupleArrays | None = None
    #: application maintained across the update steps (None: plain matrix)
    app: AppSpec | None = None
    semiring_name: str = "plus_times"
    seed: int = 0
    #: scatter seed for the initial construction
    construct_seed: int | None = None
    #: when True, the initial construction is measured as step ``construct``
    timed_construction: bool = False
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n, m = self.shape
        if n < 0 or m < 0:
            raise ValueError("scenario shape must be non-negative")
        if self.initial_tuples is not None:
            self.initial_tuples = _clean_tuples(*self.initial_tuples)
            self._check_bounds(*self.initial_tuples[:2], what="initial tuples")
        if self.b_tuples is not None:
            self.b_tuples = _clean_tuples(*self.b_tuples)
            self._check_bounds(*self.b_tuples[:2], what="B tuples")
        # Deterministically derive missing partition seeds from the scenario
        # seed: independent SeedSequence children, collision-free across
        # scenarios with different seeds (unlike ``seed + index`` schemes).
        missing = [
            s
            for s in self.steps
            if isinstance(s, ScenarioStep) and s.partition_seed is None
        ]
        if missing:
            children = spawn_seeds([int(self.seed), _PARTITION_SALT], len(missing))
            for step, child in zip(missing, children):
                step.partition_seed = seed_int(child)
        if self.construct_seed is None:
            self.construct_seed = seed_int(
                spawn_seeds([int(self.seed), _CONSTRUCT_SALT], 1)[0]
            )
        for step in self.steps:
            if isinstance(step, ScenarioStep):
                self._check_bounds(step.rows, step.cols, what=f"step {step.label!r}")
            elif isinstance(step, ContractStep) and step.clusters.size != n:
                raise ValueError(
                    f"step {step.label!r}: clustering has {step.clusters.size} "
                    f"entries but the scenario matrix has {n} rows"
                )
        if self.app is not None:
            if self.has_spgemm:
                raise ValueError(
                    "application scenarios maintain their own product; "
                    "SpGEMMStep steps are not allowed alongside an AppSpec"
                )
            if self.app.name == "sssp" and self.semiring_name != "min_plus":
                raise ValueError(
                    "the sssp application requires semiring_name='min_plus'"
                )
            if self.app.name == "triangle":
                bad = sorted(
                    {
                        s.kind
                        for s in self.steps
                        if isinstance(s, ScenarioStep) and s.kind != "insert"
                    }
                )
                if bad:
                    raise ValueError(
                        "the triangle application maintains A² additively; "
                        f"only insert steps are expressible (got {bad})"
                    )

    # ------------------------------------------------------------------
    def _check_bounds(
        self, rows: np.ndarray, cols: np.ndarray, *, what: str
    ) -> None:
        n, m = self.shape
        if rows.size and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= m
        ):
            raise ValueError(f"{what} contain coordinates outside shape {self.shape}")

    # ------------------------------------------------------------------
    @property
    def semiring(self) -> Semiring:
        return get_semiring(self.semiring_name)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def update_steps(self) -> Iterator[ScenarioStep]:
        """The tuple-carrying (timed) steps, in order."""
        for step in self.steps:
            if isinstance(step, ScenarioStep):
                yield step

    @property
    def total_update_tuples(self) -> int:
        return sum(step.n_tuples for step in self.update_steps())

    @property
    def has_spgemm(self) -> bool:
        return any(isinstance(s, SpGEMMStep) for s in self.steps)

    @property
    def has_general_spgemm(self) -> bool:
        return any(
            isinstance(s, SpGEMMStep) and s.mode == "general" for s in self.steps
        )

    def describe(self) -> dict[str, Any]:
        counts: dict[str, int] = {}
        for step in self.steps:
            counts[step.kind] = counts.get(step.kind, 0) + 1
        return {
            "name": self.name,
            "shape": list(self.shape),
            "semiring": self.semiring_name,
            "seed": self.seed,
            "steps": counts,
            "total_update_tuples": self.total_update_tuples,
            **self.metadata,
        }

    # ------------------------------------------------------------------
    def replay(self, options=None, *, comm=None, **fields) -> "ScenarioResult":
        """Run this scenario; see :func:`repro.scenarios.replay.replay`."""
        from repro.scenarios.replay import replay

        return replay(self, options, comm=comm, **fields)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class StepStats:
    """Measured outcome of one replayed step."""

    index: int
    kind: str
    label: str
    n_tuples: int
    #: operation-specific count: entries created / changed / deleted,
    #: result entries touched for SpGEMM steps, blocks restored for a
    #: restore; 0 for snapshots and checkpoints
    applied: int
    #: measured seconds of the timed region (0.0 for snapshots and
    #: checkpoints, which run untimed)
    seconds: float
    comm_messages: int = 0
    comm_bytes: int = 0
    supported: bool = True

    def as_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "kind": self.kind,
            "label": self.label,
            "n_tuples": self.n_tuples,
            "applied": self.applied,
            "seconds": self.seconds,
            "comm_messages": self.comm_messages,
            "comm_bytes": self.comm_bytes,
            "supported": self.supported,
        }


@dataclass
class AppQueryResult:
    """Recorded payload of one application query step.

    ``payload`` is an ``int`` for triangle counts and a
    :data:`TupleArrays` triple for shortest-path distances and contracted
    graphs — byte-comparable forms the differential harness asserts are
    identical across backends, layouts and world sizes.
    """

    index: int
    kind: str
    label: str
    payload: Any

    def payload_json(self) -> Any:
        """JSON-friendly form of the payload (for the CI artifacts)."""
        if isinstance(payload := self.payload, tuple):
            return [np.asarray(part).tolist() for part in payload]
        return payload


@dataclass
class ScenarioResult:
    """Structured outcome of one scenario replay."""

    scenario: str
    backend: str
    n_ranks: int
    layout: str
    semiring_name: str
    steps: list[StepStats]
    #: canonical (sorted) final tuples of the maintained matrix ``A``
    final_a: TupleArrays
    #: canonical final tuples of the maintained product ``C`` (if any)
    final_c: TupleArrays | None
    #: ``kind -> summed applied counts`` over all steps of that kind
    applied_counts: dict[str, int]
    #: full per-category accounting of the replay (snapshot diff, as_dict)
    comm_stats: dict[str, dict[str, float]]
    #: accounting restricted to the update steps (excludes construction)
    update_stats: dict[str, dict[str, float]]
    #: index of the first unsupported step, or None when all steps ran
    truncated_at: int | None = None
    elapsed_modeled: float = 0.0
    #: recorded application query payloads, in step order
    app_results: list[AppQueryResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    def comm_signature(self) -> dict[str, tuple[int, int]]:
        """``category -> (messages, bytes)``, zero categories dropped.

        This is the quantity the differential harness requires to match
        across backends: logical traffic, independent of timing.
        """
        out: dict[str, tuple[int, int]] = {}
        for name, totals in sorted(self.comm_stats.items()):
            msgs = int(totals.get("messages", 0))
            nbytes = int(totals.get("bytes", 0))
            if msgs or nbytes:
                out[name] = (msgs, nbytes)
        return out

    def total_comm_bytes(self) -> int:
        return sum(b for _m, b in self.comm_signature().values())

    def total_comm_messages(self) -> int:
        return sum(m for m, _b in self.comm_signature().values())

    # ------------------------------------------------------------------
    def measured_steps(self, kinds: tuple[str, ...] | None = None) -> list[StepStats]:
        """Supported steps that do the measured work (no control steps),
        optionally filtered by kind."""
        out = []
        for s in self.steps:
            if s.kind in CONTROL_KINDS or not s.supported:
                continue
            if kinds is not None and s.kind not in kinds:
                continue
            out.append(s)
        return out

    def trimmed_mean_step_seconds(
        self, kinds: tuple[str, ...] | None = None
    ) -> float:
        """Outlier-robust per-step mean; see :func:`trimmed_mean_seconds`."""
        return trimmed_mean_seconds([s.seconds for s in self.measured_steps(kinds)])

    def breakdown(
        self, categories: tuple[str, ...], *, include_construction: bool = False
    ) -> dict[str, float]:
        """Modelled seconds per category over the update (or all) steps."""
        source: Mapping[str, Mapping[str, float]] = (
            self.comm_stats if include_construction else self.update_stats
        )
        return {
            name: float(source.get(name, {}).get("modeled_seconds", 0.0))
            for name in categories
        }

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly summary (used for the CI comm-stats artifacts)."""
        return {
            "scenario": self.scenario,
            "backend": self.backend,
            "n_ranks": self.n_ranks,
            "layout": self.layout,
            "semiring": self.semiring_name,
            "final_nnz": int(self.final_a[0].size),
            "final_c_nnz": (
                int(self.final_c[0].size) if self.final_c is not None else None
            ),
            "applied_counts": dict(self.applied_counts),
            "comm_signature": {
                k: {"messages": m, "bytes": b}
                for k, (m, b) in self.comm_signature().items()
            },
            "elapsed_modeled": self.elapsed_modeled,
            "truncated_at": self.truncated_at,
            "steps": [s.as_dict() for s in self.steps],
            "app_results": [
                {
                    "index": r.index,
                    "kind": r.kind,
                    "label": r.label,
                    "payload": r.payload_json(),
                }
                for r in self.app_results
            ],
        }
