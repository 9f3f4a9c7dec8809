"""The always-on graph service: long-lived worlds, tenants, micro-batches.

:class:`GraphService` turns the batch pipeline into a serving system.  One
:class:`~repro.runtime.world.ServiceWorld` persists across everything; each
*tenant* is an independent dynamic graph multiplexed over that world with

* its own minted communicator (isolated per-tenant comm/stat accounting
  and an independent logical-rank namespace — tenants size their grids
  freely),
* its own live :class:`~repro.scenarios.engine.ScenarioEngine` holding the
  incrementally-maintained state (matrix, SpGEMM product, application),
* its own :class:`~repro.service.queue.MicroBatchQueue` coalescing
  insert/update/delete requests into micro-batches,
* its own **request log** — a real
  :class:`~repro.scenarios.model.Scenario` that grows one coalesced step
  per flush.

The log is the correctness oracle: at any flush boundary,
``replay(tenant.log, options=tenant.replay_options())`` on a cold world
must reproduce the tenant's state **byte-identically** — final tuples,
application query payloads and per-category comm volume.  The engine is
the same code on both paths, partition seeds are pre-assigned from the
same ``SeedSequence`` stream ``Scenario`` itself derives missing seeds
from, and mid-trace result sampling uses only the uncharged control
plane, so the equality is structural, not statistical.

Queries (:meth:`GraphTenant.triangle_count`,
:meth:`~GraphTenant.shortest_paths`, :meth:`~GraphTenant.contract`) are
answered against **consistent snapshots**: the tenant's pending requests
are flushed first, so every answer reflects exactly the micro-batches
applied so far and lands in the log as a replayable query step.

SPMD discipline: like every orchestration program in this repository, a
service over a multi-process world is driven identically on every
process; tenant operations execute sequentially in submission order, so
minted communicators never interleave collectives on the shared
transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from repro.runtime.backend import Communicator
from repro.runtime.world import ServiceWorld
from repro.scenarios.engine import ScenarioEngine
from repro.scenarios.model import (
    AppSpec,
    ContractStep,
    DeleteBatch,
    InsertBatch,
    Scenario,
    ScenarioResult,
    ShortestPathCheck,
    SnapshotCheck,
    SpGEMMStep,
    TriangleCountCheck,
    TupleArrays,
    ValueUpdateBatch,
    _PARTITION_SALT,
    seed_int,
)
from repro.scenarios.options import ReplayOptions
from repro.service.queue import FlushPolicy, IngestRequest, MicroBatchQueue, coalesce

__all__ = ["ServiceConfig", "GraphService", "GraphTenant"]

_STEP_CLASSES = {
    "insert": InsertBatch,
    "update": ValueUpdateBatch,
    "delete": DeleteBatch,
}

#: ``ReplayOptions`` fields only a cold replay acts on; a tenant cannot
#: honour them, so ``create_tenant`` refuses them rather than drop them
_REPLAY_ONLY_FIELDS = (
    "faults",
    "resume_from",
    "on_crash",
    "collect_final",
    "checkpoint_store",
)


@dataclass
class ServiceConfig:
    """Service-wide defaults; tenants may override at creation time.

    ``replay`` is the shared configuration surface: the tenant's engine
    runs under it *and* :meth:`GraphTenant.replay_options` hands the very
    same bundle to the cold-replay oracle, so there is one source of truth
    for layout, placement, executor and snapshot checking.  Fields only a
    cold replay acts on (faults, resuming, crash recovery, a checkpoint
    store, ``collect_final``, a backend other than the world's) must stay
    at their defaults.  The queue knobs map onto
    :class:`~repro.service.queue.FlushPolicy`.
    """

    replay: ReplayOptions = field(default_factory=lambda: ReplayOptions(n_ranks=4))
    flush_max_requests: int = 8
    flush_max_delay: float | None = None

    def flush_policy(self) -> FlushPolicy:
        """The queue policy this configuration describes."""
        return FlushPolicy(
            max_requests=self.flush_max_requests, max_delay=self.flush_max_delay
        )


class GraphTenant:
    """One independent dynamic graph served by a :class:`GraphService`.

    Created through :meth:`GraphService.create_tenant`; all ingestion and
    query methods live here.  The tenant owns a live engine (world state)
    and a growing request log; ``tenant.log`` plus
    ``tenant.replay_options()`` is everything a cold replay needs.
    """

    def __init__(
        self,
        service: "GraphService",
        name: str,
        log: Scenario,
        comm: Communicator,
        config: ServiceConfig,
    ) -> None:
        self._service = service
        self.name = name
        self.log = log
        self.comm = comm
        self.config = config
        self.closed = False
        # Partition seeds are allocated from the exact SeedSequence stream
        # Scenario.__post_init__ uses for missing seeds, consumed
        # incrementally (SeedSequence tracks spawned children), so a log
        # rebuilt from scratch with the same tenant seed derives the same
        # per-step seeds — the bit-identical replay contract.
        self._seed_source = np.random.SeedSequence([int(log.seed), _PARTITION_SALT])
        self._queue = MicroBatchQueue(policy=config.flush_policy())
        opts = config.replay
        self._engine = ScenarioEngine(
            log,
            comm,
            layout=opts.layout,
            partitioner=opts.partitioner,
            executor_factory=opts.executor_factory,
            check_snapshots=opts.check_snapshots,
        )
        self._engine.begin()

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def submit(self, kind: str, rows, cols, values=None, *, label: str = "") -> bool:
        """Queue one request; returns True when it triggered a flush.

        Flushes inline when the request fills the micro-batch
        (flush-by-count) or when the oldest pending request has aged past
        the deadline on the service's logical clock (flush-by-deadline).
        """
        self._check_open()
        request = IngestRequest.make(kind, rows, cols, values, label=label)
        if (
            self.log.app is not None
            and self.log.app.name == "triangle"
            and kind != "insert"
        ):
            raise ValueError(
                "the triangle application maintains A² additively; "
                f"{kind!r} requests are not expressible (insert only)"
            )
        self.log._check_bounds(
            request.rows, request.cols, what=f"request {label or kind!r}"
        )
        now = self._service.now
        if self._queue.offer(request, now) or self._queue.due(now):
            self.flush()
            return True
        return False

    def insert(self, rows, cols, values=None, *, label: str = "") -> bool:
        """Queue structural insertions (⊕-combined, ADD semantics)."""
        return self.submit("insert", rows, cols, values, label=label)

    def update(self, rows, cols, values, *, label: str = "") -> bool:
        """Queue value overwrites (MERGE semantics)."""
        return self.submit("update", rows, cols, values, label=label)

    def delete(self, rows, cols, *, label: str = "") -> bool:
        """Queue deletions (MASK semantics; values are ignored markers)."""
        return self.submit("delete", rows, cols, None, label=label)

    @property
    def pending(self) -> int:
        """Requests queued but not yet applied to the world."""
        return len(self._queue)

    def flush(self) -> int:
        """Coalesce and apply every pending request; returns steps applied.

        Consecutive same-kind requests become one scenario step each (one
        distributed update round), appended to the request log with a
        pre-assigned partition seed and applied through the engine.
        """
        self._check_open()
        requests = self._queue.drain()
        if not requests:
            return 0
        applied = 0
        for group in coalesce(requests):
            step_cls = _STEP_CLASSES[group.kind]
            step = step_cls(
                rows=group.rows,
                cols=group.cols,
                values=group.values,
                partition_seed=self._next_partition_seed(),
                label=group.label or f"{group.kind}[{len(self.log.steps)}]",
            )
            self._append_and_advance(step)
            applied += 1
        return applied

    def spgemm(
        self,
        rows,
        cols,
        values=None,
        *,
        mode: str = "algebraic",
        kind: str = "insert",
        label: str = "",
    ) -> None:
        """Apply one dynamic-SpGEMM round (flushes pending requests first).

        Requires the tenant to have been created with ``b_tuples`` (the
        static right-hand operand); ``mode``/``kind`` follow
        :class:`~repro.scenarios.model.SpGEMMStep`.  A ``mode`` the tenant's
        product was not built for is refused before anything is logged.
        """
        self._check_open()
        executor = self._engine.executor
        if hasattr(executor, "product"):
            built_for = None if executor.product is None else executor.product.mode
            if mode != built_for:
                raise ValueError(
                    f"tenant {self.name!r}: a {mode!r} SpGEMM step cannot be "
                    f"applied to a product built for {built_for!r}"
                )
        self.flush()
        request = IngestRequest.make("insert", rows, cols, values, label=label)
        step = SpGEMMStep(
            rows=request.rows,
            cols=request.cols,
            values=request.values,
            partition_seed=self._next_partition_seed(),
            label=label or f"spgemm[{len(self.log.steps)}]",
            mode=mode,
            kind=kind,
        )
        self._append_and_advance(step)

    # ------------------------------------------------------------------
    # consistent-snapshot queries
    # ------------------------------------------------------------------
    def triangle_count(self, *, label: str = "") -> int:
        """Triangle count from the maintained ``A²`` (triangle tenants)."""
        step = TriangleCountCheck(label=label or f"triangles[{len(self.log.steps)}]")
        return self._run_query(step)

    def shortest_paths(
        self, *, max_hops: int | None = None, label: str = ""
    ) -> TupleArrays:
        """Multi-source distance tuples from the maintained product (sssp)."""
        step = ShortestPathCheck(
            label=label or f"distances[{len(self.log.steps)}]", max_hops=max_hops
        )
        return self._run_query(step)

    def contract(
        self,
        clusters,
        *,
        n_clusters: int | None = None,
        drop_self_loops: bool = False,
        label: str = "",
    ) -> TupleArrays:
        """Contract the current graph along ``clusters`` (``Sᵀ·A·S``)."""
        step = ContractStep(
            clusters=np.asarray(clusters, dtype=np.int64),
            n_clusters=n_clusters,
            drop_self_loops=drop_self_loops,
            label=label or f"contract[{len(self.log.steps)}]",
        )
        return self._run_query(step)

    def check_nnz(self, expect_nnz: int, *, label: str = "") -> None:
        """Assert the maintained matrix's nnz between batches.

        With ``check_snapshots`` on, a mismatch raises
        :class:`~repro.scenarios.ScenarioCheckError` before anything is
        logged, so the tenant keeps serving and its log keeps replaying.
        """
        self._check_open()
        self.flush()
        step = SnapshotCheck(
            expect_nnz=expect_nnz, label=label or f"nnz[{len(self.log.steps)}]"
        )
        if self._engine.check_snapshots:
            self._engine.executor.snapshot(step)
        self._append_and_advance(step)

    def nnz(self) -> int:
        """Structural non-zeros of the maintained matrix (uncharged)."""
        self._check_open()
        matrix = getattr(self._engine.executor, "a", None)
        if matrix is None:
            raise RuntimeError("tenant executor exposes no maintained matrix")
        return int(matrix.nnz())

    # ------------------------------------------------------------------
    # results and the oracle
    # ------------------------------------------------------------------
    def result(self, collect_final: bool = True) -> ScenarioResult:
        """Flush, then assemble the tenant's result so far.

        Byte-comparable to ``replay(tenant.log, ...)`` of the log at this
        flush boundary: tuples, app payloads and per-category comm volume.
        """
        self._check_open()
        self.flush()
        return self._engine.result(collect_final=collect_final)

    def replay_options(self) -> ReplayOptions:
        """The cold-replay oracle's configuration for this tenant."""
        return replace(
            self.config.replay,
            backend=self._service.world.backend_name,
            n_ranks=self.comm.p,
        )

    @property
    def n_steps(self) -> int:
        """Steps in the request log so far."""
        return len(self.log.steps)

    def close(self) -> None:
        """Retire the tenant: flush, then refuse further requests.

        The request log survives (it is plain data); the engine state is
        dropped with the tenant.
        """
        if self.closed:
            return
        self.flush()
        self.closed = True

    # ------------------------------------------------------------------
    def _run_query(self, step) -> Any:
        """Flush, append one query step, advance, return its payload."""
        self._check_open()
        self.flush()
        self._append_and_advance(step)
        return self._engine.app_results[-1].payload

    def _append_and_advance(self, step) -> None:
        self.log.steps.append(step)
        self._engine.advance()

    def _next_partition_seed(self) -> int:
        return seed_int(self._seed_source.spawn(1)[0])

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"tenant {self.name!r} is closed")
        if self._service.closed:
            raise RuntimeError("service is shut down")


class GraphService:
    """Many independent dynamic graphs served from one persistent world.

    Parameters
    ----------
    world:
        A :class:`~repro.runtime.world.ServiceWorld` to serve on; created
        (and owned, i.e. shut down with the service) when ``None``.
    backend, machine:
        World construction arguments when no world is passed.
    config:
        Service-wide :class:`ServiceConfig` defaults.
    """

    def __init__(
        self,
        world: ServiceWorld | None = None,
        *,
        backend: str | None = None,
        machine=None,
        config: ServiceConfig | None = None,
    ) -> None:
        self._owns_world = world is None
        self.world = (
            world if world is not None else ServiceWorld(backend, machine=machine)
        )
        self.config = config if config is not None else ServiceConfig()
        self._tenants: dict[str, GraphTenant] = {}
        self._clock = 0.0
        self.closed = False

    # ------------------------------------------------------------------
    # tenancy
    # ------------------------------------------------------------------
    def create_tenant(
        self,
        name: str,
        shape: tuple[int, int],
        *,
        seed: int = 0,
        n_ranks: int | None = None,
        initial_tuples: TupleArrays | None = None,
        b_tuples: TupleArrays | None = None,
        app: AppSpec | None = None,
        semiring_name: str = "plus_times",
        config: ServiceConfig | None = None,
    ) -> GraphTenant:
        """Provision one tenant: mint a communicator, construct its world.

        The tenant's request log starts as an empty
        :class:`~repro.scenarios.model.Scenario` carrying the construction
        inputs (``initial_tuples``, ``b_tuples``, ``app``, seeds), so a
        cold replay constructs exactly the same starting state.  A
        ``config.replay`` a tenant cannot honour raises ``ValueError``.
        """
        if self.closed:
            raise RuntimeError("service is shut down")
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already exists")
        cfg = config if config is not None else self.config
        self._check_servable(cfg.replay)
        ranks = n_ranks if n_ranks is not None else cfg.replay.n_ranks
        comm = self.world.communicator(ranks, machine=cfg.replay.machine)
        log = Scenario(
            name=name,
            shape=shape,
            steps=[],
            initial_tuples=initial_tuples,
            b_tuples=b_tuples,
            app=app,
            semiring_name=semiring_name,
            seed=seed,
            metadata={"service_tenant": name},
        )
        tenant = GraphTenant(self, name, log, comm, cfg)
        self._tenants[name] = tenant
        return tenant

    def _check_servable(self, options: ReplayOptions) -> None:
        defaults = ReplayOptions()
        for name in _REPLAY_ONLY_FIELDS:
            if getattr(options, name) != getattr(defaults, name):
                raise ValueError(
                    f"ServiceConfig.replay.{name} applies to cold replays only; "
                    "a service tenant cannot honour it"
                )
        backend = options.backend
        if backend and backend.strip().lower() != self.world.backend_name:
            raise ValueError(
                f"ServiceConfig.replay.backend={backend!r} differs from the "
                f"world's {self.world.backend_name!r} backend"
            )

    def tenant(self, name: str) -> GraphTenant:
        """Look one tenant up by name."""
        return self._tenants[name]

    @property
    def tenants(self) -> tuple[str, ...]:
        """Tenant names in creation order."""
        return tuple(self._tenants)

    def drop_tenant(self, name: str) -> None:
        """Close a tenant and release its slot (the world lives on)."""
        tenant = self._tenants.pop(name)
        tenant.close()

    # ------------------------------------------------------------------
    # the logical clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The service's logical time (explicitly advanced, never wall)."""
        return self._clock

    def advance_time(self, dt: float) -> int:
        """Advance the logical clock; flush tenants whose deadline passed.

        Returns the number of tenants flushed.  Deterministic: tenants are
        visited in creation order and the clock is identical on every
        process of the world.
        """
        if dt < 0:
            raise ValueError("time cannot run backwards")
        self._clock += float(dt)
        flushed = 0
        for tenant in self._tenants.values():
            if not tenant.closed and tenant._queue.due(self._clock):
                tenant.flush()
                flushed += 1
        return flushed

    def flush_all(self) -> int:
        """Flush every open tenant's pending requests; returns steps applied."""
        return sum(
            tenant.flush() for tenant in self._tenants.values() if not tenant.closed
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Flush and close every tenant, then retire the owned world.

        A world that was passed in stays open (its creator may serve
        another service from it); a world the service created is shut
        down.  Idempotent.
        """
        if self.closed:
            return
        for tenant in self._tenants.values():
            tenant.close()
        self.closed = True
        if self._owns_world:
            self.world.shutdown()

    def __enter__(self) -> "GraphService":
        """Context-manager entry: the service itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: shut the service down."""
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "closed" if self.closed else "open"
        return (
            f"GraphService(backend={self.world.backend_name!r}, "
            f"tenants={list(self._tenants)}, {state})"
        )
