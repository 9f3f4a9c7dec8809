"""The five ledger workloads: inputs from a seed, one pass, verification.

A *pass* builds a fresh world, applies the whole workload and reads the
result back, timing three regions separately: ``setup`` (world or service
creation plus ``begin()`` / ``create_tenant`` with pre-load), ``ops`` (the
timed pass: one sample per operation) and ``read`` (the queryable result;
for the SpGEMM workloads also the static SUMMA recomputes).

The program is driven only through public entry points:
``ScenarioEngine.begin/advance/result``, ``GraphService`` / ``GraphTenant``,
``summa_spgemm``, ``replay``, ``run_spmd`` and ``make_communicator``.

Sizes are frozen in :data:`SIZES`.  A pass is short (about a second on the
2-core reference box) so that a run has many of them: every timing is a
lower envelope over the passes (see ``metrics.end_to_end``), and the
envelope needs repetitions more than it needs long passes.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import repro
from repro import MachineModel, make_communicator
from repro.perf import use_recorder
from repro.runtime import run_spmd
from repro.scenarios import (
    AppSpec,
    DeleteBatch,
    InsertBatch,
    ReplayOptions,
    Scenario,
    ScenarioEngine,
    SpGEMMStep,
    ValueUpdateBatch,
    replay,
)
from repro.service import GraphService, ServiceConfig

from perf_ledger import gen, reference
from perf_ledger.tracer import run_region, set_op, thread_state

SIZES = {
    "ingest_stream": dict(
        ranks=16, scale=16, edge_factor=8, batches=24, batch_size=8192
    ),
    "spgemm_algebraic": dict(
        ranks=16, scale=13, edge_factor=8, batches=14, batch_size=512, statics=1
    ),
    "spgemm_general": dict(
        ranks=16, scale=10, edge_factor=8, batches=12, batch_size=32, statics=1
    ),
    "service_mixed": dict(
        ranks=4, scale=11, edge_factor=8, requests=320, preload=10000,
        tri_preload=8000, query_every=40, clusters=64,
        flush_max_requests=16, flush_max_delay=8.0,
    ),
    "world2_replay": dict(
        ranks=16, world=2, edge_factor=8,
        ingest_scale=15, ingest_batches=10, ingest_batch_size=8192,
        spgemm_scale=13, spgemm_batches=4, spgemm_batch_size=512,
    ),
}

#: the same workloads at a size the tier-1 smoke test runs in seconds
TINY = {
    "ingest_stream": dict(
        ranks=4, scale=8, edge_factor=4, batches=6, batch_size=64
    ),
    "spgemm_algebraic": dict(
        ranks=4, scale=7, edge_factor=4, batches=4, batch_size=32, statics=1
    ),
    "spgemm_general": dict(
        ranks=4, scale=6, edge_factor=4, batches=6, batch_size=8, statics=1
    ),
    "service_mixed": dict(
        ranks=4, scale=6, edge_factor=4, requests=40, preload=64,
        tri_preload=32, query_every=10, clusters=8,
        flush_max_requests=4, flush_max_delay=3.0,
    ),
    "world2_replay": dict(
        ranks=4, world=2, edge_factor=4,
        ingest_scale=7, ingest_batches=3, ingest_batch_size=64,
        spgemm_scale=6, spgemm_batches=3, spgemm_batch_size=16,
    ),
}

_STEP_CLASSES = {
    "insert": InsertBatch,
    "update": ValueUpdateBatch,
    "delete": DeleteBatch,
}


def paper_regime_machine() -> MachineModel:
    """Communication costs scaled to the surrogate data size (Figs. 9-10)."""
    return MachineModel(
        alpha=5.0e-5, beta=2.0e-8, intra_node_alpha=1.0e-5, intra_node_beta=5.0e-9
    )


@dataclass
class PassResult:
    """Everything one pass measured and produced."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    read_s: float = 0.0
    op_s: list[float] = field(default_factory=list)
    #: consecutive pieces of the ``ops`` region that do the same work in
    #: every pass (the ops themselves on the replay workloads)
    slice_s: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    static_s: list[float] = field(default_factory=list)
    modeled_s: float = 0.0
    tuples: int = 0
    #: per-category statistics of the ``ops`` region (``CommStats.as_dict``)
    comm: dict[str, dict[str, float]] = field(default_factory=dict)
    #: exact counts kept by the driver (service bookkeeping, state bytes …)
    counts: dict[str, float] = field(default_factory=dict)
    #: what verification compares against the reference models
    outputs: dict = field(default_factory=dict)
    #: the measuring thread's spans when a tracer is installed
    trace: object = None


def merge_comm(into: dict, stats: dict) -> None:
    """Accumulate one ``CommStats.as_dict()`` into another."""
    for name, totals in stats.items():
        bucket = into.setdefault(name, dict.fromkeys(totals, 0))
        for key, value in totals.items():
            bucket[key] = bucket.get(key, 0) + value


def _traced_state_bytes() -> float:
    """``nbytes()`` of A and C of every executor the tracer saw construct."""
    state = thread_state()
    if state is None:
        return 0.0
    total = 0
    for executor in state.captured:
        for matrix in (executor.a, executor.c):
            if matrix is not None:
                total += matrix.nbytes()
    return float(total)


# ----------------------------------------------------------------------
# replay parts: one scenario each, with its own reference
# ----------------------------------------------------------------------
class IngestPart:
    """Figs. 4-5: insert / value-update / delete batches into a half-loaded A."""

    def __init__(self, seed, stream, *, scale, edge_factor, batches, batch_size):
        rng = gen.rng_for(seed, stream)
        fixed = gen.fixed_rng(stream)
        self.pool = gen.edge_pool(scale, edge_factor, rng.permutation(1 << scale))
        self.half = self.pool.size // 2
        self.initial_values = gen.values(rng, self.half)
        self.batches = gen.pool_batches(self.pool, batches, batch_size, fixed, rng)
        self.seed = seed
        self.name = "ingest"
        self.tuples = sum(b.index.size for b in self.batches)

    def scenario(self) -> Scenario:
        pool = self.pool
        return Scenario(
            name=self.name,
            shape=(pool.n, pool.n),
            steps=[
                _STEP_CLASSES[b.kind](
                    rows=pool.rows[b.index], cols=pool.cols[b.index], values=b.values
                )
                for b in self.batches
            ],
            initial_tuples=(
                pool.rows[: self.half], pool.cols[: self.half], self.initial_values
            ),
            seed=self.seed,
        )

    def expected(self):
        state = reference.PoolState(self.pool)
        state.apply("insert", np.arange(self.half), self.initial_values)
        for b in self.batches:
            state.apply(b.kind, b.index, b.values)
        return state.tuples(), None


class SpGEMMPart:
    """Figs. 9-10: A changes through SpGEMM steps, C = A·B is maintained.

    ``mode="algebraic"``: A grows from empty by additive inserts
    (Algorithm 1) against a static CSR B.  ``mode="general"``: A starts
    half loaded and takes insert / update / delete batches (Algorithm 2,
    Bloom filters), where inserts overwrite.
    """

    def __init__(self, seed, stream, *, mode, scale, edge_factor, batches, batch_size):
        rng = gen.rng_for(seed, stream)
        fixed = gen.fixed_rng(stream)
        self.mode = mode
        label = rng.permutation(1 << scale)
        self.pool = gen.edge_pool(scale, edge_factor, label)
        self.b_pool = gen.edge_pool(scale, edge_factor, label, instance=1)
        self.b_values = gen.values(rng, self.b_pool.size)
        general = mode == "general"
        self.half = self.pool.size // 2 if general else 0
        self.initial_values = gen.values(rng, self.half)
        self.batches = gen.pool_batches(
            self.pool, batches, batch_size, fixed, rng,
            kinds=gen.KINDS if general else ("insert",),
        )
        self.seed = seed
        self.name = f"spgemm_{mode}"
        self.tuples = sum(b.index.size for b in self.batches)

    def scenario(self) -> Scenario:
        pool, b_pool = self.pool, self.b_pool
        return Scenario(
            name=self.name,
            shape=(pool.n, pool.n),
            steps=[
                SpGEMMStep(
                    rows=pool.rows[b.index], cols=pool.cols[b.index],
                    values=b.values, mode=self.mode, kind=b.kind,
                )
                for b in self.batches
            ],
            initial_tuples=(
                (pool.rows[: self.half], pool.cols[: self.half], self.initial_values)
                if self.half
                else None
            ),
            b_tuples=(b_pool.rows, b_pool.cols, self.b_values),
            seed=self.seed,
        )

    def static(self, engine: ScenarioEngine):
        """One static SUMMA recompute of the maintained product.

        Called through the ``repro`` module attribute, which is where the
        tracer rebinds it.
        """
        executor = engine.executor
        if self.mode == "general":
            product = executor.product
            return repro.summa_spgemm(
                engine.comm, engine.grid, product.a, product.b, compute_bloom=True
            )
        return repro.summa_spgemm(
            engine.comm, engine.grid, executor.a, executor.b_static
        )

    def expected(self):
        state = reference.PoolState(self.pool, additive=self.mode == "algebraic")
        state.apply("update", np.arange(self.half), self.initial_values)
        for b in self.batches:
            state.apply(b.kind, b.index, b.values)
        b_state = reference.PoolState(self.b_pool)
        b_state.apply("update", np.arange(self.b_pool.size), self.b_values)
        return state.tuples(), reference.csr_tuples(state.csr() @ b_state.csr())


def check_replay(part, result, expected) -> list[str]:
    """Compare a ``ScenarioResult`` with a part's reference tuples."""
    want_a, want_c = expected
    failures = []
    if not reference.same_tuples(result.final_a, want_a):
        failures.append(f"{part.name}: final A differs from the reference")
    if want_c is not None and (
        result.final_c is None or not reference.same_tuples(result.final_c, want_c)
    ):
        failures.append(f"{part.name}: final C differs from A·B")
    return failures


# ----------------------------------------------------------------------
# replay workloads
# ----------------------------------------------------------------------
class ReplayWorkload:
    """One or more scenario parts replayed step by step on one backend."""

    def __init__(self, name, sizes, parts, *, machine=None):
        self.name = name
        self.sizes = sizes
        self.parts = parts
        self.machine = machine
        self.world = sizes.get("world", 1)
        self.ops_per_pass = sum(len(part.batches) for part in parts)
        self._expected = None

    def expected(self):
        """Reference ``(final A, final C)`` of every part, built once."""
        if self._expected is None:
            self._expected = [part.expected() for part in self.parts]
        return self._expected

    # ------------------------------------------------------------------
    def run_pass(self, recorder=None) -> PassResult:
        """One pass; ``recorder`` collects the program's counters."""
        ranks = self.sizes["ranks"]
        if self.world == 1:
            with use_recorder(recorder) if recorder is not None else nullcontext():
                return self._cycle(
                    lambda: make_communicator("sim", n_ranks=ranks, machine=self.machine)
                )
        result = run_spmd(
            self.world,
            lambda comm_obj, _rank: self._cycle(
                lambda: make_communicator("mpi", n_ranks=ranks, comm=comm_obj)
            ),
        )[0]
        if recorder is not None:
            # the recorder is process-global and not thread-safe, so the
            # loopback pass runs without it; its counters are those of the
            # same trace replayed on ``sim``, which are deterministic
            with use_recorder(recorder):
                self._sim_replays(collect_final=False)
        return result

    def _sim_replays(self, *, collect_final: bool):
        options = ReplayOptions(
            backend="sim", n_ranks=self.sizes["ranks"], collect_final=collect_final
        )
        return [replay(part.scenario(), options=options) for part in self.parts]

    def _cycle(self, make_comm) -> PassResult:
        out = PassResult(tuples=sum(part.tuples for part in self.parts))
        engines = []
        first_op = 0
        for part in self.parts:
            scenario = part.scenario()  # the benchmark's own work: not timed
            start = perf_counter()
            engine = run_region(
                "setup", lambda: ScenarioEngine(scenario, make_comm()).begin()
            )
            out.setup_s += perf_counter() - start
            engines.append(engine)
            modeled_start = engine.comm.elapsed()

            def ops():
                for i in range(len(part.batches)):
                    set_op(first_op + i)
                    tick = perf_counter()
                    engine.advance(stop=i + 1)
                    out.op_s.append(perf_counter() - tick)

            start = perf_counter()
            run_region("ops", ops)
            out.wall_s += perf_counter() - start
            out.modeled_s += engine.comm.elapsed() - modeled_start
            first_op += len(part.batches)
        set_op(-1)

        out.slice_s = out.op_s

        def read():
            tick = perf_counter()
            results = [engine.result() for engine in engines]
            out.query_s.append(perf_counter() - tick)
            for part, engine in zip(self.parts, engines):
                for _ in range(self.sizes.get("statics", 0)):
                    tick = perf_counter()
                    part.static(engine)
                    out.static_s.append(perf_counter() - tick)
            return results

        start = perf_counter()
        results = run_region("read", read)
        out.read_s = perf_counter() - start
        out.trace = thread_state()
        for result in results:
            merge_comm(out.comm, result.update_stats)
        out.outputs["results"] = results
        interprocess = [
            engine.comm.interprocess_comm()
            for engine in engines
            if hasattr(engine.comm, "interprocess_comm")
        ]
        out.counts = {
            "runtime.interprocess_bytes": sum(c["bytes"] for c in interprocess),
            "runtime.interprocess_messages": sum(c["messages"] for c in interprocess),
            "core.touched_outputs": sum(
                step.applied
                for part, result in zip(self.parts, results)
                if isinstance(part, SpGEMMPart)
                for step in result.steps
                if step.kind != "construct"
            ),
            "distributed.state_bytes": _traced_state_bytes(),
        }
        return out

    # ------------------------------------------------------------------
    def verify(self, result: PassResult, *, oracle: bool) -> list[str]:
        """Failures of one pass against the references (and the oracle)."""
        failures = []
        for part, got, want in zip(self.parts, result.outputs["results"], self.expected()):
            failures += check_replay(part, got, want)
        if self.world > 1 and oracle:
            failures += self._check_against_sim(result)
        return failures

    def _check_against_sim(self, result: PassResult) -> list[str]:
        """Loopback tuples and charged volume must equal a ``sim`` replay."""
        failures = []
        controls = self._sim_replays(collect_final=True)
        for part, got, control in zip(self.parts, result.outputs["results"], controls):
            pairs = list(zip(got.final_a, control.final_a))
            if got.final_c is not None and control.final_c is not None:
                pairs += list(zip(got.final_c, control.final_c))
            if (got.final_c is None) != (control.final_c is None) or not all(
                np.array_equal(x, y) for x, y in pairs
            ):
                failures.append(f"{part.name}: loopback tuples != sim replay")
            if got.comm_signature() != control.comm_signature():
                failures.append(f"{part.name}: loopback comm volume != sim replay")
        return failures


_PART_KEYS = ("scale", "edge_factor", "batches", "batch_size")


def ingest_stream(seed, sizes) -> ReplayWorkload:
    part = IngestPart(seed, 1, **{k: sizes[k] for k in _PART_KEYS})
    return ReplayWorkload("ingest_stream", sizes, [part])


def spgemm_algebraic(seed, sizes) -> ReplayWorkload:
    part = SpGEMMPart(seed, 2, mode="algebraic", **{k: sizes[k] for k in _PART_KEYS})
    return ReplayWorkload(
        "spgemm_algebraic", sizes, [part], machine=paper_regime_machine()
    )


def spgemm_general(seed, sizes) -> ReplayWorkload:
    part = SpGEMMPart(seed, 2, mode="general", **{k: sizes[k] for k in _PART_KEYS})
    return ReplayWorkload(
        "spgemm_general", sizes, [part], machine=paper_regime_machine()
    )


def world2_replay(seed, sizes) -> ReplayWorkload:
    parts = [
        IngestPart(
            seed, 1, scale=sizes["ingest_scale"], edge_factor=sizes["edge_factor"],
            batches=sizes["ingest_batches"], batch_size=sizes["ingest_batch_size"],
        ),
        SpGEMMPart(
            seed, 2, mode="algebraic", scale=sizes["spgemm_scale"],
            edge_factor=sizes["edge_factor"], batches=sizes["spgemm_batches"],
            batch_size=sizes["spgemm_batch_size"],
        ),
    ]
    return ReplayWorkload("world2_replay", sizes, parts)


# ----------------------------------------------------------------------
# the service workload
# ----------------------------------------------------------------------
class ServiceWorkload:
    """Three tenants, one saturating client, writes beside reads.

    Closed loop in wall time (every tenant call blocks), open loop in
    logical ticks (arrivals follow the seeded schedule whatever the service
    does).  An *op* is one ingest request, timed from ``submit()`` entry to
    the return of the flush that applied it.
    """

    name = "service_mixed"
    SHARES = {"plain": 0.45, "churn": 0.45, "tri": 0.10}
    QUERY_ROTATION = ("tri", "plain", "churn")

    def __init__(self, seed, sizes):
        self.sizes = sizes
        self.seed = seed
        rng = gen.rng_for(seed, 3)
        fixed = gen.fixed_rng(3)
        scale, ef = sizes["scale"], sizes["edge_factor"]
        self.pools = {
            name: gen.edge_pool(scale, ef, rng.permutation(1 << scale), instance=k)
            for k, name in enumerate(self.SHARES)
        }
        self.preload = {
            name: min(
                sizes["tri_preload" if name == "tri" else "preload"],
                self.pools[name].size,
            )
            for name in self.SHARES
        }
        self.preload_values = {
            name: gen.values(rng, count) for name, count in self.preload.items()
        }
        n = 1 << scale
        self.clusters = rng.integers(0, sizes["clusters"], n)
        self.requests = gen.service_requests(
            self.pools, self.SHARES, sizes["requests"], fixed, rng,
            query_every=sizes["query_every"], query_rotation=self.QUERY_ROTATION,
        )
        self.ops_per_pass = len(self.requests) + sum(
            r.query is not None for r in self.requests
        )
        self._expected = None

    # ------------------------------------------------------------------
    def run_pass(self, recorder=None) -> PassResult:
        """One pass; ``recorder`` collects the program's counters."""
        with use_recorder(recorder) if recorder is not None else nullcontext():
            return self._cycle()

    def _cycle(self) -> PassResult:
        sizes = self.sizes
        out = PassResult(tuples=sum(r.index.size for r in self.requests))
        n = 1 << sizes["scale"]

        def setup():
            service = GraphService(
                backend="sim",
                config=ServiceConfig(
                    replay=ReplayOptions(n_ranks=sizes["ranks"]),
                    flush_max_requests=sizes["flush_max_requests"],
                    flush_max_delay=sizes["flush_max_delay"],
                ),
            )
            for k, name in enumerate(self.SHARES):
                pool, count = self.pools[name], self.preload[name]
                service.create_tenant(
                    name,
                    (n, n),
                    seed=self.seed * 8 + k,
                    initial_tuples=(
                        pool.rows[:count], pool.cols[:count], self.preload_values[name]
                    ),
                    app=AppSpec("triangle") if name == "tri" else None,
                )
            return service

        start = perf_counter()
        service = run_region("setup", setup)
        out.setup_s = perf_counter() - start
        tenants = {name: service.tenant(name) for name in self.SHARES}
        modeled_start = {name: t.comm.elapsed() for name, t in tenants.items()}

        n_req = len(self.requests)
        submitted = [0.0] * n_req
        out.op_s = [0.0] * n_req
        staleness = [0.0] * n_req
        queue_wait = [0.0] * n_req
        queued: dict[str, list[int]] = {name: [] for name in tenants}
        flushes = dict.fromkeys(("count", "deadline", "query", "final"), 0)
        steps_applied = 0
        payloads = []

        def complete(name, trigger_start):
            end = perf_counter()
            for j in queued[name]:
                out.op_s[j] = end - submitted[j]
                staleness[j] = service.now - self.requests[j].tick
                queue_wait[j] = max(0.0, trigger_start - submitted[j])
            queued[name].clear()

        def ops():
            nonlocal steps_applied
            for i, request in enumerate(self.requests):
                set_op(i)
                slice_start = perf_counter()
                tenant = tenants[request.tenant]
                pool = self.pools[request.tenant]
                # the logical clock moves to the arrival tick; tenants whose
                # oldest request is past the deadline flush here
                waiting = [name for name in tenants if queued[name]]
                before = {name: tenants[name].n_steps for name in waiting}
                trigger = perf_counter()
                service.advance_time(request.tick - service.now)
                for name in waiting:
                    if tenants[name].pending == 0:
                        flushes["deadline"] += 1
                        steps_applied += tenants[name].n_steps - before[name]
                        complete(name, trigger)
                pending, steps = tenant.pending, tenant.n_steps
                submitted[i] = perf_counter()
                queued[request.tenant].append(i)
                flushed = tenant.submit(
                    request.kind, pool.rows[request.index],
                    pool.cols[request.index], request.values,
                )
                if flushed:
                    by_count = pending + 1 >= sizes["flush_max_requests"]
                    flushes["count" if by_count else "deadline"] += 1
                    steps_applied += tenant.n_steps - steps
                    complete(request.tenant, submitted[i])
                if request.query is not None:
                    target = tenants[request.query]
                    forced, steps = target.pending > 0, target.n_steps
                    tick = perf_counter()
                    if request.query == "tri":
                        payload = target.triangle_count()
                    else:
                        payload = target.contract(
                            self.clusters, n_clusters=sizes["clusters"]
                        )
                    out.query_s.append(perf_counter() - tick)
                    payloads.append((i, request.query, payload))
                    if forced:
                        flushes["query"] += 1
                        steps_applied += target.n_steps - steps - 1
                        complete(request.query, tick)
                out.slice_s.append(perf_counter() - slice_start)
            set_op(-1)
            trigger = perf_counter()
            for name, tenant in tenants.items():
                if queued[name]:
                    steps = tenant.n_steps
                    tenant.flush()
                    flushes["final"] += 1
                    steps_applied += tenant.n_steps - steps
                    complete(name, trigger)
            out.slice_s.append(perf_counter() - trigger)

        start = perf_counter()
        run_region("ops", ops)
        out.wall_s = perf_counter() - start

        start = perf_counter()
        results = run_region(
            "read", lambda: {name: t.result() for name, t in tenants.items()}
        )
        out.read_s = perf_counter() - start
        out.trace = thread_state()
        for name, tenant in tenants.items():
            out.modeled_s += tenant.comm.elapsed() - modeled_start[name]
            merge_comm(out.comm, results[name].update_stats)
        batch_tuples = [
            step.n_tuples
            for tenant in tenants.values()
            for step in tenant.log.steps
            if step.n_tuples
        ]
        out.counts.update(
            {
                "service.requests": n_req,
                "service.flushes": sum(flushes.values()),
                "service.flush_by_count": flushes["count"],
                "service.flush_by_deadline": flushes["deadline"],
                "service.flush_by_query": flushes["query"],
                "service.steps_applied": steps_applied,
                "service.coalesce_ratio": n_req / max(steps_applied, 1),
                "service.batch_tuples_p50": float(np.median(batch_tuples)),
                "service.staleness_ticks_p50": float(np.percentile(staleness, 50)),
                "service.staleness_ticks_p90": float(np.percentile(staleness, 90)),
                "service.queue_wait_ms_p50": float(np.median(queue_wait)) * 1e3,
                "runtime.interprocess_bytes": 0,
                "runtime.interprocess_messages": 0,
                "core.touched_outputs": 0,
                "distributed.state_bytes": _traced_state_bytes(),
            }
        )
        out.outputs = {"results": results, "payloads": payloads, "tenants": tenants}
        service.shutdown()
        return out

    # ------------------------------------------------------------------
    def expected(self):
        """Reference final state per tenant and the answer of every query."""
        if self._expected is not None:
            return self._expected
        n = 1 << self.sizes["scale"]
        k = self.sizes["clusters"]
        states = {}
        for name, pool in self.pools.items():
            states[name] = reference.PoolState(pool)
            states[name].apply(
                "insert", np.arange(self.preload[name]), self.preload_values[name]
            )
        answers = []
        for i, request in enumerate(self.requests):
            states[request.tenant].apply(request.kind, request.index, request.values)
            if request.query == "tri":
                rows, cols, _ = states["tri"].tuples()
                graph = reference.simple_graph(n, rows, cols)
                answers.append((i, "tri", reference.triangle_count(graph)))
            elif request.query is not None:
                answers.append(
                    (
                        i,
                        request.query,
                        reference.contraction(
                            states[request.query].csr(), self.clusters, k
                        ),
                    )
                )
        self._expected = (states, answers)
        return self._expected

    def verify(self, result: PassResult, *, oracle: bool) -> list[str]:
        """Failures of one pass against the references (and the oracle)."""
        states, answers = self.expected()
        failures = []
        n = 1 << self.sizes["scale"]
        for name in ("plain", "churn"):
            if not reference.same_tuples(
                result.outputs["results"][name].final_a, states[name].tuples()
            ):
                failures.append(f"{name}: final A differs from the reference")
        # the triangle tenant keeps the symmetrised simple graph, weights 1
        rows, cols, _ = states["tri"].tuples()
        if not reference.same_tuples(
            result.outputs["results"]["tri"].final_a,
            reference.csr_tuples(reference.simple_graph(n, rows, cols)),
        ):
            failures.append("tri: final graph differs from the reference")
        if len(answers) != len(result.outputs["payloads"]):
            failures.append("query count differs from the schedule")
        for (i, name, want), (_j, _name, got) in zip(answers, result.outputs["payloads"]):
            same = got == want if name == "tri" else reference.same_tuples(got, want)
            if not same:
                failures.append(f"query after request {i} on {name}: wrong answer")
        if oracle:
            failures += self._check_against_cold_replay(result)
        return failures

    @staticmethod
    def _check_against_cold_replay(result: PassResult) -> list[str]:
        """The repo's own oracle: a cold replay of each tenant's log."""
        failures = []
        for name, tenant in result.outputs["tenants"].items():
            live = result.outputs["results"][name]
            cold = replay(tenant.log, options=tenant.replay_options())
            same = all(np.array_equal(x, y) for x, y in zip(live.final_a, cold.final_a))
            same = same and live.comm_signature() == cold.comm_signature()
            same = same and len(live.app_results) == len(cold.app_results)
            for a, b in zip(live.app_results, cold.app_results):
                if isinstance(a.payload, tuple):
                    same = same and all(
                        np.array_equal(x, y) for x, y in zip(a.payload, b.payload)
                    )
                else:
                    same = same and a.payload == b.payload
            if not same:
                failures.append(f"{name}: service state != cold replay of its log")
        return failures


WORKLOADS = {
    "ingest_stream": ingest_stream,
    "spgemm_algebraic": spgemm_algebraic,
    "spgemm_general": spgemm_general,
    "service_mixed": ServiceWorkload,
    "world2_replay": world2_replay,
}
