"""The ``BENCH_*`` figure registry: every figure the perf suite can emit.

A :class:`Figure` is data: the document's title, rank count and default
seed/repeats, how its cells are measured, at most one *variant axis*
(competitor, micro-batch size, partitioner), one hook,
:attr:`Figure.plan`, that turns the resolved command line (a
:class:`Context`) into the :class:`Cell` list plus the ``extras``, and the
:class:`Claim` list the paper makes on those cells.  A cell is a tag and a
thunk; everything else — warm-up, repeats, medians, variant tags, checking
the claims, validation, writing — is ``benchmarks/run_suite.py``'s job,
written there once.  :data:`FIGURES` is the registry; ``docs/performance.md``
has the figure and claim tables.

The paper's own artefacts (Table I, Figs. 3–12, the SUMMA ablation) come
first: every cell of Figs. 3–12 is one :func:`repro.scenarios.replay` of a
:mod:`repro.bench.workloads` scenario, on our machinery or — along the
competitor axis — on a simulated framework.
"""

from __future__ import annotations

import os
import tempfile
import time
import warnings
from dataclasses import dataclass
from operator import le, lt
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.bench.config import BenchProfile
from repro.bench.workloads import (
    batched_operation_scenario,
    construction_scenario,
    draw_batch,
    prepare_instance,
    spgemm_stream_scenario,
)
from repro.core import dynamic_spgemm_algebraic
from repro.core.summa import summa_spgemm
from repro.distributed import (
    DynamicDistMatrix,
    build_update_matrix,
    partition_tuples_round_robin,
)
from repro.distributed.dist_matrix import StaticDistMatrix
from repro.distributed.distribution import BlockDistribution
from repro.graphs import TABLE1_INSTANCES, rmat_edges
from repro.perf import perf_count
from repro.runtime import (
    CommStats,
    MachineModel,
    MPIBackend,
    ProcessGrid,
    StatCategory,
    available_partitioners,
    make_communicator,
    run_spmd,
    world_size,
)
from repro.scenarios import (
    SCENARIO_GENERATORS,
    CheckpointStore,
    CompetitorExecutor,
    ReplayOptions,
    Scenario,
    load_snapshot,
    replay,
    save_snapshot,
    scenario_fingerprint,
    with_checkpoint,
)
from repro.scenarios.engine import global_stats_diff
from repro.semirings import PLUS_TIMES
from repro.service import GraphService, ServiceConfig
from repro.sparse import DHBMatrix


# ----------------------------------------------------------------------
# the vocabulary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Context:
    """The resolved command line a figure plans its cells from."""

    profile: BenchProfile
    seed: int
    backends: tuple[str, ...]
    layouts: tuple[str, ...]
    #: the values of the figure's variant axis (empty: no axis)
    variants: tuple[str, ...] = ()


@dataclass(frozen=True)
class Sample:
    """What a self-reporting cell returns from one call of its thunk."""

    #: one entry per timed operation (usually one)
    seconds: Sequence[float]
    counters: Mapping[str, float]
    comm: Mapping[str, float]


@dataclass(frozen=True)
class Cell:
    """One ``runs[]`` entry to measure.

    ``run`` performs the workload once.  In a :attr:`Figure.recorded`
    figure it returns the elapsed seconds (simulated or wall-clock,
    whichever the figure reports) and the run's per-category
    ``CommStats`` dict, merged over the world, while the runner's
    ``PerfRecorder`` supplies the counters; otherwise it returns a
    :class:`Sample`.
    """

    run: Callable[[], "Recorded | Sample"]
    backend: str
    layout: str
    #: the variant-free scenario tag (``None``: the run carries no tag)
    tag: str | None = None
    #: the variant this cell measures (``None``: not on the variant axis)
    variant: str | None = None


Plan = tuple[list[Cell], Callable[[], dict[str, Any]]]
#: what a recorded cell's thunk returns: seconds and ``CommStats.as_dict()``
Recorded = tuple[float, dict[str, dict[str, float]]]


class MissingCell(LookupError):
    """A measured claim read a cell its document does not hold."""


class Cells:
    """The measured ``runs[]`` entries a claim reads, by ``(tag, variant)``.

    Only the cells on the claim's backend and layout are visible (``None``
    filters nothing), so every ``(tag, variant)`` names one run.
    """

    def __init__(
        self,
        measured: Sequence[tuple[Cell, dict[str, Any]]],
        backend: str | None,
        layout: str | None,
    ) -> None:
        self._runs: dict[tuple[str | None, str | None], dict[str, Any]] = {}
        for cell, run in measured:
            if backend in (None, cell.backend) and layout in (None, cell.layout):
                if self._runs.setdefault((cell.tag, cell.variant), run) is not run:
                    raise ValueError(f"two runs of cell {cell.tag!r}:{cell.variant!r}")

    def __call__(self, tag: str, variant: str | None = None) -> dict[str, Any]:
        """The run of one cell; a cell that was not measured raises."""
        try:
            return self._runs[tag, variant]
        except KeyError:
            raise MissingCell(f"no measured cell {tag!r} of {variant!r}") from None

    def tags(self, variant: str | None = None) -> list[str]:
        """The tags measured for ``variant``, in run order; none raises."""
        tags = [tag for tag, name in self._runs if name == variant]
        if not tags:
            raise MissingCell(f"no measured cell of {variant!r}")
        return tags


@dataclass(frozen=True)
class Claim:
    """One comparative claim, checked on the runs of the document that measures it.

    ``kind`` says what the tested number is made of: ``count`` (a
    deterministic volume or counter), ``simulated`` (SimMPI seconds, which
    at smoke scale still contain measured compute, so a failure re-measures
    the figure once) or ``wall`` (the wall clock).
    """

    #: the claim, threshold included
    name: str
    #: where the paper makes it
    paper: str
    kind: str
    #: ``test(cells)`` returns the number it tested and whether the claim holds
    test: Callable[[Cells], tuple[float, bool]]
    #: the ``--backends`` entry the claim's cells need (``None``: the figure
    #: pins its cells' backend)
    backend: str | None = "sim"
    #: the ``--layouts`` entry they need (``None``: the cells have no choice)
    layout: str | None = None

    def record(
        self, ctx: Context, measured: Sequence[tuple[Cell, dict[str, Any]]]
    ) -> dict[str, Any]:
        """The document's ``claims[]`` entry of this claim."""
        entry = {"name": self.name, "paper": self.paper, "kind": self.kind}
        backend_measured = self.backend in (None, *ctx.backends)
        if not (backend_measured and self.layout in (None, *ctx.layouts)):
            return {**entry, "status": "not measured"}
        value, holds = self.test(Cells(measured, self.backend, self.layout))
        return {**entry, "status": "holds" if holds else "fails", "value": float(value)}


@dataclass(frozen=True)
class Figure:
    """One ``BENCH_<name>.json`` document, declaratively."""

    name: str
    title: str
    #: ``plan(ctx)`` returns the cells in document order and the extras
    #: hook, called once they are measured
    plan: Callable[[Context], Plan]
    #: ``None``: sized and labelled by the bench profile; a number: the
    #: figure pins its own sizes and its name is the profile label
    n_ranks: int | None = None
    seed: int = 0
    repeats: int = 3
    #: one discarded call per cell before the measured repeats
    warmup: bool = False
    #: the runner installs a ``PerfRecorder`` around every repeat
    recorded: bool = True
    #: the values of the variant axis (empty: no axis)
    variants: tuple[str, ...] = ()
    #: joins a cell's tag and variant into its run's ``scenario``
    variant_sep: str = ":"
    #: the cells drive their own worlds, so under ``mpiexec`` only world
    #: rank 0 runs them
    rank0_only: bool = False
    #: what the paper claims on this figure's cells
    claims: tuple[Claim, ...] = ()


# ----------------------------------------------------------------------
# Table I, Figs. 3-12: one scenario replay per cell
# ----------------------------------------------------------------------
#: The systems the paper plots -> the ``executor_factory`` that replays a
#: scenario on each; ``None`` is the native executor, i.e. ours.  The
#: simulated frameworks always run on the ``sim`` communicator.
COMPETITORS: dict[str, Callable | None] = {
    "ours": None,
    "combblas": CompetitorExecutor.factory("combblas"),
    "ctf": CompetitorExecutor.factory("ctf"),
    "petsc": CompetitorExecutor.factory("petsc"),
}

#: cell tag -> (the scenario the cell replays, its logical rank count)
Scenarios = dict[str, tuple[Scenario, int]]


def _replay_cell(
    scenario: Scenario,
    *,
    backend: str,
    n_ranks: int,
    machine: MachineModel,
    tag: str | None = None,
    layout: str = "csr",
    variant: str | None = None,
    executor_factory: Callable | None = None,
    breakdown: tuple[str, ...] = (),
) -> Cell:
    """One replay of ``scenario`` on a fresh communicator, in simulated seconds.

    The reported time is the trimmed mean over the measured steps (batches,
    or the one timed construction); the simulated seconds of every
    ``breakdown`` category over the update steps become
    ``breakdown.<category>.seconds`` counters.
    """

    def run() -> Recorded:
        comm = make_communicator(backend, n_ranks=n_ranks, machine=machine)
        result = replay(
            scenario,
            comm=comm,
            layout=layout,
            executor_factory=executor_factory,
            check_snapshots=False,
            collect_final=False,
        )
        for category, spent in result.breakdown(breakdown).items():
            perf_count(f"breakdown.{category}.seconds", spent)
        return result.trimmed_mean_step_seconds(), result.comm_stats

    return Cell(run, backend, layout, tag, variant)


def _scenario_plan(
    build: Callable[[BenchProfile, int], Scenarios],
    machine: str,
    *,
    sweep_layouts: bool = False,
    breakdown: tuple[str, ...] = (),
) -> Callable[[Context], Plan]:
    """Plan of a figure whose every cell replays one scenario.

    ``build(profile, seed)`` is the workload definition; ``machine`` names
    the :class:`BenchProfile` attribute holding the machine model
    (``spgemm_machine`` is the paper-regime calibration).  Each scenario is
    replayed once per selected variant (:data:`COMPETITORS` maps the
    variant axis to executor factories; a figure without an axis replays
    natively), per
    ``--backends`` entry and — ``sweep_layouts``, for the figures with a
    static right operand — per ``--layouts`` entry; the simulated
    frameworks have neither choice.
    """

    def plan(ctx: Context) -> Plan:
        scenarios = build(ctx.profile, ctx.seed)
        cells = []
        for tag, (scenario, n_ranks) in scenarios.items():
            for variant in ctx.variants or (None,):
                factory = COMPETITORS[variant] if variant else None
                native = factory is None
                for backend in ctx.backends if native else ("sim",):
                    for layout in ctx.layouts if native and sweep_layouts else ("csr",):
                        cells.append(
                            _replay_cell(
                                scenario,
                                backend=backend,
                                n_ranks=n_ranks,
                                machine=getattr(ctx.profile, machine),
                                tag=tag,
                                layout=layout,
                                variant=variant,
                                executor_factory=factory,
                                breakdown=breakdown,
                            )
                        )
        return cells, lambda: {
            "fingerprints": {
                tag: scenario_fingerprint(scenario)
                for tag, (scenario, _) in scenarios.items()
            }
        }

    return plan


def _table1_plan(ctx: Context) -> Plan:
    """Table I has nothing to time: the instance catalogue is the extras."""
    divisor = ctx.profile.scale_divisor

    def extras() -> dict[str, Any]:
        rows = []
        for name, inst in TABLE1_INSTANCES.items():
            surrogate = prepare_instance(
                name, scale_divisor=divisor, seed=ctx.seed + 1, permute=False
            )
            rows.append(
                {
                    "instance": name,
                    "source": inst.source,
                    "type": inst.category,
                    "n_paper": inst.n_full,
                    "nnz_paper": inst.nnz_full,
                    "n_surrogate": surrogate.n,
                    "nnz_surrogate": surrogate.nnz,
                }
            )
        return {"scale_divisor": divisor, "instances": rows}

    return [], extras


def fig03_scenarios(profile: BenchProfile, seed: int) -> Scenarios:
    """Fig. 2/3 protocol: timed construction of every instance."""
    out: Scenarios = {}
    for name in profile.instances:
        workload = prepare_instance(
            name, scale_divisor=profile.scale_divisor, seed=seed + 3
        )
        scenario = construction_scenario(
            f"{name}:construction",
            (workload.n, workload.n),
            workload.all_tuples(),
            seed=seed + 5,
        )
        out[name] = (scenario, profile.n_ranks)
    return out


def _batched_scenarios(operation: str) -> Callable[[BenchProfile, int], Scenarios]:
    """Fig. 4/5 protocol: batches of one operation, per instance and batch size."""

    def build(profile: BenchProfile, seed: int) -> Scenarios:
        out: Scenarios = {}
        for name in profile.instances:
            workload = prepare_instance(
                name, scale_divisor=profile.scale_divisor, seed=seed + 7
            )
            for batch_per_rank in profile.update_batch_sizes:
                scenario = batched_operation_scenario(
                    workload,
                    operation,
                    n_batches=profile.batches_per_config,
                    batch_total=batch_per_rank * profile.n_ranks,
                    seed=seed + 17,
                )
                out[f"{name}@b{batch_per_rank}"] = (scenario, profile.n_ranks)
        return out

    return build


def fig06_scenarios(profile: BenchProfile, seed: int) -> Scenarios:
    """Fig. 6/7 protocol: insertions at a fixed batch per rank, growing ranks."""
    workload = prepare_instance(
        profile.instances[0], scale_divisor=profile.scale_divisor, seed=seed + 23
    )
    out: Scenarios = {}
    for n_ranks in profile.scaling_ranks:
        scenario = batched_operation_scenario(
            workload,
            "insert",
            n_batches=profile.batches_per_config,
            batch_total=profile.weak_scaling_batch * n_ranks,
            seed=seed + 29,
        )
        out[f"p{n_ranks}"] = (scenario, n_ranks)
    return out


def _rmat_tuples(scale: int, total: int, edge_seed: int, value_seed: int):
    """The first ``total`` edges of an R-MAT graph with uniform weights."""
    n_vertices, src, dst = rmat_edges(
        scale, max(1, total // (1 << scale)), seed=edge_seed
    )
    values = np.random.default_rng(value_seed).random(src.size)
    return n_vertices, (src[:total], dst[:total], values[:total])


def fig08_scenarios(profile: BenchProfile, seed: int) -> Scenarios:
    """Fig. 8a/8b protocol: timed R-MAT construction, strong and weak scaling."""
    out: Scenarios = {}
    total = 1 << profile.rmat_strong_total_log2
    n_vertices, tuples = _rmat_tuples(
        max(8, profile.rmat_strong_total_log2 - 3), total, seed + 43, seed + 47
    )
    strong = construction_scenario(
        f"rmat-strong-2^{profile.rmat_strong_total_log2}",
        (n_vertices, n_vertices),
        tuples,
        seed=seed + 53,
    )
    for n_ranks in profile.scaling_ranks:
        out[f"strong@p{n_ranks}"] = (strong, n_ranks)
    for n_ranks in profile.scaling_ranks:
        total = (1 << profile.rmat_weak_per_rank_log2) * n_ranks
        n_vertices, tuples = _rmat_tuples(
            max(8, int(np.ceil(np.log2(max(total // 8, 2))))),
            total,
            seed + 59 + n_ranks,
            seed + 61,
        )
        weak = construction_scenario(
            f"rmat-weak-2^{profile.rmat_weak_per_rank_log2}x{n_ranks}",
            (n_vertices, n_vertices),
            tuples,
            seed=seed + 67,
        )
        out[f"weak@p{n_ranks}"] = (weak, n_ranks)
    return out


def fig09_scenarios(profile: BenchProfile, seed: int) -> Scenarios:
    """Fig. 9 protocol: ``A`` grows by additive batches against a static ``B``."""
    workload = prepare_instance(
        profile.instances[0], scale_divisor=profile.scale_divisor, seed=seed + 71
    )
    out: Scenarios = {}
    for batch_per_rank in profile.spgemm_batch_sizes:
        scenario = spgemm_stream_scenario(
            workload,
            n_batches=profile.batches_per_config,
            batch_total=batch_per_rank * profile.n_ranks,
            mode="algebraic",
            seed=seed + 79,
        )
        out[f"{workload.name}@b{batch_per_rank}"] = (scenario, profile.n_ranks)
    return out


def fig10_scenarios(profile: BenchProfile, seed: int) -> Scenarios:
    """Fig. 10 protocol: value updates to ``A`` under ``(min, +)``.

    Not additions, so the frameworks recompute ``A'·B`` every batch while
    Algorithm 2 recomputes only what the Bloom filters mark.
    """
    workload = prepare_instance(
        profile.instances[0], scale_divisor=profile.scale_divisor, seed=seed + 89
    )
    out: Scenarios = {}
    for batch_per_rank in profile.spgemm_general_batch_sizes:
        scenario = spgemm_stream_scenario(
            workload,
            n_batches=profile.batches_per_config,
            batch_total=batch_per_rank * profile.n_ranks,
            mode="general",
            kind="update",
            semiring_name="min_plus",
            seed=seed + 101,
        )
        out[f"{workload.name}@b{batch_per_rank}"] = (scenario, profile.n_ranks)
    return out


def fig11_scenarios(profile: BenchProfile, seed: int) -> Scenarios:
    """Fig. 11/12 protocol: the Fig. 9 stream at a fixed batch per rank."""
    workload = prepare_instance(
        profile.instances[0], scale_divisor=profile.scale_divisor, seed=seed + 109
    )
    out: Scenarios = {}
    for n_ranks in profile.scaling_ranks:
        scenario = spgemm_stream_scenario(
            workload,
            n_batches=profile.batches_per_config,
            batch_total=profile.spgemm_scaling_nnz_per_rank * n_ranks,
            mode="algebraic",
            seed=seed + 127,
        )
        out[f"p{n_ranks}"] = (scenario, n_ranks)
    return out


def measure_dhb_insertion(seed: int) -> dict[str, Any]:
    """Median-of-3 comparison of a scalar ``insert`` loop with ``insert_batch``.

    Two regimes where the batch is expected to win: bulk construction from
    empty and dense-per-row insertion batches (~100 entries per touched
    row, heavy in-batch duplication) on top of an existing matrix.  Both
    sides apply the same triplets with the semiring's ``plus``.
    """
    rng = np.random.default_rng(seed + 71)
    n = 20000
    build_size = 100000
    batch_rows = 200
    batch_cols = 150
    batch_size = 100 * batch_rows

    def one_by_one(matrix: DHBMatrix, rows, cols, vals) -> None:
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            matrix.insert(i, j, v, PLUS_TIMES.plus)

    def batched(matrix: DHBMatrix, rows, cols, vals) -> None:
        matrix.insert_batch(rows, cols, vals, combine=PLUS_TIMES.plus)

    def timed_insert(apply, preload, batches) -> float:
        samples = []
        for _ in range(3):
            matrix = DHBMatrix((n, n))
            if preload is not None:
                matrix.insert_batch(*preload, combine=PLUS_TIMES.plus)
            started = time.perf_counter()
            for batch in batches:
                apply(matrix, *batch)
            samples.append(time.perf_counter() - started)
        return float(np.median(samples))

    build = (
        rng.integers(0, n, build_size),
        rng.integers(0, n, build_size),
        rng.random(build_size),
    )
    dense_batches = [
        (
            rng.integers(0, batch_rows, batch_size),
            rng.integers(0, batch_cols, batch_size),
            rng.random(batch_size),
        )
        for _ in range(3)
    ]
    out: dict[str, Any] = {}
    for regime, preload, batches in (
        ("construction", None, [build]),
        ("dense_batches", build, dense_batches),
    ):
        per_element = timed_insert(one_by_one, preload, batches)
        batch_seconds = timed_insert(batched, preload, batches)
        out[regime] = {
            "per_element_seconds": per_element,
            "batched_seconds": batch_seconds,
            "speedup": per_element / batch_seconds if batch_seconds else float("inf"),
        }
    return out


def _fig04_plan(ctx: Context) -> Plan:
    cells, extras = _scenario_plan(_batched_scenarios("insert"), "machine")(ctx)
    return cells, lambda: {
        **extras(),
        "dhb_insertion": measure_dhb_insertion(ctx.seed),
    }


# ----------------------------------------------------------------------
# ablation: Algorithm 1 vs SUMMA as bare kernel calls
# ----------------------------------------------------------------------
#: share of the instance's non-zeros drawn into one update matrix
CROSSOVER_FRACTIONS = (0.01, 0.05, 0.2, 0.5, 1.0)

#: variant -> how ``A*·B`` is computed, as ``(comm, grid, a, b, a_star, c)``
CROSSOVER_ALGORITHMS = {
    "dynamic": lambda comm, grid, a, b, a_star, c: dynamic_spgemm_algebraic(
        comm, grid, a, b, a_star, None, c
    ),
    "summa": lambda comm, grid, a, b, a_star, c: summa_spgemm(
        comm, grid, a_star, b, output="static"
    ),
}


def _ablation_summa_crossover_plan(ctx: Context) -> Plan:
    """Algorithm 1 vs sparse SUMMA on the same ``A*`` as it gets denser.

    The paper expects the dynamic algorithm to lose its advantage once the
    update matrices stop being hypersparse (Section VII-C).  Operands are
    rebuilt per call, outside the timed multiplication.
    """
    profile, seed = ctx.profile, ctx.seed
    p = profile.n_ranks
    grid = ProcessGrid(p)
    workload = prepare_instance(
        profile.instances[0], scale_divisor=profile.scale_divisor, seed=seed + 151
    )
    shape = (workload.n, workload.n)

    def cell(fraction: float, algorithm: str, backend: str) -> Cell:
        def run() -> Recorded:
            comm = make_communicator(
                backend, n_ranks=p, machine=profile.spgemm_machine
            )
            b = StaticDistMatrix.from_tuples(
                comm,
                grid,
                shape,
                workload.all_tuples_per_rank(p, seed=seed + 157),
                PLUS_TIMES,
            )
            a = DynamicDistMatrix.empty(comm, grid, shape, PLUS_TIMES)
            c = DynamicDistMatrix.empty(comm, grid, shape, PLUS_TIMES)
            batch = draw_batch(
                workload.all_tuples(),
                max(p, int(workload.nnz * fraction)),
                seed=seed + 163,
            )
            a_star = build_update_matrix(
                comm,
                grid,
                a.dist,
                partition_tuples_round_robin(*batch, p, seed=seed + 167),
                PLUS_TIMES,
            )
            perf_count("ablation.update_nnz", a_star.nnz())
            with comm.timer() as timer:
                CROSSOVER_ALGORITHMS[algorithm](comm, grid, a, b, a_star, c)
            # everything ``comm`` recorded, merged over the world
            return timer.seconds, global_stats_diff(comm, CommStats()).as_dict()

        return Cell(run, backend, "csr", f"f{fraction}", algorithm)

    cells = [
        cell(fraction, algorithm, backend)
        for fraction in CROSSOVER_FRACTIONS
        for algorithm in ctx.variants
        for backend in ctx.backends
    ]
    return cells, lambda: {
        "instance": workload.name,
        "fractions": list(CROSSOVER_FRACTIONS),
    }


# ----------------------------------------------------------------------
# service: micro-batched ingestion, query latency, tenancy
# ----------------------------------------------------------------------
SERVICE_N = 96
SERVICE_RANKS = 4
SERVICE_FLUSH_SIZES = ("1", "4", "16")
SERVICE_TENANT_COUNTS = (1, 2, 4)
#: the fixed ingest workload: requests per stream and tuples per request
SERVICE_REQUESTS = 48
SERVICE_REQUEST_TUPLES = 8
#: timed queries per call of the query cell
SERVICE_QUERIES = 4


def _service(flush_size: int) -> GraphService:
    config = ServiceConfig(
        replay=ReplayOptions(n_ranks=SERVICE_RANKS, layout="csr"),
        flush_max_requests=flush_size,
    )
    return GraphService(backend="sim", config=config)


def _service_stream(tenant, *, seed: int, n_requests: int = SERVICE_REQUESTS) -> None:
    """The seeded mixed request stream every service cell absorbs."""
    rng = np.random.default_rng(seed)
    n, k = SERVICE_N, SERVICE_REQUEST_TUPLES
    for i in range(n_requests):
        rows = rng.integers(0, n, k)
        cols = rng.integers(0, n, k)
        if i % 8 == 7:
            tenant.delete(rows, cols, label=f"del{i}")
        else:
            tenant.insert(rows, cols, rng.random(k), label=f"ins{i}")
    tenant.flush()


def _result_comm(results) -> dict[str, float]:
    return {
        "messages": sum(r.total_comm_messages() for r in results),
        "bytes": sum(r.total_comm_bytes() for r in results),
    }


def _service_plan(ctx: Context) -> Plan:
    """The always-on :class:`GraphService` on the ``sim`` backend.

    ``ingest``: one tenant absorbs the fixed stream under
    ``flush_max_requests = F``; size 1 is one distributed round per
    request (the naive baseline), and the applied step count is a counter
    so the round reduction shows next to the wall-clock win.  ``query``
    (contraction, the app-free query every tenant supports) and
    ``tenants@T`` (``T`` workloads on **one** persistent world) have no
    variant.
    """
    shape = (SERVICE_N, SERVICE_N)
    seed = ctx.seed

    def ingest_cell(flush_size: str) -> Cell:
        def run() -> Sample:
            with _service(int(flush_size)) as service:
                tenant = service.create_tenant("ingest", shape, seed=seed)
                started = time.perf_counter()
                _service_stream(tenant, seed=seed)
                elapsed = time.perf_counter() - started
                comm = _result_comm([tenant.result()])
            counters = {
                "service.flush_size": int(flush_size),
                "service.requests": SERVICE_REQUESTS,
                "service.steps_applied": tenant.n_steps,
                "service.tuples": SERVICE_REQUESTS * SERVICE_REQUEST_TUPLES,
            }
            return Sample([elapsed], counters, comm)

        return Cell(run, "sim", "csr", "ingest", flush_size)

    def query() -> Sample:
        per_query = []
        with _service(8) as service:
            tenant = service.create_tenant("query", shape, seed=seed)
            _service_stream(tenant, seed=seed)
            clusters = np.arange(SERVICE_N, dtype=np.int64) % 8
            tenant.contract(clusters, n_clusters=8)  # warm-up
            for _ in range(SERVICE_QUERIES):
                started = time.perf_counter()
                tenant.contract(clusters, n_clusters=8)
                per_query.append(time.perf_counter() - started)
            comm = _result_comm([tenant.result()])
        counters = {
            "service.queries": SERVICE_QUERIES,
            "service.steps_applied": tenant.n_steps,
        }
        return Sample(per_query, counters, comm)

    def tenants_cell(n_tenants: int) -> Cell:
        def run() -> Sample:
            with _service(8) as service:
                tenants = [
                    service.create_tenant(f"tenant{i}", shape, seed=seed + i)
                    for i in range(n_tenants)
                ]
                started = time.perf_counter()
                for i, tenant in enumerate(tenants):
                    _service_stream(
                        tenant, seed=seed + i, n_requests=SERVICE_REQUESTS // 2
                    )
                comm = _result_comm([tenant.result() for tenant in tenants])
                elapsed = time.perf_counter() - started
                minted = service.world.minted
            counters = {
                "service.tenants": n_tenants,
                "service.minted_communicators": minted,
                "service.steps_applied": sum(t.n_steps for t in tenants),
            }
            return Sample([elapsed], counters, comm)

        return Cell(run, "sim", "csr", f"tenants@{n_tenants}")

    cells = [ingest_cell(size) for size in ctx.variants]
    cells.append(Cell(query, "sim", "csr", "query"))
    cells.extend(tenants_cell(count) for count in SERVICE_TENANT_COUNTS)
    return cells, lambda: {
        "flush_sizes": [int(size) for size in ctx.variants],
        "tenant_counts": list(SERVICE_TENANT_COUNTS),
        "n_requests": SERVICE_REQUESTS,
        "request_tuples": SERVICE_REQUEST_TUPLES,
        "shape": list(shape),
    }


# ----------------------------------------------------------------------
# partition: placement strategies under a skewed stream
# ----------------------------------------------------------------------
#: Logical ranks per world — a 3x3 grid on worlds 2 and 4 deliberately:
#: neither world size divides the grid dimension, so the round-robin
#: baseline shears grid columns across processes and both the locality win
#: (fewer cross-process bytes) and the nnz win (lower max share under
#: R-MAT skew) are structural, not incidental.  At world sizes that divide
#: the grid dimension round-robin degenerates to column striping, which is
#: already locality-optimal.
PARTITION_RANKS = 9
PARTITION_WORLDS = (2, 4)
PARTITION_SCENARIO = "bursty_skewed_stream"


def _partition_plan(ctx: Context) -> Plan:
    """One cell per (loopback world, partitioner), fully deterministic.

    ``comm`` is the world-summed *interprocess* traffic — bytes that
    crossed a process boundary, not the placement-invariant collective
    volume; ``partition.max_nnz_share`` is the heaviest process's share of
    the final nnz (1/world is perfect balance, 1.0 total skew).
    """
    n_ranks = PARTITION_RANKS
    scenario = SCENARIO_GENERATORS[PARTITION_SCENARIO](seed=ctx.seed)
    dist = BlockDistribution(*scenario.shape, ProcessGrid(n_ranks))
    #: per measured cell, in run order: placement and per-process nnz
    placements: dict[tuple[int, str], dict[str, Any]] = {}

    def cell(world: int, partitioner: str) -> Cell:
        def program(comm_obj, _world_rank: int):
            comm = MPIBackend(n_ranks, comm=comm_obj)
            result = replay(scenario, comm=comm, layout="csr", partitioner=partitioner)
            return result, comm.global_interprocess_comm(), comm.placement()

        def run() -> Sample:
            started = time.perf_counter()
            result, cross, placement = run_spmd(world, program)[0]
            elapsed = time.perf_counter() - started
            # Final-state nnz balance, computed host-side from the replay
            # result so it is exactly reproducible: map every stored entry
            # to its logical rank, then group rank nnz by the placement.
            rows, cols, _values = result.final_a
            owners = dist.owner_of(np.asarray(rows), np.asarray(cols))
            rank_nnz = np.bincount(owners, minlength=n_ranks).astype(float)
            active = min(world, n_ranks)
            loads = np.zeros(active)
            for rank in range(n_ranks):
                loads[placement[rank]] += rank_nnz[rank]
            total = float(loads.sum())
            counters = {
                "partition.max_nnz_share": loads.max() / total if total else 0.0,
                "partition.max_nnz": loads.max() if total else 0.0,
                "partition.total_nnz": total,
                "partition.active_processes": active,
            }
            placements[world, partitioner] = {
                "partitioner": partitioner,
                "world": world,
                "placement": [placement[rank] for rank in range(n_ranks)],
                "process_nnz": [float(load) for load in loads],
            }
            comm = {"messages": cross["messages"], "bytes": cross["bytes"]}
            return Sample([elapsed], counters, comm)

        return Cell(run, "mpi", "csr", f"{PARTITION_SCENARIO}@w{world}", partitioner)

    cells = [cell(world, name) for world in PARTITION_WORLDS for name in ctx.variants]
    return cells, lambda: {
        "scenario": PARTITION_SCENARIO,
        "partitioners": list(ctx.variants),
        "worlds": list(PARTITION_WORLDS),
        "cells": list(placements.values()),
    }


# ----------------------------------------------------------------------
# checkpoint: snapshot cost and crash-recovery traffic
# ----------------------------------------------------------------------
#: the dynamic-SpGEMM trace — the richest state: matrix, static operand,
#: maintained product
CHECKPOINT_SCENARIO = "mixed_update_multiply"
CHECKPOINT_AT = 3
CRASH_AT = 5
CHECKPOINT_RANKS = 4


class RoundTripMismatch(RuntimeError):
    """The recovered run diverged from the uninterrupted reference."""


def _check_identical(reference, recovered, *, what: str) -> None:
    for a, b in zip(reference.final_a, recovered.final_a):
        if not np.array_equal(a, b):
            raise RoundTripMismatch(f"{what}: final tuples diverged after restore")
    signature = dict(recovered.comm_signature())
    signature.pop("recovery", None)
    if signature != dict(reference.comm_signature()):
        raise RoundTripMismatch(f"{what}: non-recovery comm volume diverged")


def _checkpoint_plan(ctx: Context) -> Plan:
    """One checkpointed kill-and-recover drill per (backend, layout).

    Counters: the ``.npz`` snapshot size, :func:`save_snapshot` /
    :func:`load_snapshot` latency, the ``recovery`` category's traffic, and
    what the kill costs either way, read off the uninterrupted reference's
    per-step traffic: a ``rerun`` from scratch repeats the construction and
    every step before the kill, a ``restore`` moves the recovery traffic
    and repeats the steps between the checkpoint and the kill.  Every call
    also verifies the fault-tolerance contract — final tuples and
    non-recovery comm signature byte-identical to the uninterrupted
    reference — and raises :class:`RoundTripMismatch` otherwise, so the
    figure doubles as a round-trip gate.
    """
    scenario = SCENARIO_GENERATORS[CHECKPOINT_SCENARIO](seed=ctx.seed)
    base = with_checkpoint(scenario, at=CHECKPOINT_AT)
    fingerprint = scenario_fingerprint(base)
    # Crash recovery is an in-process protocol (the mpiexec durable drill
    # is tools/mpi_restore_drill.py), so under a real multi-process launch
    # every rank measures its own in-process drill on the sim backend
    # instead of the shared COMM_WORLD.
    backends = ("sim",) if world_size() > 1 else ctx.backends

    def cell(backend: str, layout: str) -> Cell:
        options = dict(backend=backend, n_ranks=CHECKPOINT_RANKS, layout=layout)

        def run() -> Sample:
            with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp_dir:
                # the emulated-mpi backend warns once when mpi4py is absent
                warnings.simplefilter("ignore", RuntimeWarning)
                reference = replay(base, **options)
                store = CheckpointStore(tmp_dir)
                started = time.perf_counter()
                recovered = replay(
                    base,
                    **options,
                    checkpoint_store=store,
                    faults=f"kill@{CRASH_AT}",
                    on_crash="restore",
                )
                elapsed = time.perf_counter() - started
                _check_identical(reference, recovered, what=f"{backend}/{layout}")

                snapshot_path = store._path(fingerprint, 0)
                snapshot_bytes = os.path.getsize(snapshot_path)
                snapshot = store.latest(0, fingerprint)
                started = time.perf_counter()
                save_snapshot(snapshot_path, snapshot)
                saved = time.perf_counter()
                load_snapshot(snapshot_path)
                loaded = time.perf_counter()
            recovery = recovered.comm_stats.get("recovery", {})
            lost = reference.steps[CHECKPOINT_AT:CRASH_AT]
            after = reference.steps[CRASH_AT:]
            counters = {
                "checkpoint.snapshot_bytes": snapshot_bytes,
                "checkpoint.save_seconds": saved - started,
                "checkpoint.restore_seconds": loaded - saved,
                "checkpoint.recovery_bytes": recovery.get("bytes", 0),
                "checkpoint.recovery_messages": recovery.get("messages", 0),
                "checkpoint.rerun_bytes": reference.total_comm_bytes()
                - sum(step.comm_bytes for step in after),
                "checkpoint.rerun_messages": reference.total_comm_messages()
                - sum(step.comm_messages for step in after),
                "checkpoint.restore_bytes": recovery.get("bytes", 0)
                + sum(step.comm_bytes for step in lost),
                "checkpoint.restore_messages": recovery.get("messages", 0)
                + sum(step.comm_messages for step in lost),
            }
            return Sample([elapsed], counters, _result_comm([recovered]))

        return Cell(run, backend, layout, f"{CHECKPOINT_SCENARIO}@kill{CRASH_AT}")

    cells = [cell(backend, layout) for backend in backends for layout in ctx.layouts]
    return cells, lambda: {
        "scenario": CHECKPOINT_SCENARIO,
        "checkpoint_at": CHECKPOINT_AT,
        "crash_at": CRASH_AT,
        "round_trip_verified": True,
    }


# ----------------------------------------------------------------------
# the claims
# ----------------------------------------------------------------------
def _within(pairs, factor: float, relation=le) -> tuple[float, bool]:
    """The largest ``current / base`` of the ``(current, base)`` pairs, and
    whether ``relation(current, factor * base)`` holds for every pair."""
    pairs = list(pairs)
    worst = max(current / base for current, base in pairs)
    return worst, all(relation(current, factor * base) for current, base in pairs)


def _seconds(run: Mapping[str, Any]) -> float:
    return run["elapsed_seconds_median"]


def _batch_ends(cells: Cells, variant: str) -> tuple[tuple[str, int], ...]:
    """``(tag, per-rank batch)`` of the smallest and the largest batch of the
    first instance ``variant`` measured (tags are ``<instance>@b<batch>``)."""
    split = [tag.rpartition("@b") for tag in cells.tags(variant)]
    sizes = sorted(int(size) for name, _, size in split if name == split[0][0])
    return tuple((f"{split[0][0]}@b{size}", size) for size in (sizes[0], sizes[-1]))


def _fig04_small_batch_penalty(cells: Cells) -> tuple[float, bool]:
    """Per-non-zero cost at the smallest over the largest batch: ours vs CombBLAS."""

    def penalty(system: str) -> float:
        small, large = (_seconds(cells(tag, system)) / size for tag, size in ends)
        return small / large

    ends = _batch_ends(cells, "ours")
    return _within([(penalty("ours"), penalty("combblas"))], 1.0, lt)


def _fig04_messages(cells: Cells) -> tuple[float, bool]:
    """Ours' messages over CombBLAS's at the largest batch; the claim needs
    the ratio below 1 at every batch and lower at the largest than at the
    smallest."""

    def messages(tag: str, system: str) -> float:
        return cells(tag, system)["comm"]["messages"]

    ratio = {
        tag: messages(tag, "ours") / messages(tag, "combblas")
        for tag in cells.tags("combblas")
    }
    (small, _), (large, _) = _batch_ends(cells, "ours")
    return ratio[large], max(ratio.values()) < 1.0 and ratio[large] < ratio[small]


def _fig09_seconds(cells: Cells) -> tuple[float, bool]:
    (small, _), _ = _batch_ends(cells, "ours")
    pair = (_seconds(cells(small, "ours")), _seconds(cells(small, "combblas")))
    return _within([pair], 1.5, lt)


def _fig09_bytes(cells: Cells) -> tuple[float, bool]:
    small, large = (
        cells(tag, "ours")["comm"]["bytes"] / cells(tag, "combblas")["comm"]["bytes"]
        for tag, _ in _batch_ends(cells, "ours")
    )
    return small, small < 1.0 and small < large


def _fig10_terms(cells: Cells) -> tuple[float, bool]:
    pairs = [
        (
            cells(tag, "ours")["counters"]["spgemm.masked_terms"],
            cells(tag, "combblas")["counters"]["spgemm.terms"],
        )
        for tag in cells.tags("ours")
    ]
    return _within(pairs, 1.0, lt)


def _crossover(cells: Cells) -> tuple[float, bool]:
    """Algorithm 1's speedup over SUMMA, sparsest over densest ``A*``."""
    sparse, dense = (
        _seconds(cells(f"f{fraction}", "summa"))
        / _seconds(cells(f"f{fraction}", "dynamic"))
        for fraction in (CROSSOVER_FRACTIONS[0], CROSSOVER_FRACTIONS[-1])
    )
    return sparse / dense, sparse >= 0.5 * dense


def _restore_messages(cells: Cells) -> tuple[float, bool]:
    counters = cells(f"{CHECKPOINT_SCENARIO}@kill{CRASH_AT}")["counters"]
    pair = (
        counters["checkpoint.restore_messages"],
        counters["checkpoint.rerun_messages"],
    )
    return _within([pair], 1.0, lt)


def _nnz_share(run: Mapping[str, Any]) -> list[float]:
    return [run["counters"]["partition.max_nnz_share"]]


def _bytes(run: Mapping[str, Any]) -> list[float]:
    return [run["comm"]["bytes"]]


def _messages(run: Mapping[str, Any]) -> list[float]:
    return [run["comm"]["messages"]]


def _volume(run: Mapping[str, Any]) -> list[float]:
    return [run["comm"]["messages"], run["comm"]["bytes"]]


def _versus(variant: str, baseline: str, metrics, factor: float):
    """``metrics(run)`` of ``variant`` at most ``factor`` times ``baseline``'s,
    at every tag ``baseline`` measured."""

    def test(cells: Cells) -> tuple[float, bool]:
        pairs = []
        for tag in cells.tags(baseline):
            pairs += zip(metrics(cells(tag, variant)), metrics(cells(tag, baseline)))
        return _within(pairs, factor)

    return test


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
# Figs. 6/7 and 11/12 are two readings of one measurement: the elapsed
# seconds per rank count, and the ``breakdown.*`` counters beside them.
_INSERT_SCALING = _scenario_plan(
    fig06_scenarios, "machine", breakdown=StatCategory.INSERTION_BREAKDOWN
)
_SPGEMM_SCALING = _scenario_plan(
    fig11_scenarios,
    "spgemm_machine",
    sweep_layouts=True,
    breakdown=StatCategory.SPGEMM_BREAKDOWN,
)
_SYSTEMS = tuple(COMPETITORS)
# PETSc cannot mask out non-zeros (``supports_deletions`` is False), so the
# paper's Fig. 5b has no PETSc series
_DELETING_SYSTEMS = ("ours", "combblas", "ctf")

FIGURES: dict[str, Figure] = {
    figure.name: figure
    for figure in (
        Figure(
            "table1", "Real-world instances and their scaled surrogates", _table1_plan
        ),
        Figure(
            "fig03",
            "Matrix construction (Fig. 2/3 protocol)",
            _scenario_plan(fig03_scenarios, "machine"),
            variants=_SYSTEMS,
            claims=(
                Claim(
                    "on every instance, ours' construction costs <= 0.5x "
                    "CombBLAS's messages",
                    "Fig. 3",
                    "count",
                    _versus("ours", "combblas", _messages, 0.5),
                ),
            ),
        ),
        Figure(
            "fig04",
            "Batched insertions (Fig. 4 protocol)",
            _fig04_plan,
            variants=_SYSTEMS,
            claims=(
                Claim(
                    "CombBLAS's per-non-zero cost grows more than ours from the "
                    "largest to the smallest batch",
                    "Fig. 4",
                    "simulated",
                    _fig04_small_batch_penalty,
                ),
                Claim(
                    "ours costs fewer messages than CombBLAS at every batch, and "
                    "the message ratio falls from the smallest to the largest batch",
                    "Fig. 4",
                    "count",
                    _fig04_messages,
                ),
            ),
        ),
        Figure(
            "fig05a",
            "Batched value updates (Fig. 5a protocol)",
            _scenario_plan(_batched_scenarios("update"), "machine"),
            variants=_SYSTEMS,
        ),
        Figure(
            "fig05b",
            "Batched deletions (Fig. 5b protocol)",
            _scenario_plan(_batched_scenarios("delete"), "machine"),
            variants=_DELETING_SYSTEMS,
        ),
        Figure("fig06", "Weak scaling of insertions (Fig. 6 protocol)", _INSERT_SCALING),
        Figure(
            "fig07", "Breakdown of the insertion time (Fig. 7 protocol)", _INSERT_SCALING
        ),
        Figure(
            "fig08",
            "R-MAT construction, strong and weak scaling (Fig. 8 protocol)",
            _scenario_plan(fig08_scenarios, "machine"),
        ),
        Figure(
            "fig09",
            "Algebraic dynamic SpGEMM stream (Fig. 9 protocol)",
            _scenario_plan(fig09_scenarios, "spgemm_machine", sweep_layouts=True),
            variants=_SYSTEMS,
            claims=(
                Claim(
                    "at the smallest batch, ours takes < 1.5x CombBLAS's seconds",
                    "Fig. 9",
                    "simulated",
                    _fig09_seconds,
                    layout="csr",
                ),
                Claim(
                    "ours moves fewer bytes than CombBLAS at the smallest batch, "
                    "and the byte ratio grows with the batch",
                    "Fig. 9",
                    "count",
                    _fig09_bytes,
                    layout="csr",
                ),
            ),
        ),
        Figure(
            "fig10",
            "General dynamic SpGEMM stream (Fig. 10 protocol)",
            _scenario_plan(fig10_scenarios, "spgemm_machine"),
            variants=_SYSTEMS,
            claims=(
                Claim(
                    "at every batch, ours' masked multiply forms fewer terms than "
                    "CombBLAS's recompute",
                    "Fig. 10",
                    "count",
                    _fig10_terms,
                ),
            ),
        ),
        Figure(
            "fig11",
            "Weak scaling of algebraic dynamic SpGEMM (Fig. 11 protocol)",
            _SPGEMM_SCALING,
        ),
        Figure(
            "fig12",
            "Breakdown of the dynamic SpGEMM time (Fig. 12 protocol)",
            _SPGEMM_SCALING,
        ),
        Figure(
            "ablation_summa_crossover",
            "Dynamic algorithm vs. SUMMA as a function of update density",
            _ablation_summa_crossover_plan,
            variants=tuple(CROSSOVER_ALGORITHMS),
            claims=(
                Claim(
                    "Algorithm 1's speedup over SUMMA at f0.01 is >= 0.5x its "
                    "speedup at f1.0",
                    "Sec. VII-C",
                    "simulated",
                    _crossover,
                ),
            ),
        ),
        Figure(
            "partition",
            "Logical-rank placement strategies under a skewed stream",
            _partition_plan,
            n_ranks=PARTITION_RANKS,
            seed=2022,
            warmup=True,
            recorded=False,
            variants=available_partitioners(),
            rank0_only=True,
            claims=(
                Claim(
                    "at every world, nnz_aware's max process nnz share is <= 0.9x "
                    "round_robin's",
                    "partition",
                    "count",
                    _versus("nnz_aware", "round_robin", _nnz_share, 0.9),
                    backend=None,
                ),
                Claim(
                    "at every world, locality_aware's cross-process bytes are "
                    "<= 0.8x round_robin's",
                    "partition",
                    "count",
                    _versus("locality_aware", "round_robin", _bytes, 0.8),
                    backend=None,
                ),
            ),
        ),
        Figure(
            "checkpoint",
            "Checkpoint/restore cost and crash-recovery traffic",
            _checkpoint_plan,
            n_ranks=CHECKPOINT_RANKS,
            seed=2022,
            recorded=False,
            claims=(
                Claim(
                    "a restore from the checkpoint costs fewer messages than a "
                    "rerun from scratch",
                    "checkpoint",
                    "count",
                    _restore_messages,
                    # the csr and dhb drills share a tag
                    layout="csr",
                ),
            ),
        ),
        Figure(
            "service",
            "Always-on service: micro-batched ingestion and tenancy",
            _service_plan,
            n_ranks=SERVICE_RANKS,
            seed=2022,
            warmup=True,
            recorded=False,
            variants=SERVICE_FLUSH_SIZES,
            variant_sep="@flush",
            rank0_only=True,
            claims=(
                Claim(
                    "ingest@flush16 takes <= 0.75x the seconds of ingest@flush1",
                    "service",
                    "wall",
                    _versus("16", "1", lambda run: [_seconds(run)], 0.75),
                    backend=None,
                ),
                Claim(
                    "ingest@flush16 moves <= 1.25x the messages and bytes of "
                    "ingest@flush1",
                    "service",
                    "count",
                    _versus("16", "1", _volume, 1.25),
                    backend=None,
                ),
            ),
        ),
    )
}
