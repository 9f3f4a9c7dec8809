"""The service's correctness oracle: service state ≡ cold replay of its log.

Every tenant's request log is a real :class:`~repro.scenarios.Scenario`;
this suite drives tenants through mixed ingestion (micro-batched inserts,
value updates, deletions) interleaved with consistent-snapshot queries and
asserts — at **sampled flush points mid-trace, not just at the end** —
that a cold ``replay()`` of the log-so-far reproduces the live tenant
byte-identically:

* canonical final tuples of the maintained matrix,
* application query payloads (triangle counts, SSSP distances,
  contraction tuples),
* applied-update counts,
* per-category communication volume (messages and bytes) — possible
  because mid-trace result sampling uses only the uncharged control plane.

Legs: ``sim`` and (emulated) ``mpi``, application tenants, and threaded loopback worlds of size 1, 2 and 4 where the service
and the cold replay share one persistent multi-process world.  Under
``mpiexec`` the world legs run on the genuine ``MPI.COMM_WORLD``.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.runtime import ServiceWorld, world_size
from repro.runtime.loopback import run_spmd
from repro.scenarios import (
    AppSpec,
    ReplayOptions,
    Scenario,
    ScenarioResult,
    replay,
)
from repro.service import GraphService, GraphTenant, ServiceConfig

N = 48
SEED = 2022
BACKENDS = ("sim", "mpi")
WORLD_SIZES = (1, 2, 4)


def _quiet_replay(log: Scenario, options: ReplayOptions, comm=None) -> ScenarioResult:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return replay(log, options=options, comm=comm)


def _service(backend: str, **kwargs) -> GraphService:
    config = ServiceConfig(replay=ReplayOptions(n_ranks=4), flush_max_requests=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return GraphService(backend=backend, config=config, **kwargs)


def _log_snapshot(tenant: GraphTenant) -> Scenario:
    """Freeze the request log at the current flush boundary.

    The live log keeps growing; the cold replay must see exactly the steps
    applied so far.
    """
    return replace(tenant.log, steps=list(tenant.log.steps))


def _assert_tuples_identical(a, b, *, what: str) -> None:
    assert np.array_equal(a[0], b[0]), f"{what}: row structure differs"
    assert np.array_equal(a[1], b[1]), f"{what}: column structure differs"
    assert np.array_equal(a[2], b[2]), f"{what}: values differ"


def _assert_oracle_holds(
    live: ScenarioResult, cold: ScenarioResult, *, what: str
) -> None:
    """The full byte-identity contract between service and cold replay."""
    _assert_tuples_identical(live.final_a, cold.final_a, what=f"{what}: A")
    assert (live.final_c is None) == (cold.final_c is None)
    if live.final_c is not None:
        _assert_tuples_identical(live.final_c, cold.final_c, what=f"{what}: C")
    assert live.applied_counts == cold.applied_counts, f"{what}: applied counts"
    assert live.comm_signature() == cold.comm_signature(), f"{what}: comm volume"
    assert len(live.app_results) == len(cold.app_results), f"{what}: app queries"
    for got, want in zip(live.app_results, cold.app_results):
        assert (got.index, got.kind, got.label) == (want.index, want.kind, want.label)
        if isinstance(want.payload, tuple):
            _assert_tuples_identical(
                got.payload, want.payload, what=f"{what}: {got.label}"
            )
        else:
            assert got.payload == want.payload, f"{what}: {got.label}"


def _sample_oracle(tenant: GraphTenant, *, what: str) -> ScenarioResult:
    """One sampled flush point: live result vs cold replay of the log."""
    live = tenant.result()
    cold = _quiet_replay(_log_snapshot(tenant), tenant.replay_options())
    _assert_oracle_holds(live, cold, what=what)
    return live


def _mixed_workload(tenant: GraphTenant, *, seed: int, rounds: int = 4) -> None:
    """Deterministic mixed ingestion: inserts, value updates, deletions."""
    rng = np.random.default_rng(seed)
    for r in range(rounds):
        for i in range(4):
            rows = rng.integers(0, N, 6)
            cols = rng.integers(0, N, 6)
            tenant.insert(rows, cols, rng.random(6), label=f"ins{r}.{i}")
        rows = rng.integers(0, N, 4)
        cols = rng.integers(0, N, 4)
        tenant.update(rows, cols, rng.random(4) + 1.0, label=f"upd{r}")
        rows = rng.integers(0, N, 3)
        cols = rng.integers(0, N, 3)
        tenant.delete(rows, cols, label=f"del{r}")


# ---------------------------------------------------------------------------
# backend sweep with mid-trace sampling
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_service_matches_cold_replay(backend):
    with _service(backend) as service:
        tenant = service.create_tenant("oracle", (N, N), seed=SEED)
        what = backend
        # sampled flush points: after each workload phase, not only at the end
        _mixed_workload(tenant, seed=101, rounds=2)
        first = _sample_oracle(tenant, what=f"{what}@phase1")
        assert first.final_a[0].size > 0, "workload must leave a non-empty matrix"
        _mixed_workload(tenant, seed=202, rounds=2)
        tenant.contract(np.arange(N, dtype=np.int64) % 6, n_clusters=6)
        _sample_oracle(tenant, what=f"{what}@phase2")
        _mixed_workload(tenant, seed=303, rounds=1)
        final = _sample_oracle(tenant, what=f"{what}@final")
        assert len(final.app_results) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_sssp_tenant_matches_cold_replay(backend):
    with _service(backend) as service:
        tenant = service.create_tenant(
            "roads",
            (N, N),
            seed=SEED,
            semiring_name="min_plus",
            app=AppSpec(name="sssp", sources=np.array([0, 3], dtype=np.int64)),
        )
        rng = np.random.default_rng(11)
        for r in range(3):
            for _ in range(3):
                tenant.insert(
                    rng.integers(0, N, 8),
                    rng.integers(0, N, 8),
                    rng.random(8) + 0.1,
                )
            tenant.shortest_paths(label=f"dist{r}")
            _sample_oracle(tenant, what=f"{backend}/sssp@round{r}")
        live = tenant.result()
        assert len(live.app_results) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_triangle_tenant_matches_cold_replay(backend):
    with _service(backend) as service:
        tenant = service.create_tenant(
            "social", (N, N), seed=SEED, app=AppSpec(name="triangle")
        )
        rng = np.random.default_rng(13)
        counts = []
        for r in range(3):
            for _ in range(3):
                rows = rng.integers(0, N, 10)
                cols = rng.integers(0, N, 10)
                keep = rows != cols
                tenant.insert(rows[keep], cols[keep])
            counts.append(tenant.triangle_count(label=f"tri{r}"))
            _sample_oracle(tenant, what=f"{backend}/triangle@round{r}")
        assert counts[-1] >= counts[0] >= 0  # triangles only accumulate


def test_fault_variable_does_not_reach_the_cold_replay(monkeypatch):
    """Faults are armed only by argument: a leftover ``REPRO_FAULTS``, even
    a well-formed plan, must not crash the oracle or charge it ``recovery``
    traffic the live tenant never saw (a tenant refuses ``faults=``, so it
    cannot honour any plan)."""
    monkeypatch.setenv("REPRO_FAULTS", "kill@0")
    with _service("sim") as service:
        tenant = service.create_tenant("faultless", (N, N), seed=SEED)
        rng = np.random.default_rng(17)
        for _ in range(6):
            rows, cols = rng.integers(0, N, 40), rng.integers(0, N, 40)
            tenant.insert(rows, cols, rng.random(40))
        live = tenant.result()
        cold = _quiet_replay(tenant.log, tenant.replay_options())
    assert "recovery" not in live.comm_signature()
    assert live.comm_signature() == cold.comm_signature()


# ---------------------------------------------------------------------------
# persistent multi-process worlds (threaded loopback; COMM_WORLD under mpiexec)
# ---------------------------------------------------------------------------
def _world_program(comm_obj, world_rank):
    """One SPMD process of the service-vs-cold-replay differential."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        world = ServiceWorld("mpi", comm=comm_obj)
        config = ServiceConfig(replay=ReplayOptions(n_ranks=4), flush_max_requests=3)
        with GraphService(world, config=config) as service:
            tenant = service.create_tenant("shared-world", (N, N), seed=SEED)
            _mixed_workload(tenant, seed=77, rounds=2)
            live = tenant.result()
            # the cold replay shares the same persistent world: a fresh
            # communicator minted over the very processes still serving
            cold = replay(
                _log_snapshot(tenant),
                options=tenant.replay_options(),
                comm=world.communicator(4),
            )
            _assert_oracle_holds(live, cold, what="loopback world")
            _mixed_workload(tenant, seed=88, rounds=1)
            live = tenant.result()
            cold = replay(
                _log_snapshot(tenant),
                options=tenant.replay_options(),
                comm=world.communicator(4),
            )
            _assert_oracle_holds(live, cold, what="loopback world@phase2")
        world.shutdown()
        return live.final_a, live.comm_signature()


@pytest.mark.parametrize("world", WORLD_SIZES)
def test_service_on_multiprocess_worlds(world):
    if world_size() > 1:
        pytest.skip("threaded loopback legs only run single-process")
    outcomes = run_spmd(world, _world_program)
    # every process of the world agrees, and the multi-process service
    # matches the single-process sim service on the same workload
    with _service("sim") as service:
        tenant = service.create_tenant("reference", (N, N), seed=SEED)
        _mixed_workload(tenant, seed=77, rounds=2)
        _mixed_workload(tenant, seed=88, rounds=1)
        reference = tenant.result()
    for final_a, signature in outcomes:
        _assert_tuples_identical(final_a, reference.final_a, what=f"world={world}")
    first_signature = outcomes[0][1]
    for _final_a, signature in outcomes[1:]:
        assert signature == first_signature


@pytest.mark.skipif(
    world_size() <= 1, reason="needs mpiexec with at least 2 processes"
)
def test_service_on_real_mpi_world():
    """Under ``mpiexec`` the service serves from the genuine COMM_WORLD."""
    from mpi4py import MPI

    final_a, signature = _world_program(MPI.COMM_WORLD, MPI.COMM_WORLD.Get_rank())
    assert final_a[0].size > 0
    assert signature
