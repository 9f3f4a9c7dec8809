"""Unit tests for the always-on graph service.

Covers the micro-batch queue (flush-by-count, flush-by-deadline on the
logical clock, order-preserving coalescing), the :class:`ReplayOptions`
configuration bundle (``replay()`` keywords are its fields and nothing
else),
:class:`ServiceWorld` lifecycle (persistent minting, shutdown semantics)
and :class:`GraphService` tenancy — including the tenant-isolation
properties: identical seeded traces on one world produce identical
independent results, and a tenant's comm/stat accounting is unchanged by
other tenants sharing the world.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.runtime import ServiceWorld, SimMPI
from repro.scenarios import (
    CheckpointStore,
    ReplayOptions,
    ScenarioCheckError,
    replay,
)
from repro.scenarios.generators import steady_state_churn
from repro.service import (
    FlushPolicy,
    GraphService,
    IngestRequest,
    MicroBatchQueue,
    ServiceConfig,
    coalesce,
)

N = 40


def _req(kind: str = "insert", size: int = 3, label: str = "") -> IngestRequest:
    rng = np.random.default_rng(size)
    return IngestRequest.make(
        kind,
        rng.integers(0, N, size),
        rng.integers(0, N, size),
        rng.random(size),
        label=label,
    )


def _service(
    flush_max_requests: int = 4,
    flush_max_delay: float | None = None,
    **replay_kwargs,
) -> GraphService:
    replay_kwargs.setdefault("n_ranks", 4)
    return GraphService(
        backend="sim",
        config=ServiceConfig(
            replay=ReplayOptions(**replay_kwargs),
            flush_max_requests=flush_max_requests,
            flush_max_delay=flush_max_delay,
        ),
    )


def _churn(tenant, seed: int, n_requests: int = 9, size: int = 5) -> None:
    """A deterministic seeded request stream against one tenant."""
    rng = np.random.default_rng(seed)
    for i in range(n_requests):
        rows = rng.integers(0, N, size)
        cols = rng.integers(0, N, size)
        if i % 3 == 2:
            tenant.delete(rows, cols, label=f"del{i}")
        else:
            tenant.insert(rows, cols, rng.random(size), label=f"ins{i}")


# ---------------------------------------------------------------------------
# queue layer
# ---------------------------------------------------------------------------
class TestIngestRequest:
    def test_validates_kind(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            IngestRequest.make("upsert", [0], [1])

    def test_validates_lengths(self):
        with pytest.raises(ValueError, match="identical lengths"):
            IngestRequest.make("insert", [0, 1], [1], [0.5, 0.5])

    def test_values_default_to_ones(self):
        request = IngestRequest.make("insert", [0, 1], [1, 2])
        assert np.array_equal(request.values, np.ones(2))
        assert request.n_tuples == 2

    def test_normalises_dtypes(self):
        request = IngestRequest.make("update", [0.0, 1.0], [1, 2], [1, 2])
        assert request.rows.dtype == np.int64
        assert request.values.dtype == np.float64


class TestFlushPolicy:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            FlushPolicy(max_requests=0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="non-negative"):
            FlushPolicy(max_delay=-1.0)


class TestMicroBatchQueue:
    def test_count_policy_triggers_on_fill(self):
        queue = MicroBatchQueue(policy=FlushPolicy(max_requests=3))
        assert not queue.offer(_req())
        assert not queue.offer(_req())
        assert queue.offer(_req())
        assert len(queue) == 3

    def test_deadline_uses_logical_clock(self):
        queue = MicroBatchQueue(policy=FlushPolicy(max_requests=100, max_delay=2.0))
        assert not queue.due(10.0)  # empty queue is never due
        queue.offer(_req(), now=1.0)
        assert not queue.due(2.5)
        assert queue.due(3.0)

    def test_drain_resets_deadline(self):
        queue = MicroBatchQueue(policy=FlushPolicy(max_requests=100, max_delay=1.0))
        queue.offer(_req(), now=0.0)
        assert len(queue.drain()) == 1
        assert len(queue) == 0
        assert not queue.due(100.0)


class TestCoalesce:
    def test_merges_same_kind_runs(self):
        groups = coalesce([_req("insert", 2), _req("insert", 3), _req("delete", 1)])
        assert [g.kind for g in groups] == ["insert", "delete"]
        assert groups[0].n_tuples == 5

    def test_preserves_order_across_kind_changes(self):
        stream = [_req("insert"), _req("delete"), _req("insert")]
        groups = coalesce(stream)
        # insert, delete, insert must stay three batches — collapsing to
        # two would change the applied state.
        assert [g.kind for g in groups] == ["insert", "delete", "insert"]

    def test_concatenation_order_is_submission_order(self):
        a = IngestRequest.make("insert", [1], [2], [10.0], label="a")
        b = IngestRequest.make("insert", [3], [4], [20.0], label="b")
        (merged,) = coalesce([a, b])
        assert np.array_equal(merged.rows, [1, 3])
        assert np.array_equal(merged.values, [10.0, 20.0])
        assert merged.label == "a+b"

    def test_empty_stream(self):
        assert coalesce([]) == []


# ---------------------------------------------------------------------------
# ReplayOptions — the consolidated replay configuration surface
# ---------------------------------------------------------------------------
class TestReplayOptions:
    def test_kwargs_and_options_are_equivalent(self):
        scenario = steady_state_churn(seed=5)
        by_kwargs = replay(scenario, backend="sim", n_ranks=4, partitioner="nnz_aware")
        by_options = replay(
            scenario,
            options=ReplayOptions(backend="sim", n_ranks=4, partitioner="nnz_aware"),
        )
        assert by_kwargs.comm_signature() == by_options.comm_signature()
        assert np.array_equal(by_kwargs.final_a[0], by_options.final_a[0])
        assert np.array_equal(by_kwargs.final_a[2], by_options.final_a[2])

    def test_kwargs_override_options_without_mutating_them(self):
        options = ReplayOptions(backend="sim", n_ranks=16)
        result = replay(steady_state_churn(seed=5), options, n_ranks=4)
        assert (result.backend, result.n_ranks) == ("sim", 4)
        assert options.n_ranks == 16

    @pytest.mark.parametrize("keyword", ["lyout", "layout", "n_rank", "backend_name"])
    def test_keyword_that_is_not_a_field_raises(self, keyword):
        """A misspelt keyword must fail, not run the defaults silently."""
        with pytest.raises(TypeError, match=keyword):
            replay(steady_state_churn(seed=5), comm=SimMPI(4), **{keyword: "dhb"})
        with pytest.raises(TypeError, match=keyword):
            steady_state_churn(seed=5).replay(comm=SimMPI(4), **{keyword: "dhb"})

    def test_backend_must_name_the_comm_it_labels(self):
        scenario = steady_state_churn(seed=5)
        with pytest.raises(ValueError, match="'mpi' disagrees.*'sim'"):
            replay(scenario, comm=SimMPI(4), backend="mpi")
        assert replay(scenario, comm=SimMPI(4), backend="SIM").backend == "sim"

    # ``retry`` is gone: ``restore`` with no stored checkpoint already
    # reruns from scratch, and no caller wants a stored one ignored
    @pytest.mark.parametrize("policy", ["panic", "retry"])
    def test_validate_rejects_bad_on_crash(self, policy):
        with pytest.raises(ValueError, match=f"on_crash policy '{policy}'"):
            ReplayOptions(on_crash=policy).validate()

    def test_options_have_eleven_fields(self):
        assert len(dataclasses.fields(ReplayOptions)) == 11


# ---------------------------------------------------------------------------
# ServiceWorld — persistent substrate
# ---------------------------------------------------------------------------
class TestServiceWorld:
    def test_sim_world_mints_independent_communicators(self):
        world = ServiceWorld("sim")
        a = world.communicator(4)
        b = world.communicator(8)
        assert isinstance(a, SimMPI) and a.p == 4 and b.p == 8
        assert world.minted == 2
        assert world.world_size == 1 and world.world_rank == 0

    def test_shutdown_stops_minting_and_is_idempotent(self):
        world = ServiceWorld("sim")
        world.shutdown()
        world.shutdown()
        assert world.closed
        with pytest.raises(RuntimeError, match="shut down"):
            world.communicator(2)

    def test_sim_rejects_low_level_comm(self):
        with pytest.raises(ValueError, match="single-process"):
            ServiceWorld("sim", comm=object())

    def test_rejects_unknown_backend(self):
        with pytest.raises(Exception):
            ServiceWorld("no-such-backend")

    def test_context_manager_shuts_down(self):
        with ServiceWorld("sim") as world:
            world.communicator(2)
        assert world.closed


# ---------------------------------------------------------------------------
# GraphService — tenancy and lifecycle
# ---------------------------------------------------------------------------
class TestServiceLifecycle:
    def test_one_world_serves_sequential_tenant_workloads(self):
        # The acceptance property: at least three tenant workloads over a
        # single world without tearing it down.
        with _service() as service:
            for i, name in enumerate(["first", "second", "third"]):
                tenant = service.create_tenant(name, (N, N), seed=i)
                _churn(tenant, seed=100 + i)
                result = tenant.result()
                assert result.final_a[0].size > 0
                service.drop_tenant(name)
            assert service.world.minted >= 3
            assert not service.world.closed
        assert service.closed and service.world.closed

    def test_duplicate_tenant_name_rejected(self):
        with _service() as service:
            service.create_tenant("a", (N, N))
            with pytest.raises(ValueError, match="already exists"):
                service.create_tenant("a", (N, N))

    def test_tenant_lookup_and_creation_order(self):
        with _service() as service:
            service.create_tenant("z", (N, N))
            service.create_tenant("a", (N, N))
            assert service.tenants == ("z", "a")
            assert service.tenant("z").name == "z"

    def test_shutdown_closes_tenants(self):
        service = _service()
        tenant = service.create_tenant("a", (N, N))
        service.shutdown()
        with pytest.raises(RuntimeError, match="closed|shut down"):
            tenant.insert([0], [1])
        with pytest.raises(RuntimeError, match="shut down"):
            service.create_tenant("b", (N, N))

    def test_external_world_survives_service_shutdown(self):
        world = ServiceWorld("sim")
        with GraphService(world) as service:
            service.create_tenant("a", (N, N), n_ranks=4)
        assert not world.closed
        world.shutdown()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("faults", "kill@1"),
            ("resume_from", "/nonexistent.npz"),
            ("on_crash", "restore"),
            ("collect_final", False),
            ("checkpoint_store", CheckpointStore()),
            ("backend", "mpi"),
        ],
    )
    def test_replay_only_options_are_refused(self, field, value):
        """A tenant cannot honour these; serving on while handing them to the
        cold-replay oracle would make the two disagree."""
        with _service(**{field: value}) as service:
            with pytest.raises(ValueError, match=f"replay.{field}"):
                service.create_tenant("a", (N, N))
            assert service.tenants == ()

    def test_first_refused_field_is_named(self):
        with _service(faults="kill@1", resume_from="/nonexistent.npz") as service:
            with pytest.raises(ValueError, match="replay.faults "):
                service.create_tenant("a", (N, N))

    def test_closed_tenant_log_survives(self):
        with _service() as service:
            tenant = service.create_tenant("a", (N, N), seed=3)
            _churn(tenant, seed=3)
            tenant.result()
            log = tenant.log
            service.drop_tenant("a")
            # The request log is plain data and outlives its tenant.
            result = replay(log, options=tenant.replay_options())
            assert result.final_a[0].size > 0


class TestIngestion:
    def test_count_flush_applies_micro_batch(self):
        with _service(flush_max_requests=3) as service:
            tenant = service.create_tenant("a", (N, N))
            assert not tenant.insert([0], [1])
            assert not tenant.insert([1], [2])
            assert tenant.pending == 2 and tenant.n_steps == 0
            assert tenant.insert([2], [3])  # fills the batch → flush
            assert tenant.pending == 0
            assert tenant.n_steps == 1  # one coalesced step, not three

    def test_deadline_flush_via_advance_time(self):
        with _service(flush_max_requests=100, flush_max_delay=2.0) as service:
            tenant = service.create_tenant("a", (N, N))
            tenant.insert([0], [1])
            assert service.advance_time(1.0) == 0
            assert tenant.pending == 1
            assert service.advance_time(1.5) == 1
            assert tenant.pending == 0 and tenant.n_steps == 1

    def test_time_cannot_run_backwards(self):
        with _service() as service:
            with pytest.raises(ValueError, match="backwards"):
                service.advance_time(-1.0)

    def test_queries_flush_first(self):
        with _service(flush_max_requests=100) as service:
            tenant = service.create_tenant("a", (N, N))
            tenant.insert([0, 1, 2], [1, 2, 3])
            assert tenant.pending == 1
            contracted = tenant.contract(np.zeros(N, dtype=np.int64), n_clusters=1)
            assert tenant.pending == 0
            # the query saw the flushed insert: everything contracts to (0, 0)
            assert contracted[2].sum() == pytest.approx(3.0)

    def test_bounds_checked_at_submission(self):
        with _service() as service:
            tenant = service.create_tenant("a", (N, N))
            with pytest.raises(ValueError):
                tenant.insert([N + 1], [0])

    def test_triangle_tenant_rejects_deletions(self):
        from repro.scenarios import AppSpec

        with _service() as service:
            tenant = service.create_tenant(
                "tri", (N, N), app=AppSpec(name="triangle")
            )
            with pytest.raises(ValueError, match="insert only"):
                tenant.delete([0], [1])

    def test_spgemm_product_includes_the_preloaded_matrix(self):
        with _service() as service:
            tenant = service.create_tenant(
                "p",
                (N, N),
                initial_tuples=(np.array([0, 4]), np.array([1, 2]), np.ones(2)),
                b_tuples=(np.array([1, 2]), np.array([5, 3]), np.array([2.0, 3.0])),
            )
            tenant.spgemm([1], [2])
            final_c = tenant.result().final_c
            got = dict(zip(zip(final_c[0].tolist(), final_c[1].tolist()), final_c[2]))
            assert got == {(0, 5): 2.0, (1, 3): 3.0, (4, 3): 3.0}  # A₀·B ⊕ A*·B

    def test_spgemm_of_the_other_mode_is_refused_before_logging(self):
        ones = (np.array([1]), np.array([2]), np.ones(1))
        with _service() as service:
            tenant = service.create_tenant("p", (N, N), b_tuples=ones)
            plain = service.create_tenant("q", (N, N))
            tenant.spgemm([0], [1])
            with pytest.raises(ValueError, match="'general'.*'algebraic'"):
                tenant.spgemm([3], [1], mode="general", kind="update")
            with pytest.raises(ValueError, match="'algebraic'.*None"):
                plain.spgemm([3], [1])
            assert tenant.n_steps == 1 and plain.n_steps == 0
            # the log is still a replayable scenario
            cold = replay(tenant.log, options=tenant.replay_options())
            assert cold.final_c[2].tolist() == tenant.result().final_c[2].tolist() == [1.0]

    @pytest.mark.parametrize("check_snapshots", [True, False])
    def test_a_mismatching_nnz_check_is_refused_before_logging(
        self, check_snapshots
    ):
        two = (np.array([0, 1]), np.array([1, 2]), np.ones(2))
        with _service(check_snapshots=check_snapshots) as service:
            tenant = service.create_tenant("a", (N, N), initial_tuples=two)
            if check_snapshots:
                with pytest.raises(ScenarioCheckError, match="expected nnz 5, got 2"):
                    tenant.check_nnz(5)
                assert tenant.n_steps == 0
            else:
                tenant.check_nnz(5)  # recorded, not checked
                assert tenant.n_steps == 1
            # the tenant keeps serving and its log keeps replaying
            tenant.insert([3], [4])
            tenant.flush()
            tenant.check_nnz(3)
            cold = replay(tenant.log, options=tenant.replay_options())
            for got, want in zip(cold.final_a, tenant.result().final_a):
                assert np.array_equal(got, want)

    def test_flush_on_empty_queue_is_noop(self):
        with _service() as service:
            tenant = service.create_tenant("a", (N, N))
            assert tenant.flush() == 0
            assert service.flush_all() == 0


# ---------------------------------------------------------------------------
# tenant isolation
# ---------------------------------------------------------------------------
class TestTenantIsolation:
    def test_identical_traces_identical_results(self):
        # Two tenants fed the same seeded request stream on one world must
        # produce independent but identical results.
        with _service() as service:
            left = service.create_tenant("left", (N, N), seed=17)
            right = service.create_tenant("right", (N, N), seed=17)
            _churn(left, seed=42)
            _churn(right, seed=42)
            a = left.result()
            b = right.result()
            assert np.array_equal(a.final_a[0], b.final_a[0])
            assert np.array_equal(a.final_a[1], b.final_a[1])
            assert np.array_equal(a.final_a[2], b.final_a[2])
            assert a.comm_signature() == b.comm_signature()
            assert a.applied_counts == b.applied_counts

    def test_no_stat_leakage_between_tenants(self):
        # A tenant's comm accounting must be unchanged by other tenants
        # sharing the world: run A alone, then A interleaved with a noisy
        # B, and require byte-identical signatures for A.
        with _service() as service:
            alone = service.create_tenant("alone", (N, N), seed=23)
            _churn(alone, seed=7)
            reference = alone.result()

            shared = service.create_tenant("shared", (N, N), seed=23)
            noisy = service.create_tenant("noisy", (N, N), seed=99, n_ranks=8)
            rng = np.random.default_rng(7)
            other = np.random.default_rng(1234)
            for i in range(9):
                rows = rng.integers(0, N, 5)
                cols = rng.integers(0, N, 5)
                if i % 3 == 2:
                    shared.delete(rows, cols, label=f"del{i}")
                else:
                    shared.insert(rows, cols, rng.random(5), label=f"ins{i}")
                # interleave unrelated traffic on the other tenant
                noisy.insert(
                    other.integers(0, N, 11), other.integers(0, N, 11), other.random(11)
                )
                noisy.flush()
            interleaved = shared.result()
            assert interleaved.comm_signature() == reference.comm_signature()
            assert np.array_equal(interleaved.final_a[2], reference.final_a[2])

    def test_tenants_may_use_different_rank_namespaces(self):
        with _service() as service:
            small = service.create_tenant("small", (N, N), n_ranks=2)
            large = service.create_tenant("large", (N, N), n_ranks=8)
            _churn(small, seed=1)
            _churn(large, seed=1)
            a, b = small.result(), large.result()
            assert (small.comm.p, large.comm.p) == (2, 8)
            # same logical state regardless of the rank namespace
            assert np.array_equal(a.final_a[0], b.final_a[0])
            assert np.array_equal(a.final_a[2], b.final_a[2])
