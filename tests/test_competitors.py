"""Tests for the simulated competitor backends and SpGEMM baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicDistMatrix, SimMPI, partition_tuples_round_robin
from repro.bench.workloads import prepare_instance, spgemm_stream_scenario
from repro.competitors import (
    CombBLASBackend,
    CTFBackend,
    PETScBackend,
    UnsupportedOperation,
    get_backend,
)
from repro.competitors.spgemm_baselines import (
    static_spgemm_combblas,
    static_spgemm_ctf,
    static_spgemm_petsc_1d,
)
from repro.scenarios import (
    CompetitorExecutor,
    DeleteBatch,
    InsertBatch,
    Scenario,
    SpGEMMStep,
    replay,
)
from repro.semirings import MIN_PLUS, PLUS_TIMES
from repro.sparse import CSRMatrix

from tests.conftest import random_dense, static_from_dense

ALL_BACKENDS = ["combblas", "ctf", "petsc"]


def _tuples_from_dense(dense, p, seed=0):
    rows, cols = np.nonzero(dense)
    return partition_tuples_round_robin(rows, cols, dense[rows, cols], p, seed=seed)


class TestBackendRegistry:
    def test_registry(self):
        assert get_backend("combblas") is CombBLASBackend
        assert get_backend("ctf") is CTFBackend
        assert get_backend("petsc") is PETScBackend
        # the paper's own approach is the native executor, not a backend
        for unknown in ("nope", "ours"):
            with pytest.raises(KeyError):
                get_backend(unknown)

    def test_capability_flags_match_paper(self):
        assert CombBLASBackend.supports_deletions
        assert CTFBackend.supports_deletions
        assert not PETScBackend.supports_deletions
        assert not PETScBackend.supports_semirings


class TestBackendSemantics:
    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_construct_matches_reference(self, backend_name, comm16, grid16):
        n = 24
        dense = random_dense(n, n, 0.2, seed=1)
        backend = get_backend(backend_name)(comm16, grid16, (n, n))
        backend.construct(_tuples_from_dense(dense, 16, seed=2))
        assert np.allclose(backend.to_coo_global().to_dense(), dense)
        assert backend.nnz() == int((dense != 0).sum())
        assert backend.describe()["name"] == backend.name

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_insert_batch_adds_values(self, backend_name, comm16, grid16):
        n = 20
        dense = random_dense(n, n, 0.2, seed=3)
        extra = random_dense(n, n, 0.05, seed=4)
        backend = get_backend(backend_name)(comm16, grid16, (n, n))
        backend.construct(_tuples_from_dense(dense, 16, seed=5))
        backend.insert_batch(_tuples_from_dense(extra, 16, seed=6))
        assert np.allclose(backend.to_coo_global().to_dense(), dense + extra)

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_update_batch_overwrites_values(self, backend_name, comm16, grid16):
        n = 20
        dense = random_dense(n, n, 0.25, seed=7)
        backend = get_backend(backend_name)(comm16, grid16, (n, n))
        backend.construct(_tuples_from_dense(dense, 16, seed=8))
        rows, cols = np.nonzero(dense)
        sel = np.random.default_rng(9).choice(rows.size, size=10, replace=False)
        new_vals = np.full(10, 99.0)
        per_rank = partition_tuples_round_robin(rows[sel], cols[sel], new_vals, 16, seed=10)
        backend.update_batch(per_rank)
        result = backend.to_coo_global().to_dense()
        assert np.all(result[rows[sel], cols[sel]] == 99.0)

    @pytest.mark.parametrize("backend_name", ["combblas", "ctf"])
    def test_delete_batch_removes_entries(self, backend_name, comm16, grid16):
        n = 20
        dense = random_dense(n, n, 0.25, seed=11)
        backend = get_backend(backend_name)(comm16, grid16, (n, n))
        backend.construct(_tuples_from_dense(dense, 16, seed=12))
        rows, cols = np.nonzero(dense)
        sel = np.random.default_rng(13).choice(rows.size, size=12, replace=False)
        per_rank = partition_tuples_round_robin(
            rows[sel], cols[sel], np.zeros(12), 16, seed=14
        )
        backend.delete_batch(per_rank)
        expected = dense.copy()
        expected[rows[sel], cols[sel]] = 0.0
        assert np.allclose(backend.to_coo_global().to_dense(), expected)

    def test_petsc_rejects_deletions_and_other_semirings(self, comm16, grid16):
        backend = PETScBackend(comm16, grid16, (10, 10))
        with pytest.raises(UnsupportedOperation):
            backend.delete_batch({})
        with pytest.raises(UnsupportedOperation):
            PETScBackend(comm16, grid16, (10, 10), MIN_PLUS)

    def test_petsc_uses_fewer_ranks(self, comm16, grid16):
        backend = PETScBackend(comm16, grid16, (10, 10))
        assert backend.n_ranks == 16 // comm16.machine.ranks_per_node

    def test_all_backends_agree_with_the_native_replay(self):
        n = 22
        dense = random_dense(n, n, 0.25, seed=17)
        extra = random_dense(n, n, 0.05, seed=18)
        rows, cols = np.nonzero(dense)
        sel = np.random.default_rng(19).choice(rows.size, size=8, replace=False)
        extra_rows, extra_cols = np.nonzero(extra)
        scenario = Scenario(
            name="mixed",
            shape=(n, n),
            steps=[
                InsertBatch(extra_rows, extra_cols, extra[extra_rows, extra_cols]),
                DeleteBatch(rows[sel], cols[sel], np.zeros(8)),
            ],
            initial_tuples=(rows, cols, dense[rows, cols]),
            seed=20,
        )
        native = replay(scenario, backend="sim", n_ranks=16)
        expected = dense + extra
        expected[rows[sel], cols[sel]] = 0.0
        assert native.final_a[0].size == int((expected != 0).sum())
        for backend_name in ("combblas", "ctf"):
            result = replay(
                scenario,
                backend="sim",
                n_ranks=16,
                executor_factory=CompetitorExecutor.factory(backend_name),
            )
            for got, want in zip(result.final_a, native.final_a):
                assert np.allclose(got, want), backend_name


class TestSpGEMMStreams:
    """The per-batch dynamic-SpGEMM protocol of each framework, replayed."""

    @pytest.fixture(scope="class")
    def workload(self):
        return prepare_instance("LiveJournal", scale_divisor=65536, seed=71)

    @pytest.fixture(scope="class")
    def algebraic(self, workload):
        return spgemm_stream_scenario(
            workload, n_batches=3, batch_total=32, mode="algebraic", seed=79
        )

    @staticmethod
    def _replay(scenario, backend_name=None, **kwargs):
        factory = backend_name and CompetitorExecutor.factory(backend_name)
        return replay(
            scenario, backend="sim", n_ranks=4, executor_factory=factory, **kwargs
        )

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_algebraic_stream_ends_with_the_native_product(
        self, backend_name, workload, algebraic
    ):
        import scipy.sparse as sp

        native = self._replay(algebraic)
        result = self._replay(algebraic, backend_name)
        assert result.truncated_at is None
        assert [s.kind for s in result.measured_steps()] == ["insert"] * 3
        for got, want in zip(result.final_a + result.final_c, native.final_a + native.final_c):
            assert np.allclose(got, want)
        # ... and with scipy's: C = (sum of the batches) @ B
        shape = (workload.n, workload.n)
        a = sum(
            sp.coo_matrix((s.values, (s.rows, s.cols)), shape=shape).tocsr()
            for s in algebraic.update_steps()
        )
        b = sp.coo_matrix((workload.values, (workload.rows, workload.cols)), shape=shape)
        reference = (a @ b.tocsr()).tocoo()
        rows, cols, values = result.final_c
        assert rows.size == reference.nnz
        got = sp.coo_matrix((values, (rows, cols)), shape=shape)
        assert abs(got - reference).max() < 1e-9

    def test_general_stream_recomputes_the_native_product(self, workload):
        general = spgemm_stream_scenario(
            workload,
            n_batches=2,
            batch_total=16,
            mode="general",
            kind="update",
            semiring_name="min_plus",
            seed=101,
        )
        native = self._replay(general)
        for backend_name in ("combblas", "ctf"):
            result = self._replay(general, backend_name)
            for got, want in zip(result.final_c, native.final_c):
                assert np.allclose(got, want), backend_name
        # PETSc has no configurable semiring and keeps (+, *): same
        # structure, other values
        petsc = self._replay(general, "petsc")
        assert petsc.truncated_at is None
        assert np.array_equal(petsc.final_c[0], native.final_c[0])
        assert not np.allclose(petsc.final_c[2], native.final_c[2])

    def test_petsc_stream_truncates_at_a_deletion(self, workload):
        pool = workload.all_tuples()
        steps = [
            SpGEMMStep(*(x[:8] for x in pool), mode="general", kind="insert"),
            SpGEMMStep(*(x[:4] for x in pool), mode="general", kind="delete"),
        ]
        scenario = Scenario(
            name="petsc-delete", shape=(workload.n, workload.n), steps=steps, b_tuples=pool
        )
        result = self._replay(scenario, "petsc", collect_final=False)
        assert result.truncated_at == 1
        assert [s.supported for s in result.steps] == [True, False]
        assert self._replay(scenario, "combblas").truncated_at is None

    def test_plain_steps_cannot_reach_a_streamed_operand(self, workload, algebraic):
        mixed = Scenario(
            name="mixed",
            shape=algebraic.shape,
            steps=[InsertBatch(np.array([1]), np.array([2]), np.ones(1))],
            b_tuples=workload.all_tuples(),
        )
        assert self._replay(mixed, "combblas", collect_final=False).truncated_at == 0


class TestSpGEMMBaselines:
    def test_combblas_and_ctf_baselines_match_dense(self, comm16, grid16):
        n = 16
        a = random_dense(n, n, 0.15, seed=23)
        b = random_dense(n, n, 0.15, seed=24)
        da = static_from_dense(comm16, grid16, a, layout="dcsr")
        db = static_from_dense(comm16, grid16, b, layout="csr")
        c_accum = DynamicDistMatrix.empty(comm16, grid16, (n, n))
        product = static_spgemm_combblas(comm16, grid16, da, db, accumulate_into=c_accum)
        assert np.allclose(product.to_dense(), a @ b)
        assert np.allclose(c_accum.to_dense(), a @ b)
        product_ctf = static_spgemm_ctf(comm16, grid16, da, db)
        assert np.allclose(product_ctf.to_dense(), a @ b)

    def test_ctf_baseline_charges_more_communication(self, grid16):
        n = 16
        a = random_dense(n, n, 0.15, seed=25)
        b = random_dense(n, n, 0.15, seed=26)
        comm_cb = SimMPI(16)
        static_spgemm_combblas(
            comm_cb, grid16,
            static_from_dense(comm_cb, grid16, a),
            static_from_dense(comm_cb, grid16, b),
        )
        comm_ctf = SimMPI(16)
        static_spgemm_ctf(
            comm_ctf, grid16,
            static_from_dense(comm_ctf, grid16, a),
            static_from_dense(comm_ctf, grid16, b),
        )
        assert comm_ctf.stats.total_bytes() > comm_cb.stats.total_bytes()

    def test_petsc_1d_baseline_matches_dense(self):
        n, n_ranks = 20, 4
        comm = SimMPI(n_ranks)
        a = random_dense(n, n, 0.2, seed=27)
        b = random_dense(n, n, 0.2, seed=28)
        offsets = np.array([0, 5, 10, 15, 20], dtype=np.int64)
        a_rows = {}
        for rank in range(n_ranks):
            lo, hi = offsets[rank], offsets[rank + 1]
            a_rows[rank] = CSRMatrix.from_dense(a[lo:hi, :])
        results = static_spgemm_petsc_1d(
            comm,
            a_rows,
            offsets,
            CSRMatrix.from_dense(b),
            semiring=PLUS_TIMES,
            n_ranks=n_ranks,
        )
        assembled = np.zeros((n, n))
        for rank, coo in results.items():
            lo = offsets[rank]
            dense_local = coo.to_dense()
            assembled[lo : lo + dense_local.shape[0], :] = dense_local
        assert np.allclose(assembled, a @ b)
