"""Tests for the distributed layer: distribution, redistribution, matrices."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BlockDistribution,
    DynamicDistMatrix,
    IndexPermutation,
    ProcessGrid,
    SimMPI,
    StaticDistMatrix,
    UpdateBatch,
    build_update_matrix,
    partition_tuples_round_robin,
)
from repro.distributed import (
    redistribute_tuples,
    redistribute_tuples_single_phase,
)
from repro.distributed.redistribution import group_by_buckets
from repro.semirings import MIN_PLUS, PLUS_TIMES

from tests.conftest import dist_from_dense, random_dense, static_from_dense


class TestBlockDistribution:
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_block_shapes_cover_matrix(self, p):
        grid = ProcessGrid(p)
        dist = BlockDistribution(37, 23, grid)
        total = sum(
            dist.block_shape(i, j)[0] * dist.block_shape(i, j)[1]
            for i in range(grid.q)
            for j in range(grid.q)
        )
        assert total == 37 * 23

    def test_owner_and_local_round_trip(self):
        grid = ProcessGrid(9)
        dist = BlockDistribution(20, 20, grid)
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 20, 50)
        cols = rng.integers(0, 20, 50)
        owners = dist.owner_of(rows, cols)
        for rank in np.unique(owners):
            sel = owners == rank
            lr, lc = dist.to_local(int(rank), rows[sel], cols[sel])
            gr, gc = dist.to_global(int(rank), lr, lc)
            assert np.array_equal(gr, rows[sel])
            assert np.array_equal(gc, cols[sel])

    def test_out_of_bounds(self):
        grid = ProcessGrid(4)
        dist = BlockDistribution(10, 10, grid)
        with pytest.raises(IndexError):
            dist.block_row_of(np.array([10]))
        with pytest.raises(IndexError):
            dist.to_local(0, np.array([9]), np.array([9]))  # owned by rank 3

    def test_degenerate_shapes_reject_all_coordinates(self):
        """Regression: the bounds guards used ``max(n_rows, 1)``, so a
        zero-row (or zero-column) distribution silently accepted coordinate
        0 and mapped it into a block that does not exist."""
        grid = ProcessGrid(4)
        zero_rows = BlockDistribution(0, 10, grid)
        with pytest.raises(IndexError):
            zero_rows.block_row_of(np.array([0]))
        assert zero_rows.block_col_of(np.array([5])).tolist() == [1]
        zero_cols = BlockDistribution(10, 0, grid)
        with pytest.raises(IndexError):
            zero_cols.block_col_of(np.array([0]))
        with pytest.raises(IndexError):
            zero_cols.owner_of(np.array([0]), np.array([0]))
        # empty queries remain valid on fully degenerate shapes
        empty = np.array([], dtype=np.int64)
        assert BlockDistribution(0, 0, grid).owner_of(empty, empty).size == 0

    def test_permutation_round_trip(self):
        perm = IndexPermutation(100, seed=3)
        idx = np.arange(100)
        assert np.array_equal(perm.undo(perm.apply(idx)), idx)
        assert sorted(perm.apply(idx).tolist()) == list(range(100))
        ident = IndexPermutation.identity(10)
        assert np.array_equal(ident.apply(np.arange(10)), np.arange(10))
        with pytest.raises(IndexError):
            perm.apply(np.array([100]))


class TestRedistribution:
    @staticmethod
    def _make_tuples(n, p, count, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, count)
        cols = rng.integers(0, n, count)
        vals = rng.random(count)
        return partition_tuples_round_robin(rows, cols, vals, p, seed=seed), (rows, cols, vals)

    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("strategy", ["two_phase", "single_phase"])
    def test_no_tuple_lost_and_all_land_on_owner(self, p, strategy):
        n = 40
        comm = SimMPI(p)
        grid = ProcessGrid(p)
        dist = BlockDistribution(n, n, grid)
        per_rank, (rows, cols, vals) = self._make_tuples(n, p, 300, seed=p)
        fn = redistribute_tuples if strategy == "two_phase" else redistribute_tuples_single_phase
        routed = fn(comm, grid, dist, per_rank)
        got = []
        for rank, (r, c, v) in routed.items():
            owners = dist.owner_of(r, c) if r.size else r
            assert np.all(owners == rank)
            got.extend(zip(r.tolist(), c.tolist(), v.tolist()))
        expected = sorted(zip(rows.tolist(), cols.tolist(), vals.tolist()))
        assert sorted(got) == expected

    def test_two_phase_equals_single_phase_content(self):
        n, p = 30, 16
        comm = SimMPI(p)
        grid = ProcessGrid(p)
        dist = BlockDistribution(n, n, grid)
        per_rank, _ = self._make_tuples(n, p, 500, seed=7)
        a = redistribute_tuples(comm, grid, dist, per_rank)
        b = redistribute_tuples_single_phase(comm, grid, dist, per_rank)
        for rank in range(p):
            ta = sorted(zip(*[arr.tolist() for arr in a[rank]]))
            tb = sorted(zip(*[arr.tolist() for arr in b[rank]]))
            assert ta == tb

    def test_group_by_buckets_counting_and_comparison(self):
        rows = np.array([5, 1, 3, 1])
        cols = np.array([0, 2, 1, 1])
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        buckets = np.array([1, 0, 1, 0])
        (r, c, v), offsets = group_by_buckets(rows, cols, vals, buckets, 2, mode="counting")
        assert list(offsets) == [0, 2, 4]
        assert set(zip(r[:2].tolist(), c[:2].tolist())) == {(1, 2), (1, 1)}
        (r2, _c2, _v2), offsets2 = group_by_buckets(
            rows, cols, vals, buckets, 2, mode="comparison"
        )
        assert list(offsets2) == [0, 2, 4]
        assert list(r2[:2]) == [1, 1]  # fully sorted within bucket
        with pytest.raises(ValueError):
            group_by_buckets(rows, cols, vals, buckets, 2, mode="bogus")
        with pytest.raises(ValueError):
            group_by_buckets(rows, cols, vals, np.array([0, 0, 5, 0]), 2)

    def test_empty_input(self):
        p = 4
        comm = SimMPI(p)
        grid = ProcessGrid(p)
        dist = BlockDistribution(10, 10, grid)
        routed = redistribute_tuples(comm, grid, dist, {})
        assert all(r[0].size == 0 for r in routed.values())

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000), count=st.integers(0, 200))
    def test_property_redistribution_is_a_permutation_routing(self, seed, count):
        n, p = 25, 9
        comm = SimMPI(p)
        grid = ProcessGrid(p)
        dist = BlockDistribution(n, n, grid)
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, count)
        cols = rng.integers(0, n, count)
        vals = rng.random(count)
        per_rank = partition_tuples_round_robin(rows, cols, vals, p, seed=seed)
        routed = redistribute_tuples(comm, grid, dist, per_rank)
        total = sum(r[0].size for r in routed.values())
        assert total == count


class TestDistMatrices:
    def test_dynamic_from_tuples_matches_dense(self, any_grid):
        comm, grid = any_grid
        dense = random_dense(22, 22, 0.2, seed=grid.n_ranks)
        mat = dist_from_dense(comm, grid, dense)
        assert np.allclose(mat.to_dense(), dense)
        assert mat.nnz() == int((dense != 0).sum())

    def test_static_from_tuples_matches_dense(self, any_grid):
        comm, grid = any_grid
        dense = random_dense(18, 25, 0.2, seed=grid.n_ranks + 1)
        for layout in ("csr", "dcsr"):
            mat = static_from_dense(comm, grid, dense, layout=layout)
            assert np.allclose(mat.to_dense(), dense)
            assert mat.layout == layout

    def test_get_routes_to_owner(self, comm16, grid16):
        dense = random_dense(20, 20, 0.3, seed=5)
        mat = dist_from_dense(comm16, grid16, dense)
        for i, j in [(0, 0), (7, 13), (19, 19)]:
            assert mat.get(i, j) == pytest.approx(dense[i, j])

    def test_contains_tuples_probes_each_block_once(self, comm16, grid16, monkeypatch):
        """One ``contains_batch`` per owning block, never a call per pair;
        static blocks answer the same way from their tuples."""
        from repro.sparse import DHBMatrix

        dense = random_dense(20, 20, 0.3, seed=6)
        rows, cols = np.divmod(np.arange(0, 400, 3), 20)
        expected = dense[rows, cols] != 0
        static = static_from_dense(comm16, grid16, dense, layout="dcsr")
        assert np.array_equal(static.contains_tuples(rows, cols), expected)

        probes = []
        probe = DHBMatrix.contains_batch

        def counting(self, block_rows, block_cols):
            probes.append(len(block_rows))
            return probe(self, block_rows, block_cols)

        def per_pair(self, i, j):
            raise AssertionError("a block was probed pair by pair")

        monkeypatch.setattr(DHBMatrix, "contains_batch", counting)
        monkeypatch.setattr(DHBMatrix, "contains", per_pair)
        mat = dist_from_dense(comm16, grid16, dense)
        assert np.array_equal(mat.contains_tuples(rows, cols), expected)
        assert len(probes) <= 16 and sum(probes) == rows.size
        assert mat.contains_tuples([], []).size == 0

    def test_add_merge_mask_updates_are_local_and_correct(self, comm16, grid16):
        dense = random_dense(24, 24, 0.25, seed=9)
        mat = dist_from_dense(comm16, grid16, dense)
        update_dense = random_dense(24, 24, 0.05, seed=11)
        rows, cols = np.nonzero(update_dense)
        vals = update_dense[rows, cols]
        batch = UpdateBatch.from_global((24, 24), rows, cols, vals, 16, seed=13)
        update = build_update_matrix(comm16, grid16, mat.dist, batch)
        comm_bytes_before = comm16.stats.total_bytes()
        mat.add_update(update)
        # add/merge/mask are purely local: no new communication
        assert comm16.stats.total_bytes() == comm_bytes_before
        assert np.allclose(mat.to_dense(), dense + update_dense)

        mat.merge_update(update)
        expected = dense + update_dense
        expected[rows, cols] = vals
        assert np.allclose(mat.to_dense(), expected)

        mat.mask_update(update)
        expected[rows, cols] = 0.0
        assert np.allclose(mat.to_dense(), expected)

    def test_update_validation_errors(self, comm16, grid16):
        mat = DynamicDistMatrix.empty(comm16, grid16, (10, 10))
        wrong_shape = StaticDistMatrix.empty(comm16, grid16, (11, 11))
        with pytest.raises(ValueError):
            mat.add_update(wrong_shape)
        wrong_sr = StaticDistMatrix.empty(comm16, grid16, (10, 10), MIN_PLUS)
        with pytest.raises(ValueError):
            mat.add_update(wrong_sr)
        with pytest.raises(ValueError):
            mat.insert_tuples({}, combine="bogus")
        with pytest.raises(ValueError):
            mat.insert_tuples({}, redistribution="bogus")

    def test_static_dynamic_round_trip(self, comm16, grid16):
        dense = random_dense(16, 16, 0.3, seed=17)
        dyn = dist_from_dense(comm16, grid16, dense)
        static = dyn.to_static(layout="dcsr")
        assert np.allclose(static.to_dense(), dense)
        back = static.to_dynamic()
        assert np.allclose(back.to_dense(), dense)

    def test_copy_is_independent(self, comm16, grid16):
        dense = random_dense(12, 12, 0.3, seed=19)
        mat = dist_from_dense(comm16, grid16, dense)
        clone = mat.copy()
        clone.insert_tuples({0: (np.array([0]), np.array([0]), np.array([99.0]))}, combine="last")
        assert mat.get(0, 0) == pytest.approx(dense[0, 0])
        assert clone.get(0, 0) == pytest.approx(99.0)

    def test_update_batch_validation(self):
        with pytest.raises(ValueError, match="kind"):
            UpdateBatch((5, 5), {}, kind="bogus")
        with pytest.raises(ValueError, match="outside"):
            UpdateBatch((5, 5), {0: (np.array([7]), np.array([0]), np.array([1.0]))})
        with pytest.raises(ValueError, match="identical lengths"):
            UpdateBatch((5, 5), {0: (np.array([1]), np.array([0, 1]), np.array([1.0]))})

    def test_update_batch_round_trip_and_counts(self):
        rows = np.array([0, 1, 2, 3])
        cols = np.array([1, 2, 3, 4])
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        batch = UpdateBatch.from_global((5, 5), rows, cols, vals, 4, seed=2)
        assert batch.total_tuples == 4
        assert batch.to_global_coo().nnz == 4
        empty_rank = batch.tuples_of(99)
        assert empty_rank[0].size == 0

    def test_partition_round_robin_covers_all(self):
        rows = np.arange(10)
        parts = partition_tuples_round_robin(rows, rows, rows.astype(float), 3, seed=1)
        total = sum(p[0].size for p in parts.values())
        assert total == 10
        with pytest.raises(ValueError):
            partition_tuples_round_robin(rows, rows, rows, 0)
        with pytest.raises(ValueError):
            partition_tuples_round_robin(rows, rows[:5], rows.astype(float), 2)

    def test_build_update_matrix_min_plus_merge(self, comm16, grid16):
        dense = random_dense(12, 12, 0.2, MIN_PLUS, seed=23)
        mat = dist_from_dense(comm16, grid16, dense, MIN_PLUS)
        batch = UpdateBatch.from_global(
            (12, 12), np.array([0, 0]), np.array([1, 1]), np.array([5.0, 2.0]),
            16, kind="update", semiring=MIN_PLUS, seed=1,
        )
        update = build_update_matrix(
            comm16, grid16, mat.dist, batch, MIN_PLUS, combine="last"
        )
        mat.merge_update(update)
        # MERGE overwrites with one of the batch values (the batch carries
        # two writes to the same coordinate; which one is "last" depends on
        # the routing order, but the old value must be gone)
        assert mat.get(0, 1) in (pytest.approx(5.0), pytest.approx(2.0))
