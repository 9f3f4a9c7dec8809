"""Edge-case coverage: update batches, permutations, partitioning, SPA.

Satellite suite accompanying the scenario-engine PR:

* ``UpdateBatch`` / ``build_update_matrix`` corner cases — empty batches,
  batches already owned locally, duplicate coordinates under ADD / MERGE /
  MASK semantics;
* ``IndexPermutation`` round trips and ``partition_tuples_round_robin``
  determinism (including more ranks than tuples);
* the masked (``allowed``) path of ``SparseAccumulator``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BlockDistribution,
    DynamicDistMatrix,
    IndexPermutation,
    ProcessGrid,
    SimMPI,
    UpdateBatch,
    build_update_matrix,
    partition_tuples_round_robin,
)
from repro.semirings import MIN_PLUS, PLUS_TIMES
from repro.sparse import SparseAccumulator


@pytest.fixture
def comm4():
    return SimMPI(4)


@pytest.fixture
def grid4():
    return ProcessGrid(4)


# ----------------------------------------------------------------------
# UpdateBatch / build_update_matrix
# ----------------------------------------------------------------------
class TestUpdateBatchEdgeCases:
    def test_empty_batch_builds_empty_update_matrix(self, comm4, grid4):
        dist = BlockDistribution(8, 8, grid4)
        batch = UpdateBatch(shape=(8, 8), tuples_per_rank={})
        update = build_update_matrix(comm4, grid4, dist, batch)
        assert update.nnz() == 0
        assert all(update.blocks[r].nnz == 0 for r in range(4))
        empty = np.empty(0)
        batch2 = UpdateBatch(
            shape=(8, 8),
            tuples_per_rank={r: (empty, empty, empty) for r in range(4)},
        )
        update2 = build_update_matrix(comm4, grid4, dist, batch2)
        assert update2.nnz() == 0

    def test_empty_batch_applies_as_noop(self, comm4, grid4):
        mat = DynamicDistMatrix.empty(comm4, grid4, (8, 8))
        mat.insert_tuples({0: (np.array([1]), np.array([1]), np.array([2.0]))})
        update = build_update_matrix(
            comm4, grid4, mat.dist, UpdateBatch(shape=(8, 8))
        )
        assert mat.add_update(update) == 0
        assert mat.merge_update(update) == 0
        assert mat.mask_update(update) == 0
        assert mat.nnz() == 1

    def test_all_tuples_owned_locally(self, comm4, grid4):
        """Each rank submits only coordinates of its own block."""
        dist = BlockDistribution(8, 8, grid4)
        tuples_per_rank = {}
        for rank in range(4):
            lrows = np.array([0, 1])
            lcols = np.array([0, 2])
            grows, gcols = dist.to_global(rank, lrows, lcols)
            assert np.all(dist.owner_of(grows, gcols) == rank)
            tuples_per_rank[rank] = (grows, gcols, np.full(2, rank + 1.0))
        update = build_update_matrix(comm4, grid4, dist, tuples_per_rank)
        assert update.nnz() == 8
        for rank in range(4):
            block = update.blocks[rank]
            assert block.nnz == 2
            assert np.allclose(block.to_coo().values, rank + 1.0)

    def test_duplicate_tuples_add_semantics(self, comm4, grid4):
        """ADD: duplicate coordinates within one batch are ⊕-combined."""
        dist = BlockDistribution(8, 8, grid4)
        rows = np.array([2, 2, 2])
        cols = np.array([3, 3, 3])
        vals = np.array([1.0, 2.0, 4.0])
        update = build_update_matrix(
            comm4, grid4, dist, {0: (rows, cols, vals)}, combine="add"
        )
        mat = DynamicDistMatrix.empty(comm4, grid4, (8, 8))
        assert mat.add_update(update) == 1
        assert mat.get(2, 3) == pytest.approx(7.0)

    def test_duplicate_tuples_merge_semantics(self, comm4, grid4):
        """MERGE: the last duplicate wins (last-write-wins)."""
        dist = BlockDistribution(8, 8, grid4)
        mat = DynamicDistMatrix.empty(comm4, grid4, (8, 8))
        mat.insert_tuples({0: (np.array([2]), np.array([3]), np.array([100.0]))})
        batch = UpdateBatch(
            shape=(8, 8),
            tuples_per_rank={
                0: (np.array([2, 2]), np.array([3, 3]), np.array([5.0, 9.0]))
            },
            kind="update",
        )
        update = build_update_matrix(comm4, grid4, dist, batch)
        mat.merge_update(update)
        assert mat.get(2, 3) == pytest.approx(9.0)
        assert mat.nnz() == 1

    def test_duplicate_tuples_mask_semantics(self, comm4, grid4):
        """MASK: duplicated deletion markers delete the entry exactly once."""
        dist = BlockDistribution(8, 8, grid4)
        mat = DynamicDistMatrix.empty(comm4, grid4, (8, 8))
        mat.insert_tuples(
            {0: (np.array([2, 4]), np.array([3, 5]), np.array([1.0, 1.0]))}
        )
        batch = UpdateBatch(
            shape=(8, 8),
            tuples_per_rank={
                0: (np.array([2, 2]), np.array([3, 3]), np.ones(2)),
                1: (np.array([2]), np.array([3]), np.ones(1)),
            },
            kind="delete",
        )
        update = build_update_matrix(comm4, grid4, dist, batch, combine="last")
        deleted = mat.mask_update(update)
        assert deleted == 1
        assert mat.nnz() == 1
        assert mat.get(4, 5) == pytest.approx(1.0)

    def test_min_plus_add_semantics(self, comm4, grid4):
        """Over (min, +), ADD of duplicates keeps the minimum."""
        dist = BlockDistribution(8, 8, grid4)
        update = build_update_matrix(
            comm4,
            grid4,
            dist,
            {0: (np.array([1, 1]), np.array([1, 1]), np.array([7.0, 3.0]))},
            MIN_PLUS,
            combine="add",
        )
        mat = DynamicDistMatrix.empty(comm4, grid4, (8, 8), MIN_PLUS)
        mat.add_update(update)
        assert mat.get(1, 1) == pytest.approx(3.0)

    def test_batch_shape_mismatch_raises(self, comm4, grid4):
        dist = BlockDistribution(8, 8, grid4)
        batch = UpdateBatch(shape=(4, 4))
        with pytest.raises(ValueError, match="shape"):
            build_update_matrix(comm4, grid4, dist, batch)


# ----------------------------------------------------------------------
# IndexPermutation / partition_tuples_round_robin
# ----------------------------------------------------------------------
class TestPermutationAndPartitioning:
    @pytest.mark.parametrize("n", [0, 1, 17, 256])
    def test_permutation_round_trip(self, n):
        perm = IndexPermutation(n, seed=3)
        indices = np.arange(n, dtype=np.int64)
        assert np.array_equal(perm.undo(perm.apply(indices)), indices)
        assert np.array_equal(perm.apply(perm.undo(indices)), indices)

    def test_permutation_identity(self):
        perm = IndexPermutation.identity(9)
        indices = np.arange(9)
        assert np.array_equal(perm.apply(indices), indices)

    def test_permutation_rejects_out_of_domain(self):
        perm = IndexPermutation(4, seed=0)
        with pytest.raises(IndexError):
            perm.apply(np.array([4]))
        with pytest.raises(IndexError):
            perm.undo(np.array([-1]))

    def test_partition_deterministic_under_fixed_seed(self):
        rows = np.arange(23, dtype=np.int64)
        cols = (rows * 3) % 23
        vals = rows.astype(np.float64)
        a = partition_tuples_round_robin(rows, cols, vals, 4, seed=11)
        b = partition_tuples_round_robin(rows, cols, vals, 4, seed=11)
        c = partition_tuples_round_robin(rows, cols, vals, 4, seed=12)
        for rank in range(4):
            assert np.array_equal(a[rank][0], b[rank][0])
            assert np.array_equal(a[rank][1], b[rank][1])
            assert np.array_equal(a[rank][2], b[rank][2])
        assert any(
            not np.array_equal(a[rank][0], c[rank][0]) for rank in range(4)
        )

    def test_partition_covers_every_tuple_exactly_once(self):
        rows = np.arange(10, dtype=np.int64)
        cols = rows[::-1].copy()
        vals = np.ones(10)
        split = partition_tuples_round_robin(rows, cols, vals, 3, seed=5)
        gathered = np.sort(np.concatenate([split[r][0] for r in range(3)]))
        assert np.array_equal(gathered, rows)

    def test_more_ranks_than_tuples(self):
        """The ``n_ranks > nnz`` corner: every rank present, extras empty."""
        rows = np.array([3, 5], dtype=np.int64)
        cols = np.array([1, 2], dtype=np.int64)
        vals = np.array([0.5, 1.5])
        split = partition_tuples_round_robin(rows, cols, vals, 8, seed=7)
        assert sorted(split) == list(range(8))
        sizes = [split[r][0].size for r in range(8)]
        assert sum(sizes) == 2
        assert sizes.count(0) == 6
        assert all(max(s, 0) in (0, 1) for s in sizes)

    def test_default_seed_still_shuffles(self):
        """Regression: ``seed=None`` used to skip the shuffle entirely,
        dealing tuples in generation order — which correlates generator
        burst skew with rank assignment.  The default seed is now derived
        from the batch geometry, so the shuffle is unconditional *and*
        reproducible."""
        rows = np.arange(40, dtype=np.int64)
        cols = rows.copy()
        vals = rows.astype(np.float64)
        a = partition_tuples_round_robin(rows, cols, vals, 4)
        b = partition_tuples_round_robin(rows, cols, vals, 4)
        for rank in range(4):
            assert np.array_equal(a[rank][0], b[rank][0])  # deterministic
        # generation order would give rank 0 exactly 0, 4, 8, ...
        in_order = all(
            np.array_equal(a[rank][0], rows[rank::4]) for rank in range(4)
        )
        assert not in_order
        gathered = np.sort(np.concatenate([a[rank][0] for rank in range(4)]))
        assert np.array_equal(gathered, rows)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="identical lengths"):
            partition_tuples_round_robin(
                np.arange(3), np.arange(2), np.arange(3), 2
            )
        with pytest.raises(ValueError, match="n_ranks"):
            partition_tuples_round_robin(
                np.arange(3), np.arange(3), np.arange(3), 0
            )


# ----------------------------------------------------------------------
# SparseAccumulator masked path
# ----------------------------------------------------------------------
class TestSparseAccumulatorMasked:
    def test_allowed_filters_output_columns(self):
        spa = SparseAccumulator(PLUS_TIMES)
        cols = np.array([0, 2, 4, 6], dtype=np.int64)
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        spa.accumulate_scaled_row(2.0, cols, vals, allowed={2, 6})
        out_cols, out_vals, _bits = spa.emit()
        assert np.array_equal(out_cols, [2, 6])
        assert np.allclose(out_vals, [4.0, 8.0])

    def test_allowed_combines_duplicates_inside_mask(self):
        spa = SparseAccumulator(PLUS_TIMES)
        spa.accumulate_scaled_row(
            1.0, np.array([1, 1, 3]), np.array([2.0, 3.0, 9.0]), allowed={1}
        )
        assert spa.get(1) == pytest.approx(5.0)
        assert not spa.contains(3)
        assert spa.emit()[0].tolist() == [1]

    def test_allowed_with_non_int64_columns(self):
        """The single-pass conversion accepts any integer dtype."""
        spa = SparseAccumulator(MIN_PLUS)
        cols32 = np.array([4, 8], dtype=np.int32)
        spa.accumulate_scaled_row(1.0, cols32, np.array([5.0, 6.0]), allowed={8})
        out_cols, out_vals, _ = spa.emit()
        assert out_cols.dtype == np.int64
        assert np.array_equal(out_cols, [8])
        assert np.allclose(out_vals, [7.0])  # (min, +): 1.0 ⊗ 6.0 = 7.0

    def test_empty_allowed_set_produces_nothing(self):
        spa = SparseAccumulator(PLUS_TIMES)
        spa.accumulate_scaled_row(
            1.0, np.array([0, 1]), np.array([1.0, 1.0]), allowed=set()
        )
        assert spa.is_empty()

    def test_unmasked_path_unchanged(self):
        spa = SparseAccumulator(PLUS_TIMES)
        spa.accumulate_scaled_row(3.0, np.array([5, 5, 2]), np.array([1.0, 1.0, 2.0]))
        out_cols, out_vals, _ = spa.emit()
        assert np.array_equal(out_cols, [2, 5])
        assert np.allclose(out_vals, [6.0, 6.0])
