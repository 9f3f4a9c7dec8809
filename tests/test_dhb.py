"""Tests for the DHB dynamic matrix.

Unit cases for the public surface, the documented within-row order and the
arena / hash-table housekeeping, then one model-based state machine that
interleaves every kind of update against a dict-of-dicts model, a twin
matrix driven through the scalar route, ``check_dhb_invariants()`` and the block
codec.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.distributed import decode_block, encode_block
from repro.semirings import MIN_PLUS, PLUS_TIMES
from repro.sparse import COOMatrix, DHBMatrix
from repro.sparse import dhb as dhb_module

from tests.conftest import check_dhb_invariants, random_dense


@contextmanager
def scalar_route(limit: int):
    """Apply batches below ``limit`` entries one by one (0: none, huge: all)."""
    saved = dhb_module._SCALAR_BATCH
    dhb_module._SCALAR_BATCH = limit
    try:
        yield
    finally:
        dhb_module._SCALAR_BATCH = saved


def assert_same_storage(a: DHBMatrix, b: DHBMatrix) -> None:
    """Sizes, capacities, grow count and adjacency order all agree."""
    for name, x, y in zip(a.storage()._fields, a.storage(), b.storage()):
        assert np.array_equal(x, y), f"{name} differs"


def _row_one(mat: DHBMatrix):
    """Row 1's adjacency array, in its stored order."""
    return mat.flat_rows(np.array([1]))


class TestDHBMatrix:
    def test_single_entry_operations(self):
        mat = DHBMatrix((5, 5))
        assert mat.insert(1, 2, 3.0)
        assert not mat.insert(1, 2, 4.0)  # overwrite, no new nnz
        assert mat.get(1, 2) == pytest.approx(4.0)
        assert mat.nnz == 1
        assert mat.contains(1, 2)
        assert mat.delete(1, 2)
        assert mat.nnz == 0
        assert not mat.delete(1, 2)
        assert mat.get(1, 2) == 0.0

    def test_out_of_bounds_raises(self):
        mat = DHBMatrix((3, 3))
        with pytest.raises(IndexError):
            mat.insert(3, 0, 1.0)
        with pytest.raises(IndexError):
            mat.get(0, 3)
        with pytest.raises(IndexError):
            mat.insert_batch([0], [7], [1.0])
        with pytest.raises(IndexError):
            mat.delete_batch([-1], [0])
        with pytest.raises(IndexError):
            mat.contains_batch([0, 3], [0, 0])
        with pytest.raises(IndexError):
            mat.reserve_batch([3])

    def test_contains_checks_bounds_like_get(self):
        """An out-of-range coordinate used to be silently "absent" here and
        an ``IndexError`` in ``get``."""
        mat = DHBMatrix((3, 4))
        mat.insert(2, 3, 1.0)
        assert mat.contains(2, 3) and not mat.contains(0, 0)
        for i, j in [(3, 0), (0, 4), (-1, 0), (0, -1)]:
            with pytest.raises(IndexError):
                mat.contains(i, j)
            with pytest.raises(IndexError):
                mat.get(i, j)

    def test_contains_batch_matches_contains_on_both_routes(self):
        dense = random_dense(9, 11, 0.3, seed=2)
        mat = DHBMatrix.from_dense(dense)
        rows, cols = np.divmod(np.arange(99), 11)
        expected = dense[rows, cols] != 0
        assert np.array_equal(mat.contains_batch(rows, cols), expected)
        assert np.array_equal(mat.contains_batch(rows[:5], cols[:5]), expected[:5])
        assert mat.contains_batch([], []).size == 0

    def test_bulk_build_matches_dense(self):
        dense = random_dense(20, 20, 0.3, seed=1)
        rows, cols = np.nonzero(dense)
        mat = DHBMatrix((20, 20))
        created = mat.insert_batch(rows, cols, dense[rows, cols], combine=PLUS_TIMES.plus)
        assert created == len(rows)
        assert np.allclose(mat.to_dense(), dense)

    def test_batch_additive_combination(self):
        mat = DHBMatrix((4, 4))
        mat.insert_batch([0, 0, 1], [1, 1, 2], [1.0, 2.0, 5.0], combine=PLUS_TIMES.plus)
        assert mat.get(0, 1) == pytest.approx(3.0)
        assert mat.get(1, 2) == pytest.approx(5.0)
        # second batch hits existing entries
        mat.insert_batch([0], [1], [4.0], combine=PLUS_TIMES.plus)
        assert mat.get(0, 1) == pytest.approx(7.0)

    def test_batch_overwrite_last_wins(self):
        mat = DHBMatrix((4, 4))
        mat.insert_batch([0, 0], [1, 1], [1.0, 9.0], combine=None)
        assert mat.get(0, 1) == pytest.approx(9.0)

    def test_add_merge_mask_updates(self):
        dense = random_dense(10, 10, 0.3, seed=3)
        mat = DHBMatrix.from_dense(dense)
        update = COOMatrix((10, 10), [0, 1], [0, 1], [5.0, 7.0])
        mat.add_update(update)
        expected = dense.copy()
        expected[0, 0] += 5.0
        expected[1, 1] += 7.0
        assert np.allclose(mat.to_dense(), expected)

        mat.merge_update(COOMatrix((10, 10), [0], [0], [-1.0]))
        expected[0, 0] = -1.0
        assert np.allclose(mat.to_dense(), expected)

        deleted = mat.mask_update(COOMatrix((10, 10), [0, 9], [0, 9], [1.0, 1.0]))
        expected[0, 0] = 0.0
        if dense[9, 9] != 0:
            expected[9, 9] = 0.0
        assert np.allclose(mat.to_dense(), expected)
        assert deleted >= 1

    def test_update_shape_mismatch_raises(self):
        mat = DHBMatrix((4, 4))
        with pytest.raises(ValueError, match="shape"):
            mat.add_update(COOMatrix.empty((5, 5)))

    def test_update_semiring_mismatch_raises(self):
        mat = DHBMatrix((4, 4))
        with pytest.raises(ValueError, match="semiring"):
            mat.add_update(COOMatrix.empty((4, 4), MIN_PLUS))

    def test_min_plus_add_update_takes_minimum(self):
        mat = DHBMatrix((3, 3), MIN_PLUS)
        mat.insert(0, 1, 5.0)
        mat.add_update(COOMatrix((3, 3), [0, 1], [1, 2], [9.0, 4.0], MIN_PLUS))
        assert mat.get(0, 1) == pytest.approx(5.0)  # min(5, 9)
        assert mat.get(1, 2) == pytest.approx(4.0)

    def test_conversions_round_trip(self):
        dense = random_dense(12, 9, 0.25, seed=5)
        mat = DHBMatrix.from_dense(dense)
        assert np.allclose(mat.to_csr().to_dense(), dense)
        assert np.allclose(mat.copy().to_dense(), dense)

    def test_flat_rows_gathers_the_rows_asked_for(self):
        dense = random_dense(7, 7, 0.4, seed=7)
        mat = DHBMatrix.from_dense(dense)
        flat = mat.flat_rows(np.array([0]))
        assert flat.row_ids.tolist() == [0]
        assert set(flat.cols.tolist()) == set(np.nonzero(dense[0])[0].tolist())
        rows_seen = mat.flat_rows().row_ids.tolist()
        assert rows_seen == sorted(rows_seen)
        empty = DHBMatrix((3, 3)).flat_rows(np.array([1]))
        assert empty.row_ptr.tolist() == [0, 0]
        assert empty.cols.size == 0 and empty.vals.size == 0

    def test_reserve_batch_counts_growth(self):
        mat = DHBMatrix((10, 10))
        mat.insert_batch(np.arange(10), np.arange(10), np.ones(10), combine=None)
        before = mat.grow_count
        # row 0 had an extent and is reallocated, row 9's is large enough
        assert mat.reserve_batch(np.array([0] * 50 + [9])) == 1
        assert mat.grow_count == before + 1
        assert mat.nnz == 10
        assert mat.reserve_batch(np.zeros(50, dtype=np.int64)) == 0
        check_dhb_invariants(mat)

    def test_scattered_path_after_bulk_build(self):
        dense = random_dense(30, 30, 0.2, seed=11)
        rows, cols = np.nonzero(dense)
        mat = DHBMatrix((30, 30))
        mat.insert_batch(rows, cols, dense[rows, cols], combine=PLUS_TIMES.plus)
        # a scattered follow-up batch (one entry per row)
        extra_rows = np.arange(30, dtype=np.int64)
        extra_cols = np.full(30, 2, dtype=np.int64)
        extra_vals = np.ones(30)
        mat.insert_batch(extra_rows, extra_cols, extra_vals, combine=PLUS_TIMES.plus)
        expected = dense.copy()
        expected[:, 2] += 1.0
        assert np.allclose(mat.to_dense(), expected)

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "overwrite"]),
                st.integers(0, 7),
                st.integers(0, 7),
                st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            ),
            min_size=0,
            max_size=60,
        )
    )
    def test_property_matches_dict_model(self, ops):
        """Arbitrary interleavings of point operations match a dict model."""
        mat = DHBMatrix((8, 8))
        model: dict[tuple[int, int], float] = {}
        for op, i, j, v in ops:
            if op == "insert":
                mat.insert(i, j, v, combine=PLUS_TIMES.plus)
                model[(i, j)] = model.get((i, j), 0.0) + v
            elif op == "overwrite":
                mat.insert(i, j, v, combine=None)
                model[(i, j)] = v
            else:
                mat.delete(i, j)
                model.pop((i, j), None)
        assert mat.nnz == len(model)
        for (i, j), v in model.items():
            assert mat.get(i, j) == pytest.approx(v)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), density=st.floats(0.05, 0.5))
    def test_property_bulk_build_equals_scattered_build(self, seed, density):
        dense = random_dense(15, 15, density, seed=seed)
        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        bulk = DHBMatrix((15, 15))
        bulk.insert_batch(rows, cols, vals, combine=PLUS_TIMES.plus)
        scattered = DHBMatrix((15, 15))
        for r, c, v in zip(rows, cols, vals):
            scattered.insert(int(r), int(c), v, combine=PLUS_TIMES.plus)
        assert bulk.nnz == scattered.nnz
        assert np.allclose(bulk.to_dense(), scattered.to_dense())




class TestAdjacencyOrder:
    """The within-row order rules of the module docstring."""

    @staticmethod
    def _row(cols) -> DHBMatrix:
        mat = DHBMatrix((2, 64))
        for col in cols:  # scalar inserts append in call order
            mat.insert(1, col, float(col))
        return mat

    def test_new_entries_of_a_batch_append_in_ascending_column_order(self):
        for limit in (0, 10**9):
            mat = self._row([9, 3])
            with scalar_route(limit):
                mat.insert_batch([1, 1, 1, 1], [7, 3, 50, 1], [1.0, 2.0, 3.0, 4.0])
            assert _row_one(mat).cols.tolist() == [9, 3, 1, 7, 50]
            assert mat.get(1, 3) == 2.0

    def test_losing_one_entry_is_swap_with_last(self):
        for limit in (0, 10**9):
            mat = self._row([10, 11, 12, 13, 14])
            with scalar_route(limit):
                assert mat.delete_batch([1], [11]) == 1
            assert _row_one(mat).cols.tolist() == [10, 14, 12, 13]
            assert mat.delete(1, 13)  # the last entry just goes
            assert _row_one(mat).cols.tolist() == [10, 14, 12]

    def test_losing_several_fills_the_holes_from_the_tail_in_slot_order(self):
        for limit in (0, 10**9):
            mat = self._row([10, 11, 12, 13, 14, 15, 16])
            with scalar_route(limit):
                # 7 - 3 entries stay: holes at slots 0 and 2, and of the
                # tail (slots 4..6) 14 dies, so 15 and 16 move, in that order
                assert mat.delete_batch([1, 1, 1, 0], [12, 14, 10, 5]) == 3
            assert _row_one(mat).cols.tolist() == [15, 11, 16, 13]
            assert _row_one(mat).vals.tolist() == [15.0, 11.0, 16.0, 13.0]
            assert [mat.get(1, c) for c in (15, 11, 16, 13)] == [15.0, 11.0, 16.0, 13.0]
            check_dhb_invariants(mat)

    def test_a_row_that_loses_everything_gives_its_extent_up(self):
        for limit in (0, 10**9):
            mat = self._row([1, 2, 3])
            with scalar_route(limit):
                assert mat.delete_batch([1, 1, 1], [3, 2, 1]) == 3
            assert mat.nnz == mat.n_nonzero_rows == 0
            assert mat.storage().row_ids.size == 0
            assert _row_one(mat).cols.size == 0
            check_dhb_invariants(mat)


class TestHousekeeping:
    def test_rows_relocate_with_doubled_capacity_and_the_arena_compacts(self):
        mat = DHBMatrix((40, 4000))
        for i in range(40):
            mat.insert(i, 0, 1.0)
        assert mat.storage().capacities.tolist() == [4] * 40
        assert mat.grow_count == 0
        # grow every row again and again: old extents die at the front
        for width in (5, 9, 17, 33, 65):
            rows = np.repeat(np.arange(40), width)
            cols = np.tile(np.arange(width), 40)
            mat.insert_batch(rows, cols, np.ones(rows.size))
            check_dhb_invariants(mat)
        caps = mat.storage().capacities
        assert np.all(caps >= 65) and np.all(caps <= 130)
        assert mat.grow_count == 40 * 5
        # dead space never exceeds the live extents by more than the last jump
        assert mat._end <= 2 * mat._live_cap + caps.sum()
        dead_before = mat._end - mat._live_cap
        mat.delete_batch(np.repeat(np.arange(1, 40), 65), np.tile(np.arange(65), 39))
        assert mat.n_nonzero_rows == 1
        mat.insert_batch(np.full(5000, 0), np.arange(5000) % 4000, np.ones(5000))
        check_dhb_invariants(mat)
        assert mat._end - mat._live_cap < dead_before  # compaction reclaimed it
        assert mat.nnz == 4000

    def test_tombstones_force_a_rebuild_at_the_load_bound(self):
        mat = DHBMatrix((4, 4))
        mat.insert(0, 0, 1.0)
        table = mat._tkeys.size
        for _ in range(3 * table):  # each round leaves one tombstone
            assert mat.delete(3, 3) is False
            assert mat.insert(3, 3, 2.0)
            assert mat.delete(3, 3)
            check_dhb_invariants(mat)
        assert mat._tkeys.size == table  # rebuilt in place, never grown
        assert mat.get(0, 0) == 1.0 and mat.nnz == 1

    def test_the_index_is_built_by_the_first_probe(self):
        dense = random_dense(10, 10, 0.4, seed=9)
        mat = DHBMatrix.from_dense(dense)
        assert mat._tkeys is None  # loading and reading never needed it
        assert np.array_equal(mat.to_dense(), dense)
        assert mat._tkeys is None
        i, j = (int(k[0]) for k in np.nonzero(dense))
        assert mat.contains(i, j)
        assert mat._tkeys is not None
        check_dhb_invariants(mat)

    def test_wide_blocks_use_64_bit_keys(self):
        mat = DHBMatrix((3, 1 << 40))
        cols = (np.arange(60, dtype=np.int64) * 0x1234567) % (1 << 40)
        mat.insert_batch(np.arange(60) % 3, cols, np.arange(60.0))
        assert mat.get(2, int(cols[5])) == 5.0
        check_dhb_invariants(mat)
        assert mat._tkeys.dtype == np.int64
        small = DHBMatrix.from_dense(np.eye(3))
        assert small.contains(1, 1) and small._tkeys.dtype == np.int32
        with pytest.raises(ValueError, match="64-bit"):
            DHBMatrix((1 << 31, 1 << 31))

    def test_check_invariants_catches_a_broken_index(self):
        mat = DHBMatrix.from_dense(random_dense(6, 6, 0.5, seed=4))
        check_dhb_invariants(mat)
        mat._tslots[mat._tkeys >= 0] += 1
        with pytest.raises(AssertionError, match="wrong slot"):
            check_dhb_invariants(mat)
        mat._tslots[mat._tkeys >= 0] -= 1
        mat._size[mat._size.argmax()] -= 1
        with pytest.raises(AssertionError, match="nnz"):
            check_dhb_invariants(mat)

    def test_arbitrary_combiner_folds_duplicates_in_batch_order(self):
        """``fold(combine(existing, v1) .. vk)``, which for a combiner that is
        not associative differs from ``combine(existing, fold(v1 .. vk))``."""
        mat = DHBMatrix((4, 4))
        mat.insert_batch([1, 2], [1, 2], [10.0, 20.0])
        created = mat.insert_batch(
            [1, 1, 3, 1, 3], [1, 1, 0, 1, 0], [1.0, 2.0, 5.0, 3.0, 7.0],
            lambda a, b: a - 2.0 * b,
        )
        assert created == 1
        assert mat.get(1, 1) == -2.0  # ((10 - 2·1) - 2·2) - 2·3
        assert mat.get(3, 0) == -9.0  # 5 - 2·7
        check_dhb_invariants(mat)


# ----------------------------------------------------------------------
# the model-based machine
# ----------------------------------------------------------------------
SHAPE = (10, 48)
COMBINERS = {
    "overwrite": None,
    "plus": PLUS_TIMES.plus,
    "arbitrary": lambda old, new: old - 2.0 * new,
}


class DHBMachine(RuleBasedStateMachine):
    """``DHBMatrix`` against a dict-of-dicts model and a scalar-route twin.

    Values are small integers stored as floats, so every fold is exact and
    the model can apply a batch entry by entry in batch order.  ``twin``
    receives every call with the scalar route forced; it never goes through
    the codec, so after a round trip ``matrix`` must still match it field
    for field — which is "restored equals never crashed" for one block.
    """

    def __init__(self) -> None:
        super().__init__()
        self.matrix = DHBMatrix(SHAPE)
        self.twin = DHBMatrix(SHAPE)
        self.model: dict[int, dict[int, float]] = {}

    def _both(self, method: str, *args):
        result = getattr(self.matrix, method)(*args)
        with scalar_route(10**9):
            assert getattr(self.twin, method)(*args) == result
        return result

    def _live(self) -> list[tuple[int, int]]:
        return [(i, j) for i, row in self.model.items() for j in row]

    def _forget(self, rows, cols) -> int:
        gone = 0
        for i, j in zip(rows, cols):
            if self.model.get(i, {}).pop(j, None) is not None:
                gone += 1
                if not self.model[i]:
                    del self.model[i]
        return gone

    @rule(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(0, 150),
        row_span=st.integers(1, SHAPE[0]),
        kind=st.sampled_from(sorted(COMBINERS)),
    )
    def insert_batch(self, seed, size, row_span, kind):
        """Sparse or concentrated, below and above the scalar threshold,
        with duplicates inside the batch."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, row_span, size)
        cols = rng.integers(0, SHAPE[1], size)
        vals = rng.integers(-4, 5, size).astype(np.float64)
        combine = COMBINERS[kind]
        created = 0
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            row = self.model.setdefault(i, {})
            created += j not in row
            row[j] = v if combine is None or j not in row else combine(row[j], v)
        assert self._both("insert_batch", rows, cols, vals, combine) == created

    @rule(seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0), absent=st.integers(0, 40))
    def mask_update(self, seed, share, absent):
        """Rows lose one, several or all of their entries; absent keys ride along."""
        rng = np.random.default_rng(seed)
        live = self._live()
        picked = [live[k] for k in np.flatnonzero(rng.random(len(live)) < share)]
        if self.model and rng.random() < 0.5:  # and one whole row
            i = int(rng.choice(sorted(self.model)))
            picked += [(i, j) for j in self.model[i]]
        picked += zip(
            rng.integers(0, SHAPE[0], absent).tolist(), rng.integers(0, SHAPE[1], absent).tolist()
        )
        coo = COOMatrix(
            SHAPE, [i for i, _ in picked], [j for _, j in picked], np.ones(len(picked))
        ).sum_duplicates()
        assert self._both("mask_update", coo) == self._forget(coo.rows.tolist(), coo.cols.tolist())

    @rule(i=st.integers(0, SHAPE[0] - 1), j=st.integers(0, SHAPE[1] - 1),
          value=st.integers(-4, 4), kind=st.sampled_from(sorted(COMBINERS)))
    def insert(self, i, j, value, kind):
        combine = COMBINERS[kind]
        row = self.model.setdefault(i, {})
        new = j not in row
        row[j] = float(value) if new or combine is None else combine(row[j], float(value))
        assert self._both("insert", i, j, float(value), combine) == new

    @rule(i=st.integers(0, SHAPE[0] - 1), j=st.integers(0, SHAPE[1] - 1))
    def delete(self, i, j):
        assert self._both("delete", i, j) == bool(self._forget([i], [j]))

    @rule(seed=st.integers(0, 2**32 - 1))
    def reserve(self, seed):
        rng = np.random.default_rng(seed)
        self._both("reserve_batch", rng.integers(0, SHAPE[0], int(rng.integers(0, 90))))

    @rule(rounds=st.integers(1, 12))
    def churn_one_cell(self, rounds):
        """Tombstones pile up until the table is rebuilt at its load bound."""
        for _ in range(rounds):
            self.insert(0, 0, 1, "overwrite")
            self.delete(0, 0)

    @rule()
    def round_trip_through_the_codec(self):
        decoded = decode_block(encode_block(self.matrix))
        assert_same_storage(decoded, self.matrix)
        self.matrix = decoded

    @invariant()
    def agrees_with_model_and_twin(self):
        check_dhb_invariants(self.matrix)
        expected = sorted((i, j, v) for i, row in self.model.items() for j, v in row.items())
        coo = self.matrix.to_coo()
        assert list(zip(coo.rows.tolist(), coo.cols.tolist(), coo.values.tolist())) == expected
        assert self.matrix.nnz == len(expected)
        assert self.matrix.n_nonzero_rows == len(self.model)
        assert_same_storage(self.matrix, self.twin)
        rows, cols = np.divmod(np.arange(0, SHAPE[0] * SHAPE[1], 7), SHAPE[1])
        present = [j in self.model.get(i, {}) for i, j in zip(rows.tolist(), cols.tolist())]
        assert self.matrix.contains_batch(rows, cols).tolist() == present
        for i, j, v in expected[:: max(1, len(expected) // 5)]:
            assert self.matrix.get(i, j) == v


TestDHBMachine = DHBMachine.TestCase
TestDHBMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
