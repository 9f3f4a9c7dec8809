"""Tests for Bloom-filter matrices and element-wise static kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.distributed import decode_bloom, encode_bloom
from repro.semirings import MIN_PLUS
from repro.sparse import (
    BLOOM_BITS,
    BloomFilterMatrix,
    COOMatrix,
    mask_pattern,
    merge_pattern,
)

from tests.conftest import random_dense


class TestBloomFilterMatrix:
    def test_set_get_and_or_accumulation(self):
        bloom = BloomFilterMatrix.from_entries((4, 4), [(1, 2, 0b101), (1, 2, 0b010)])
        assert bloom.get(1, 2) == 0b111
        assert bloom.get(0, 0) == 0
        assert bloom.nnz == 1

    def test_zero_bits_do_not_create_entries(self):
        bloom = BloomFilterMatrix.from_entries((4, 4), [(0, 0, 0)])
        assert bloom.nnz == 0
        bloom.or_inplace(BloomFilterMatrix.from_arrays((4, 4), [1, 1], [1, 2], [0, 4]))
        assert bloom.to_arrays()[1].tolist() == [2]

    def test_out_of_bounds_raises(self):
        with pytest.raises(IndexError):
            BloomFilterMatrix.from_entries((2, 2), [(2, 0, 1)])
        with pytest.raises(IndexError):
            BloomFilterMatrix.from_arrays((2, 2), [0], [5], [1])
        with pytest.raises(ValueError, match="aligned"):
            BloomFilterMatrix.from_arrays((2, 2), [0, 1], [0], [1, 1])

    def test_overwrite_and_delete(self):
        # Algorithm 2's merge: clear the C* pattern, OR the recomputed bits in
        bloom = BloomFilterMatrix.from_entries((3, 3), [(0, 1, 0b11), (1, 1, 1), (2, 2, 8)])
        bloom.drop_pattern(np.array([0, 1]), np.array([1, 1]))
        bloom.or_inplace(BloomFilterMatrix.from_entries((3, 3), [(0, 1, 0b100)]))
        assert bloom.get(0, 1) == 0b100
        assert bloom.get(1, 1) == 0
        assert bloom.get(2, 2) == 8
        assert bloom.nnz == 2

    def test_or_with_and_masked_by(self):
        a = BloomFilterMatrix.from_entries((3, 3), [(0, 0, 1), (1, 1, 2)])
        b = BloomFilterMatrix.from_entries((3, 3), [(0, 0, 4), (2, 2, 8)])
        combined = a.or_with(b)
        assert combined.get(0, 0) == 5
        assert combined.get(2, 2) == 8
        masked = combined.masked_by(np.array([0, 1]), np.array([0, 2]))
        assert masked.get(0, 0) == 5
        assert masked.nnz == 1

    def test_or_with_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            BloomFilterMatrix((2, 2)).or_with(BloomFilterMatrix((3, 3)))

    def test_reduce_rows_or(self):
        bloom = BloomFilterMatrix.from_entries(
            (3, 4), [(0, 0, 1), (0, 3, 2), (2, 1, 8)]
        )
        rows, bits = bloom.reduce_rows_or()
        assert rows.tolist() == [0, 2]
        assert bits.tolist() == [3, 8]

    def test_folded_bits_admit_every_inner_index_no_false_negatives(self):
        true_ks = [3, 64 + 3, 17]  # 3 and 67 collide mod 64
        bloom = BloomFilterMatrix.from_entries(
            (2, 2), [(0, 0, 1 << (k % BLOOM_BITS)) for k in true_ks]
        )
        bits = bloom.get(0, 0)
        admitted = {k for k in range(200) if (bits >> (k % BLOOM_BITS)) & 1}
        assert set(true_ks).issubset(admitted)
        # no admitted index outside the folded classes
        assert all((k % BLOOM_BITS) in {3, 17} for k in admitted)
        assert bloom.get(1, 1) == 0

    def test_to_arrays_and_equality(self):
        bloom = BloomFilterMatrix.from_entries((3, 3), [(2, 1, 4), (0, 0, 1)])
        rows, cols, bits = bloom.to_arrays()
        assert list(rows) == [0, 2]
        assert list(cols) == [0, 1]
        assert list(bits) == [1, 4]
        assert bloom == bloom.copy()
        assert bloom != BloomFilterMatrix((3, 3))

    def test_from_arrays_round_trip(self):
        rows = np.array([0, 1])
        cols = np.array([1, 2])
        bits = np.array([3, 9], dtype=np.uint64)
        bloom = BloomFilterMatrix.from_arrays((3, 3), rows, cols, bits)
        r, c, b = bloom.to_arrays()
        assert np.array_equal(r, rows) and np.array_equal(c, cols)
        assert np.array_equal(b, bits)


#: small enough that random coordinates collide often
_SHAPE = (4, 5)
_coords = st.tuples(st.integers(0, _SHAPE[0] - 1), st.integers(0, _SHAPE[1] - 1))
_bitfield = st.one_of(st.integers(0, 7), st.integers(0, 2**64 - 1))
_entries = st.lists(st.tuples(_coords, _bitfield), max_size=12)
_pattern = st.lists(_coords, max_size=8)


def _arrays(entries):
    rows = [i for (i, _j), _b in entries]
    cols = [j for (_i, j), _b in entries]
    return rows, cols, [b for _ij, b in entries]


def _folded(entries) -> dict:
    model: dict = {}
    for key, bits in entries:
        model[key] = model.get(key, 0) | bits
    return {key: bits for key, bits in model.items() if bits}


class BloomModelMachine(RuleBasedStateMachine):
    """The three sorted arrays against a dict of ints, step by step."""

    def __init__(self) -> None:
        super().__init__()
        self.bloom = BloomFilterMatrix(_SHAPE)
        self.model: dict = {}

    @rule(entries=_entries)
    def from_arrays_with_duplicates(self, entries):
        self.bloom = BloomFilterMatrix.from_arrays(_SHAPE, *_arrays(entries))
        self.model = _folded(entries)

    @rule(entries=_entries)
    def or_inplace(self, entries):
        self.bloom.or_inplace(BloomFilterMatrix.from_arrays(_SHAPE, *_arrays(entries)))
        self.model = _folded(list(self.model.items()) + entries)

    @rule(pattern=_pattern)
    def masked_by(self, pattern):
        rows, cols = [i for i, _j in pattern], [j for _i, j in pattern]
        self.bloom = self.bloom.masked_by(np.array(rows, np.int64), np.array(cols, np.int64))
        self.model = {key: b for key, b in self.model.items() if key in set(pattern)}

    @rule(pattern=_pattern)
    def drop_pattern(self, pattern):
        rows, cols = [i for i, _j in pattern], [j for _i, j in pattern]
        self.bloom.drop_pattern(np.array(rows, np.int64), np.array(cols, np.int64))
        self.model = {key: b for key, b in self.model.items() if key not in set(pattern)}

    @rule()
    def reduce_rows_or(self):
        rows, bits = self.bloom.reduce_rows_or()
        expected: dict = {}
        for (i, _j), b in self.model.items():
            expected[i] = expected.get(i, 0) | b
        assert rows.tolist() == sorted(expected)
        assert bits.tolist() == [expected[i] for i in sorted(expected)]

    @rule()
    def copy(self):
        copied = self.bloom.copy()
        assert copied == self.bloom
        copied.drop_pattern(*np.indices(_SHAPE).reshape(2, -1))
        assert copied.nnz == 0
        self.bloom = self.bloom.copy()

    @rule()
    def codec_round_trip(self):
        self.bloom = decode_bloom(encode_bloom(self.bloom))

    @invariant()
    def matches_model_sorted_unique_nonzero(self):
        rows, cols, bits = self.bloom.to_arrays()
        assert (rows.dtype, cols.dtype, bits.dtype) == (np.int64, np.int64, np.uint64)
        keys = rows * _SHAPE[1] + cols
        assert np.all(keys[1:] > keys[:-1])
        assert np.all(bits != 0)
        got = {(i, j): b for i, j, b in zip(rows.tolist(), cols.tolist(), bits.tolist())}
        assert got == self.model
        assert self.bloom.nnz == len(got) and self.bloom.nbytes == 24 * len(got)


TestBloomModel = BloomModelMachine.TestCase
TestBloomModel.settings = settings(max_examples=60, stateful_step_count=20, deadline=None)


class TestElementwise:
    def test_coo_add_min_plus(self):
        a = random_dense(6, 6, 0.4, MIN_PLUS, seed=3)
        b = random_dense(6, 6, 0.4, MIN_PLUS, seed=4)
        out = COOMatrix.from_dense(a, MIN_PLUS).add(COOMatrix.from_dense(b, MIN_PLUS))
        assert np.allclose(out.to_dense(), np.minimum(a, b), equal_nan=True)

    def test_merge_pattern_overwrites_and_inserts(self):
        base = COOMatrix((3, 3), [0, 1], [0, 1], [1.0, 2.0])
        update = COOMatrix((3, 3), [0, 2], [0, 2], [9.0, 7.0])
        out = merge_pattern(base, update).to_dense()
        assert out[0, 0] == pytest.approx(9.0)  # overwritten
        assert out[1, 1] == pytest.approx(2.0)  # untouched
        assert out[2, 2] == pytest.approx(7.0)  # inserted

    def test_mask_pattern_deletes(self):
        base = COOMatrix((3, 3), [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        update = COOMatrix((3, 3), [1, 2], [1, 2], [0.0, 0.0])
        out = mask_pattern(base, update)
        assert (out.rows.tolist(), out.cols.tolist()) == ([0], [0])

    def test_merge_mask_empty_update_is_identity(self):
        base = COOMatrix.from_dense(random_dense(5, 5, 0.4, seed=9))
        empty = COOMatrix.empty((5, 5))
        assert np.allclose(merge_pattern(base, empty).to_dense(), base.to_dense())
        assert np.allclose(mask_pattern(base, empty).to_dense(), base.to_dense())

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            merge_pattern(COOMatrix.empty((2, 2)), COOMatrix.empty((3, 3)))
        with pytest.raises(ValueError):
            mask_pattern(COOMatrix.empty((2, 2)), COOMatrix.empty((3, 3)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_merge_then_mask_removes_update_entries(self, seed):
        base = COOMatrix.from_dense(random_dense(8, 8, 0.3, seed=seed))
        update = COOMatrix.from_dense(random_dense(8, 8, 0.2, seed=seed + 1))
        merged = merge_pattern(base, update)
        masked = mask_pattern(merged, update)
        masked_keys = set(zip(masked.rows.tolist(), masked.cols.tolist()))
        update_keys = set(zip(update.rows.tolist(), update.cols.tolist()))
        assert masked_keys.isdisjoint(update_keys)
