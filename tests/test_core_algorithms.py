"""Tests for SUMMA, the sparse reduce collectives and both dynamic algorithms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DynamicDistMatrix,
    ProcessGrid,
    SimMPI,
    StaticDistMatrix,
    UpdateBatch,
    build_update_matrix,
    dynamic_spgemm_algebraic,
    dynamic_spgemm_general,
    compute_cstar,
    summa_spgemm,
    transpose_dist,
)
from repro.core.collectives import (
    bloom_reduce_to_root,
    pipelined_broadcasts,
    reduce_line,
    sparse_reduce_to_root,
)
from repro.core.dynamic_general import filter_by_row_bloom
from repro.perf import PerfRecorder, use_recorder
from repro.runtime import payload_nbytes
from repro.distributed import BlockDistribution
from repro.semirings import BOOLEAN, MIN_PLUS, PLUS_TIMES
from repro.sparse import BLOOM_BITS, BloomFilterMatrix, COOMatrix, CSRMatrix
from repro.sparse.spgemm_local import spgemm_local

from tests.conftest import (
    bloom_product,
    dense_product,
    dist_from_dense,
    random_dense,
    static_from_dense,
)


# ----------------------------------------------------------------------
# sparse reduction collectives
# ----------------------------------------------------------------------
class TestSparseReduce:
    def test_reduce_matches_direct_sum(self):
        comm = SimMPI(16)
        group = [1, 5, 9, 13]
        shape = (12, 10)
        rng = np.random.default_rng(0)
        denses = {r: random_dense(*shape, 0.3, seed=r) for r in group}
        contributions = {r: COOMatrix.from_dense(d) for r, d in denses.items()}
        out = sparse_reduce_to_root(
            comm, group, 9, contributions, PLUS_TIMES, shape=shape
        )
        assert np.allclose(out.to_dense(), sum(denses.values()))
        # communication happened (reduce-scatter + gather)
        assert comm.stats.total_bytes() > 0

    def test_reduce_with_missing_and_empty_contributions(self):
        comm = SimMPI(4)
        shape = (6, 6)
        contributions = {0: COOMatrix.empty(shape)}
        out = sparse_reduce_to_root(
            comm, [0, 1, 2, 3], 0, contributions, PLUS_TIMES, shape=shape
        )
        assert out.nnz == 0
        assert out.shape == shape

    def test_reduce_root_not_in_group_raises(self):
        comm = SimMPI(4)
        with pytest.raises(ValueError):
            sparse_reduce_to_root(comm, [0, 1], 3, {}, PLUS_TIMES, shape=(2, 2))

    def test_min_plus_reduction(self):
        comm = SimMPI(4)
        shape = (5, 5)
        a = random_dense(*shape, 0.5, MIN_PLUS, seed=1)
        b = random_dense(*shape, 0.5, MIN_PLUS, seed=2)
        out = sparse_reduce_to_root(
            comm,
            [0, 1],
            0,
            {0: COOMatrix.from_dense(a, MIN_PLUS), 1: COOMatrix.from_dense(b, MIN_PLUS)},
            MIN_PLUS,
            shape=shape,
        )
        assert np.allclose(out.to_dense(), np.minimum(a, b), equal_nan=True)

    def test_ties_fold_in_group_rank_order(self):
        """``min(0.0, -0.0)`` keeps the second operand, so the sign of each
        folded entry tells the order its four ±0.0 values were folded in:
        group-rank order, as one ``sum_duplicates`` of the contributions."""
        shape, group = (2, 40), [0, 1, 2, 3]
        cols = np.arange(40)
        contributions = {
            r: COOMatrix(
                shape, np.zeros(40, dtype=np.int64), cols,
                np.full(40, -0.0 if r % 2 else 0.0), MIN_PLUS,
            )
            for r in group
        }
        ones = np.ones(40, dtype=np.uint64)
        pairs = {
            r: (coo, BloomFilterMatrix.from_arrays(shape, coo.rows, coo.cols, ones))
            for r, coo in contributions.items()
        }
        want = COOMatrix.empty(shape, MIN_PLUS).concatenate(
            *contributions.values()
        ).sum_duplicates()
        reduced = sparse_reduce_to_root(
            SimMPI(4), group, 0, contributions, MIN_PLUS, shape=shape
        )
        values, _bloom = bloom_reduce_to_root(
            SimMPI(4), group, 0, pairs, MIN_PLUS, shape=shape
        )
        assert np.signbit(want.values).all()
        for got in (reduced, values):
            assert got.values.tobytes() == want.values.tobytes()

    def test_bloom_reduce_is_bitwise_or(self):
        comm = SimMPI(4)
        shape = (6, 6)
        a = BloomFilterMatrix.from_entries(shape, [(0, 0, 1), (2, 3, 4)])
        b = BloomFilterMatrix.from_entries(shape, [(0, 0, 2), (5, 5, 8)])
        pairs = {0: (_values_at(a, [1.0, 2.0]), a), 1: (_values_at(b, [4.0, 8.0]), b)}
        values, out = bloom_reduce_to_root(
            comm, [0, 1, 2], 2, pairs, PLUS_TIMES, shape=shape
        )
        assert out.get(0, 0) == 3
        assert out.get(2, 3) == 4
        assert out.get(5, 5) == 8
        expected = np.zeros(shape)
        expected[0, 0], expected[2, 3], expected[5, 5] = 5.0, 2.0, 8.0
        assert np.array_equal(values.to_dense(), expected)

    @pytest.mark.parametrize(
        "rows,cols",
        [([0, 2], [0, 4]), ([0], [0]), ([2, 0], [3, 0])],
        ids=["other-column", "missing-entry", "other-order"],
    )
    def test_bloom_reduce_refuses_a_pair_whose_coordinates_differ(self, rows, cols):
        comm = SimMPI(4)
        shape = (6, 6)
        bloom = BloomFilterMatrix.from_entries(shape, [(0, 0, 1), (2, 3, 4)])
        values = COOMatrix(shape, np.array(rows), np.array(cols), np.ones(len(rows)))
        before, clock = comm.stats.as_dict(), comm.elapsed()
        with pytest.raises(ValueError, match="coordinates differ"):
            bloom_reduce_to_root(
                comm, [0, 1], 0, {1: (values, bloom)}, PLUS_TIMES, shape=shape
            )
        assert comm.stats.as_dict() == before
        assert comm.elapsed() == clock

    def test_reduce_scatter_sends_no_empty_piece(self):
        # rows 0-1 go to group slot 0 (the root itself), rows 4-5 to slot 2:
        # one alltoallv message, and one gather message per non-root member
        comm = SimMPI(4)
        shape = (6, 3)
        bloom = BloomFilterMatrix.from_entries(
            shape, [(0, 1, 1), (1, 0, 2), (4, 2, 4), (5, 1, 8)]
        )
        bloom_reduce_to_root(
            comm, [0, 1, 2], 0, {0: (_values_at(bloom, [1.0] * 4), bloom)},
            PLUS_TIMES, shape=shape,
        )
        assert comm.stats.categories["reduce_scatter"].messages == 1
        assert comm.stats.categories["scatter"].messages == 2


def _values_at(bloom: BloomFilterMatrix, values) -> COOMatrix:
    """A partial product with the coordinates of ``bloom``."""
    rows, cols, _bits = bloom.to_arrays()
    return COOMatrix(bloom.shape, rows, cols, np.asarray(values))


class _RecordingSimMPI(SimMPI):
    """SimMPI that logs every ``ibcast`` post and its ``wait`` by payload."""

    def __init__(self, n_ranks: int) -> None:
        super().__init__(n_ranks)
        self.log: list[tuple] = []
        self._payloads: dict[int, object] = {}

    def ibcast(self, root, payload, **kwargs):
        request = super().ibcast(root, payload, **kwargs)
        self._payloads[id(request)] = payload
        self.log.append(("post", payload))
        return request

    def wait(self, request):
        if id(request) in self._payloads:
            self.log.append(("wait", self._payloads[id(request)]))
        return super().wait(request)


class _CallCountingSimMPI(SimMPI):
    """SimMPI that counts its ``alltoallv`` and ``gather`` calls."""

    def __init__(self, n_ranks: int) -> None:
        super().__init__(n_ranks)
        self.calls = {"alltoallv": 0, "gather": 0}

    def alltoallv(self, *args, **kwargs):
        self.calls["alltoallv"] += 1
        return super().alltoallv(*args, **kwargs)

    def gather(self, *args, **kwargs):
        self.calls["gather"] += 1
        return super().gather(*args, **kwargs)


class TestPipelinedBroadcasts:
    def test_next_round_is_posted_before_this_round_is_yielded(self):
        comm = _RecordingSimMPI(4)

        def plan(k):
            return [(0, f"a{k}", [0, 1]), (3, f"b{k}", [2, 3])]

        for k, received in pipelined_broadcasts(comm, 3, plan):
            assert received == [{0: f"a{k}", 1: f"a{k}"}, {2: f"b{k}", 3: f"b{k}"}]
            comm.log.append(("yield", k))
        assert comm.log == [
            ("post", "a0"), ("post", "b0"),
            ("wait", "a0"), ("wait", "b0"),
            ("post", "a1"), ("post", "b1"), ("yield", 0),
            ("wait", "a1"), ("wait", "b1"),
            ("post", "a2"), ("post", "b2"), ("yield", 1),
            ("wait", "a2"), ("wait", "b2"), ("yield", 2),
        ]

    def test_skipped_entry_posts_nothing_and_yields_none(self):
        comm = _RecordingSimMPI(4)
        rounds = list(
            pipelined_broadcasts(comm, 1, lambda k: [None, (1, "x", [0, 1]), None])
        )
        assert rounds == [(0, [None, {0: "x", 1: "x"}, None])]
        assert comm.log == [("post", "x"), ("wait", "x")]

    def test_zero_rounds_post_nothing(self):
        comm = _RecordingSimMPI(4)
        assert list(pipelined_broadcasts(comm, 0, lambda k: [(0, "x", [0, 1])])) == []
        assert comm.log == []
        assert comm.stats.as_dict() == SimMPI(4).stats.as_dict()


class TestReduceLine:
    group = [1, 5, 9, 13]
    shape = (12, 10)

    def _products(self):
        """Local Algorithm 1 multiplies: ``(values, bloom)`` per group rank."""
        return {
            r: spgemm_local(
                CSRMatrix.from_dense(random_dense(12, 8, 0.3, seed=r)),
                CSRMatrix.from_dense(random_dense(8, 10, 0.3, seed=r + 50)),
                PLUS_TIMES,
                compute_bloom=True,
                inner_offset=8 * i,
            )
            for i, r in enumerate(self.group)
        }

    def test_all_empty_contributions_skip_every_reduce(self):
        comm = SimMPI(16)
        products = {
            r: (COOMatrix.empty(self.shape), BloomFilterMatrix(self.shape))
            for r in self.group
        }
        before, clock = comm.stats.as_dict(), comm.elapsed()
        for with_bloom in (False, True):
            out = reduce_line(
                comm, self.group, 9, products, PLUS_TIMES,
                shape=self.shape, with_bloom=with_bloom,
            )
            assert out == (None, None)
        assert comm.stats.as_dict() == before
        assert comm.elapsed() == clock

    def test_without_blooms_it_is_the_sparse_reduce(self):
        products = self._products()
        comm, ref_comm = SimMPI(16), SimMPI(16)
        out, bloom = reduce_line(
            comm, self.group, 9, products, PLUS_TIMES,
            shape=self.shape, with_bloom=False,
        )
        ref = sparse_reduce_to_root(
            ref_comm, self.group, 9, {r: p[0] for r, p in products.items()},
            PLUS_TIMES, shape=self.shape,
        )
        assert bloom is None
        assert np.array_equal(out.rows, ref.rows)
        assert np.array_equal(out.cols, ref.cols)
        assert np.array_equal(out.values, ref.values)
        assert comm.stats.total_bytes() == ref_comm.stats.total_bytes()
        assert comm.stats.total_messages() == ref_comm.stats.total_messages()

    @pytest.mark.parametrize("with_bloom", (False, True))
    def test_one_alltoallv_and_one_gather_per_line(self, with_bloom):
        comm = _CallCountingSimMPI(16)
        reduce_line(
            comm, self.group, 9, self._products(), PLUS_TIMES,
            shape=self.shape, with_bloom=with_bloom,
        )
        assert comm.calls == {"alltoallv": 1, "gather": 1}

    def test_blooms_ride_with_the_values_at_8_bytes_per_entry(self):
        """One reduce: the messages of the values-only reduce, each shipped
        24-byte entry carrying its 8-byte bitfield."""
        products = self._products()
        comm, ref_comm = SimMPI(16), SimMPI(16)
        out, bloom = reduce_line(
            comm, self.group, 9, products, PLUS_TIMES,
            shape=self.shape, with_bloom=True,
        )
        ref, _ = reduce_line(
            ref_comm, self.group, 9, products, PLUS_TIMES,
            shape=self.shape, with_bloom=False,
        )
        assert np.array_equal(out.values, ref.values)
        assert bloom == BloomFilterMatrix(self.shape).or_with(
            *(p[1] for p in products.values())
        )
        for name in ("reduce_scatter", "scatter"):
            got, want = comm.stats.categories[name], ref_comm.stats.categories[name]
            assert want.bytes > 0 and want.bytes % 24 == 0
            assert got.messages == want.messages
            assert got.bytes == want.bytes + 8 * (want.bytes // 24)
        assert set(comm.stats.categories) == set(ref_comm.stats.categories)

    def test_a_pattern_reduce_ships_24_bytes_per_entry(self):
        """``COMPUTE_PATTERN``'s reduce: pairs without values ship each
        entry's coordinates and bits, 24 B — what the values-only reduce
        ships — in the same messages, and OR the filters."""
        products = self._products()
        patterns = {r: (None, bloom) for r, (_coo, bloom) in products.items()}
        comm, ref_comm = SimMPI(16), SimMPI(16)
        out, bloom = reduce_line(
            comm, self.group, 9, patterns, PLUS_TIMES,
            shape=self.shape, with_bloom=True,
        )
        reduce_line(
            ref_comm, self.group, 9, products, PLUS_TIMES,
            shape=self.shape, with_bloom=False,
        )
        assert out is None
        assert bloom == BloomFilterMatrix(self.shape).or_with(
            *(p[1] for p in products.values())
        )
        for name in ("reduce_scatter", "scatter"):
            got, want = comm.stats.categories[name], ref_comm.stats.categories[name]
            assert want.bytes > 0 and want.bytes % 24 == 0
            assert (got.messages, got.bytes) == (want.messages, want.bytes)
        assert set(comm.stats.categories) == set(ref_comm.stats.categories)


# ----------------------------------------------------------------------
# SUMMA
# ----------------------------------------------------------------------
class TestSUMMA:
    @pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS], ids=lambda s: s.name)
    def test_summa_matches_dense(self, any_grid, semiring):
        comm, grid = any_grid
        a = random_dense(20, 15, 0.25, semiring, seed=1)
        b = random_dense(15, 18, 0.25, semiring, seed=2)
        da = dist_from_dense(comm, grid, a, semiring)
        db = dist_from_dense(comm, grid, b, semiring)
        c, blooms = summa_spgemm(comm, grid, da, db, output="dynamic")
        assert blooms is None
        assert np.allclose(c.to_dense(), dense_product(semiring, a, b), equal_nan=True)

    def test_summa_static_output_and_bloom(self, comm16, grid16):
        a = random_dense(16, 16, 0.2, seed=3)
        b = random_dense(16, 16, 0.2, seed=4)
        da = dist_from_dense(comm16, grid16, a)
        db = dist_from_dense(comm16, grid16, b)
        c, blooms = summa_spgemm(
            comm16, grid16, da, db, output="static", compute_bloom=True
        )
        assert np.allclose(c.to_dense(), a @ b)
        assert blooms is not None
        # bloom bits: verify no false negatives for a few global entries
        coo = c.to_coo_global()
        for i, j in list(zip(coo.rows, coo.cols))[:20]:
            rank = int(c.dist.owner_of(np.array([i]), np.array([j]))[0])
            li, lj = c.dist.to_local(rank, np.array([i]), np.array([j]))
            bits = blooms[rank].get(int(li[0]), int(lj[0]))
            contributing = [k for k in range(16) if a[i, k] != 0 and b[k, j] != 0]
            for k in contributing:
                assert (bits >> (k % BLOOM_BITS)) & 1 == 1

    def test_summa_shape_mismatch_raises(self, comm16, grid16):
        a = DynamicDistMatrix.empty(comm16, grid16, (8, 9))
        b = DynamicDistMatrix.empty(comm16, grid16, (10, 8))
        with pytest.raises(ValueError, match="inner dimensions"):
            summa_spgemm(comm16, grid16, a, b)

    def test_summa_bad_output_layout(self, comm16, grid16):
        a = DynamicDistMatrix.empty(comm16, grid16, (8, 8))
        b = DynamicDistMatrix.empty(comm16, grid16, (8, 8))
        with pytest.raises(ValueError, match="output layout"):
            summa_spgemm(comm16, grid16, a, b, output="bogus")
        # rejected before any broadcast round or local multiply ran
        assert not comm16.stats.categories


# ----------------------------------------------------------------------
# distributed transpose
# ----------------------------------------------------------------------
class TestTranspose:
    @pytest.mark.parametrize("layout", ["csr", "dcsr", "dhb"])
    def test_transpose_matches_dense(self, comm16, grid16, layout):
        dense = random_dense(18, 11, 0.3, seed=5)
        mat = dist_from_dense(comm16, grid16, dense)
        t = transpose_dist(mat, layout=layout)
        assert t.shape == (11, 18)
        assert np.allclose(t.to_dense(), dense.T)

    def test_unknown_layout_is_rejected_before_any_exchange(self, comm16, grid16):
        mat = dist_from_dense(comm16, grid16, random_dense(8, 8, 0.3, seed=3))
        before = comm16.stats.as_dict()
        with pytest.raises(ValueError, match="bogus"):
            transpose_dist(mat, layout="bogus")
        assert comm16.stats.as_dict() == before

    def test_double_transpose_is_identity(self, comm16, grid16):
        dense = random_dense(14, 14, 0.3, seed=7)
        mat = dist_from_dense(comm16, grid16, dense)
        assert np.allclose(transpose_dist(transpose_dist(mat)).to_dense(), dense)


# ----------------------------------------------------------------------
# Algorithm 1 (algebraic updates)
# ----------------------------------------------------------------------
class TestDynamicAlgebraic:
    def _updates_from_dense(self, shape, dense_update, p, semiring=PLUS_TIMES, seed=0):
        rows, cols = np.nonzero(~semiring.is_zero(dense_update))
        vals = dense_update[rows, cols]
        return UpdateBatch.from_global(
            shape, rows, cols, vals, p, semiring=semiring, seed=seed
        )

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_left_side_updates_match_recomputation(self, p):
        comm, grid = SimMPI(p), ProcessGrid(p)
        n = 20
        a0 = random_dense(n, n, 0.1, seed=1)
        b = random_dense(n, n, 0.2, seed=2)
        da = dist_from_dense(comm, grid, a0)
        db = static_from_dense(comm, grid, b)
        c, _ = summa_spgemm(comm, grid, da, db, output="dynamic")
        current = a0.copy()
        for step in range(3):
            delta = random_dense(n, n, 0.05, seed=10 + step)
            batch = self._updates_from_dense((n, n), delta, p, seed=step)
            a_star = build_update_matrix(comm, grid, da.dist, batch)
            touched = dynamic_spgemm_algebraic(comm, grid, da, db, a_star, None, c)
            da.add_update(a_star)
            current = current + delta
            assert np.allclose(c.to_dense(), current @ b)
            assert np.allclose(da.to_dense(), current)
            assert touched >= 0

    def test_both_sides_updates(self, comm16, grid16):
        n = 18
        a0 = random_dense(n, n, 0.15, seed=3)
        b0 = random_dense(n, n, 0.15, seed=4)
        da = dist_from_dense(comm16, grid16, a0)
        db = dist_from_dense(comm16, grid16, b0)
        c, _ = summa_spgemm(comm16, grid16, da, db, output="dynamic")
        delta_a = random_dense(n, n, 0.05, seed=5)
        delta_b = random_dense(n, n, 0.05, seed=6)
        a_star = build_update_matrix(
            comm16, grid16, da.dist, self._updates_from_dense((n, n), delta_a, 16, seed=7)
        )
        b_star = build_update_matrix(
            comm16, grid16, db.dist, self._updates_from_dense((n, n), delta_b, 16, seed=8)
        )
        # B must be updated to B' before the dynamic multiplication.
        db.add_update(b_star)
        dynamic_spgemm_algebraic(comm16, grid16, da, db, a_star, b_star, c)
        da.add_update(a_star)
        expected = (a0 + delta_a) @ (b0 + delta_b)
        assert np.allclose(c.to_dense(), expected)

    def test_empty_update_is_a_noop(self, comm16, grid16):
        n = 12
        a0 = random_dense(n, n, 0.2, seed=9)
        b = random_dense(n, n, 0.2, seed=10)
        da = dist_from_dense(comm16, grid16, a0)
        db = static_from_dense(comm16, grid16, b)
        c, _ = summa_spgemm(comm16, grid16, da, db, output="dynamic")
        empty = StaticDistMatrix.empty(comm16, grid16, (n, n), layout="dcsr")
        empty.dist = da.dist
        touched = dynamic_spgemm_algebraic(comm16, grid16, da, db, empty, None, c)
        assert touched == 0
        assert np.allclose(c.to_dense(), a0 @ b)

    def test_shape_mismatch_raises(self, comm16, grid16):
        da = DynamicDistMatrix.empty(comm16, grid16, (8, 8))
        db = DynamicDistMatrix.empty(comm16, grid16, (8, 8))
        c = DynamicDistMatrix.empty(comm16, grid16, (9, 9))
        a_star = StaticDistMatrix.empty(comm16, grid16, (8, 8), layout="dcsr")
        with pytest.raises(ValueError, match="result shape"):
            dynamic_spgemm_algebraic(comm16, grid16, da, db, a_star, None, c)

    def test_compute_cstar_values(self, comm16, grid16):
        """Algorithm 1's ``C*`` blocks assemble to ``A*·B'``."""
        n = 16
        a = random_dense(n, n, 0.15, seed=11)
        b = random_dense(n, n, 0.15, seed=12)
        delta = random_dense(n, n, 0.05, seed=13)
        da = dist_from_dense(comm16, grid16, a)
        db = static_from_dense(comm16, grid16, b)
        a_star = build_update_matrix(
            comm16, grid16, da.dist, self._updates_from_dense((n, n), delta, 16, seed=14)
        )
        cstar_blocks = compute_cstar(comm16, grid16, da, db, a_star, None)
        out_dist = BlockDistribution(n, n, grid16)
        dense_cstar = np.zeros((n, n))
        for rank, coo in cstar_blocks.items():
            gr, gc = out_dist.to_global(rank, coo.rows, coo.cols)
            np.add.at(dense_cstar, (gr, gc), coo.values)
        assert np.allclose(dense_cstar, delta @ b)

    def test_compute_pattern_is_structural_with_its_bloom_bits(self, comm16, grid16):
        """``F*``'s coordinates are the structural pattern of ``A*·B'`` — an
        entry whose ``plus_times`` terms cancel to 0 included — and each
        bitfield is the OR of ``1 << (k mod 64)`` over the contributing
        ``k`` (``n = 72``, so inner indices 64–71 wrap around)."""
        n = 72
        a = random_dense(n, n, 0.05, seed=15)
        b = random_dense(n, n, 0.05, seed=16)
        delta = random_dense(n, n, 0.01, seed=17)
        # c*[0, 5] = 1·1 + (−1)·1: terms from two inner blocks cancel to 0
        delta[0, :], b[:, 5] = 0.0, 0.0
        delta[0, 0], delta[0, 40], b[0, 5], b[40, 5] = 1.0, -1.0, 1.0, 1.0
        da = dist_from_dense(comm16, grid16, a)
        db = static_from_dense(comm16, grid16, b)
        a_star = build_update_matrix(
            comm16, grid16, da.dist, self._updates_from_dense((n, n), delta, 16, seed=18)
        )
        fstar = compute_cstar(comm16, grid16, da, db, a_star, None, compute_bloom=True)
        out_dist = BlockDistribution(n, n, grid16)
        got: dict[tuple[int, int], int] = {}
        for rank, bloom in fstar.items():
            rows, cols, bits = bloom.to_arrays()
            assert np.array_equal(np.stack(bloom.pattern()), np.stack((rows, cols)))
            gr, gc = out_dist.to_global(rank, rows, cols)
            got.update(zip(zip(gr.tolist(), gc.tolist()), bits.tolist()))
        want = bloom_product(delta != 0, b != 0)
        assert (delta @ b)[0, 5] == 0.0 and want[(0, 5)] == 1 | 1 << 40
        assert got == want


# ----------------------------------------------------------------------
# Algorithm 2 (general updates)
# ----------------------------------------------------------------------
class TestDynamicGeneral:
    def test_filter_by_row_bloom_superset(self):
        dense = random_dense(8, 8, 0.4, MIN_PLUS, seed=20)
        block = CSRMatrix.from_dense(dense, MIN_PLUS)
        bits = np.zeros(8, dtype=np.uint64)
        bits[2] = np.uint64(1) << np.uint64(3)  # row 2, admit columns ≡ 3 (mod 64)
        filtered = filter_by_row_bloom(block, bits, 0, MIN_PLUS)
        flat = filtered.flat_rows()
        assert set(flat.row_ids.tolist()) <= {2}
        assert all(c % BLOOM_BITS == 3 for c in flat.cols.tolist())

    @pytest.mark.parametrize("p", [4, 16])
    def test_deletions_match_recomputation(self, p):
        comm, grid = SimMPI(p), ProcessGrid(p)
        n = 16
        a = random_dense(n, n, 0.25, MIN_PLUS, seed=21)
        b = random_dense(n, n, 0.25, MIN_PLUS, seed=22)
        da = dist_from_dense(comm, grid, a, MIN_PLUS)
        db = dist_from_dense(comm, grid, b, MIN_PLUS)
        c, blooms = summa_spgemm(comm, grid, da, db, output="dynamic", compute_bloom=True)
        current = a.copy()
        rng = np.random.default_rng(23)
        for step in range(2):
            nz = np.argwhere(~np.isinf(current))
            sel = nz[rng.choice(len(nz), size=min(6, len(nz)), replace=False)]
            batch = UpdateBatch.from_global(
                (n, n), sel[:, 0], sel[:, 1], np.ones(len(sel)), p,
                kind="delete", semiring=MIN_PLUS, seed=step,
            )
            a_star = build_update_matrix(
                comm, grid, da.dist, batch, MIN_PLUS, combine="last"
            )
            for block in a_star.blocks.values():
                block.values[:] = MIN_PLUS.one
            da.mask_update(a_star)
            for r, cc in sel:
                current[r, cc] = np.inf
            dynamic_spgemm_general(
                comm, grid, da, da, db, a_star, None, c, blooms, semiring=MIN_PLUS
            )
            expected = dense_product(MIN_PLUS, current, b)
            assert np.allclose(c.to_dense(), expected, equal_nan=True)

    def test_algorithm2_ships_the_cstar_pattern_without_values(self):
        """Step 1 costs what Algorithm 1's ``C*`` costs, category by category
        (its reduce ships 24 B per entry, not 32 B); step 5 broadcasts each
        non-empty ``C*`` block once, as a ``(rows, cols)`` pattern charged
        16 B per entry; ``alg2.pattern_bytes`` and ``alg2.recompute_bytes``
        split the run's bytes."""
        n, p = 16, 16
        comm, grid = _RecordingSimMPI(p), ProcessGrid(p)
        a = random_dense(n, n, 0.25, MIN_PLUS, seed=21)
        b = random_dense(n, n, 0.25, MIN_PLUS, seed=22)
        da = dist_from_dense(comm, grid, a, MIN_PLUS)
        db = dist_from_dense(comm, grid, b, MIN_PLUS)
        c, blooms = summa_spgemm(comm, grid, da, db, output="dynamic", compute_bloom=True)
        nz = np.argwhere(~np.isinf(a))[::7]
        batch = UpdateBatch.from_global(
            (n, n), nz[:, 0], nz[:, 1], np.ones(len(nz)), p,
            kind="delete", semiring=MIN_PLUS, seed=1,
        )
        a_star = build_update_matrix(comm, grid, da.dist, batch, MIN_PLUS, combine="last")
        for block in a_star.blocks.values():
            block.values[:] = MIN_PLUS.one
        da.mask_update(a_star)

        def spent(run):
            since = comm.stats.snapshot()
            out = run()
            return out, comm.stats.diff(since)

        _, values_cost = spent(lambda: compute_cstar(comm, grid, da, db, a_star, None))
        fstar, pattern_cost = spent(
            lambda: compute_cstar(comm, grid, da, db, a_star, None, compute_bloom=True)
        )
        assert pattern_cost.categories["reduce_scatter"].bytes > 0
        for name, totals in values_cost.categories.items():
            got = pattern_cost.categories[name]
            assert (got.messages, got.bytes) == (totals.messages, totals.bytes), name

        comm.log.clear()
        recorder = PerfRecorder()
        with use_recorder(recorder):
            _, run_cost = spent(
                lambda: dynamic_spgemm_general(
                    comm, grid, da, da, db, a_star, None, c, blooms, semiring=MIN_PLUS
                )
            )
        assert recorder.counters["alg2.pattern_bytes"] == pattern_cost.total_bytes()
        assert (
            recorder.counters["alg2.pattern_bytes"]
            + recorder.counters["alg2.recompute_bytes"]
            == run_cost.total_bytes()
        )
        # every broadcast of the run spans one process row or column
        posts = [payload for kind, payload in comm.log if kind == "post"]
        masks = [mask for mask in posts if isinstance(mask, tuple)]
        pattern_nnz = sorted(bl.nnz for bl in fstar.values() if bl.nnz)
        assert pattern_nnz and sorted(rows.size for rows, _cols in masks) == pattern_nnz
        for rows, cols in masks:
            assert rows.dtype == cols.dtype == np.int64
            assert payload_nbytes((rows, cols)) == 16 * rows.size
        others = sum(
            payload_nbytes(payload) * (grid.q - 1)
            for payload in posts
            if not isinstance(payload, tuple)
        )
        mask_bytes = run_cost.categories["bcast"].bytes - others
        assert mask_bytes == 16 * (grid.q - 1) * sum(pattern_nnz)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("c", r"result shape \(20, 16\) does not match"),
            ("a_old", r"old A shape \(16, 12\) does not match A' shape"),
            ("f", r"Bloom filter F has no block for owned ranks"),
        ],
    )
    def test_bad_operands_raise_before_any_communication(
        self, comm16, grid16, case, message
    ):
        n = 16
        da = dist_from_dense(comm16, grid16, random_dense(n, n, 0.25, seed=41))
        db = dist_from_dense(comm16, grid16, random_dense(n, n, 0.25, seed=42))
        a_star = static_from_dense(
            comm16, grid16, random_dense(n, n, 0.1, seed=43), layout="dcsr"
        )
        c, blooms = summa_spgemm(
            comm16, grid16, da, db, output="dynamic", compute_bloom=True
        )
        a_old = da
        if case == "c":
            c = DynamicDistMatrix.empty(comm16, grid16, (20, n))
        elif case == "a_old":
            a_old = DynamicDistMatrix.empty(comm16, grid16, (n, 12))
        else:
            blooms = {}
        before, clock = comm16.stats.as_dict(), comm16.elapsed()
        with pytest.raises(ValueError, match=message):
            dynamic_spgemm_general(
                comm16, grid16, a_old, da, db, a_star, None, c, blooms
            )
        assert comm16.stats.as_dict() == before
        assert comm16.elapsed() == clock

    def test_boolean_semiring_deletion(self, comm16, grid16):
        n = 12
        rng = np.random.default_rng(31)
        a = (rng.random((n, n)) < 0.3).astype(np.float64)
        b = (rng.random((n, n)) < 0.3).astype(np.float64)
        da = dist_from_dense(comm16, grid16, a, BOOLEAN)
        db = dist_from_dense(comm16, grid16, b, BOOLEAN)
        c, blooms = summa_spgemm(
            comm16, grid16, da, db, output="dynamic", compute_bloom=True
        )
        nz = np.argwhere(a > 0)
        sel = nz[rng.choice(len(nz), size=min(5, len(nz)), replace=False)]
        batch = UpdateBatch.from_global(
            (n, n), sel[:, 0], sel[:, 1], np.ones(len(sel)), 16,
            kind="delete", semiring=BOOLEAN, seed=3,
        )
        a_star = build_update_matrix(
            comm16, grid16, da.dist, batch, BOOLEAN, combine="last"
        )
        for block in a_star.blocks.values():
            block.values[:] = BOOLEAN.one
        da.mask_update(a_star)
        a_new = a.copy()
        for r, cc in sel:
            a_new[r, cc] = 0.0
        dynamic_spgemm_general(
            comm16, grid16, da, da, db, a_star, None, c, blooms, semiring=BOOLEAN
        )
        expected = dense_product(BOOLEAN, a_new, b)
        assert np.allclose(c.to_dense(), expected)
