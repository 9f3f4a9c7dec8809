"""Tests for the local sparse layouts: COO, CSR, DCSR and their conversions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semirings import MIN_PLUS, PLUS_TIMES
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix
from repro.sparse.layout import flat_rows, registered_flat_rows_layouts

from tests.conftest import random_dense


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def coo_matrices(draw, max_dim: int = 12, semiring=PLUS_TIMES):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    m = draw(st.integers(min_value=1, max_value=max_dim))
    nnz = draw(st.integers(min_value=0, max_value=n * m))
    rows = draw(
        st.lists(st.integers(0, n - 1), min_size=nnz, max_size=nnz)
    )
    cols = draw(
        st.lists(st.integers(0, m - 1), min_size=nnz, max_size=nnz)
    )
    vals = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=nnz,
            max_size=nnz,
        )
    )
    return COOMatrix(
        shape=(n, m),
        rows=np.array(rows, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        values=np.array(vals),
        semiring=semiring,
    )


# ----------------------------------------------------------------------
# COO
# ----------------------------------------------------------------------
class TestCOO:
    def test_from_tuples_and_dense_round_trip(self):
        dense = random_dense(6, 8, 0.3, seed=1)
        coo = COOMatrix.from_dense(dense)
        assert np.allclose(coo.to_dense(), dense)
        assert coo.nnz == int((dense != 0).sum())

    def test_empty_matrix(self):
        coo = COOMatrix.empty((4, 5))
        assert coo.nnz == 0
        assert coo.to_dense().shape == (4, 5)
        assert np.all(coo.to_dense() == 0.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="identical lengths"):
            COOMatrix((3, 3), [0, 1], [0], [1.0, 2.0])

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError, match="out of bounds"):
            COOMatrix((3, 3), [5], [0], [1.0])
        with pytest.raises(ValueError, match="out of bounds"):
            COOMatrix((3, 3), [0], [-1], [1.0])

    def test_sum_duplicates_combines_with_semiring(self):
        coo = COOMatrix((2, 2), [0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0])
        out = coo.sum_duplicates()
        assert out.nnz == 2
        assert out.to_dict()[(0, 1)] == pytest.approx(5.0)

    def test_sum_duplicates_min_plus(self):
        coo = COOMatrix((2, 2), [0, 0], [1, 1], [5.0, 2.0], MIN_PLUS)
        assert coo.sum_duplicates().to_dict()[(0, 1)] == pytest.approx(2.0)

    def test_last_write_wins_keeps_latest(self):
        coo = COOMatrix((2, 2), [0, 0, 0], [1, 1, 1], [1.0, 2.0, 3.0])
        out = coo.last_write_wins()
        assert out.nnz == 1
        assert out.values[0] == pytest.approx(3.0)

    def test_add_is_elementwise_semiring_addition(self):
        a = random_dense(5, 5, 0.4, seed=2)
        b = random_dense(5, 5, 0.4, seed=3)
        out = COOMatrix.from_dense(a).add(COOMatrix.from_dense(b))
        assert np.allclose(out.to_dense(), a + b)

    def test_add_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            COOMatrix.empty((2, 2)).add(COOMatrix.empty((3, 3)))

    def test_add_semiring_mismatch_raises(self):
        with pytest.raises(ValueError, match="semiring mismatch"):
            COOMatrix.empty((2, 2)).add(COOMatrix.empty((2, 2), MIN_PLUS))

    def test_transpose(self):
        dense = random_dense(4, 7, 0.3, seed=5)
        out = COOMatrix.from_dense(dense).transpose()
        assert np.allclose(out.to_dense(), dense.T)

    def test_drop_zeros_removes_explicit_zeros(self):
        coo = COOMatrix((2, 2), [0, 1], [0, 1], [0.0, 2.0])
        assert coo.nnz == 2
        assert coo.drop_zeros().nnz == 1

    def test_nbytes_scales_with_nnz(self):
        small = COOMatrix.from_dense(random_dense(10, 10, 0.05, seed=7))
        large = COOMatrix.from_dense(random_dense(10, 10, 0.6, seed=7))
        assert large.nbytes > small.nbytes

    @settings(max_examples=30, deadline=None)
    @given(coo=coo_matrices())
    def test_property_last_write_wins_is_canonical(self, coo):
        last = {}
        for i, j, v in zip(coo.rows.tolist(), coo.cols.tolist(), coo.values.tolist()):
            last[(i, j)] = v
        out = coo.last_write_wins()
        assert list(zip(out.rows.tolist(), out.cols.tolist())) == sorted(last)
        assert out.values.tolist() == [last[key] for key in sorted(last)]

    def test_sort_shares_triplets_already_in_order(self):
        canon = COOMatrix.from_dense(random_dense(6, 6, 0.4, seed=4))
        out = canon.sort()
        assert np.shares_memory(out.rows, canon.rows)
        assert np.shares_memory(out.values, canon.values)
        shuffled = COOMatrix((2, 2), [1, 0, 0], [0, 1, 0], [1.0, 2.0, 3.0])
        assert shuffled.sort().rows.tolist() == [0, 0, 1]

    @settings(max_examples=30, deadline=None)
    @given(coo=coo_matrices())
    def test_property_sum_duplicates_idempotent(self, coo):
        once = coo.sum_duplicates()
        twice = once.sum_duplicates()
        assert np.array_equal(once.rows, twice.rows)
        assert np.array_equal(once.cols, twice.cols)
        assert np.allclose(once.values, twice.values)


# ----------------------------------------------------------------------
# CSR
# ----------------------------------------------------------------------
class TestCSR:
    def test_round_trip_with_coo_and_dense(self):
        dense = random_dense(7, 9, 0.3, seed=11)
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.to_dense(), dense)
        assert np.allclose(CSRMatrix.from_coo(csr.to_coo()).to_dense(), dense)

    def test_row_access(self):
        dense = random_dense(6, 6, 0.4, seed=13)
        csr = CSRMatrix.from_dense(dense)
        for i in range(6):
            cols, vals = csr.row(i)
            expected = np.nonzero(dense[i])[0]
            assert np.array_equal(np.sort(cols), expected)
            assert np.allclose(vals[np.argsort(cols)], dense[i][expected])

    def test_row_out_of_range_raises(self):
        csr = CSRMatrix.empty((3, 3))
        with pytest.raises(IndexError):
            csr.row(3)

    def test_get_and_contains(self):
        csr = CSRMatrix.from_dense(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert csr.get(0, 1) == pytest.approx(2.0)
        assert csr.get(1, 0) == 0.0
        assert csr.contains(0, 1)
        assert not csr.contains(1, 1)

    def test_invalid_indptr_raises(self):
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), [0, 1], [0], [1.0])  # indptr too short
        with pytest.raises(ValueError):
            CSRMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])  # decreasing

    def test_transpose(self):
        dense = random_dense(5, 8, 0.3, seed=17)
        assert np.allclose(CSRMatrix.from_dense(dense).transpose().to_dense(), dense.T)

    def test_extract_rows(self):
        dense = random_dense(6, 6, 0.5, seed=19)
        csr = CSRMatrix.from_dense(dense)
        sub = csr.extract_rows(np.array([1, 3]))
        expected = np.zeros_like(dense)
        expected[[1, 3]] = dense[[1, 3]]
        assert np.allclose(sub.to_dense(), expected)

    def test_nonzero_rows_and_row_nnz(self):
        dense = np.zeros((4, 4))
        dense[1, 2] = 1.0
        dense[3, 0] = 2.0
        dense[3, 3] = 3.0
        csr = CSRMatrix.from_dense(dense)
        assert list(csr.nonzero_rows()) == [1, 3]
        assert list(csr.row_nnz()) == [0, 1, 0, 2]

    def test_equal(self):
        dense = random_dense(5, 5, 0.4, seed=23)
        a = CSRMatrix.from_dense(dense)
        b = CSRMatrix.from_dense(dense)
        c = CSRMatrix.from_dense(random_dense(5, 5, 0.4, seed=29))
        assert a.equal(b)
        assert not a.equal(c)

    def test_scipy_round_trip(self):
        dense = random_dense(6, 4, 0.5, seed=31)
        csr = CSRMatrix.from_dense(dense)
        back = CSRMatrix.from_scipy(csr.to_scipy())
        assert csr.equal(back)

    def test_scale_values(self):
        dense = random_dense(4, 4, 0.5, seed=37)
        scaled = CSRMatrix.from_dense(dense).scale_values(2.0)
        assert np.allclose(scaled.to_dense(), dense * 2.0)


# ----------------------------------------------------------------------
# DCSR
# ----------------------------------------------------------------------
class TestDCSR:
    @settings(max_examples=30, deadline=None)
    @given(coo=coo_matrices())
    def test_property_row_runs_match_unique_rows(self, coo):
        dcsr = DCSRMatrix.from_coo(coo)
        canon = coo.sum_duplicates()
        nz_rows, counts = np.unique(canon.rows, return_counts=True)
        assert np.array_equal(dcsr.nz_rows, nz_rows)
        assert np.array_equal(np.diff(dcsr.indptr), counts)

    def test_round_trip(self):
        dense = random_dense(10, 10, 0.1, seed=41)
        dcsr = DCSRMatrix.from_dense(dense)
        assert np.allclose(dcsr.to_dense(), dense)
        assert np.allclose(dcsr.to_csr().to_dense(), dense)
        assert np.allclose(DCSRMatrix.from_csr(dcsr.to_csr()).to_dense(), dense)

    def test_only_nonempty_rows_are_stored(self):
        dense = np.zeros((100, 5))
        dense[3, 1] = 1.0
        dense[77, 4] = 2.0
        dcsr = DCSRMatrix.from_dense(dense)
        assert dcsr.n_nonzero_rows == 2
        assert list(dcsr.nz_rows) == [3, 77]

    def test_hypersparse_memory_advantage_over_csr(self):
        # 1 non-zero in a matrix with many rows: DCSR must be much smaller.
        dense = np.zeros((5000, 50))
        dense[4321, 7] = 1.0
        dcsr = DCSRMatrix.from_dense(dense)
        csr = CSRMatrix.from_dense(dense)
        assert dcsr.nbytes < csr.nbytes / 10

    def test_iter_rows(self):
        dense = random_dense(8, 8, 0.2, seed=43)
        dcsr = DCSRMatrix.from_dense(dense)
        seen = {}
        for row, cols, vals in dcsr.iter_rows():
            seen[row] = dict(zip(cols.tolist(), vals.tolist()))
        for i in range(8):
            expected = {j: dense[i, j] for j in np.nonzero(dense[i])[0]}
            assert seen.get(i, {}) == pytest.approx(expected)

    def test_row_by_position(self):
        dense = np.zeros((6, 6))
        dense[2, [1, 4]] = [1.0, 2.0]
        dcsr = DCSRMatrix.from_dense(dense)
        row, cols, vals = dcsr.row_by_position(0)
        assert row == 2
        assert set(cols.tolist()) == {1, 4}
        with pytest.raises(IndexError):
            dcsr.row_by_position(1)

    def test_transpose(self):
        dense = random_dense(9, 4, 0.2, seed=47)
        assert np.allclose(DCSRMatrix.from_dense(dense).transpose().to_dense(), dense.T)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DCSRMatrix((3, 3), [0, 0], [0, 1, 2], [0, 1], [1.0])  # repeated nz row

    def test_empty(self):
        dcsr = DCSRMatrix.empty((5, 5))
        assert dcsr.nnz == 0
        assert dcsr.n_nonzero_rows == 0
        assert list(dcsr.iter_rows()) == []

    @settings(max_examples=25, deadline=None)
    @given(coo=coo_matrices(max_dim=10))
    def test_property_csr_dcsr_equivalence(self, coo):
        csr = CSRMatrix.from_coo(coo)
        dcsr = DCSRMatrix.from_coo(coo)
        assert np.allclose(csr.to_dense(), dcsr.to_dense())
        assert csr.nnz == dcsr.nnz


class TestDHBFlatRows:
    """DHB is read with one gather: ``flat_rows`` and everything built on it."""

    @staticmethod
    def _churned(seed: int = 3) -> DHBMatrix:
        """Bulk-loaded rows, then deletes and re-inserts."""
        rng = np.random.default_rng(seed)
        dense = random_dense(12, 9, 0.4, seed=seed)
        mat = DHBMatrix.from_dense(dense)
        rows, cols = np.nonzero(dense)
        for t in rng.choice(rows.size, size=rows.size // 3, replace=False):
            mat.delete(int(rows[t]), int(cols[t]))  # swap-with-last
            mat.insert(int(rows[t]), int(cols[t]), dense[rows[t], cols[t]])
        mat.delete(int(rows[0]), int(cols[0]))  # leaves slack behind
        return mat

    @staticmethod
    def _per_row_coo(mat: DHBMatrix) -> COOMatrix:
        """The construction ``to_coo`` used before the gather (the oracle)."""
        pieces_r, pieces_c, pieces_v = [], [], []
        for i, cols, vals in mat.iter_rows():
            pieces_r.append(np.full(cols.size, i, dtype=np.int64))
            pieces_c.append(cols.copy())
            pieces_v.append(vals.copy())
        return COOMatrix(
            mat.shape,
            np.concatenate(pieces_r),
            np.concatenate(pieces_c),
            np.concatenate(pieces_v),
            mat.semiring,
        ).sort()

    def test_dhb_has_a_registered_extractor(self):
        assert DHBMatrix in registered_flat_rows_layouts()

    def test_flat_rows_preserves_adjacency_order(self):
        mat = self._churned()
        flat = flat_rows(mat)
        assert flat.row_ids.tolist() == np.flatnonzero(mat.to_dense().any(axis=1)).tolist()
        assert flat.row_ptr[-1] == mat.nnz == flat.cols.size == flat.vals.size
        for s, i in enumerate(flat.row_ids.tolist()):
            cols, vals = mat.row_arrays(i)
            lo, hi = flat.row_ptr[s], flat.row_ptr[s + 1]
            assert flat.cols[lo:hi].tolist() == cols.tolist()  # not sorted
            assert flat.vals[lo:hi].tobytes() == vals.tobytes()
        # the gather copies: the view must not alias the adjacency arrays
        flat.cols[:] = -1
        assert all(c >= 0 for _i, cols, _v in mat.iter_rows() for c in cols)

    def test_conversions_equal_the_per_row_construction(self):
        mat = self._churned()
        oracle = self._per_row_coo(mat)
        coo = mat.to_coo()
        for field in ("rows", "cols", "values"):
            assert getattr(coo, field).tobytes() == getattr(oracle, field).tobytes()
        for converted in (mat.to_csr(), mat.to_dcsr(), mat.copy()):
            back = converted.to_coo()
            for field in ("rows", "cols", "values"):
                assert getattr(back, field).tobytes() == getattr(oracle, field).tobytes()
        assert np.array_equal(mat.to_dense(), oracle.to_dense())

    def test_empty_matrix_round_trips(self):
        mat = DHBMatrix.empty((4, 5), MIN_PLUS)
        flat = flat_rows(mat)
        assert flat.row_ids.size == flat.cols.size == flat.vals.size == 0
        assert flat.row_ptr.tolist() == [0]
        assert mat.to_coo().nnz == mat.to_csr().nnz == mat.copy().nnz == 0
        assert mat.to_coo().semiring is MIN_PLUS
