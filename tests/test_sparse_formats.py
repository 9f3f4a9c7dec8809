"""Tests for the local sparse layouts: COO, CSR, DCSR and their conversions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semirings import MIN_PLUS, PLUS_TIMES, get_semiring, list_semirings
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix

from tests.conftest import check_dhb_invariants, random_dense


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
        assert out.to_dense()[0, 1] == pytest.approx(5.0)

    def test_sum_duplicates_min_plus(self):
        coo = COOMatrix((2, 2), [0, 0], [1, 1], [5.0, 2.0], MIN_PLUS)
        assert coo.sum_duplicates().to_dense()[0, 1] == pytest.approx(2.0)

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

    def test_transpose(self):
        dense = random_dense(9, 4, 0.2, seed=47)
        assert np.allclose(DCSRMatrix.from_dense(dense).transpose().to_dense(), dense.T)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DCSRMatrix((3, 3), [0, 0], [0, 1, 2], [0, 1], [1.0])  # repeated nz row
        # starts at 0 and ends at nnz, but row 2 would span 3 -> 2
        with pytest.raises(ValueError, match="non-decreasing"):
            DCSRMatrix((4, 4), [0, 2], [0, 3, 2], [0, 1], [1.0, 2.0])

    def test_empty(self):
        dcsr = DCSRMatrix.empty((5, 5))
        assert dcsr.nnz == 0
        assert dcsr.n_nonzero_rows == 0
        assert dcsr.flat_rows().row_ids.size == 0

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
    def _adjacency(mat: DHBMatrix, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s live slots, read straight from the arena (the oracle)."""
        lo = int(mat._start[i])
        hi = lo + int(mat._size[i])
        return mat._cols[lo:hi], mat._vals[lo:hi]

    def _per_row_coo(self, mat: DHBMatrix) -> COOMatrix:
        """The construction ``to_coo`` used before the gather (the oracle)."""
        pieces_r, pieces_c, pieces_v = [], [], []
        for i in np.flatnonzero(mat._size).tolist():
            cols, vals = self._adjacency(mat, i)
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

    def test_flat_rows_preserves_adjacency_order(self):
        mat = self._churned()
        flat = mat.flat_rows()
        assert flat.row_ids.tolist() == np.flatnonzero(mat.to_dense().any(axis=1)).tolist()
        assert flat.row_ptr[-1] == mat.nnz == flat.cols.size == flat.vals.size
        for s, i in enumerate(flat.row_ids.tolist()):
            cols, vals = self._adjacency(mat, i)
            lo, hi = flat.row_ptr[s], flat.row_ptr[s + 1]
            assert flat.cols[lo:hi].tolist() == cols.tolist()  # not sorted
            assert flat.vals[lo:hi].tobytes() == vals.tobytes()
        # the gather copies: the view must not alias the adjacency arrays
        flat.cols[:] = -1
        check_dhb_invariants(mat)

    def test_conversions_equal_the_per_row_construction(self):
        mat = self._churned()
        oracle = self._per_row_coo(mat)
        coo = mat.to_coo()
        for field in ("rows", "cols", "values"):
            assert getattr(coo, field).tobytes() == getattr(oracle, field).tobytes()
        for converted in (mat.to_csr(), mat.copy()):
            back = converted.to_coo()
            for field in ("rows", "cols", "values"):
                assert getattr(back, field).tobytes() == getattr(oracle, field).tobytes()
        assert np.array_equal(mat.to_dense(), oracle.to_dense())

    def test_empty_matrix_round_trips(self):
        mat = DHBMatrix.empty((4, 5), MIN_PLUS)
        flat = mat.flat_rows()
        assert flat.row_ids.size == flat.cols.size == flat.vals.size == 0
        assert flat.row_ptr.tolist() == [0]
        assert mat.to_coo().nnz == mat.to_csr().nnz == mat.copy().nnz == 0
        assert mat.to_coo().semiring is MIN_PLUS


# ----------------------------------------------------------------------
# the one row view: flat_rows() on every layout
# ----------------------------------------------------------------------
def _known_entries(case: str) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """``(shape, coordinates)`` in input order: unsorted, no duplicates."""
    if case == "empty":
        return (3, 4), []
    if case == "empty_rows":  # rows 0, 2 and 5 stay empty
        return (6, 5), [(3, 4), (1, 2), (3, 0), (4, 1), (1, 0), (3, 2), (4, 4)]
    rng = np.random.default_rng(11)
    flat = rng.choice(9 * 7, size=20, replace=False)
    return (9, 7), [(int(k) // 7, int(k) % 7) for k in flat]


def _flat_row_layouts(shape, entries, values, semiring) -> dict:
    coo = COOMatrix(
        shape,
        np.array([i for i, _ in entries], dtype=np.int64),
        np.array([j for _, j in entries], dtype=np.int64),
        values,
        semiring,
    )
    dhb = DHBMatrix(shape, semiring)
    for (i, j), value in zip(entries, values):
        dhb.insert(i, j, value)  # scalar inserts append in call order
    return {
        "coo": coo,
        "csr": CSRMatrix.from_coo(coo),
        "dcsr": DCSRMatrix.from_coo(coo),
        "dhb": dhb,
    }


class TestFlatRowsContract:
    """``flat_rows()`` hands over exactly the entries, one segment per row."""

    @pytest.mark.parametrize("case", ["empty", "empty_rows", "random"])
    @pytest.mark.parametrize("semiring_name", list_semirings())
    def test_every_layout_hands_over_exactly_its_entries(self, case, semiring_name):
        semiring = get_semiring(semiring_name)
        shape, entries = _known_entries(case)
        values = semiring.coerce(1.0 + np.arange(len(entries)) % 5)
        for name, mat in _flat_row_layouts(shape, entries, values, semiring).items():
            flat = mat.flat_rows()
            ids, ptr = flat.row_ids, flat.row_ptr
            assert ids.dtype == ptr.dtype == flat.cols.dtype == np.int64, name
            assert flat.vals.dtype == semiring.dtype, name
            assert np.all(np.diff(ids) > 0), name
            assert ptr.size == ids.size + 1 and ptr[0] == 0, name
            assert np.all(np.diff(ptr) >= 0), name
            assert ptr[-1] == flat.cols.size == flat.vals.size == len(entries), name
            if name == "csr":
                assert ids.tolist() == list(range(shape[0]))
            else:
                assert np.all(np.diff(ptr) > 0), f"{name}: empty segment"
            got: dict[int, list] = {}
            for s, i in enumerate(ids.tolist()):
                lo, hi = ptr[s], ptr[s + 1]
                if hi > lo:
                    got[i] = list(zip(flat.cols[lo:hi].tolist(), flat.vals[lo:hi].tolist()))
            want: dict[int, list] = {}
            for (i, j), value in zip(entries, values.tolist()):
                want.setdefault(i, []).append((j, value))
            if name != "dhb":  # DHB keeps insertion order, the others sort
                want = {i: sorted(row) for i, row in want.items()}
            assert got == want, name
