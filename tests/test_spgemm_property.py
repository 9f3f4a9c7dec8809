"""Property tests for the layout-agnostic local SpGEMM kernels.

The vectorised :func:`spgemm_local` kernel is pitted against the
loop-based :func:`spgemm_rowwise_spa` sparse-accumulator oracle on randomly
generated operands, across every standard semiring and every combination of
the four local matrix layouts (COO, CSR, DCSR, DHB) — exercising the
uniform ``iter_rows()`` / ``row_arrays()`` row-access protocol that replaced
the old per-layout ``isinstance`` dispatch.

:class:`TestPrunedKernelsByteIdentical` pins the update-proportional
reading of the operands (dead left entries dropped in front of the rowwise
kernels, only the selected rows of a DHB block read by the scipy path): for
every layout pair it must return the bytes, Bloom bits and ``spgemm.*``
counts of the same kernel on the whole operands.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.sparse.kernels.tier as tiermod
from repro.perf import PerfRecorder, use_recorder
from repro.semirings import get_semiring
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    DCSRMatrix,
    DHBMatrix,
    pattern_row_index,
    register_row_layout,
    row_reader,
    spgemm_local,
    spgemm_local_masked,
    spgemm_rowwise_spa,
)
from repro.sparse.kernels.spgemm import (
    spgemm_rowwise_compiled,
    spgemm_rowwise_masked_compiled,
)
from repro.sparse.layout import flat_rows

SEMIRINGS = ["plus_times", "min_plus", "max_plus", "max_min", "max_times", "boolean"]

LAYOUTS = {
    "coo": lambda coo: coo,
    "csr": CSRMatrix.from_coo,
    "dcsr": DCSRMatrix.from_coo,
    "dhb": DHBMatrix.from_coo,
}


def random_coo(shape, semiring, rng, density=0.15) -> COOMatrix:
    """A random deduplicated COO matrix with semiring-friendly values."""
    n, m = shape
    nnz = max(1, int(n * m * density))
    rows = rng.integers(0, n, size=nnz)
    cols = rng.integers(0, m, size=nnz)
    values = rng.integers(1, 5, size=nnz).astype(np.float64)
    return COOMatrix(
        shape=shape,
        rows=rows,
        cols=cols,
        values=semiring.coerce(values),
        semiring=semiring,
    ).sum_duplicates()


def assert_same_result(result: COOMatrix, oracle: COOMatrix) -> None:
    dense_result = result.sum_duplicates().to_dense()
    dense_oracle = oracle.sum_duplicates().to_dense()
    assert dense_result.shape == dense_oracle.shape
    assert np.allclose(
        np.asarray(dense_result, dtype=np.float64),
        np.asarray(dense_oracle, dtype=np.float64),
        equal_nan=True,
    )


@pytest.mark.parametrize("semiring_name", SEMIRINGS)
@pytest.mark.parametrize("layout_name", sorted(LAYOUTS))
@pytest.mark.parametrize("seed", [3, 17])
def test_spgemm_local_matches_spa_oracle(semiring_name, layout_name, seed):
    semiring = get_semiring(semiring_name)
    rng = np.random.default_rng(seed)
    a_coo = random_coo((13, 9), semiring, rng)
    b_coo = random_coo((9, 11), semiring, rng)
    convert = LAYOUTS[layout_name]
    a, b = convert(a_coo), convert(b_coo)

    result, bloom = spgemm_local(a, b, semiring, use_scipy=False)
    oracle = spgemm_rowwise_spa(a_coo, b_coo, semiring)
    assert bloom is None
    assert_same_result(result, oracle)


@pytest.mark.parametrize("left", sorted(LAYOUTS))
@pytest.mark.parametrize("right", sorted(LAYOUTS))
def test_spgemm_local_mixed_layout_operands(left, right):
    semiring = get_semiring("min_plus")
    rng = np.random.default_rng(41)
    a_coo = random_coo((8, 10), semiring, rng)
    b_coo = random_coo((10, 6), semiring, rng)
    a, b = LAYOUTS[left](a_coo), LAYOUTS[right](b_coo)

    result, _ = spgemm_local(a, b, semiring, use_scipy=False)
    oracle = spgemm_rowwise_spa(a_coo, b_coo, semiring)
    assert_same_result(result, oracle)


def test_scipy_fast_path_agrees_with_kernel():
    semiring = get_semiring("plus_times")
    rng = np.random.default_rng(7)
    a = random_coo((12, 12), semiring, rng)
    b = random_coo((12, 12), semiring, rng)
    fast, _ = spgemm_local(a, b, semiring, use_scipy=True)
    slow, _ = spgemm_local(a, b, semiring, use_scipy=False)
    assert_same_result(fast, slow)


class TestRowAccessCaches:
    def test_dcsr_row_index_is_built_once(self):
        semiring = get_semiring("plus_times")
        rng = np.random.default_rng(5)
        mat = DCSRMatrix.from_coo(random_coo((50, 8), semiring, rng, density=0.05))
        assert mat._row_index is None
        cols, vals = mat.row_arrays(int(mat.nz_rows[0]))
        assert cols.size == vals.size > 0
        index = mat._row_index
        assert index is not None
        mat.row_arrays(3)
        assert mat._row_index is index

    def test_coo_views_are_cached(self):
        semiring = get_semiring("plus_times")
        rng = np.random.default_rng(6)
        mat = random_coo((10, 10), semiring, rng)
        list(mat.iter_rows())
        first_dcsr = mat._dcsr_view
        list(mat.iter_rows())
        assert mat._dcsr_view is first_dcsr
        mat.row_arrays(0)
        first_csr = mat._csr_view
        mat.row_arrays(5)
        assert mat._csr_view is first_csr

    def test_empty_rows_return_empty_arrays(self):
        semiring = get_semiring("plus_times")
        mat = DCSRMatrix.from_coo(
            COOMatrix.from_tuples((6, 6), [(0, 1, 2.0)], semiring)
        )
        cols, vals = mat.row_arrays(4)
        assert cols.size == 0 and vals.size == 0


class TestRowReaderRegistry:
    def test_builtin_layouts_resolve(self):
        semiring = get_semiring("plus_times")
        rng = np.random.default_rng(9)
        coo = random_coo((5, 5), semiring, rng)
        for convert in LAYOUTS.values():
            reader = row_reader(convert(coo))
            rows = list(reader.iter_rows())
            assert rows
            cols, vals = reader.row_arrays(rows[0][0])
            assert cols.size == vals.size

    def test_duck_typed_layout_is_accepted(self):
        class MiniLayout:
            shape = (2, 2)
            semiring = get_semiring("plus_times")

            def iter_rows(self):
                yield 0, np.array([1], dtype=np.int64), np.array([3.0])

            def row_arrays(self, i):
                if i == 0:
                    return np.array([1], dtype=np.int64), np.array([3.0])
                return np.empty(0, dtype=np.int64), np.empty(0)

        result, _ = spgemm_local(
            MiniLayout(), MiniLayout(), MiniLayout.semiring, use_scipy=False
        )
        # A's only entry is (0, 1) and B's row 1 is empty, so C is empty.
        assert result.nnz == 0

    def test_registered_adapter_is_preferred(self):
        class Wrapped:
            def __init__(self, inner):
                self.inner = inner
                self.shape = inner.shape

        register_row_layout(Wrapped, lambda w: w.inner)
        semiring = get_semiring("plus_times")
        rng = np.random.default_rng(11)
        coo = random_coo((6, 6), semiring, rng)
        a = Wrapped(CSRMatrix.from_coo(coo))
        result, _ = spgemm_local(a, CSRMatrix.from_coo(coo), semiring, use_scipy=False)
        oracle = spgemm_rowwise_spa(coo, coo, semiring)
        assert_same_result(result, oracle)

    def test_unsupported_layout_raises_type_error(self):
        with pytest.raises(TypeError, match="unsupported operand layout"):
            row_reader(object())


# ----------------------------------------------------------------------
# update-proportional operand reading must not change a byte
# ----------------------------------------------------------------------
#: the module (``repro.sparse.spgemm_local`` the attribute is the function)
_KERNELS = sys.modules["repro.sparse.spgemm_local"]

#: order-sensitive under ⊕ = + (so a changed summation order shows), with
#: explicit zeros and a negative zero
_VALUES = [0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e16, -1e16]


def _churned_dhb(coo: COOMatrix, churn: list[int]) -> DHBMatrix:
    """A DHB block the way a long-lived one looks.

    Bulk-loaded rows keep their lazily built hash index; the entries named
    by ``churn`` are deleted (swap-with-last) and re-inserted (appended, in
    a row that grew), which permutes the adjacency order and leaves
    capacity slack behind.
    """
    mat = DHBMatrix.from_coo(coo)
    for t in churn:
        mat.delete(int(coo.rows[t]), int(coo.cols[t]))
    for t in churn:
        mat.insert(int(coo.rows[t]), int(coo.cols[t]), coo.values[t])
    return mat


def _in_layout(name: str, coo: COOMatrix, churn: list[int]):
    return _churned_dhb(coo, churn) if name == "dhb" else LAYOUTS[name](coo)


def _whole_csr(mat, semiring) -> CSRMatrix:
    """``mat`` as one CSR in its native in-row order (nothing pruned)."""
    flat = flat_rows(mat)
    counts = np.zeros(mat.shape[0], dtype=np.int64)
    counts[flat.row_ids] = np.diff(flat.row_ptr)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSRMatrix(mat.shape, indptr, flat.cols, flat.vals, semiring)


def _spgemm_counts(rec: PerfRecorder) -> dict:
    names = (
        "spgemm.terms",
        "spgemm.rows",
        "spgemm.output_nnz",
        "spgemm.masked_terms",
        "spgemm.masked_rows",
        "spgemm.scipy_calls",
    )
    return {name: rec.counters.get(name, 0) for name in names}


def _assert_identical(got, want, what: str) -> None:
    (g_coo, g_bloom, g_counts), (w_coo, w_bloom, w_counts) = got, want
    for field in ("rows", "cols", "values"):
        assert getattr(g_coo, field).tobytes() == getattr(w_coo, field).tobytes(), (
            f"{what}: {field} differ"
        )
    assert g_bloom == w_bloom, f"{what}: bloom differs"
    assert g_counts == w_counts, f"{what}: counters differ"


@st.composite
def _operand_pairs(draw):
    n, k, m = (draw(st.integers(1, 6)) for _ in range(3))
    value = st.sampled_from(_VALUES)

    def entries(rows, cols):
        cells = draw(
            st.dictionaries(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                value,
                max_size=24,
            )
        )
        return sorted(cells.items())

    def churn(cells):
        if not cells:
            return []
        return draw(st.lists(st.integers(0, len(cells) - 1), unique=True, max_size=6))

    a, b, mask = entries(n, k), entries(k, m), entries(n, m)
    return (n, k, m), a, b, mask, churn(a), churn(b)


_ORDER_SENSITIVE = (
    (2, 3, 1),
    [((0, 0), 0.1), ((0, 1), 0.2), ((0, 2), 0.3), ((1, 0), 1.0)],
    [((0, 0), 1.0), ((1, 0), 1.0), ((2, 0), 1.0)],
    [((0, 0), 1.0)],
    [0],
    [],
)


class TestPrunedKernelsByteIdentical:
    """Pruned reading == the same kernel on the whole operands, byte for byte."""

    @staticmethod
    def _coo(shape, cells, semiring) -> COOMatrix:
        return COOMatrix(
            shape,
            [i for (i, _j), _v in cells],
            [j for (_i, j), _v in cells],
            [v for _ij, v in cells],
            semiring,
        )

    @settings(max_examples=120, deadline=None)
    @given(
        pair=_operand_pairs(),
        layouts=st.tuples(st.sampled_from(sorted(LAYOUTS)), st.sampled_from(sorted(LAYOUTS))),
        semiring_name=st.sampled_from(SEMIRINGS),
        compute_bloom=st.booleans(),
        use_scipy=st.sampled_from([None, False]),
        tier=st.sampled_from(["python", "compiled"]),
        inner_offset=st.integers(0, 70),
    )
    # empty intersection: A only hits row 1, B only fills row 0
    @example(
        pair=((2, 2, 2), [((0, 1), 1.0)], [((0, 0), 2.0), ((0, 1), 3.0)], [((0, 0), 1.0)], [], [0]),
        layouts=("dcsr", "dhb"), semiring_name="plus_times", compute_bloom=False,
        use_scipy=None, tier="python", inner_offset=0,
    )
    # all-empty right operand
    @example(
        pair=((2, 2, 2), [((0, 0), 1.0), ((1, 1), 0.3)], [], [((0, 0), 1.0)], [1], []),
        layouts=("dhb", "dhb"), semiring_name="plus_times", compute_bloom=True,
        use_scipy=None, tier="compiled", inner_offset=63,
    )
    # explicit zeros on both sides, big left operand against one live row
    @example(
        pair=(
            (3, 3, 2),
            [((0, 0), 0.0), ((0, 2), 0.1), ((1, 2), 0.2), ((2, 1), 0.3), ((2, 2), -1.0)],
            [((2, 0), 0.0), ((2, 1), 1e16)],
            [((0, 0), 1.0), ((2, 1), 1.0)],
            [0, 4],
            [],
        ),
        layouts=("dhb", "dcsr"), semiring_name="plus_times", compute_bloom=False,
        use_scipy=None, tier="python", inner_offset=5,
    )
    # three order-sensitive terms in one output entry, left DHB row permuted
    # by a swap-with-last delete: scipy must see it sorted, Gustavson as stored
    @example(
        pair=_ORDER_SENSITIVE, layouts=("dhb", "dcsr"), semiring_name="plus_times",
        compute_bloom=False, use_scipy=None, tier="python", inner_offset=0,
    )
    @example(
        pair=_ORDER_SENSITIVE, layouts=("dhb", "dcsr"), semiring_name="plus_times",
        compute_bloom=False, use_scipy=False, tier="python", inner_offset=0,
    )
    @example(
        pair=_ORDER_SENSITIVE, layouts=("dhb", "dcsr"), semiring_name="plus_times",
        compute_bloom=True, use_scipy=None, tier="compiled", inner_offset=9,
    )
    def test_matches_whole_operand_kernels(
        self, pair, layouts, semiring_name, compute_bloom, use_scipy, tier, inner_offset
    ):
        shape, a_cells, b_cells, mask_cells, a_churn, b_churn = pair
        n, k, m = shape
        semiring = get_semiring(semiring_name)
        a_coo = self._coo((n, k), a_cells, semiring)
        b_coo = self._coo((k, m), b_cells, semiring)
        a = _in_layout(layouts[0], a_coo, a_churn)
        b = _in_layout(layouts[1], b_coo, b_churn)
        mask_rows = pattern_row_index(
            CSRMatrix.from_coo(self._coo((n, m), mask_cells, semiring))
        )
        a_whole, b_whole = _whole_csr(a, semiring), _whole_csr(b, semiring)
        what = f"{layouts}/{semiring_name}/bloom={compute_bloom}/scipy={use_scipy}/{tier}"

        def recorded(fn, *args, **kwargs):
            rec = PerfRecorder()
            with use_recorder(rec):
                out = fn(*args, **kwargs)
            return out, rec

        with mock.patch.object(tiermod, "numba_available", lambda: True):
            (coo, bloom), rec = recorded(
                spgemm_local, a, b, semiring, compute_bloom=compute_bloom,
                use_scipy=use_scipy, inner_offset=inner_offset, kernel_tier=tier,
            )
            (z, h), rec_masked = recorded(
                spgemm_local_masked, a, b, semiring, mask_rows,
                compute_bloom=compute_bloom, inner_offset=inner_offset, kernel_tier=tier,
            )
        got = (coo, bloom, _spgemm_counts(rec))
        got_masked = (z, h, _spgemm_counts(rec_masked))

        kwargs = dict(compute_bloom=compute_bloom, inner_offset=inner_offset)
        if rec.counters.get("spgemm.scipy_calls"):
            # CSR hands scipy its storage: nothing is pruned on this side
            (w_coo, w_bloom), w_rec = recorded(
                spgemm_local, CSRMatrix.from_coo(a.to_coo()),
                CSRMatrix.from_coo(b.to_coo()), semiring, use_scipy=True,
            )
            want = (w_coo, w_bloom, _spgemm_counts(w_rec))
        elif tier == "compiled":
            (w_coo, w_bloom, terms, rows), _ = recorded(
                spgemm_rowwise_compiled, a_whole, b_whole, semiring, (n, m), **kwargs
            )
            want = (w_coo, w_bloom, dict(_spgemm_counts(PerfRecorder()), **{
                "spgemm.terms": terms, "spgemm.rows": rows, "spgemm.output_nnz": w_coo.nnz,
            }))
        else:
            (w_coo, w_bloom), w_rec = recorded(
                _KERNELS._spgemm_rowwise, a_whole, b_whole, semiring, (n, m), **kwargs
            )
            want = (w_coo, w_bloom, _spgemm_counts(w_rec))
        _assert_identical(got, want, what)

        if tier == "compiled":
            (w_z, w_h, terms, rows), _ = recorded(
                spgemm_rowwise_masked_compiled, a_whole, b_whole, semiring,
                mask_rows, (n, m), **kwargs,
            )
            want_masked = (w_z, w_h, dict(_spgemm_counts(PerfRecorder()), **{
                "spgemm.masked_terms": terms, "spgemm.masked_rows": rows,
            }))
        else:
            (w_z, w_h), w_rec = recorded(
                _KERNELS._spgemm_rowwise_masked, a_whole, b_whole, semiring,
                mask_rows, **kwargs,
            )
            want_masked = (w_z, w_h, _spgemm_counts(w_rec))
        _assert_identical(got_masked, want_masked, "masked/" + what)
