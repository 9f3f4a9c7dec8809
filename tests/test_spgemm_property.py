"""Property tests for the layout-agnostic local SpGEMM kernels.

The expand–sort–compress :func:`spgemm_local` kernel is pitted against the
loop-based :func:`spgemm_rowwise_spa` sparse-accumulator oracle on randomly
generated operands, across every standard semiring and every combination of
the four local matrix layouts (COO, CSR, DCSR, DHB) — exercising the
uniform ``iter_rows()`` / ``row_arrays()`` row-access protocol that replaced
the old per-layout ``isinstance`` dispatch.

The oracle agrees only up to rounding.  :func:`_per_row_reference` is what
pins the bytes: it *defines* the order in which every output entry is
folded (row by row, terms in Gustavson's order, one stable sort per row),
and :func:`test_esc_matches_per_row_reference_byte_for_byte` holds the
kernel to it — values, Bloom bits and ``spgemm.*`` counters.

:class:`TestAdversarialOperandsByteIdentical` adds fixed hard operands, and
:class:`TestGeneralModeReplayMatchesReference` swaps the reference in for
the kernel under a whole Algorithm 2 replay: nothing observable may move.

:class:`TestPrunedKernelsByteIdentical` pins the update-proportional
reading of the operands (dead left entries dropped in front of the ESC
kernel, only the selected rows of a DHB block read by the scipy path): for
every layout pair it must return the bytes, Bloom bits and ``spgemm.*``
counts of the same kernel on the whole operands.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.perf import PerfRecorder, use_recorder
from repro.runtime import MPIBackend
from repro.runtime.loopback import run_spmd
from repro.scenarios import SCENARIO_GENERATORS, SpGEMMStep, replay
from repro.semirings import get_semiring
from repro.sparse import (
    BloomFilterMatrix,
    COOMatrix,
    CSRMatrix,
    DCSRMatrix,
    DHBMatrix,
    register_row_layout,
    row_reader,
    spgemm_local,
    spgemm_local_masked,
    spgemm_rowwise_spa,
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
# byte-level pins: fold order, update-proportional operand reading
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


_COUNTERS = (
    "spgemm.terms",
    "spgemm.rows",
    "spgemm.output_nnz",
    "spgemm.masked_terms",
    "spgemm.masked_rows",
    "spgemm.scipy_calls",
)


def _spgemm_counts(rec: PerfRecorder) -> dict:
    return {name: rec.counters.get(name, 0) for name in _COUNTERS}


def _recorded(fn, *args, **kwargs):
    rec = PerfRecorder()
    with use_recorder(rec):
        out = fn(*args, **kwargs)
    return out, rec


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


def _coo(shape, cells, semiring) -> COOMatrix:
    return COOMatrix(
        shape,
        [i for (i, _j), _v in cells],
        [j for (_i, j), _v in cells],
        [v for _ij, v in cells],
        semiring,
    )


def _per_row_reference(a, b, semiring, *, compute_bloom, inner_offset, mask=None):
    """Gustavson row by row: the definition of every output entry's fold order.

    Row ``i``'s terms are formed ``k`` by ``k`` in the left row's native
    order, each ``B`` row in its native order; the mask (a pattern block)
    drops whole rows first and then single terms.  One stable argsort by
    column groups the row's terms, and ``add_reduceat`` /
    ``bitwise_or.reduceat`` fold each group in that order.  Returns
    ``(C, F or None, counters)`` with the counters the kernel reports.
    """
    shape = (a.shape[0], b.shape[1])
    allowed = None
    if mask is not None:
        allowed = {}
        for i, j in zip(mask.rows.tolist(), mask.cols.tolist()):
            allowed.setdefault(i, []).append(j)
    b_row = row_reader(b).row_arrays
    out_rows, out_cols, out_vals, out_bits = [], [], [], []
    n_terms = 0
    for i, a_cols, a_vals in row_reader(a).iter_rows():
        if allowed is not None and i not in allowed:
            continue
        cols, vals, bits = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, np.uint64)]
        for k, a_ik in zip(a_cols.tolist(), a_vals):
            b_cols, b_vals = b_row(k)
            cols.append(b_cols)
            vals.append(semiring.times(a_ik, b_vals))
            bits.append(np.full(b_cols.size, 1 << ((k + inner_offset) % 64), np.uint64))
        cols, vals, bits = (np.concatenate(x) for x in (cols, vals, bits))
        n_terms += cols.size
        if allowed is not None:
            kept = np.isin(cols, allowed[i])
            cols, vals, bits = cols[kept], vals[kept], bits[kept]
        if cols.size == 0:
            continue
        order = np.argsort(cols, kind="stable")
        starts = np.flatnonzero(np.diff(cols[order], prepend=-1))
        out_rows.append(np.full(starts.size, i, dtype=np.int64))
        out_cols.append(cols[order][starts])
        out_vals.append(semiring.add_reduceat(vals[order], starts))
        out_bits.append(np.bitwise_or.reduceat(bits[order], starts))
    rows, cols, vals, bits = (
        np.concatenate(x) if x else np.empty(0, dtype)
        for x, dtype in (
            (out_rows, np.int64), (out_cols, np.int64), (out_vals, float), (out_bits, np.uint64)
        )
    )
    coo = COOMatrix(shape, rows, cols, vals, semiring)
    bloom = BloomFilterMatrix.from_arrays(shape, rows, cols, bits) if compute_bloom else None
    if mask is None:
        counts = {
            "spgemm.terms": n_terms, "spgemm.rows": len(out_rows), "spgemm.output_nnz": coo.nnz
        }
    else:
        counts = {"spgemm.masked_terms": n_terms, "spgemm.masked_rows": len(out_rows)}
    return coo, bloom, dict(dict.fromkeys(_COUNTERS, 0), **counts)


def _assert_bytes(got, want, what: str) -> None:
    """Rows, columns, value bytes, Bloom arrays and counters all equal."""
    _assert_identical(got, want, what)
    g_bloom, w_bloom = got[1], want[1]
    if w_bloom is not None:
        for g, w in zip(g_bloom.to_arrays(), w_bloom.to_arrays()):
            assert g.tobytes() == w.tobytes(), f"{what}: bloom arrays differ"


@settings(max_examples=150, deadline=None)
@given(
    pair=_operand_pairs(),
    layouts=st.tuples(st.sampled_from(sorted(LAYOUTS)), st.sampled_from(sorted(LAYOUTS))),
    semiring_name=st.sampled_from(SEMIRINGS),
    masked=st.booleans(),
    compute_bloom=st.booleans(),
    inner_offset=st.integers(0, 200),
)
@example(
    pair=_ORDER_SENSITIVE, layouts=("dhb", "dhb"), semiring_name="plus_times",
    masked=False, compute_bloom=True, inner_offset=63,
)
def test_esc_matches_per_row_reference_byte_for_byte(
    pair, layouts, semiring_name, masked, compute_bloom, inner_offset
):
    shape, a_cells, b_cells, mask_cells, a_churn, b_churn = pair
    n, k, m = shape
    semiring = get_semiring(semiring_name)
    a = _in_layout(layouts[0], _coo((n, k), a_cells, semiring), a_churn)
    b = _in_layout(layouts[1], _coo((k, m), b_cells, semiring), b_churn)
    mask = _coo((n, m), mask_cells, semiring) if masked else None
    kwargs = dict(compute_bloom=compute_bloom, inner_offset=inner_offset)
    if masked:
        (coo, bloom), rec = _recorded(spgemm_local_masked, a, b, semiring, mask, **kwargs)
    else:
        (coo, bloom), rec = _recorded(spgemm_local, a, b, semiring, use_scipy=False, **kwargs)
    want = _per_row_reference(a, b, semiring, mask=mask, **kwargs)
    what = f"{layouts}/{semiring_name}/masked={masked}/bloom={compute_bloom}"
    _assert_bytes((coo, bloom, _spgemm_counts(rec)), want, what)


@pytest.mark.parametrize("semiring_name", SEMIRINGS)
def test_add_reduceat_folds_a_segment_alike_wherever_it_sits(semiring_name):
    """The kernel's fold-order argument, pinned at the semiring.

    ESC folds an output entry's run wherever the sort put it in the term
    buffer; the reference folds it alone.  Segments long enough for ``+``
    to switch to pairwise summation, shuffled and misaligned by a few
    leading values, must still give every segment's bytes.
    """
    semiring = get_semiring(semiring_name)
    rng = np.random.default_rng(5)
    lengths = [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 300, 1000]
    segments = [
        semiring.coerce(rng.choice(_VALUES, n) * rng.choice([1.0, 1e-8, 1e8], n))
        for n in lengths
    ]
    alone = [semiring.add_reduceat(seg, np.array([0])).tobytes() for seg in segments]
    for pad in range(6):
        order = rng.permutation(len(segments))
        buffer = np.concatenate(
            [semiring.coerce(rng.choice(_VALUES, pad))] + [segments[s] for s in order]
        )
        sizes = np.array([lengths[s] for s in order])
        starts = pad + np.concatenate(([0], np.cumsum(sizes[:-1])))
        folded = semiring.add_reduceat(buffer, starts)
        for at, s in enumerate(order):
            assert folded[at : at + 1].tobytes() == alone[s], (pad, lengths[s])


# ----------------------------------------------------------------------
# adversarial operands: empty rows, hotspot inner columns, negative zeros
# ----------------------------------------------------------------------
#: operand structure -> the right operand's layout (every layout meets every left one)
_KINDS = dict(plain="csr", empty_rows="dhb", hotspot="dcsr", neg_zero="dhb", empty="coo")


def _adversarial(semiring, seed: int, kind: str, shape) -> COOMatrix:
    """A random operand with the structure ``kind`` names."""
    n, m = shape
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return COOMatrix.empty(shape, semiring)
    present = rng.random(shape) < 0.35
    if kind == "empty_rows":
        present[rng.choice(n, size=max(1, n // 3), replace=False), :] = False
    elif kind == "hotspot":
        # two dense inner columns: many terms fold into every output entry
        present[:, : min(2, m)] = True
    vals = np.ones(shape) if semiring.name == "boolean" else rng.random(shape) + 0.1
    if kind == "neg_zero" and not semiring.is_zero(np.array([-0.0]))[0]:
        # ±0.0 are stored values wherever they are not the structural zero
        signed = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
        vals = np.where(rng.random(shape) < 0.4, signed, vals)
    return CSRMatrix.from_dense(np.where(present, vals, semiring.zero), semiring).to_coo()


def _operand(layout: str, coo: COOMatrix):
    """``coo`` in ``layout``; a DHB block with every third entry churned."""
    return _in_layout(layout, coo, list(range(0, coo.nnz, 3)))


class TestAdversarialOperandsByteIdentical:
    """Fixed hard cases beside the hypothesis test: ESC == per-row reference."""

    @pytest.mark.parametrize("semiring_name", SEMIRINGS)
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_rowwise_byte_identical(self, semiring_name, layout):
        semiring = get_semiring(semiring_name)
        for kind, right in _KINDS.items():
            for seed in (0, 1):
                a = _operand(layout, _adversarial(semiring, seed, kind, (13, 11)))
                b = _operand(right, _adversarial(semiring, seed + 100, kind, (11, 9)))
                for compute_bloom in (False, True):
                    kwargs = dict(compute_bloom=compute_bloom, inner_offset=3 * seed)
                    (coo, bloom), rec = _recorded(
                        spgemm_local, a, b, semiring, use_scipy=False, **kwargs
                    )
                    want = _per_row_reference(a, b, semiring, **kwargs)
                    what = f"{semiring_name}/{layout}/{kind}/{seed}/bloom={compute_bloom}"
                    _assert_bytes((coo, bloom, _spgemm_counts(rec)), want, what)

    @pytest.mark.parametrize("semiring_name", ["plus_times", "min_plus", "boolean"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_masked_byte_identical(self, semiring_name, layout):
        semiring = get_semiring(semiring_name)
        for seed in range(4):
            a = _operand(layout, _adversarial(semiring, seed, "hotspot", (12, 10)))
            b = _operand("dhb", _adversarial(semiring, seed + 50, "plain", (10, 9)))
            mask = _adversarial(semiring, seed + 99, "empty_rows", (12, 9))
            kwargs = dict(compute_bloom=True, inner_offset=seed)
            (coo, bloom), rec = _recorded(
                spgemm_local_masked, a, b, semiring, CSRMatrix.from_coo(mask), **kwargs
            )
            want = _per_row_reference(a, b, semiring, mask=mask, **kwargs)
            what = f"masked/{semiring_name}/{layout}/{seed}"
            _assert_bytes((coo, bloom, _spgemm_counts(rec)), want, what)


# ----------------------------------------------------------------------
# Algorithm 2 end to end on the reference kernel
# ----------------------------------------------------------------------
def _reference_esc(calls: list, a, b, semiring, *, compute_bloom, inner_offset, mask=None):
    """:func:`_per_row_reference` behind the ESC kernel's private signature."""
    calls.append("masked" if mask is not None else "plain")
    kwargs = dict(compute_bloom=compute_bloom, inner_offset=inner_offset)
    mask = None if mask is None else mask.to_coo()
    coo, bloom, counts = _per_row_reference(a, b, semiring, mask=mask, **kwargs)
    prefix = "spgemm." if mask is None else "spgemm.masked_"
    return coo, bloom, counts[prefix + "terms"], counts[prefix + "rows"]


class TestGeneralModeReplayMatchesReference:
    """A general-mode replay on the ESC kernel == the same on the reference.

    Algorithm 2's Bloom-bit and masked products run once on
    :func:`_per_row_reference`; the ESC kernel must leave the same final
    ``A`` and ``C``, applied counts and comm signature everywhere.
    """

    SEED = 2022
    N_RANKS = 4

    @classmethod
    def _scenario(cls):
        scenario = SCENARIO_GENERATORS["mixed_update_multiply"](seed=cls.SEED)
        steps = [
            dataclasses.replace(s, mode="general") if isinstance(s, SpGEMMStep) else s
            for s in scenario.steps
        ]
        return dataclasses.replace(scenario, name="general_mum", steps=steps)

    @pytest.fixture(scope="class")
    def reference(self):
        calls: list[str] = []

        def kernel(*args, **kwargs):
            return _reference_esc(calls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_KERNELS, "_esc", kernel)
            result = replay(self._scenario(), backend="sim", n_ranks=self.N_RANKS, layout="dhb")
        assert {"plain", "masked"} <= set(calls), "the reference must stand in"
        return result

    def _assert_matches(self, ref, got, *, what: str) -> None:
        for name, r_t, g_t in [("A", ref.final_a, got.final_a), ("C", ref.final_c, got.final_c)]:
            for field, r, g in zip(("rows", "cols", "values"), r_t, g_t):
                assert r.tobytes() == g.tobytes(), f"{what}: {name} {field}"
        assert got.applied_counts == ref.applied_counts, what
        assert got.comm_signature() == ref.comm_signature(), what

    @pytest.mark.parametrize("backend", ["sim", "mpi"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_esc_matches_reference_kernel(self, reference, backend):
        got = replay(self._scenario(), backend=backend, n_ranks=self.N_RANKS, layout="dhb")
        self._assert_matches(reference, got, what=f"esc@{backend}")

    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_esc_matches_reference_across_loopback_worlds(self, reference, world):
        scenario = self._scenario()

        def program(comm_obj, world_rank):
            comm = MPIBackend(self.N_RANKS, comm=comm_obj)
            return replay(scenario, comm=comm, layout="dhb")

        for result in run_spmd(world, program):
            self._assert_matches(reference, result, what=f"esc@world={world}")


class TestPrunedKernelsByteIdentical:
    """Pruned reading == the same kernel on the whole operands, byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(
        pair=_operand_pairs(),
        layouts=st.tuples(st.sampled_from(sorted(LAYOUTS)), st.sampled_from(sorted(LAYOUTS))),
        semiring_name=st.sampled_from(SEMIRINGS),
        compute_bloom=st.booleans(),
        use_scipy=st.sampled_from([None, False]),
        inner_offset=st.integers(0, 70),
    )
    # empty intersection: A only hits row 1, B only fills row 0
    @example(
        pair=((2, 2, 2), [((0, 1), 1.0)], [((0, 0), 2.0), ((0, 1), 3.0)], [((0, 0), 1.0)], [], [0]),
        layouts=("dcsr", "dhb"), semiring_name="plus_times", compute_bloom=False,
        use_scipy=None, inner_offset=0,
    )
    # all-empty right operand
    @example(
        pair=((2, 2, 2), [((0, 0), 1.0), ((1, 1), 0.3)], [], [((0, 0), 1.0)], [1], []),
        layouts=("dhb", "dhb"), semiring_name="plus_times", compute_bloom=True,
        use_scipy=None, inner_offset=63,
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
        use_scipy=None, inner_offset=5,
    )
    # three order-sensitive terms in one output entry, left DHB row permuted
    # by a swap-with-last delete: scipy must see it sorted, Gustavson as stored
    @example(
        pair=_ORDER_SENSITIVE, layouts=("dhb", "dcsr"), semiring_name="plus_times",
        compute_bloom=False, use_scipy=None, inner_offset=0,
    )
    @example(
        pair=_ORDER_SENSITIVE, layouts=("dhb", "dcsr"), semiring_name="plus_times",
        compute_bloom=False, use_scipy=False, inner_offset=0,
    )
    @example(
        pair=_ORDER_SENSITIVE, layouts=("dhb", "dcsr"), semiring_name="plus_times",
        compute_bloom=True, use_scipy=None, inner_offset=9,
    )
    def test_matches_whole_operand_kernels(
        self, pair, layouts, semiring_name, compute_bloom, use_scipy, inner_offset
    ):
        shape, a_cells, b_cells, mask_cells, a_churn, b_churn = pair
        n, k, m = shape
        semiring = get_semiring(semiring_name)
        a = _in_layout(layouts[0], _coo((n, k), a_cells, semiring), a_churn)
        b = _in_layout(layouts[1], _coo((k, m), b_cells, semiring), b_churn)
        mask = CSRMatrix.from_coo(_coo((n, m), mask_cells, semiring))
        a_whole, b_whole = _whole_csr(a, semiring), _whole_csr(b, semiring)
        what = f"{layouts}/{semiring_name}/bloom={compute_bloom}/scipy={use_scipy}"
        kwargs = dict(compute_bloom=compute_bloom, inner_offset=inner_offset)

        (coo, bloom), rec = _recorded(
            spgemm_local, a, b, semiring, use_scipy=use_scipy, **kwargs
        )
        (z, h), rec_masked = _recorded(spgemm_local_masked, a, b, semiring, mask, **kwargs)

        def whole(**mask_kw):
            (w_coo, w_bloom, terms, rows), _ = _recorded(
                _KERNELS._esc, a_whole, b_whole, semiring, **kwargs, **mask_kw
            )
            prefix = "spgemm.masked_" if mask_kw else "spgemm."
            counts = {prefix + "terms": terms, prefix + "rows": rows}
            if not mask_kw:
                counts["spgemm.output_nnz"] = w_coo.nnz
            return w_coo, w_bloom, dict(dict.fromkeys(_COUNTERS, 0), **counts)

        if rec.counters.get("spgemm.scipy_calls"):
            # CSR hands scipy its storage: nothing is pruned on this side
            (w_coo, w_bloom), w_rec = _recorded(
                spgemm_local, CSRMatrix.from_coo(a.to_coo()),
                CSRMatrix.from_coo(b.to_coo()), semiring, use_scipy=True,
            )
            want = (w_coo, w_bloom, _spgemm_counts(w_rec))
        else:
            want = whole()
        _assert_identical((coo, bloom, _spgemm_counts(rec)), want, what)
        _assert_identical(
            (z, h, _spgemm_counts(rec_masked)), whole(mask=mask), "masked/" + what
        )
