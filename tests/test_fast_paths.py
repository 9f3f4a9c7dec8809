"""Equivalence pins for the vectorised fast paths added with the perf work.

Every fast path keeps a slow oracle alongside it; these tests pin the two
to identical results:

* ``SparseAccumulator.accumulate_scaled_row`` — bulk load into an empty
  accumulator and NumPy-array masks vs. the per-element loop,
* ``DHBMatrix.insert_batch`` — ``strategy="vectorized"`` vs.
  ``strategy="per_element"`` (and the ``"auto"`` dispatch) across combine
  modes, including hash-index integrity after follow-up point operations.

The last section pins, by counting and never by timing, that a local
multiply reads its big operand in proportion to the update: only the rows
the hypersparse left operand selects, only the left entries that meet a
non-empty row of a hypersparse right operand, never a whole DHB block.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.apps import DynamicTriangleCounter
from repro.graphs import erdos_renyi_edges
from repro.runtime import ProcessGrid, SimMPI
from repro.semirings import MIN_PLUS, PLUS_TIMES
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix
from repro.sparse.spa import SparseAccumulator
from repro.sparse.spgemm_local import spgemm_local, spgemm_rowwise_spa


# ----------------------------------------------------------------------
# SparseAccumulator
# ----------------------------------------------------------------------
def _loop_oracle(semiring, scale, cols, vals, bloom_bit=0, allowed=None):
    """Per-element reference: the pre-fast-path accumulate loop."""
    spa = SparseAccumulator(semiring)
    scaled = semiring.times(scale, vals)
    for c, v in zip(cols.tolist(), scaled):
        if allowed is None or c in allowed:
            spa.accumulate(c, v, bloom_bit)
    return spa


@pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS])
def test_spa_bulk_load_matches_loop(semiring):
    rng = np.random.default_rng(3)
    cols = rng.integers(0, 40, 200)  # heavy duplication
    vals = rng.random(200)
    fast = SparseAccumulator(semiring)
    fast.accumulate_scaled_row(2.0, cols, vals, bloom_bit=4)
    oracle = _loop_oracle(semiring, 2.0, cols, vals, bloom_bit=4)
    fc, fv, fb = fast.emit()
    oc, ov, ob = oracle.emit()
    assert np.array_equal(fc, oc)
    # columns and bloom bits are exact; values may differ in the last bit
    # because ufunc.reduceat is free to reassociate the segment sum
    assert np.allclose(fv, ov, rtol=1e-12)
    assert np.array_equal(fb, ob)


def test_spa_array_mask_matches_set_mask():
    rng = np.random.default_rng(5)
    cols = rng.integers(0, 64, 120)
    vals = rng.random(120)
    allowed_arr = np.unique(rng.integers(0, 64, 20))
    via_array = SparseAccumulator(PLUS_TIMES)
    via_array.accumulate_scaled_row(1.5, cols, vals, allowed=allowed_arr)
    via_set = _loop_oracle(
        PLUS_TIMES, 1.5, cols, vals, allowed={int(c) for c in allowed_arr}
    )
    ac, av, _ = via_array.emit()
    sc, sv, _ = via_set.emit()
    assert np.array_equal(ac, sc)
    assert np.allclose(av, sv, rtol=1e-12)


def test_spa_accumulate_on_top_of_bulk_load():
    # The fast path must leave a consistent hash index behind: scattering a
    # second row on top of a bulk-loaded one exercises slot lookups.
    spa = SparseAccumulator(PLUS_TIMES)
    spa.accumulate_scaled_row(1.0, np.array([5, 1, 5]), np.array([1.0, 2.0, 3.0]))
    spa.accumulate_scaled_row(1.0, np.array([1, 9]), np.array([10.0, 20.0]))
    cols, vals, _ = spa.emit()
    assert cols.tolist() == [1, 5, 9]
    assert vals.tolist() == [12.0, 4.0, 20.0]
    assert spa.get(5) == 4.0
    assert spa.contains(9)


def test_spa_oracle_spgemm_still_matches_vectorised_kernel():
    rng = np.random.default_rng(11)
    a = (rng.random((12, 9)) < 0.3) * rng.random((12, 9))
    b = (rng.random((9, 14)) < 0.3) * rng.random((9, 14))
    a_csr = CSRMatrix.from_dense(a, PLUS_TIMES)
    b_csr = CSRMatrix.from_dense(b, PLUS_TIMES)
    fast, _ = spgemm_local(a_csr, b_csr, PLUS_TIMES, use_scipy=False)
    oracle = spgemm_rowwise_spa(a_csr, b_csr, PLUS_TIMES)
    assert np.array_equal(fast.sort().rows, oracle.sort().rows)
    assert np.array_equal(fast.sort().cols, oracle.sort().cols)
    assert np.allclose(fast.sort().values, oracle.sort().values)


# ----------------------------------------------------------------------
# DHB insert strategies
# ----------------------------------------------------------------------
def _random_batch(rng, n, size):
    return (
        rng.integers(0, n, size),
        rng.integers(0, n, size),
        rng.random(size),
    )


def _as_canonical(matrix: DHBMatrix):
    coo = matrix.to_coo()
    return coo.rows, coo.cols, coo.values


@pytest.mark.parametrize("combine_mode", ["add", "overwrite", "custom"])
@pytest.mark.parametrize("preload", [0, 300])
def test_dhb_strategies_equivalent(combine_mode, preload):
    n = 64
    semiring = PLUS_TIMES
    combine = {
        "add": semiring.plus,
        "overwrite": None,
        "custom": lambda old, new: old - new,
    }[combine_mode]
    results = {}
    for strategy in ("per_element", "vectorized", "auto"):
        rng = np.random.default_rng(7)
        matrix = DHBMatrix((n, n), semiring)
        if preload:
            matrix.insert_batch(*_random_batch(rng, n, preload), combine=semiring.plus)
        created = 0
        for _ in range(3):
            created += matrix.insert_batch(
                *_random_batch(rng, n, 150), combine=combine, strategy=strategy
            )
        results[strategy] = (created, matrix.nnz, _as_canonical(matrix))
    ref_created, ref_nnz, (ref_rows, ref_cols, ref_vals) = results["per_element"]
    for strategy in ("vectorized", "auto"):
        created, nnz, (rows, cols, vals) = results[strategy]
        assert created == ref_created
        assert nnz == ref_nnz
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)
        # values may differ in the last bit: reduceat-based duplicate
        # merging is free to reassociate the segment sum
        assert np.allclose(vals, ref_vals, rtol=1e-12)


def test_dhb_vectorized_leaves_consistent_index():
    # Point operations after a vectorised batch exercise the per-row hash
    # index (lazy for bulk-loaded rows) and the swap-with-last deletion.
    rng = np.random.default_rng(13)
    matrix = DHBMatrix((32, 32))
    rows, cols, vals = _random_batch(rng, 32, 400)
    matrix.insert_batch(rows, cols, vals, combine=None, strategy="vectorized")
    reference = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        reference[(i, j)] = v  # last write wins
    assert matrix.nnz == len(reference)
    for (i, j), v in list(reference.items())[:50]:
        assert matrix.get(i, j) == v
    # delete half the entries, then reinsert some
    deleted = 0
    for (i, j) in list(reference)[::2]:
        assert matrix.delete(i, j)
        del reference[(i, j)]
        deleted += 1
    assert deleted > 0
    assert matrix.nnz == len(reference)
    assert matrix.insert(3, 3, 42.0) == ((3, 3) not in reference)
    assert matrix.get(3, 3) == 42.0


def test_dhb_strategy_argument_validated():
    matrix = DHBMatrix((4, 4))
    with pytest.raises(ValueError):
        matrix.insert_batch([0], [0], [1.0], strategy="warp-speed")


def test_dhb_vectorized_handles_empty_and_single():
    matrix = DHBMatrix((8, 8))
    assert matrix.insert_batch([], [], [], strategy="vectorized") == 0
    assert matrix.insert_batch([2], [3], [1.5], strategy="vectorized") == 1
    assert matrix.get(2, 3) == 1.5


# ----------------------------------------------------------------------
# local work scales with the update (counted, not timed)
# ----------------------------------------------------------------------
class _SpyDHB(DHBMatrix):
    """A DHB block that records row reads and refuses to be read whole."""

    def __init__(self, coo: COOMatrix) -> None:
        super().__init__(coo.shape, coo.semiring)
        self.insert_batch(coo.rows, coo.cols, coo.values)
        self.rows_read: list[int] = []

    def row_arrays(self, i):
        self.rows_read.append(int(i))
        return super().row_arrays(i)

    def _whole(self, *_args, **_kwargs):
        raise AssertionError("the whole DHB block was read")

    to_coo = to_csr = to_dcsr = iter_rows = _whole


def _random_coo(rng, shape, nnz, semiring=PLUS_TIMES) -> COOMatrix:
    n, m = shape
    return COOMatrix(
        shape, rng.integers(0, n, nnz), rng.integers(0, m, nnz), rng.random(nnz) + 0.5, semiring
    ).sum_duplicates()


@pytest.mark.parametrize("use_scipy", [None, False], ids=["scipy", "rowwise"])
def test_hypersparse_left_reads_only_the_selected_rows(use_scipy):
    rng = np.random.default_rng(11)
    big = _random_coo(rng, (300, 300), 4000)
    update = DCSRMatrix.from_coo(_random_coo(rng, (300, 300), 12))
    spy = _SpyDHB(big)
    result, _ = spgemm_local(update, spy, PLUS_TIMES, use_scipy=use_scipy)
    selected = np.unique(update.indices)
    assert set(spy.rows_read) <= set(selected.tolist())
    # scipy gathers every selected row once; Gustavson reads one per entry
    assert len(spy.rows_read) <= (selected.size if use_scipy is None else update.nnz)
    oracle, _ = spgemm_local(update, CSRMatrix.from_coo(big), PLUS_TIMES, use_scipy=use_scipy)
    assert result.values.tobytes() == oracle.values.tobytes()
    assert np.array_equal(result.rows, oracle.rows) and np.array_equal(result.cols, oracle.cols)


@pytest.mark.parametrize("use_scipy", [None, False], ids=["scipy", "rowwise"])
def test_hypersparse_right_keeps_only_the_live_left_entries(use_scipy, monkeypatch):
    rng = np.random.default_rng(13)
    big = _random_coo(rng, (300, 300), 4000)
    update = DCSRMatrix.from_coo(_random_coo(rng, (300, 300), 12))
    live = int(np.isin(big.cols, update.nz_rows).sum())
    assert 0 < live < big.nnz // 10

    # the module: ``repro.sparse.spgemm_local`` the attribute is the function
    kernels = sys.modules["repro.sparse.spgemm_local"]
    survivors: list[int] = []
    live_entries = kernels._live_entries

    def recording(a, b, semiring):
        out = live_entries(a, b, semiring)
        survivors.append(out.nnz)
        return out

    monkeypatch.setattr(kernels, "_live_entries", recording)
    # the spy refuses whole-block conversions, so only the filter can feed scipy
    result, _ = spgemm_local(_SpyDHB(big), update, PLUS_TIMES, use_scipy=use_scipy)
    assert survivors == [live]
    oracle, _ = spgemm_local(DHBMatrix.from_coo(big), update, PLUS_TIMES, use_scipy=False)
    assert np.array_equal(result.rows, oracle.rows) and np.array_equal(result.cols, oracle.cols)
    assert np.allclose(result.values, oracle.values, rtol=1e-12)


def test_triangle_insert_never_converts_a_whole_block(monkeypatch):
    n = 2048
    src, dst = erdos_renyi_edges(n, 10_000, seed=7)
    comm, grid = SimMPI(4), ProcessGrid(4)
    counter = DynamicTriangleCounter(comm, grid, n, src, dst)
    whole: list[str] = []
    for name in ("to_csr", "to_coo", "to_dcsr"):
        original = getattr(DHBMatrix, name)

        def counting(self, _original=original, _name=name):
            whole.append(_name)
            return _original(self)

        monkeypatch.setattr(DHBMatrix, name, counting)
    rng = np.random.default_rng(7)
    inserted = counter.insert_edges(rng.integers(0, n, 8), rng.integers(0, n, 8), seed=1)
    assert inserted > 0
    assert whole == []
    monkeypatch.undo()
    assert counter.verify()
