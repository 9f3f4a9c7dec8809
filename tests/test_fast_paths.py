"""Equivalence pins for the vectorised fast paths added with the perf work.

Every fast path keeps a slow oracle alongside it; these tests pin the two
to identical results:

* ``SparseAccumulator.accumulate_scaled_row`` — bulk load into an empty
  accumulator and NumPy-array masks vs. the per-element loop.

(``DHBMatrix.insert_batch`` has one path; ``tests/test_dhb.py`` checks it
against a dict model and its scalar route against its array route.)

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

    def flat_rows(self, rows=None):
        if rows is None:
            self._whole()
        self.rows_read.extend(rows.tolist())
        return super().flat_rows(rows)

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
