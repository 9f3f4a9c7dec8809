"""Pins for the vectorised fast paths added with the perf work.

The sparse-accumulator oracle must keep agreeing with the expand–sort–
compress kernel it checks.  (``DHBMatrix.insert_batch`` has one path;
``tests/test_dhb.py`` checks it against a dict model and its scalar route
against its array route.)

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
from repro.semirings import MAX_MIN, MIN_PLUS, PLUS_TIMES
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix
from repro.sparse.spa import SparseAccumulator
from repro.sparse.spgemm_local import spgemm_local, spgemm_rowwise_spa


# ----------------------------------------------------------------------
# SparseAccumulator
# ----------------------------------------------------------------------
def test_spa_accumulates_a_row_on_top_of_another():
    # Scattering a second row on top of a loaded one exercises slot lookups.
    spa = SparseAccumulator(PLUS_TIMES)
    spa.accumulate_scaled_row(1.0, np.array([5, 1, 5]), np.array([1.0, 2.0, 3.0]))
    spa.accumulate_scaled_row(1.0, np.array([1, 9]), np.array([10.0, 20.0]))
    cols, vals, _ = spa.emit()
    assert cols.tolist() == [1, 5, 9]
    assert vals.tolist() == [12.0, 4.0, 20.0]
    assert spa.get(5) == 4.0
    assert spa.contains(9)


@pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, MAX_MIN], ids=lambda s: s.name)
def test_spa_folds_duplicated_columns_like_the_kernel(semiring):
    # 12 scaled rows of 5 columns each: 60 terms onto 9 output columns
    for seed in range(5):
        rng = np.random.default_rng(seed)
        b_cols = [np.sort(rng.choice(9, size=5, replace=False)) for _ in range(12)]
        b_vals = [rng.random(5) + 0.1 for _ in range(12)]
        a_vals = rng.random(12) + 0.1
        spa = SparseAccumulator(semiring)
        for k, (cols, vals) in enumerate(zip(b_cols, b_vals)):
            spa.accumulate_scaled_row(a_vals[k], cols, vals, bloom_bit=1 << k)
        cols, vals, bits = spa.emit()

        a = COOMatrix((1, 12), np.zeros(12, np.int64), np.arange(12), a_vals, semiring)
        b = COOMatrix(
            (12, 9), np.repeat(np.arange(12), 5), np.concatenate(b_cols),
            np.concatenate(b_vals), semiring,
        )
        c, bloom = spgemm_local(a, b, semiring, compute_bloom=True)
        assert np.array_equal(c.cols, cols)
        assert np.array_equal(bloom.to_arrays()[2], bits)
        if semiring is PLUS_TIMES:
            # the SPA folds left to right; the kernel's reduceat may pair terms
            assert np.allclose(c.values, vals, rtol=1e-12)
        else:
            assert c.values.tobytes() == vals.tobytes()


def test_spa_oracle_spgemm_still_matches_vectorised_kernel():
    rng = np.random.default_rng(11)
    a = (rng.random((12, 9)) < 0.3) * rng.random((12, 9))
    b = (rng.random((9, 14)) < 0.3) * rng.random((9, 14))
    a_csr = CSRMatrix.from_dense(a, PLUS_TIMES)
    b_csr = CSRMatrix.from_dense(b, PLUS_TIMES)
    fast, _ = spgemm_local(a_csr, b_csr, PLUS_TIMES)
    oracle = spgemm_rowwise_spa(a_csr, b_csr, PLUS_TIMES)
    assert np.array_equal(fast.sort().rows, oracle.sort().rows)
    assert np.array_equal(fast.sort().cols, oracle.sort().cols)
    assert np.allclose(fast.sort().values, oracle.sort().values)


# ----------------------------------------------------------------------
# local work scales with the update (counted, not timed)
# ----------------------------------------------------------------------
class _SpyDHB(DHBMatrix):
    """A DHB block that records row reads and refuses to be read whole.

    ``whole_reads`` is how many flat gathers of every row it allows;
    conversions it always refuses.
    """

    def __init__(self, coo: COOMatrix, whole_reads: int = 0) -> None:
        super().__init__(coo.shape, coo.semiring)
        self.insert_batch(coo.rows, coo.cols, coo.values)
        self.rows_read: list[int] = []
        self.whole_reads = whole_reads

    def flat_rows(self, rows=None):
        if rows is None:
            if self.whole_reads == 0:
                self._whole()
            self.whole_reads -= 1
        else:
            self.rows_read.extend(rows.tolist())
        return super().flat_rows(rows)

    def _whole(self, *_args, **_kwargs):
        raise AssertionError("the whole DHB block was read")

    to_coo = to_csr = _whole


def _random_coo(rng, shape, nnz, semiring=PLUS_TIMES) -> COOMatrix:
    n, m = shape
    return COOMatrix(
        shape, rng.integers(0, n, nnz), rng.integers(0, m, nnz), rng.random(nnz) + 0.5, semiring
    ).sum_duplicates()


def test_hypersparse_left_reads_only_the_rows_it_selects():
    rng = np.random.default_rng(11)
    big = _random_coo(rng, (300, 300), 4000)
    update = DCSRMatrix.from_coo(_random_coo(rng, (300, 300), 12))
    spy = _SpyDHB(big)
    result, _ = spgemm_local(update, spy, PLUS_TIMES)
    selected = np.unique(update.indices)
    # one gather of every selected row, each read once
    assert sorted(spy.rows_read) == selected.tolist()
    oracle, _ = spgemm_local(update, CSRMatrix.from_coo(big), PLUS_TIMES)
    assert result.values.tobytes() == oracle.values.tobytes()
    assert np.array_equal(result.rows, oracle.rows) and np.array_equal(result.cols, oracle.cols)


def test_hypersparse_right_keeps_only_the_live_left_entries(monkeypatch):
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
    # the filter's one gather is the only whole read the spy allows, and it
    # refuses conversions, so only the filter's survivors can feed the kernel
    spy = _SpyDHB(big, whole_reads=1)
    result, _ = spgemm_local(spy, update, PLUS_TIMES)
    assert survivors == [live]
    assert spy.whole_reads == 0
    oracle, _ = spgemm_local(DHBMatrix.from_coo(big), update, PLUS_TIMES)
    assert np.array_equal(result.rows, oracle.rows) and np.array_equal(result.cols, oracle.cols)
    assert np.allclose(result.values, oracle.values, rtol=1e-12)


def test_triangle_insert_never_converts_a_whole_block(monkeypatch):
    n = 2048
    src, dst = erdos_renyi_edges(n, 10_000, seed=7)
    comm, grid = SimMPI(4), ProcessGrid(4)
    counter = DynamicTriangleCounter(comm, grid, n, src, dst)
    whole: list[str] = []
    for name in ("to_csr", "to_coo"):
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
