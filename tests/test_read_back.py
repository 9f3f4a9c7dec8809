"""The snapshot read, ``DistMatrixBase.to_coo_global``, against the old path.

The old read sorted every block (``block.to_coo()``), mapped each piece to
global coordinates and sorted the concatenation again
(``concatenate().sum_duplicates()``).  It stays here as the oracle: the
one-sort read must return the same rows, columns, values and dtypes, byte
for byte, for every static layout and DHB, every grid size, every semiring
(negative zero included) and every world.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.distributed import DynamicDistMatrix, StaticDistMatrix
from repro.runtime import MPIBackend, ProcessGrid, make_communicator
from repro.runtime.loopback import run_spmd
from repro.semirings import (
    BOOLEAN,
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    PLUS_TIMES,
)
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix

ALL_SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_PLUS, BOOLEAN, MAX_MIN, MAX_TIMES]
LAYOUTS = ("csr", "dcsr", "dhb")
GRID_SIZES = (1, 4, 9, 16)


def _old_read(mat) -> COOMatrix:
    """The read-back before it sorted once: per-block sort, then a global one."""
    local = {}
    for rank, block in mat.blocks.items():
        coo = block.to_coo()
        if coo.nnz == 0:
            continue
        rows, cols = mat.dist.to_global(rank, coo.rows, coo.cols)
        local[rank] = COOMatrix(mat.shape, rows, cols, coo.values, mat.semiring)
    merged = mat.comm.host_merge(local)
    pieces = [merged[rank] for rank in sorted(merged)]
    if not pieces:
        return COOMatrix.empty(mat.shape, mat.semiring)
    return pieces[0].concatenate(*pieces[1:]).sum_duplicates()


def _as_bytes(coo: COOMatrix) -> tuple:
    return (
        coo.shape,
        *((a.dtype.str, a.shape, a.tobytes()) for a in (coo.rows, coo.cols, coo.values)),
    )


def _tuples(shape, nnz, seed, semiring, n_ranks):
    """Distinct random coordinates scattered over the ranks; some values are ±0."""
    rng = np.random.default_rng(seed)
    n, m = shape
    keys = rng.permutation(n * m)[: min(nnz, n * m)]
    rows, cols = np.divmod(keys, m)
    vals = rng.normal(size=keys.size)
    vals[rng.random(keys.size) < 0.1] = -0.0
    vals[rng.random(keys.size) < 0.05] = 0.0
    vals = semiring.coerce(vals)
    return {r: (rows[r::n_ranks], cols[r::n_ranks], vals[r::n_ranks]) for r in range(n_ranks)}


def _build(comm, layout, shape, semiring, seed=0, nnz=None):
    """A matrix of ``layout``; DHB rows are grown in two batches, then a
    fifth of the entries is deleted and re-inserted, so a row's adjacency
    (flat) order is not its sorted order."""
    grid = ProcessGrid(comm.p)
    nnz = shape[0] * shape[1] // 4 if nnz is None else nnz
    tuples = _tuples(shape, nnz, seed, semiring, comm.p)
    if layout != "dhb":
        return StaticDistMatrix.from_tuples(
            comm, grid, shape, tuples, semiring, layout=layout
        )
    first = {r: tuple(a[: a.size // 2] for a in t) for r, t in tuples.items()}
    second = {r: tuple(a[a.size // 2 :] for a in t) for r, t in tuples.items()}
    again = {r: tuple(a[::5] for a in t) for r, t in tuples.items()}
    mat = DynamicDistMatrix.empty(comm, grid, shape, semiring)
    mat.insert_tuples(first, combine="last")
    mat.insert_tuples(second, combine="last")
    mat.delete_tuples(again)
    mat.insert_tuples(again, combine="last")
    return mat


@pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("p", GRID_SIZES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_read_equals_old_path(layout, p, semiring):
    mat = _build(make_communicator("sim", n_ranks=p), layout, (36, 36), semiring, seed=p)
    new = mat.to_coo_global()
    assert _as_bytes(new) == _as_bytes(_old_read(mat))
    assert new.nnz == mat.nnz() > 0


@pytest.mark.parametrize("p", GRID_SIZES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_non_square_read_equals_old_path(layout, p):
    mat = _build(make_communicator("sim", n_ranks=p), layout, (23, 57), PLUS_TIMES, seed=7)
    assert _as_bytes(mat.to_coo_global()) == _as_bytes(_old_read(mat))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_negative_zero_survives_the_read(layout):
    mat = _build(make_communicator("sim", n_ranks=4), layout, (30, 30), PLUS_TIMES)
    vals = mat.to_coo_global().values
    assert np.any((vals == 0) & np.signbit(vals))
    assert np.any((vals == 0) & ~np.signbit(vals))


def test_dhb_rows_are_read_in_adjacency_order():
    """The precondition the DHB cases rely on: flat order is not sorted."""
    mat = _build(make_communicator("sim", n_ranks=1), "dhb", (36, 36), PLUS_TIMES)
    flat = mat.blocks[0].flat_rows()
    keys = np.repeat(flat.row_ids, np.diff(flat.row_ptr)) * 36 + flat.cols
    assert np.any(np.diff(keys) < 0)


@pytest.mark.parametrize("p", (1, 9))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_all_empty_matrix(layout, p):
    mat = _build(make_communicator("sim", n_ranks=p), layout, (20, 31), MIN_PLUS, nnz=0)
    out = mat.to_coo_global()
    assert out.nnz == 0
    assert _as_bytes(out) == _as_bytes(_old_read(mat))
    assert _as_bytes(out) == _as_bytes(COOMatrix.empty((20, 31), MIN_PLUS))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_most_blocks_empty(layout):
    """Entries in one corner only: eight of nine blocks are empty."""
    comm = make_communicator("sim", n_ranks=9)
    shape = (27, 27)
    rows = np.array([0, 0, 3, 5, 8, 2])
    cols = np.array([1, 7, 0, 5, 8, 2])
    vals = np.array([1.5, -0.0, 2.0, -3.0, 4.0, 0.25])
    tuples = {0: (rows, cols, vals)}
    grid = ProcessGrid(9)
    if layout == "dhb":
        mat = DynamicDistMatrix.from_tuples(comm, grid, shape, tuples, combine="last")
    else:
        mat = StaticDistMatrix.from_tuples(comm, grid, shape, tuples, layout=layout)
    assert sum(block.nnz > 0 for block in mat.blocks.values()) == 1
    out = mat.to_coo_global()
    assert _as_bytes(out) == _as_bytes(_old_read(mat))
    order = np.lexsort((cols, rows))
    assert np.array_equal(out.rows, rows[order])
    assert np.array_equal(out.cols, cols[order])
    assert out.values.tobytes() == vals[order].tobytes()


def test_no_block_is_converted_to_coo(monkeypatch):
    """The read takes each block's flat rows; no block sorts itself."""
    mats = [
        _build(make_communicator("sim", n_ranks=4), layout, (24, 24), PLUS_TIMES)
        for layout in LAYOUTS
    ]
    expected = [_as_bytes(_old_read(mat)) for mat in mats]

    def _refuse(self):
        raise AssertionError(f"{type(self).__name__}.to_coo called by the read")

    for cls in (CSRMatrix, DCSRMatrix, DHBMatrix):
        monkeypatch.setattr(cls, "to_coo", _refuse)
    assert [_as_bytes(mat.to_coo_global()) for mat in mats] == expected


@pytest.mark.parametrize("layout", LAYOUTS)
def test_emulated_mpi_reads_what_sim_reads(layout):
    with warnings.catch_warnings():
        # the emulated-mpi backend warns once when mpi4py is absent
        warnings.simplefilter("ignore", RuntimeWarning)
        comm = make_communicator("mpi", n_ranks=4)
    sim = _build(make_communicator("sim", n_ranks=4), layout, (33, 33), MAX_PLUS)
    mpi = _build(comm, layout, (33, 33), MAX_PLUS)
    assert _as_bytes(mpi.to_coo_global()) == _as_bytes(sim.to_coo_global())
    assert _as_bytes(mpi.to_coo_global()) == _as_bytes(_old_read(mpi))


@pytest.mark.parametrize("world", (1, 2, 4))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_loopback_worlds_read_what_sim_reads(layout, world):
    """Partial block mappings: each process holds a share of the blocks,
    and every process receives the whole matrix."""
    shape = (33, 47)
    expected = _as_bytes(
        _build(make_communicator("sim", n_ranks=4), layout, shape, PLUS_TIMES).to_coo_global()
    )

    def program(comm_obj, world_rank):
        mat = _build(MPIBackend(4, comm=comm_obj), layout, shape, PLUS_TIMES)
        return _as_bytes(mat.to_coo_global()), _as_bytes(_old_read(mat))

    for new, old in run_spmd(world, program):
        assert new == old == expected
