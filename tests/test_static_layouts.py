"""The static layout table: one builder per layout, shared by every entry point.

:data:`repro.distributed.dist_matrix.STATIC_LAYOUTS` maps ``csr``, ``dcsr``
and ``dhb`` to a block class and a builder.  ``StaticDistMatrix.empty``,
``from_tuples``, ``from_dynamic``, ``to_dynamic`` and ``transpose_dist``
all build through it, so for every layout, grid size and semiring:

* the matrix holds the tuples it was given (⊕-combined or last write wins),
* its ``layout`` label names the class of every block it holds,
* every block keeps its entries in (row, col) order,
* a ``dhb`` block built straight from deduplicated tuples is storage-for-
  storage the block the old CSR → COO → DHB conversion produced,
* the layout is a local choice: it never changes what is communicated, and
* an unknown layout raises ``ValueError`` before anything is sent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicProduct, ProcessGrid, SimMPI, StaticDistMatrix, UpdateBatch
from repro.core.transpose import transpose_dist
from repro.distributed import decode_block, encode_block
from repro.distributed.dist_matrix import STATIC_LAYOUTS, static_layout
from repro.semirings import PLUS_TIMES
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix

from tests.conftest import dist_from_dense, random_dense, static_from_dense

LAYOUTS = ("csr", "dcsr", "dhb")
BLOCK_CLASSES = {"csr": CSRMatrix, "dcsr": DCSRMatrix, "dhb": DHBMatrix}


def _assert_same_storage(a, b) -> None:
    """Two blocks whose faithful encodings agree array for array."""
    ea, eb = encode_block(a), encode_block(b)
    assert ea.keys() == eb.keys()
    for key in ea:
        assert np.array_equal(np.asarray(ea[key]), np.asarray(eb[key])), key


def _assert_blocks_in_layout(mat: StaticDistMatrix, layout: str) -> None:
    assert mat.layout == layout
    assert mat.blocks
    for rank, block in mat.blocks.items():
        assert type(block) is BLOCK_CLASSES[layout]
        assert block.shape == mat.dist.block_shape_of_rank(rank)
        coo = block.to_coo()
        keys = coo.rows * np.int64(coo.shape[1]) + coo.cols
        assert np.all(np.diff(keys) > 0), "entries not in strict (row, col) order"


def _duplicated_tuples(n: int, m: int, p: int, semiring, seed: int):
    """Per-rank tuples with repeated coordinates, and the dense result of
    combining them with ⊕ (``add``) and by last write (``last``).

    Both copies of a repeated coordinate start on the same rank, first
    half before second half, so "last" is well defined on any grid."""
    rng = np.random.default_rng(seed)
    half = 3 * (n + m)
    rows, cols = np.divmod(np.tile(rng.choice(n * m, half, replace=False), 2), m)
    vals = rng.random(2 * half) + 0.25
    owner = np.tile(np.arange(half) % p, 2)
    per_rank = {
        r: (rows[owner == r], cols[owner == r], vals[owner == r]) for r in range(p)
    }
    # repeats never cross ranks, so only the order within a rank matters
    order = np.concatenate([np.flatnonzero(owner == r) for r in range(p)])
    full = COOMatrix((n, m), rows[order], cols[order], vals[order], semiring=semiring)
    return per_rank, {
        "add": full.sum_duplicates().to_dense(),
        "last": full.last_write_wins().to_dense(),
    }


# ----------------------------------------------------------------------
# the table itself
# ----------------------------------------------------------------------
def test_table_lists_the_three_static_layouts():
    assert tuple(STATIC_LAYOUTS) == LAYOUTS
    for layout in LAYOUTS:
        assert static_layout(layout)[0] is BLOCK_CLASSES[layout]


@pytest.mark.parametrize("layout", ["coo", "bogus", "CSR", ""])
def test_unknown_layout_names_the_table(layout):
    with pytest.raises(ValueError, match=r"\('csr', 'dcsr', 'dhb'\)"):
        static_layout(layout)


@pytest.mark.parametrize(
    "entry",
    ["init", "empty", "from_tuples", "from_dynamic", "to_static", "transpose"],
)
def test_every_entry_point_rejects_an_unknown_layout_without_traffic(entry):
    comm, grid = SimMPI(4), ProcessGrid(4)
    dyn = dist_from_dense(comm, grid, random_dense(8, 8, 0.3, seed=1))
    before = comm.stats.as_dict()
    calls = {
        "init": lambda: StaticDistMatrix(
            comm, grid, dyn.dist, PLUS_TIMES, {}, layout="coo"
        ),
        "empty": lambda: StaticDistMatrix.empty(comm, grid, (8, 8), layout="coo"),
        "from_tuples": lambda: StaticDistMatrix.from_tuples(
            comm, grid, (8, 8), {}, PLUS_TIMES, layout="coo"
        ),
        "from_dynamic": lambda: StaticDistMatrix.from_dynamic(dyn, layout="coo"),
        "to_static": lambda: dyn.to_static(layout="coo"),
        "transpose": lambda: transpose_dist(dyn, layout="coo"),
    }
    with pytest.raises(ValueError, match="coo"):
        calls[entry]()
    assert comm.stats.as_dict() == before


# ----------------------------------------------------------------------
# every entry point builds the layout it claims
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", LAYOUTS)
def test_empty_holds_empty_blocks_of_its_layout(any_grid, layout):
    comm, grid = any_grid
    mat = StaticDistMatrix.empty(comm, grid, (13, 7), layout=layout)
    _assert_blocks_in_layout(mat, layout)
    assert mat.nnz() == 0
    assert set(mat.blocks) == set(grid.all_ranks())


@pytest.mark.parametrize("combine", ["add", "last"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_from_tuples_combines_and_builds_its_layout(any_grid, semiring, layout, combine):
    comm, grid = any_grid
    per_rank, expected = _duplicated_tuples(15, 11, grid.n_ranks, semiring, seed=grid.n_ranks)
    mat = StaticDistMatrix.from_tuples(
        comm, grid, (15, 11), per_rank, semiring, layout=layout, combine=combine
    )
    _assert_blocks_in_layout(mat, layout)
    if combine == "last":
        assert np.array_equal(mat.to_dense(), expected["last"])
    else:  # ⊕ over floats rounds by summation order
        assert np.allclose(mat.to_dense(), expected["add"], rtol=0, atol=1e-12)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_from_dynamic_builds_its_layout(any_grid, semiring, layout):
    comm, grid = any_grid
    dense = random_dense(17, 12, 0.25, semiring, seed=grid.n_ranks + 2)
    dyn = dist_from_dense(comm, grid, dense, semiring)
    static = dyn.to_static(layout=layout)
    _assert_blocks_in_layout(static, layout)
    assert np.array_equal(static.to_dense(), dense)
    # the same tuples routed afresh give the same blocks, entry for entry
    routed = static_from_dense(comm, grid, dense, semiring, layout=layout)
    for rank, block in static.blocks.items():
        a, b = block.to_coo(), routed.blocks[rank].to_coo()
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_to_dynamic_round_trips(any_grid, semiring, layout):
    comm, grid = any_grid
    dense = random_dense(14, 19, 0.25, semiring, seed=grid.n_ranks + 3)
    static = static_from_dense(comm, grid, dense, semiring, layout=layout)
    dyn = static.to_dynamic()
    assert all(type(block) is DHBMatrix for block in dyn.blocks.values())
    assert np.array_equal(dyn.to_dense(), dense)
    assert np.array_equal(StaticDistMatrix.from_dynamic(dyn, layout=layout).to_dense(), dense)
    if layout == "dhb":
        for rank, block in dyn.blocks.items():
            _assert_same_storage(block, static.blocks[rank])


@pytest.mark.parametrize("layout", LAYOUTS)
def test_copy_keeps_layout_and_storage(any_grid, layout):
    comm, grid = any_grid
    static = static_from_dense(
        comm, grid, random_dense(10, 10, 0.3, seed=grid.n_ranks), layout=layout
    )
    clone = static.copy()
    _assert_blocks_in_layout(clone, layout)
    for rank, block in static.blocks.items():
        assert clone.blocks[rank] is not block
        _assert_same_storage(clone.blocks[rank], block)


@pytest.mark.parametrize("layout", LAYOUTS)
def test_codec_round_trips_every_block(any_grid, layout):
    comm, grid = any_grid
    static = static_from_dense(
        comm, grid, random_dense(16, 9, 0.3, seed=grid.n_ranks + 4), layout=layout
    )
    for block in static.blocks.values():
        decoded = decode_block(encode_block(block))
        assert type(decoded) is type(block)
        _assert_same_storage(decoded, block)


# ----------------------------------------------------------------------
# transpose: any source, any target layout, the same traffic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", ["dynamic", *LAYOUTS])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_transpose_builds_its_layout(any_grid, layout, source):
    comm, grid = any_grid
    dense = random_dense(13, 8, 0.3, seed=grid.n_ranks + 5)
    if source == "dynamic":
        mat = dist_from_dense(comm, grid, dense)
    else:
        mat = static_from_dense(comm, grid, dense, layout=source)
    t = transpose_dist(mat, layout=layout)
    _assert_blocks_in_layout(t, layout)
    assert t.shape == (8, 13)
    assert np.array_equal(t.to_dense(), dense.T)


@pytest.mark.parametrize("p", [1, 4, 9, 16])
def test_transpose_traffic_does_not_depend_on_the_layout(p):
    dense = random_dense(21, 16, 0.3, seed=p)
    signatures = []
    for layout in LAYOUTS:
        comm, grid = SimMPI(p), ProcessGrid(p)
        mat = dist_from_dense(comm, grid, dense)
        before = comm.stats.snapshot()
        transpose_dist(mat, layout=layout)
        delta = comm.stats.diff(before)
        signatures.append(
            {name: (tot.messages, tot.bytes) for name, tot in delta.categories.items()}
        )
    assert signatures[0] == signatures[1] == signatures[2]


# ----------------------------------------------------------------------
# a dhb block built directly equals the old CSR -> COO -> DHB conversion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("combine", ["add", "last"])
@pytest.mark.parametrize(
    "shape,nnz",
    [((1, 1), 1), ((1, 40), 30), ((40, 1), 30), ((9, 9), 0), ((9, 9), 120),
     ((64, 64), 20), ((33, 17), 200), ((200, 200), 400)],
    ids=["1x1", "one-row", "one-col", "empty", "dense", "hypersparse", "rect", "large"],
)
def test_direct_dhb_build_matches_the_csr_detour(semiring, shape, nnz, combine):
    rng = np.random.default_rng(nnz + shape[0])
    coo = COOMatrix(
        shape,
        rng.integers(0, shape[0], nnz),
        rng.integers(0, shape[1], nnz),
        rng.random(nnz) + 0.25,
        semiring=semiring,
    )
    deduped = coo.sum_duplicates() if combine == "add" else coo.last_write_wins()
    # shuffled: the builder must not rely on the order it is handed
    order = rng.permutation(deduped.nnz)
    shuffled = COOMatrix(
        shape, deduped.rows[order], deduped.cols[order], deduped.values[order],
        semiring=semiring,
    )
    detour = DHBMatrix.from_coo(
        CSRMatrix.from_coo(deduped, dedup=False).to_coo(), combine_duplicates=False
    )
    _, build = static_layout("dhb")
    _assert_same_storage(build(shuffled), detour)
    _assert_same_storage(build(deduped), detour)


# ----------------------------------------------------------------------
# Algorithm 1 against a static right operand in each layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout", LAYOUTS)
def test_algebraic_product_over_each_static_layout(any_grid, layout):
    comm, grid = any_grid
    n, p = 14, grid.n_ranks
    a0 = random_dense(n, n, 0.15, seed=p + 6)
    b0 = random_dense(n, n, 0.2, seed=p + 7)
    b = static_from_dense(comm, grid, b0, layout=layout)
    prod = DynamicProduct(comm, grid, dist_from_dense(comm, grid, a0), b)
    current = a0.copy()
    for step in range(2):
        delta = random_dense(n, n, 0.05, seed=20 + step)
        rows, cols = np.nonzero(delta)
        batch = UpdateBatch.from_global((n, n), rows, cols, delta[rows, cols], p, seed=step)
        prod.apply_updates(a_batch=batch)
        current = current + delta
        assert np.allclose(prod.c.to_dense(), current @ b0)
    _assert_blocks_in_layout(prod.b, layout)
