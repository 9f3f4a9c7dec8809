"""Plain update steps go straight into the DHB blocks.

A plain insert, value-update or delete step routes its tuples once and
hands every owned block its share (``insert_batch`` / ``delete_batch``);
no update matrix is built.  The oracle is the path that builds one:
``build_update_matrix`` followed by ``add_update`` / ``merge_update`` /
``mask_update``.  Both must leave every block's ``storage()`` equal array
for array, return the same applied count and charge the same bytes and
messages to every category.
"""

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
    build_update_matrix,
    partition_tuples_round_robin,
)
from repro.scenarios import DeleteBatch, InsertBatch, Scenario, ValueUpdateBatch
from repro.scenarios.executors import NativeExecutor
from repro.semirings import MAX_TIMES, MIN_PLUS, PLUS_TIMES
from repro.sparse.dhb import _SCALAR_BATCH, DHBStorage

N = 48
STEPS = {"insert": InsertBatch, "update": ValueUpdateBatch, "delete": DeleteBatch}
SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_TIMES]
SEMIRING_IDS = [sr.name for sr in SEMIRINGS]


def _tuples(rng, count: int, pool: int = N):
    """``count`` tuples over a ``pool``-row corner: small pools repeat coordinates."""
    return (
        rng.integers(0, pool, count),
        rng.integers(0, N, count),
        rng.random(count) + 0.5,
    )


def _executor(p: int, semiring) -> NativeExecutor:
    rng = np.random.default_rng(5)
    scenario = Scenario(
        "plain", (N, N), initial_tuples=_tuples(rng, 600), semiring_name=semiring.name
    )
    executor = NativeExecutor(SimMPI(p), ProcessGrid(p), scenario)
    executor.prepare()
    executor.construct()
    return executor


def _through_update_matrix(a: DynamicDistMatrix, per_rank, kind: str) -> int:
    update = build_update_matrix(
        a.comm,
        a.grid,
        a.dist,
        per_rank,
        a.semiring,
        combine="add" if kind == "insert" else "last",
    )
    apply = {"insert": a.add_update, "update": a.merge_update, "delete": a.mask_update}
    return apply[kind](update)


def _volume(stats) -> dict[str, tuple[int, int]]:
    return {
        name: (tot.bytes, tot.messages)
        for name, tot in stats.categories.items()
        if tot.bytes or tot.messages
    }


def _assert_same_step(direct: NativeExecutor, oracle: NativeExecutor, step) -> None:
    per_rank = step.per_rank(direct.grid.n_ranks)
    since_direct = direct.comm.stats.snapshot()
    since_oracle = oracle.comm.stats.snapshot()
    got = direct.apply(step, per_rank)
    want = _through_update_matrix(oracle.a, per_rank, step.kind)
    assert got == want, step.kind
    assert _volume(direct.comm.stats.diff(since_direct)) == _volume(
        oracle.comm.stats.diff(since_oracle)
    )
    for rank, block in oracle.a.blocks.items():
        mine, theirs = direct.a.blocks[rank].storage(), block.storage()
        for field in DHBStorage._fields:
            assert np.array_equal(getattr(mine, field), getattr(theirs, field)), (
                step.kind,
                rank,
                field,
            )


def _replay(p: int, semiring, steps) -> None:
    direct, oracle = _executor(p, semiring), _executor(p, semiring)
    for seed, (kind, tuples) in enumerate(steps):
        _assert_same_step(direct, oracle, STEPS[kind](*tuples, partition_seed=seed))


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=SEMIRING_IDS)
@pytest.mark.parametrize("p", [1, 4, 9, 16])
def test_plain_steps_equal_the_update_matrix_path(p, semiring):
    rng = np.random.default_rng(p)
    # ~64 tuples a block: past the scalar gear even after duplicates fold
    large = 2 * _SCALAR_BATCH * p
    steps = [
        # duplicates inside one batch, scattered over the ranks
        ("insert", _tuples(rng, 12, pool=3)),
        ("insert", _tuples(rng, large)),
        # value updates of present entries and of new ones, with repeats
        ("update", _tuples(rng, 12, pool=3)),
        ("update", _tuples(rng, large)),
        # deletes of repeated and of absent coordinates
        ("delete", _tuples(rng, 12, pool=3)),
        ("delete", _tuples(rng, large)),
        ("delete", _tuples(rng, large)),
        ("insert", _tuples(rng, large, pool=4)),
    ]
    _replay(p, semiring, steps)


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([1, 4, 9, 16]),
    semiring=st.sampled_from(SEMIRINGS),
    steps=st.lists(
        st.tuples(
            st.sampled_from(sorted(STEPS)),
            st.integers(0, 3 * _SCALAR_BATCH * 4),
            st.integers(1, N),
            st.integers(0, 2**16),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_mixed_step_sequences_equal_the_update_matrix_path(p, semiring, steps):
    _replay(
        p,
        semiring,
        [
            (kind, _tuples(np.random.default_rng(seed), count, pool=pool))
            for kind, count, pool, seed in steps
        ],
    )


def test_delete_tuples_counts_each_present_entry_once():
    executor = _executor(4, PLUS_TIMES)
    a = executor.a
    before = a.nnz()
    coo = a.to_coo_global()
    rows = np.concatenate([coo.rows[:5], coo.rows[:5]])
    cols = np.concatenate([coo.cols[:5], coo.cols[:5]])
    absent = np.argwhere(a.to_dense() == 0)[:3]
    rows = np.concatenate([rows, absent[:, 0]])
    cols = np.concatenate([cols, absent[:, 1]])
    per_rank = partition_tuples_round_robin(rows, cols, np.zeros(rows.size), 4, seed=2)
    assert a.delete_tuples(per_rank) == 5
    assert a.nnz() == before - 5


# ----------------------------------------------------------------------
# tuples held by a rank outside the grid
# ----------------------------------------------------------------------
def _stray_share():
    """Eight tuples dealt to ranks 0-7 for a 4-rank grid."""
    ones = np.ones(8)
    return partition_tuples_round_robin(np.arange(8), np.arange(8), ones, 8, seed=0)


def _entry_points():
    def dynamic(comm, grid):
        return DynamicDistMatrix.empty(comm, grid, (8, 8))

    return {
        "insert_tuples": lambda c, g, t: dynamic(c, g).insert_tuples(t),
        "delete_tuples": lambda c, g, t: dynamic(c, g).delete_tuples(t),
        "build_update_matrix": lambda c, g, t: build_update_matrix(
            c, g, dynamic(c, g).dist, t
        ),
        "static_from_tuples": lambda c, g, t: StaticDistMatrix.from_tuples(
            c, g, (8, 8), t
        ),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_tuples_on_ranks_outside_the_grid_are_refused(entry):
    comm, grid = SimMPI(8), ProcessGrid(4)
    with pytest.raises(ValueError, match=r"ranks \[4, 5, 6, 7\] outside the 4-rank grid"):
        _entry_points()[entry](comm, grid, _stray_share())
    assert comm.stats.total_messages() == 0  # refused before any communication


def test_empty_shares_outside_the_grid_are_harmless():
    comm, grid = SimMPI(8), ProcessGrid(4)
    shares = _stray_share()
    empty = (np.empty(0, dtype=np.int64),) * 2 + (np.empty(0),)
    tuples = {rank: shares[rank] if rank < 4 else empty for rank in shares}
    a = DynamicDistMatrix.empty(comm, grid, (8, 8))
    assert a.insert_tuples(tuples) == 4
