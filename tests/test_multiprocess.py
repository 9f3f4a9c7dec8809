"""Multi-process (world > 1) execution of the MPI backend.

The loopback world (``repro.runtime.loopback``) runs each MPI process on a
thread behind the mpi4py communicator surface, with every payload pickled
across the "wire" — so these tests exercise the real multi-process code
paths (partial block mappings, cross-process collective merges, idle
processes) without an MPI installation, and double as a serialisation
check for every payload type the orchestration layer communicates.

When mpi4py *is* installed and the suite runs under ``mpiexec -n p``, the
same assertions additionally run against the genuine ``COMM_WORLD`` (see
``tests/test_scenarios_differential.py`` for the full differential matrix).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import DynamicProduct, compute_cstar, summa_spgemm
from repro.core.collectives import bloom_reduce_to_root, sparse_reduce_to_root
from repro.distributed import DynamicDistMatrix, StaticDistMatrix, UpdateBatch
from repro.runtime import (
    MPIBackend,
    ProcessGrid,
    SimMPI,
    available_partitioners,
    make_partitioner,
)
from repro.runtime.loopback import LoopbackWorld, run_spmd
from repro.semirings import MIN_PLUS, PLUS_TIMES
from repro.sparse import BloomFilterMatrix, COOMatrix

# world 6 oversubscribes the 4 logical ranks: two processes idle, which is
# exactly the configuration the leg exists to exercise (the construction
# warning is expected; the filter must be installed at collection level —
# warnings.catch_warnings is not safe inside the loopback worker threads)
pytestmark = pytest.mark.filterwarnings(
    "ignore:MPI world of 6 processes:RuntimeWarning"
)

WORLD_SIZES = (1, 2, 4, 6)


def _comm_volume(comm) -> dict[str, tuple[int, int]]:
    """Global per-category (messages, bytes) of a communicator's stats."""
    stats = comm.host_fold(comm.stats, lambda a, b: a.merge(b))
    return {
        name: (tot.messages, tot.bytes)
        for name, tot in sorted(stats.categories.items())
        if tot.messages or tot.bytes
    }


def _spmd(world_size: int, program):
    """Run ``program(backend_comm)`` on every process of a loopback world."""

    def _wrapped(comm_obj, world_rank):
        return program(MPIBackend(4, comm=comm_obj))

    return run_spmd(world_size, _wrapped)


def _random_tuples(n: int, nnz: int, seed: int, n_ranks: int = 4):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, nnz)
    cols = rng.integers(0, n, nnz)
    vals = rng.uniform(0.5, 2.0, nnz)
    return {r: (rows[r::n_ranks], cols[r::n_ranks], vals[r::n_ranks]) for r in range(n_ranks)}


# ----------------------------------------------------------------------
# ownership & control plane
# ----------------------------------------------------------------------
class TestOwnership:
    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_round_robin_ownership_partitions_ranks(self, world):
        def program(comm):
            return comm.owned_ranks()

        results = _spmd(world, program)
        seen = sorted(r for owned in results for r in owned)
        assert seen == list(range(4))  # disjoint + complete
        for world_rank, owned in enumerate(results):
            assert owned == [r for r in range(4) if r % world == world_rank]

    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_host_merge_unions_partial_mappings(self, world):
        def program(comm):
            partial = {r: r * 10 for r in comm.owned_ranks()}
            return comm.host_merge(partial)

        for merged in _spmd(world, program):
            assert merged == {0: 0, 1: 10, 2: 20, 3: 30}

    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_host_fold_sums_across_processes(self, world):
        def program(comm):
            return comm.host_fold(len(comm.owned_ranks()), lambda x, y: x + y)

        assert all(total == 4 for total in _spmd(world, program))

    @pytest.mark.parametrize("world", (2, 3, 4, 6))
    @pytest.mark.parametrize("name", available_partitioners())
    def test_every_partitioner_excludes_idle_processes(self, world, name):
        """Satellite of the placement work: whatever the strategy, the
        owned-rank sets must partition the logical ranks and surplus
        processes of an oversubscribed world must own nothing."""

        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(4, comm=comm_obj)
            comm.set_placement(
                make_partitioner(name).placement(4, comm.world_size)
            )
            owned = comm.owned_ranks()
            assert owned == comm.owned_ranks(list(range(4)))
            return world_rank, owned, comm.placement()

        results = run_spmd(world, wrapped)
        seen = sorted(r for _, owned, _ in results for r in owned)
        assert seen == list(range(4))  # disjoint + complete
        active = min(world, 4)
        reference = results[0][2]
        for world_rank, owned, placement in results:
            assert placement == reference  # SPMD agreement
            assert all(0 <= proc < active for proc in placement.values())
            if world_rank >= active:
                assert owned == []

    def test_simulator_owns_everything(self):
        comm = SimMPI(4)
        assert comm.owned_ranks() == [0, 1, 2, 3]
        assert comm.owned_ranks([2, 0]) == [2, 0]
        assert comm.host_merge({1: "x"}) == {1: "x"}
        assert comm.host_fold(7, lambda x, y: x + y) == 7


# ----------------------------------------------------------------------
# collectives with partial per-process mappings
# ----------------------------------------------------------------------
class TestPartialCollectives:
    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_alltoallv_merges_partial_sendbufs(self, world):
        def program(comm):
            sendbufs = {
                src: {dst: np.full(4, 10 * src + dst) for dst in range(4)}
                for src in comm.owned_ranks()
            }
            recv = comm.alltoallv(sendbufs)
            return {
                dst: {src: arr.tolist() for src, arr in inner.items()}
                for dst, inner in recv.items()
            }, _comm_volume(comm)

        ref_recv, ref_volume = None, None
        for recv, volume in _spmd(world, program):
            merged_keys = sorted(recv)
            for dst in merged_keys:
                assert recv[dst] == {
                    src: [10 * src + dst] * 4 for src in range(4)
                }
            if ref_volume is None:
                ref_volume = volume
            assert volume == ref_volume
        # volume identical to the simulator's
        sim = SimMPI(4)
        sim.alltoallv(
            {src: {dst: np.full(4, 10 * src + dst) for dst in range(4)} for src in range(4)}
        )
        assert ref_volume == _comm_volume(sim)

    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_bcast_gather_exchange_volume_matches_simulator(self, world):
        def script(comm):
            comm.bcast(2, np.arange(8))
            comm.gather(1, {r: np.full(r + 1, r) for r in comm.owned_ranks()})
            comm.exchange(
                [
                    (src, (src + 1) % 4, np.full(3, src))
                    for src in comm.owned_ranks()
                ]
            )
            comm.allgather({r: np.arange(2) for r in comm.owned_ranks()})
            return _comm_volume(comm)

        sim = SimMPI(4)
        sim_volume = script(sim)
        for volume in _spmd(world, script):
            assert volume == sim_volume

    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_allreduce_partial_payloads(self, world):
        def program(comm):
            payloads = {r: np.uint64(1 << r) for r in comm.owned_ranks()}
            out = comm.allreduce(payloads, lambda x, y: x | y)
            return int(out[comm.owned_ranks()[0]]) if comm.owned_ranks() else None

        results = _spmd(world, program)
        # idle processes of an oversubscribed world own nothing -> None
        values = [v for v in results if v is not None]
        assert len(values) == min(world, 4)
        assert all(v == 0b1111 for v in values)


# ----------------------------------------------------------------------
# sparse reduction collectives (explicit-shape regression + partial maps)
# ----------------------------------------------------------------------
class TestSparseReducePartial:
    def test_empty_contributions_keep_declared_shape(self):
        """Regression: an empty contributions mapping used to silently
        produce a (0, 0)-shaped result — a live bug with partial mappings,
        where a process may own no contributing rank."""
        comm = SimMPI(4)
        out = sparse_reduce_to_root(
            comm, [0, 1, 2, 3], 0, {}, PLUS_TIMES, shape=(9, 7)
        )
        assert out.shape == (9, 7)
        assert out.nnz == 0
        bloom = bloom_reduce_to_root(comm, [0, 1], 1, {}, shape=(9, 7))
        assert bloom.shape == (9, 7)

    def test_contribution_shape_mismatch_raises(self):
        comm = SimMPI(4)
        wrong = {0: COOMatrix.empty((3, 3), PLUS_TIMES)}
        with pytest.raises(ValueError, match="declared block shape"):
            sparse_reduce_to_root(comm, [0, 1], 0, wrong, PLUS_TIMES, shape=(4, 4))

    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_partial_contributions_reduce_identically(self, world):
        shape = (12, 10)
        rng = np.random.default_rng(3)
        dense = {r: rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.3) for r in range(4)}

        def program(comm):
            contributions = {
                r: COOMatrix.from_dense(dense[r]) for r in comm.owned_ranks()
            }
            out = sparse_reduce_to_root(
                comm, [0, 1, 2, 3], 2, contributions, PLUS_TIMES, shape=shape
            )
            if out is None:
                assert not comm.owns(2)
                return None
            return out.to_dense()

        expected = sum(dense.values())
        for result in _spmd(world, program):
            if result is not None:
                assert np.allclose(result, expected)

    @pytest.mark.parametrize("world", (2, 4))
    def test_bloom_reduce_partial_contributions(self, world):
        shape = (8, 8)

        def program(comm):
            contribs = {}
            for r in comm.owned_ranks():
                contribs[r] = BloomFilterMatrix.from_entries(shape, [(r, r, 1 << r)])
            out = bloom_reduce_to_root(comm, [0, 1, 2, 3], 0, contribs, shape=shape)
            return None if out is None else list(zip(*(a.tolist() for a in out.to_arrays())))

        expected = [(r, r, 1 << r) for r in range(4)]
        for result in _spmd(world, program):
            if result is not None:
                assert result == expected


# ----------------------------------------------------------------------
# whole-algorithm differential runs
# ----------------------------------------------------------------------
class TestAlgorithmsAcrossWorlds:
    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_summa_product_identical(self, world):
        n = 20
        tuples = _random_tuples(n, 120, seed=11)

        def program(comm):
            grid = ProcessGrid(4)
            a = DynamicDistMatrix.from_tuples(comm, grid, (n, n), tuples, PLUS_TIMES)
            b = DynamicDistMatrix.from_tuples(comm, grid, (n, n), tuples, PLUS_TIMES)
            c, _ = summa_spgemm(comm, grid, a, b)
            coo = c.to_coo_global().drop_zeros().sort()
            return coo.rows, coo.cols, coo.values, _comm_volume(comm)

        sim = SimMPI(4)
        ref = program(sim)
        for rows, cols, vals, volume in _spmd(world, program):
            assert np.array_equal(rows, ref[0])
            assert np.array_equal(cols, ref[1])
            assert np.array_equal(vals, ref[2])
            assert volume == ref[3]

    @pytest.mark.parametrize("world", WORLD_SIZES)
    def test_dynamic_product_general_updates_identical(self, world):
        n = 24
        tuples = _random_tuples(n, 150, seed=7)
        all_rows = np.concatenate([t[0] for t in tuples.values()])
        all_cols = np.concatenate([t[1] for t in tuples.values()])
        all_vals = np.concatenate([t[2] for t in tuples.values()])

        def program(comm):
            grid = ProcessGrid(4)
            shape = (n, n)
            a = DynamicDistMatrix.from_tuples(
                comm, grid, shape, tuples, MIN_PLUS, combine="last"
            )
            b = DynamicDistMatrix.from_tuples(
                comm, grid, shape, tuples, MIN_PLUS, combine="last"
            )
            prod = DynamicProduct(comm, grid, a, b, semiring=MIN_PLUS, mode="general")
            deletes = UpdateBatch.from_global(
                shape, all_rows[:25], all_cols[:25], all_vals[:25],
                4, kind="delete", semiring=MIN_PLUS, seed=5,
            )
            r1 = prod.apply_updates(a_batch=deletes)
            updates = UpdateBatch.from_global(
                shape, all_rows[25:50], all_cols[25:50], all_vals[25:50] * 0.25,
                4, kind="update", semiring=MIN_PLUS, seed=6,
            )
            r2 = prod.apply_updates(a_batch=updates)
            assert prod.check_consistency()
            coo = prod.result_coo().drop_zeros().sort()
            return (
                r1.touched_outputs,
                r2.touched_outputs,
                coo.rows,
                coo.cols,
                coo.values,
                _comm_volume(comm),
            )

        ref = program(SimMPI(4))
        for result in _spmd(world, program):
            assert result[0] == ref[0] and result[1] == ref[1]
            assert np.array_equal(result[2], ref[2])
            assert np.array_equal(result[3], ref[3])
            assert np.array_equal(result[4], ref[4])
            assert result[5] == ref[5]

    @pytest.mark.parametrize("world", (2, 4))
    def test_static_dist_matrix_from_tuples_identical(self, world):
        n = 16
        tuples = _random_tuples(n, 90, seed=21)

        def program(comm):
            grid = ProcessGrid(4)
            mat = StaticDistMatrix.from_tuples(
                comm, grid, (n, n), tuples, PLUS_TIMES, layout="dcsr"
            )
            assert set(mat.blocks) == set(comm.owned_ranks())
            coo = mat.to_coo_global().sort()
            return mat.nnz(), coo.rows, coo.cols, coo.values

        ref = program(SimMPI(4))
        for nnz, rows, cols, vals in _spmd(world, program):
            assert nnz == ref[0]
            assert np.array_equal(rows, ref[1])
            assert np.array_equal(cols, ref[2])
            assert np.array_equal(vals, ref[3])


# ----------------------------------------------------------------------
# empty-broadcast elision (hypersparse updates must not broadcast zeros)
# ----------------------------------------------------------------------
class TestEmptyBroadcastElision:
    def _cstar_bcast_stats(self, update_rows, update_cols):
        comm = SimMPI(4)
        grid = ProcessGrid(4)
        n = 16
        base = _random_tuples(n, 100, seed=31)
        a = DynamicDistMatrix.from_tuples(comm, grid, (n, n), base, PLUS_TIMES)
        b = DynamicDistMatrix.from_tuples(comm, grid, (n, n), base, PLUS_TIMES)
        vals = np.ones(len(update_rows))
        a_star = StaticDistMatrix.from_tuples(
            comm,
            grid,
            (n, n),
            {0: (np.asarray(update_rows), np.asarray(update_cols), vals)},
            PLUS_TIMES,
            layout="dcsr",
        )
        comm.stats.reset()
        compute_cstar(comm, grid, a, b, a_star, None)
        bucket = comm.stats.categories.get("bcast")
        return (bucket.messages, bucket.bytes) if bucket else (0, 0)

    def test_empty_astar_blocks_are_never_broadcast(self):
        """A* confined to one block must broadcast exactly that block:
        1 root × (√p - 1) receivers, instead of firing the whole row of
        broadcast roots once any round block is non-empty."""
        # all update entries inside block (0, 0) of the 2x2 grid (n=16 → 8x8 blocks)
        msgs_sparse, bytes_sparse = self._cstar_bcast_stats([0, 1, 2], [0, 1, 2])
        assert msgs_sparse == 1  # one non-empty root, one receiver (q-1 = 1)
        # entries in every block column → every round broadcasts
        msgs_dense, bytes_dense = self._cstar_bcast_stats(
            [0, 1, 8, 9], [0, 9, 1, 8]
        )
        assert msgs_dense > msgs_sparse
        assert bytes_dense > bytes_sparse

    @pytest.mark.parametrize("world", (2, 4))
    def test_elision_is_identical_across_world_sizes(self, world):
        n = 16
        base = _random_tuples(n, 100, seed=31)
        star = {0: (np.array([0, 1, 2]), np.array([0, 1, 2]), np.ones(3))}

        def program(comm):
            grid = ProcessGrid(4)
            a = DynamicDistMatrix.from_tuples(comm, grid, (n, n), base, PLUS_TIMES)
            b = DynamicDistMatrix.from_tuples(comm, grid, (n, n), base, PLUS_TIMES)
            a_star = StaticDistMatrix.from_tuples(
                comm, grid, (n, n), star, PLUS_TIMES, layout="dcsr"
            )
            comm.stats.reset()
            cstar, _ = compute_cstar(comm, grid, a, b, a_star, None)
            merged = comm.host_merge(
                {r: (blk.rows.tolist(), blk.values.tolist()) for r, blk in cstar.items()}
            )
            return merged, _comm_volume(comm)

        ref = program(SimMPI(4))
        for merged, volume in _spmd(world, program):
            assert merged == ref[0]
            assert volume == ref[1]
            assert volume.get("bcast", (0, 0))[0] == 1


# ----------------------------------------------------------------------
# non-square worlds: grid fitting and idle processes
# ----------------------------------------------------------------------
class TestNonSquareWorlds:
    def test_grid_fit_warns_and_trims(self):
        with pytest.warns(RuntimeWarning, match="surplus ranks"):
            grid = ProcessGrid.fit(6)
        assert grid.n_ranks == 4 and grid.q == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ProcessGrid.fit(4).n_ranks == 4
            assert ProcessGrid.fit(1).n_ranks == 1

    def test_strict_constructor_still_rejects(self):
        with pytest.raises(ValueError, match="square"):
            ProcessGrid(6)

    def test_replay_on_six_ranks_uses_subgrid(self):
        from repro.scenarios import SCENARIO_GENERATORS, replay

        scenario = SCENARIO_GENERATORS["grow_from_empty"](seed=2022)
        with pytest.warns(RuntimeWarning, match="surplus ranks"):
            six = replay(scenario, backend="sim", n_ranks=6, layout="csr")
        four = replay(scenario, backend="sim", n_ranks=4, layout="csr")
        assert np.array_equal(six.final_a[0], four.final_a[0])
        assert np.array_equal(six.final_a[2], four.final_a[2])
        assert six.comm_signature() == four.comm_signature()

    # the filter must be installed once at test level: warnings.catch_warnings
    # mutates process-global state and is not safe inside the worker threads
    @pytest.mark.filterwarnings("ignore:MPI world of 3 processes:RuntimeWarning")
    def test_oversubscribed_world_idles_extra_processes(self):
        """world=3 processes, 2 logical ranks: process 2 owns nothing but
        participates in the collectives without deadlocking."""

        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(2, comm=comm_obj)
            assert comm.world_size == 3
            if world_rank == 2:
                assert comm.owned_ranks() == []
            received = comm.bcast(1, "hello" if comm.owns(1) else None)
            total = comm.host_fold(len(comm.owned_ranks()), lambda x, y: x + y)
            return received[0], total

        for received, total in run_spmd(3, wrapped):
            assert received == "hello"
            assert total == 2
