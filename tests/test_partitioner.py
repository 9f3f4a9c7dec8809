"""Unit tests for the pluggable logical-rank→process placement layer.

Covers the strategy algebra (``repro.runtime.partitioner``), placement
validation, block migration and the online repartitioning hook (the
``REPRO_PARTITIONER``/``REPRO_REPARTITION`` parsing is in the
``RuntimeConfig`` table of ``tests/test_runtime.py``).  The placement
claims of the ``partition`` figure are checked where it is measured
(``benchmarks/figures.py``).  The cross-world byte-identity sweeps live in
``tests/test_partitioner_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import REPARTITION_ENV_VAR, MPIBackend, ProcessGrid, run_spmd
from repro.runtime.partitioner import (
    BlockCyclicPartitioner,
    LocalityAwarePartitioner,
    NnzAwarePartitioner,
    RoundRobinPartitioner,
    available_partitioners,
    make_partitioner,
    verify_placement,
)
from repro.scenarios import SCENARIO_GENERATORS
from repro.scenarios.replay import replay


# ----------------------------------------------------------------------
# strategy algebra
# ----------------------------------------------------------------------
class TestStrategies:
    def test_round_robin_matches_historical_modulo(self):
        placement = RoundRobinPartitioner().placement(9, 4)
        assert placement == {r: r % 4 for r in range(9)}

    def test_block_cyclic_deals_contiguous_runs(self):
        placement = BlockCyclicPartitioner(block_size=2).placement(8, 2)
        assert placement == {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 0, 6: 1, 7: 1}
        with pytest.raises(ValueError, match="block_size"):
            BlockCyclicPartitioner(block_size=0)

    def test_nnz_aware_lpt_balances_skewed_weights(self):
        weights = {0: 100.0, 1: 10.0, 2: 10.0, 3: 80.0}
        placement = NnzAwarePartitioner().placement(4, 2, weights=weights)
        loads = [0.0, 0.0]
        for rank, proc in placement.items():
            loads[proc] += weights[rank]
        assert sorted(loads) == [100.0, 100.0]

    def test_nnz_aware_uniform_weights_reproduce_round_robin(self):
        for n_ranks, world in ((9, 2), (9, 4), (16, 4), (4, 6)):
            uniform = NnzAwarePartitioner().placement(n_ranks, world)
            assert uniform == RoundRobinPartitioner().placement(n_ranks, world)

    def test_nnz_aware_degenerate_weights_fall_back_to_uniform(self):
        zeros = NnzAwarePartitioner().placement(6, 3, weights=[0.0] * 6)
        assert zeros == RoundRobinPartitioner().placement(6, 3)
        with pytest.raises(ValueError, match="cover all"):
            NnzAwarePartitioner().placement(6, 3, weights=[1.0, 2.0])

    def test_nnz_aware_is_deterministic(self):
        weights = {r: float((r * 7) % 5) for r in range(9)}
        first = NnzAwarePartitioner().placement(9, 4, weights=weights)
        assert first == NnzAwarePartitioner().placement(9, 4, weights=weights)

    def test_locality_aware_bands_keep_grid_columns_together(self):
        """On a 3x3 grid at world 2 the factorisation is 1x2: two column
        bands, so every grid column (the phase-1 redistribution group) is
        intra-process."""
        grid = ProcessGrid(9)
        placement = LocalityAwarePartitioner().placement(9, 2, grid=grid)
        for col in range(3):
            owners = {placement[row * 3 + col] for row in range(3)}
            assert len(owners) == 1
        assert set(placement.values()) == {0, 1}

    def test_locality_aware_square_world_is_block_partition(self):
        grid = ProcessGrid(16)
        placement = LocalityAwarePartitioner().placement(16, 4, grid=grid)
        # 2x2 bands of the 4x4 grid: each process owns one contiguous tile
        for rank, proc in placement.items():
            row, col = divmod(rank, 4)
            assert proc == (row // 2) * 2 + (col // 2)

    def test_locality_aware_prime_world_falls_back_to_chunks(self):
        grid = ProcessGrid(9)
        placement = LocalityAwarePartitioner().placement(9, 5, grid=grid)
        verify_placement(placement, 9, 5)
        # contiguous row-major chunks: owners are non-decreasing
        owners = [placement[r] for r in range(9)]
        assert owners == sorted(owners)
        assert set(owners) == set(range(5))

    def test_locality_aware_surplus_ranks_deal_round_robin(self):
        # 6 logical ranks on a fitted 2x2 grid: ranks 4, 5 are outside q²
        grid = ProcessGrid(4)
        placement = LocalityAwarePartitioner().placement(6, 2, grid=grid)
        verify_placement(placement, 6, 2)
        assert placement[4] == 0 and placement[5] == 1

    @pytest.mark.parametrize("name", available_partitioners())
    @pytest.mark.parametrize("n_ranks,world", [(1, 1), (4, 6), (9, 2), (16, 3)])
    def test_every_strategy_produces_valid_placements(self, name, n_ranks, world):
        placement = make_partitioner(name).placement(n_ranks, world)
        verify_placement(placement, n_ranks, world)
        active = min(world, n_ranks)
        assert set(placement.values()) <= set(range(active))

    def test_make_partitioner_takes_names_and_instances(self):
        assert isinstance(make_partitioner("locality_aware"), LocalityAwarePartitioner)
        instance = BlockCyclicPartitioner(block_size=3)
        assert make_partitioner(instance) is instance
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partitioner("nnz_awre")


# ----------------------------------------------------------------------
# placement validation
# ----------------------------------------------------------------------
class TestVerifyPlacement:
    def test_missing_and_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError, match="exactly once"):
            verify_placement({0: 0, 2: 0}, 3, 2)
        with pytest.raises(ValueError, match="exactly once"):
            verify_placement({0: 0}, 2, 2)

    def test_idle_process_targets_rejected(self):
        # world 6 over 4 ranks: active domain is [0, 4)
        with pytest.raises(ValueError, match="active process domain"):
            verify_placement({0: 0, 1: 1, 2: 2, 3: 5}, 4, 6)
        with pytest.raises(ValueError, match="active process domain"):
            verify_placement({0: -1, 1: 0}, 2, 2)

    def test_valid_placement_passes(self):
        verify_placement({0: 1, 1: 0, 2: 1}, 3, 2)


# ----------------------------------------------------------------------
# migration and the online repartitioning hook
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore:MPI world of 3 processes:RuntimeWarning")
class TestMigration:
    def test_migrate_ownership_moves_blocks(self):
        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(4, comm=comm_obj)
            blocks = {rank: f"block-{rank}" for rank in comm.owned_ranks()}
            # round-robin start: process 0 owns {0, 2}, process 1 owns
            # {1, 3}; this map swaps every block to the other process
            new_placement = {0: 1, 1: 0, 2: 1, 3: 0}
            moved = comm.migrate_ownership(new_placement, [blocks])
            return world_rank, moved, blocks, comm.placement()

        for world_rank, moved, blocks, placement in run_spmd(2, wrapped):
            assert placement == {0: 1, 1: 0, 2: 1, 3: 0}
            assert moved == 2  # this process shipped both of its blocks
            owned = {r for r, p in placement.items() if p == world_rank}
            assert set(blocks) == owned
            assert all(blocks[r] == f"block-{r}" for r in owned)

    def test_migration_is_charged_as_interprocess_traffic(self):
        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(4, comm=comm_obj)
            blocks = {rank: np.arange(100) for rank in comm.owned_ranks()}
            before = comm.global_interprocess_comm()
            comm.migrate_ownership({0: 1, 1: 0, 2: 0, 3: 1}, [blocks])
            return before, comm.global_interprocess_comm()

        for before, after in run_spmd(2, wrapped):
            assert after["bytes"] > before["bytes"]
            assert after["messages"] > before["messages"]

    def test_repartition_hook_preserves_results(self, monkeypatch):
        """An aggressively low threshold forces mid-replay migrations; the
        scenario outcome must stay byte-identical to the simulator's."""
        scenario = SCENARIO_GENERATORS["bursty_skewed_stream"](seed=2022)
        reference = replay(scenario, backend="sim", n_ranks=9, layout="csr")
        monkeypatch.setenv(REPARTITION_ENV_VAR, "1.01")

        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(9, comm=comm_obj)
            result = replay(scenario, comm=comm, layout="csr")
            return result, comm.placement()

        results = run_spmd(2, wrapped)
        start = RoundRobinPartitioner().placement(9, 2)
        assert any(placement != start for _, placement in results)
        for result, _ in results:
            assert np.array_equal(result.final_a[0], reference.final_a[0])
            assert np.array_equal(result.final_a[1], reference.final_a[1])
            assert np.array_equal(result.final_a[2], reference.final_a[2])
            assert result.applied_counts == reference.applied_counts
            # migrations add redistribution traffic by design; every other
            # communication category must stay byte-identical
            signature = dict(result.comm_signature())
            expected = dict(reference.comm_signature())
            moved_extra = signature.pop("redist_comm")
            assert moved_extra > expected.pop("redist_comm")
            assert signature == expected

    def test_oversubscribed_world_keeps_surplus_idle_after_migration(self):
        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(2, comm=comm_obj)
            blocks = {rank: rank for rank in comm.owned_ranks()}
            comm.migrate_ownership({0: 1, 1: 0}, [blocks])
            return world_rank, sorted(blocks)

        for world_rank, owned in run_spmd(3, wrapped):
            if world_rank == 2:
                assert owned == []
