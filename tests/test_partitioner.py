"""Unit tests for the pluggable logical-rank→process placement layer.

Covers the strategy algebra (``repro.runtime.partitioner``), placement
validation and installing a placement on a multi-process backend.  The placement claims of the ``partition`` figure are checked
where it is measured (``benchmarks/figures.py``).  The cross-world byte-identity sweeps live in
``tests/test_partitioner_differential.py``.
"""

from __future__ import annotations

import warnings

import pytest

from repro.runtime import MPIBackend, ProcessGrid, run_spmd
from repro.runtime.partitioner import (
    PARTITIONERS,
    LocalityAwarePartitioner,
    NnzAwarePartitioner,
    RoundRobinPartitioner,
    available_partitioners,
    make_partitioner,
    verify_placement,
)


# ----------------------------------------------------------------------
# strategy algebra
# ----------------------------------------------------------------------
class TestStrategies:
    def test_round_robin_matches_historical_modulo(self):
        placement = RoundRobinPartitioner().placement(9, 4)
        assert placement == {r: r % 4 for r in range(9)}

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
    @pytest.mark.parametrize(
        "n_ranks,world",
        [(1, 1), (4, 6), (9, 2), (16, 3), (9, 4), (16, 16), (25, 6), (36, 5)],
    )
    def test_every_strategy_produces_valid_placements(self, name, n_ranks, world):
        placement = make_partitioner(name).placement(n_ranks, world)
        verify_placement(placement, n_ranks, world)
        active = min(world, n_ranks)
        assert set(placement.values()) <= set(range(active))

    @pytest.mark.parametrize("name", available_partitioners())
    @pytest.mark.parametrize("n_ranks,world", [(9, 2), (9, 4), (16, 3), (25, 4)])
    def test_every_strategy_uses_grid_and_weights_deterministically(
        self, name, n_ranks, world
    ):
        """With the grid and skewed (strictly positive) weights a replay
        supplies, every strategy places validly, keeps every active process
        busy and gives the same map on every call — the SPMD agreement each
        process relies on when it computes the placement independently."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            grid = ProcessGrid.fit(n_ranks)
        weights = {r: float(1 + (r * 7) % 5) for r in range(n_ranks)}
        strategy = make_partitioner(name)
        placement = strategy.placement(n_ranks, world, grid=grid, weights=weights)
        verify_placement(placement, n_ranks, world)
        assert set(placement.values()) == set(range(world))
        again = make_partitioner(name).placement(
            n_ranks, world, grid=grid, weights=dict(weights)
        )
        assert again == placement

    @pytest.mark.parametrize("name", available_partitioners())
    def test_every_listed_name_makes_its_strategy(self, name):
        strategy = make_partitioner(name)
        assert strategy.name == name
        assert isinstance(strategy, PARTITIONERS[name])

    @pytest.mark.parametrize(
        "name",
        [
            "roundrobin",
            "nnz_awre",
            "ROUND_ROBIN",
            "round-robin",
            " nnz_aware",
            "",
        ],
    )
    def test_unlisted_names_are_refused(self, name):
        with pytest.raises(ValueError, match="unknown partitioner") as info:
            make_partitioner(name)
        # the message lists what is available
        assert ", ".join(available_partitioners()) in str(info.value)

    def test_make_partitioner_takes_names_and_instances(self):
        assert isinstance(make_partitioner("locality_aware"), LocalityAwarePartitioner)
        instance = NnzAwarePartitioner()
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
# installing a placement on a multi-process backend
# ----------------------------------------------------------------------
class TestSetPlacement:
    def test_set_placement_moves_ownership(self):
        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(4, comm=comm_obj)
            before = comm.owned_ranks()
            # round-robin start: process 0 owns {0, 2}, process 1 owns
            # {1, 3}; this map swaps every rank to the other process
            comm.set_placement({0: 1, 1: 0, 2: 1, 3: 0})
            owners = [comm.owner_of(r) for r in range(4)]
            return world_rank, before, comm.owned_ranks(), owners, comm.placement()

        for world_rank, before, after, owners, placement in run_spmd(2, wrapped):
            assert before == [world_rank, world_rank + 2]
            assert after == [1 - world_rank, 3 - world_rank]
            assert owners == [1, 0, 1, 0]
            assert placement == {0: 1, 1: 0, 2: 1, 3: 0}

    @pytest.mark.filterwarnings("ignore:MPI world of 3 processes:RuntimeWarning")
    def test_invalid_placement_is_refused_and_the_old_one_kept(self):
        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(2, comm=comm_obj)
            start = comm.placement()
            refusals = []
            # a missing rank, and a rank on the idle third process
            for bad in ({0: 0}, {0: 0, 1: 2}):
                try:
                    comm.set_placement(bad)
                except ValueError as exc:
                    refusals.append(str(exc))
            return start, comm.placement(), refusals

        for start, after, refusals in run_spmd(3, wrapped):
            assert after == start == {0: 0, 1: 1}
            assert len(refusals) == 2
            assert "exactly once" in refusals[0]
            assert "active process domain" in refusals[1]

    def test_placement_returns_a_copy(self):
        def wrapped(comm_obj, world_rank):
            comm = MPIBackend(4, comm=comm_obj)
            comm.placement()[0] = 1
            return comm.owner_of(0)

        assert run_spmd(2, wrapped) == [0, 0]
