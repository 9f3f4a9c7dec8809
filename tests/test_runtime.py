"""Tests for the simulated MPI runtime (machine model, grid, communicator)."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.runtime import (
    EmulatedComm,
    MachineModel,
    MPIBackend,
    ProcessGrid,
    RuntimeConfig,
    SimMPI,
    StatCategory,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.loopback import LoopbackWorld, run_spmd
from repro.runtime.simmpi import payload_nbytes
from repro.scenarios import SCENARIO_GENERATORS, replay
from repro.sparse import CSRMatrix

#: a spelling the parser must refuse
REJECT = object()

#: ``(switch, raw value, parsed field value or REJECT)``: every accepted
#: spelling and every rejection of the two switches
SWITCH_TABLE = [
    ("REPRO_BACKEND", "", "sim"),
    ("REPRO_BACKEND", "sim", "sim"),
    ("REPRO_BACKEND", "mpi", "mpi"),
    ("REPRO_BACKEND", " MPI ", "mpi"),
    ("REPRO_BACKEND", "simm", REJECT),
    ("REPRO_BACKEND", "mpich", REJECT),
    ("REPRO_FAULTS", "", None),
    ("REPRO_FAULTS", "kill@2;seed=4", FaultPlan(kills=((2, None),), seed=4)),
    (
        "REPRO_FAULTS",
        "kill@3;kill@7:proc=1;drop=1/50;delay=1/20:0.002;seed=9",
        FaultPlan(
            kills=((3, None), (7, 1)),
            drop_one_in=50,
            delay_one_in=20,
            delay_seconds=0.002,
            seed=9,
        ),
    ),
    ("REPRO_FAULTS", "delay=1/4:0", FaultPlan(delay_one_in=4)),
    ("REPRO_FAULTS", "kill@", REJECT),
    ("REPRO_FAULTS", "kill@3:node=1", REJECT),
    ("REPRO_FAULTS", "kill@-1", REJECT),
    ("REPRO_FAULTS", "kill@2:proc=-1", REJECT),
    ("REPRO_FAULTS", "drop=50", REJECT),
    ("REPRO_FAULTS", "drop=1/0", REJECT),
    ("REPRO_FAULTS", "drop=1/2;seed=-3", REJECT),
    ("REPRO_FAULTS", "delay=1/4", REJECT),
    ("REPRO_FAULTS", "delay=1/4:-5", REJECT),
    ("REPRO_FAULTS", "delay=1/4:nan", REJECT),
    ("REPRO_FAULTS", "delay=1/4:inf", REJECT),
    ("REPRO_FAULTS", "explode=now", REJECT),
]

_FIELD_OF = {
    "REPRO_BACKEND": "backend",
    "REPRO_FAULTS": "faults",
}


class TestMachineModel:
    def test_defaults_are_valid(self):
        model = MachineModel()
        assert model.local_speedup > 1.0
        assert model.compute_time(1.0) < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineModel(alpha=-1.0)
        with pytest.raises(ValueError):
            MachineModel(threads_per_rank=0)
        with pytest.raises(ValueError):
            MachineModel(omp_efficiency=0.0)
        with pytest.raises(ValueError):
            MachineModel(compute_scale=0.0)
        with pytest.raises(ValueError):
            MachineModel(ranks_per_node=0)

    @pytest.mark.parametrize(
        "field", ["alpha", "beta", "intra_node_alpha", "intra_node_beta"]
    )
    def test_negative_message_costs_rejected(self, field):
        # a negative cost would run the simulated clocks backwards
        with pytest.raises(ValueError, match="non-negative"):
            MachineModel(**{field: -1e-9})

    def test_message_cost_intra_vs_inter_node(self):
        model = MachineModel(ranks_per_node=4)
        intra = model.message_cost(0, 1, 1000)  # same node
        inter = model.message_cost(0, 5, 1000)  # different node
        assert intra < inter
        assert model.message_cost(3, 3, 1000) == 0.0
        with pytest.raises(ValueError):
            model.message_cost(0, 1, -5)

    def test_with_helpers(self):
        model = MachineModel()
        assert model.with_threads(12).threads_per_rank == 12
        assert model.with_ranks_per_node(1).ranks_per_node == 1


class TestRuntimeConfig:
    def test_unset_environment_gives_the_defaults(self):
        assert RuntimeConfig.from_env({}) == RuntimeConfig("sim", None)
        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "backend",
            "faults",
        ]

    @pytest.mark.parametrize(
        "switch,raw,want", SWITCH_TABLE, ids=[f"{s}={r!r}" for s, r, _ in SWITCH_TABLE]
    )
    def test_from_env_table(self, switch, raw, want):
        if want is REJECT:
            with pytest.raises(ValueError, match=f"^{switch}="):
                RuntimeConfig.from_env({switch: raw})
            return
        config = RuntimeConfig.from_env({switch: raw})
        assert config == dataclasses.replace(RuntimeConfig(), **{_FIELD_OF[switch]: want})

    def test_bad_switch_fails_the_run_not_the_backend(self, monkeypatch):
        """Backends read no switch: they construct under a bad one, while
        the replay that would act on it refuses to start — on every
        backend.  A bad ``partitioner=`` argument fails the same way,
        including on the simulator that has no placement surface."""
        monkeypatch.setenv("REPRO_FAULTS", "explode=now")
        comm = MPIBackend(4, comm=EmulatedComm())
        assert comm.placement() == {rank: 0 for rank in range(4)}
        scenario = SCENARIO_GENERATORS["grow_from_empty"](seed=2022)
        for backend_comm in (comm, SimMPI(4)):
            with pytest.raises(ValueError, match="REPRO_FAULTS='explode=now'"):
                replay(scenario, comm=backend_comm)
        monkeypatch.delenv("REPRO_FAULTS")
        for backend_comm in (comm, SimMPI(4)):
            with pytest.raises(ValueError, match="unknown partitioner 'bogus'"):
                replay(scenario, comm=backend_comm, partitioner="bogus")


class TestProcessGrid:
    def test_square_requirement(self):
        with pytest.raises(ValueError, match="square"):
            ProcessGrid(6)
        with pytest.raises(ValueError):
            ProcessGrid(0)

    @pytest.mark.parametrize("p", [1, 4, 9, 16, 64])
    def test_rank_coordinate_round_trip(self, p):
        grid = ProcessGrid(p)
        assert grid.q * grid.q == p
        for rank in range(p):
            row, col = grid.coords_of(rank)
            assert grid.rank_of(row, col) == rank
        assert len(grid.all_ranks()) == p

    def test_row_and_col_groups_partition_the_grid(self):
        grid = ProcessGrid(16)
        all_from_rows = sorted(r for i in range(4) for r in grid.row_group(i))
        all_from_cols = sorted(r for j in range(4) for r in grid.col_group(j))
        assert all_from_rows == list(range(16))
        assert all_from_cols == list(range(16))
        # every row group and column group intersect in exactly one rank
        for i in range(4):
            for j in range(4):
                common = set(grid.row_group(i)) & set(grid.col_group(j))
                assert len(common) == 1

    def test_transpose_rank_is_involution(self):
        grid = ProcessGrid(9)
        for rank in range(9):
            assert grid.transpose_rank(grid.transpose_rank(rank)) == rank

    def test_out_of_range_errors(self):
        grid = ProcessGrid(4)
        with pytest.raises(IndexError):
            grid.coords_of(4)
        with pytest.raises(IndexError):
            grid.rank_of(2, 0)
        with pytest.raises(IndexError):
            grid.row_group(2)


class TestPayloadNbytes:
    def test_arrays_scalars_and_containers(self):
        assert payload_nbytes(None) == 0
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
        assert payload_nbytes(3) == 8
        assert payload_nbytes((np.zeros(2), np.zeros(3))) == 40
        assert payload_nbytes({"a": np.zeros(4)}) > 32

    def test_sparse_matrices_report_their_nbytes(self):
        csr = CSRMatrix.from_dense(np.eye(5))
        assert payload_nbytes(csr) == csr.nbytes


class TestSimMPI:
    def test_clock_and_barrier(self):
        comm = SimMPI(4)
        assert comm.elapsed() == 0.0
        comm.run_local(2, lambda: sum(range(1000)))
        assert comm.clock[2] > 0.0
        assert comm.clock[0] == 0.0
        assert comm.elapsed() == comm.clock[2]
        comm.barrier()
        assert np.all(comm.clock == comm.clock[2])

    def test_invalid_rank_raises(self):
        comm = SimMPI(2)
        with pytest.raises(IndexError):
            comm.run_local(5, lambda: None)
        with pytest.raises(ValueError):
            comm.bcast(0, None, group=[])

    def test_run_local_records_stats(self):
        comm = SimMPI(2)
        result = comm.run_local(0, lambda x: x * 2, 21, category="custom")
        assert result == 42
        assert comm.stats.categories["custom"].operations == 1
        assert comm.stats.categories["custom"].modeled_seconds > 0

    def test_map_local(self):
        comm = SimMPI(4)
        results = comm.map_local(lambda r: r * r, {rank: (rank,) for rank in range(4)})
        assert results == {0: 0, 1: 1, 2: 4, 3: 9}
        with pytest.raises(ValueError):
            comm.map_local(lambda r: r, [(0,)], group=[0, 1])

    def test_exchange_delivers_messages_and_costs_time(self):
        comm = SimMPI(4)
        inbox = comm.exchange([(0, 3, np.zeros(100)), (1, 3, np.zeros(50))])
        assert sorted(src for src, _ in inbox[3]) == [0, 1]
        assert comm.clock[3] > 0
        assert comm.stats.categories[StatCategory.SEND_RECV].messages == 2

    def test_sendrecv_pairwise(self):
        comm = SimMPI(4)
        recv_a, recv_b = comm.sendrecv(0, 1, "to_b", "to_a")
        assert recv_a == "to_a" and recv_b == "to_b"

    def test_alltoallv_routes_payloads(self):
        comm = SimMPI(4)
        send = {src: {dst: (src, dst) for dst in range(4)} for src in range(4)}
        recv = comm.alltoallv(send)
        for dst in range(4):
            for src in range(4):
                assert recv[dst][src] == (src, dst)
        assert comm.stats.categories[StatCategory.ALLTOALL].messages == 12

    def test_alltoallv_outside_group_raises(self):
        comm = SimMPI(4)
        with pytest.raises(ValueError):
            comm.alltoallv({0: {3: "x"}}, group=[0, 1])

    def test_bcast_and_group_sync(self):
        comm = SimMPI(9)
        group = [0, 1, 2]
        received = comm.bcast(1, {"x": 1}, group=group)
        assert set(received) == set(group)
        assert all(received[r] == {"x": 1} for r in group)
        assert np.allclose(comm.clock[group], comm.clock[group][0])
        assert comm.clock[5] == 0.0
        with pytest.raises(ValueError):
            comm.bcast(7, None, group=group)

    def test_gather_scatter(self):
        comm = SimMPI(4)
        gathered = comm.gather(0, {r: r * 10 for r in range(4)})
        assert gathered == {0: 0, 1: 10, 2: 20, 3: 30}
        scattered = comm.scatter(0, {r: r + 1 for r in range(4)})
        assert scattered == {0: 1, 1: 2, 2: 3, 3: 4}
        with pytest.raises(ValueError):
            comm.gather(9, {}, group=[0, 1])

    def test_allgather(self):
        comm = SimMPI(4)
        out = comm.allgather({r: r for r in range(4)})
        for r in range(4):
            assert out[r] == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_reduce_and_allreduce(self):
        comm = SimMPI(8)
        payloads = {r: r for r in range(8)}
        total = comm.reduce(3, payloads, lambda a, b: a + b)
        assert total == sum(range(8))
        out = comm.allreduce(payloads, lambda a, b: a + b, group=[0, 1, 2])
        assert out == {0: 3, 1: 3, 2: 3}
        with pytest.raises(ValueError):
            comm.reduce(7, payloads, lambda a, b: a + b, group=[0, 1])

    def test_reduce_is_order_insensitive_for_commutative_ops(self):
        comm = SimMPI(4)
        payloads = {r: np.full(3, float(r)) for r in range(4)}
        out = comm.reduce(0, payloads, np.maximum)
        assert np.allclose(out, 3.0)

    def test_timer_measures_modeled_time(self):
        comm = SimMPI(4)
        with comm.timer() as t:
            comm.bcast(0, np.zeros(1000))
        assert t.seconds > 0

    def test_stats_snapshot_and_diff(self):
        comm = SimMPI(4)
        comm.bcast(0, np.zeros(10))
        snap = comm.stats.snapshot()
        comm.bcast(0, np.zeros(10))
        diff = comm.stats.diff(snap)
        assert diff.categories[StatCategory.BCAST].operations == 1
        assert comm.stats.categories[StatCategory.BCAST].operations == 2

    def test_stats_breakdown_and_totals(self):
        comm = SimMPI(4)
        comm.exchange([(0, 1, np.zeros(10))])
        comm.bcast(0, np.zeros(10))
        breakdown = comm.stats.breakdown(StatCategory.SPGEMM_BREAKDOWN)
        assert set(breakdown) == set(StatCategory.SPGEMM_BREAKDOWN)
        assert comm.stats.total_bytes() > 0
        assert comm.stats.total_messages() >= 2
        assert comm.stats.total_modeled_seconds() > 0


class TestLoopbackWorld:
    def test_crashed_peer_wakes_a_waiting_irecv(self, monkeypatch):
        """A receiver blocked on a crashed sender is released at once, and
        the launcher reports the crashing process's own error."""
        monkeypatch.setattr(LoopbackWorld, "P2P_TIMEOUT", 30.0)

        def program(world_comm, world_rank):
            comm = MPIBackend(2, comm=world_comm)
            if world_rank == 0:
                raise ValueError("rank 0 crashed before its isend")
            return comm.wait(comm.irecv(0, 1))

        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="process 0 failed") as info:
            run_spmd(2, program)
        assert time.perf_counter() - start < LoopbackWorld.P2P_TIMEOUT / 6
        assert isinstance(info.value.__cause__, ValueError)
