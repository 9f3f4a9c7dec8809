"""Tests for the simulated MPI runtime (machine model, grid, communicator)."""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from repro.runtime import (
    EmulatedComm,
    MachineModel,
    MPIBackend,
    ProcessGrid,
    SimMPI,
    StatCategory,
    backend_name_of,
    backend_switch,
    make_communicator,
)
from repro.runtime.faults import FaultPlan, FaultPlanError
from repro.runtime.loopback import LoopbackWorld, run_spmd
from repro.runtime.simmpi import payload_nbytes
from repro.scenarios import SCENARIO_GENERATORS, replay
from repro.sparse import CSRMatrix

#: a spelling the parser must refuse
REJECT = object()

#: ``(raw value, backend name or REJECT)``: every accepted spelling and
#: every rejection of the ``REPRO_BACKEND`` switch
BACKEND_SWITCH_TABLE = [
    ("", "sim"),
    ("sim", "sim"),
    ("mpi", "mpi"),
    (" MPI ", "mpi"),
    ("simm", REJECT),
    ("mpich", REJECT),
]

#: ``(spec, parsed plan or REJECT)``: every accepted spelling and every
#: rejection of the fault grammar ``replay(faults=...)`` takes
FAULT_GRAMMAR_TABLE = [
    ("", FaultPlan()),
    ("kill@3;kill@7:proc=1", FaultPlan(kills=((3, None), (7, 1)))),
    ("kill@2;seed=4", REJECT),
    ("kill@3;kill@7:proc=1;drop=1/50;delay=1/20:0.002;seed=9", REJECT),
    ("delay=1/4:0", REJECT),
    ("seed=1", REJECT),
    ("kill@", REJECT),
    ("kill@3:node=1", REJECT),
    ("kill@-1", REJECT),
    ("kill@2:proc=-1", REJECT),
    ("drop=50", REJECT),
    ("drop=1/0", REJECT),
    ("drop=1/2;seed=-3", REJECT),
    ("delay=1/4", REJECT),
    ("delay=1/4:-5", REJECT),
    ("delay=1/4:nan", REJECT),
    ("delay=1/4:inf", REJECT),
    ("explode=now", REJECT),
]


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


class TestRunSwitch:
    @pytest.mark.parametrize(
        "raw,want", BACKEND_SWITCH_TABLE, ids=[repr(r) for r, _ in BACKEND_SWITCH_TABLE]
    )
    def test_backend_switch_table(self, monkeypatch, raw, want):
        monkeypatch.setenv("REPRO_BACKEND", raw)
        if want is REJECT:
            with pytest.raises(ValueError, match=f"^REPRO_BACKEND='{raw}': unknown"):
                make_communicator(n_ranks=1)
            return
        assert backend_switch() == want
        with warnings.catch_warnings():
            # the emulated-mpi backend warns once when mpi4py is absent
            warnings.simplefilter("ignore", RuntimeWarning)
            assert backend_name_of(make_communicator(n_ranks=1)) == want

    def test_unset_switch_is_the_simulator(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_switch() == "sim"

    @pytest.mark.parametrize(
        "spec,want", FAULT_GRAMMAR_TABLE, ids=[repr(s) for s, _ in FAULT_GRAMMAR_TABLE]
    )
    def test_fault_grammar_table(self, spec, want):
        if want is REJECT:
            with pytest.raises(FaultPlanError):
                FaultPlan.parse(spec)
            return
        assert FaultPlan.parse(spec) == want

    def test_bad_switch_fails_the_run_not_the_backend(self, monkeypatch):
        """Backends read no switch: they construct under a bad one, while
        the replay that would build a communicator from it refuses to
        start.  A bad ``partitioner=`` argument fails on every backend,
        including the simulator that has no placement surface."""
        monkeypatch.setenv("REPRO_BACKEND", "mpich")
        comm = MPIBackend(4, comm=EmulatedComm())
        assert comm.placement() == {rank: 0 for rank in range(4)}
        scenario = SCENARIO_GENERATORS["grow_from_empty"](seed=2022)
        with pytest.raises(ValueError, match="REPRO_BACKEND='mpich'"):
            replay(scenario, n_ranks=4)
        monkeypatch.delenv("REPRO_BACKEND")
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
