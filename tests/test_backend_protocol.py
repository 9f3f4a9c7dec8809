"""Backend-conformance suite.

Runs the same collective-semantics checks against every communicator
backend: the :class:`SimMPI` simulator and the :class:`MPIBackend` pinned to
its single-rank emulator (mpi4py absent).  The orchestration algorithms rely
on these exact semantics — payload routing, return shapes, error behaviour
and logical byte/message accounting — so any backend drift shows up here
before it corrupts an experiment.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.perf import PerfRecorder, use_recorder
from repro.runtime import (
    BACKENDS,
    Communicator,
    MachineModel,
    MPIBackend,
    ServiceWorld,
    SimMPI,
    backend_name_of,
    make_communicator,
    payload_nbytes,
)
from repro.runtime.loopback import LoopbackComm
from repro.runtime.mpi_backend import EmulatedComm


#: the mpi4py ``COMM_WORLD`` calls MPIBackend and ServiceWorld make
MPI4PY_CALLS = frozenset(
    {"Get_rank", "Get_size", "barrier", "bcast", "gather", "allgather", "alltoall"}
    | {"isend", "recv", "scatter"}
)

#: backend members outside the protocol that nothing in the library calls;
#: they stay only while perf_ledger/tracer.py names them as span targets
TRACED_ONLY = frozenset(
    {"barrier", "map_local", "sendrecv", "scatter", "allgather", "iallgather"}
)


def _public(cls) -> set[str]:
    return {name for name in dir(cls) if not name.startswith("_")}


def _sim(p: int) -> Communicator:
    return SimMPI(p)


def _mpi_emulated(p: int) -> Communicator:
    return MPIBackend(p, comm=EmulatedComm())


FACTORIES = [
    pytest.param(_sim, id="sim"),
    pytest.param(_mpi_emulated, id="mpi-emulated"),
]


@pytest.mark.parametrize("factory", FACTORIES)
class TestConformance:
    def test_satisfies_protocol(self, factory):
        comm = factory(4)
        assert isinstance(comm, Communicator)
        assert comm.p == comm.n_ranks == 4

    def test_bcast_reaches_every_rank(self, factory):
        comm = factory(4)
        payload = np.arange(8)
        received = comm.bcast(1, payload)
        assert set(received) == {0, 1, 2, 3}
        for value in received.values():
            assert np.array_equal(value, payload)

    def test_bcast_group_and_root_validation(self, factory):
        comm = factory(4)
        received = comm.bcast(2, "x", group=[2, 3])
        assert set(received) == {2, 3}
        with pytest.raises(ValueError):
            comm.bcast(0, "x", group=[2, 3])
        with pytest.raises(IndexError):
            comm.bcast(7, "x", group=[7])
        with pytest.raises(ValueError):
            comm.bcast(0, "x", group=[])

    def test_allgather_returns_independent_dicts(self, factory):
        comm = factory(3)
        payloads = {r: r * 10 for r in range(3)}
        gathered = comm.allgather(payloads)
        assert set(gathered) == {0, 1, 2}
        for r in range(3):
            assert gathered[r] == {0: 0, 1: 10, 2: 20}
        gathered[0][1] = -1
        assert gathered[1][1] == 10

    def test_alltoallv_routes_personalised_payloads(self, factory):
        comm = factory(3)
        sendbufs = {
            0: {1: "a", 2: "b"},
            1: {0: "c"},
            2: {2: "d"},
        }
        recv = comm.alltoallv(sendbufs)
        assert recv[1][0] == "a"
        assert recv[2][0] == "b"
        assert recv[0][1] == "c"
        assert recv[2][2] == "d"
        assert recv[0].keys() == {1}

    def test_alltoallv_group_membership_checks(self, factory):
        comm = factory(4)
        with pytest.raises(ValueError):
            comm.alltoallv({3: {0: "x"}}, group=[0, 1])
        with pytest.raises(ValueError):
            comm.alltoallv({0: {3: "x"}}, group=[0, 1])

    def test_exchange_and_sendrecv(self, factory):
        comm = factory(4)
        inbox = comm.exchange([(0, 1, "m01"), (2, 1, "m21"), (3, 3, "m33")])
        assert [src for src, _ in inbox[1]] == [0, 2]
        assert inbox[3] == [(3, "m33")]
        a_got, b_got = comm.sendrecv(0, 2, "ab", "ba")
        assert (a_got, b_got) == ("ba", "ab")

    def test_gather_scatter_round_trip(self, factory):
        comm = factory(4)
        payloads = {r: np.full(2, r) for r in range(4)}
        gathered = comm.gather(0, payloads)
        assert set(gathered) == {0, 1, 2, 3}
        scattered = comm.scatter(0, gathered)
        for r in range(4):
            assert np.array_equal(scattered[r], payloads[r])

    def test_reduce_and_allreduce(self, factory):
        comm = factory(5)
        payloads = {r: np.array([r, 1.0]) for r in range(5)}
        total = comm.reduce(2, payloads, lambda a, b: a + b)
        assert np.allclose(total, [0 + 1 + 2 + 3 + 4, 5.0])
        results = comm.allreduce(payloads, lambda a, b: a + b)
        assert set(results) == set(range(5))
        for value in results.values():
            assert np.allclose(value, [10.0, 5.0])
        with pytest.raises(ValueError):
            comm.reduce(4, payloads, lambda a, b: a + b, group=[0, 1])

    def test_run_local_and_map_local(self, factory):
        comm = factory(3)
        assert comm.run_local(1, lambda x: x * 2, 21) == 42
        with pytest.raises(IndexError):
            comm.run_local(5, lambda: None)
        by_seq = comm.map_local(lambda x: x + 1, [(10,), (20,), (30,)])
        assert by_seq == {0: 11, 1: 21, 2: 31}
        by_map = comm.map_local(lambda x: -x, {2: (5,)})
        assert by_map == {2: -5}
        with pytest.raises(ValueError):
            comm.map_local(lambda x: x, [(1,)], group=[0, 1])

    def test_timer_and_elapsed(self, factory):
        comm = factory(2)
        before = comm.elapsed()
        with comm.timer() as t:
            comm.bcast(0, np.zeros(1024))
        assert t.seconds >= 0.0
        assert comm.elapsed() >= before + t.seconds

    def test_ownership_surface(self, factory):
        """Single-process backends own every rank; the accessors are the
        contract the locality-aware call sites in core/ and distributed/
        are written against."""
        comm = factory(4)
        assert comm.owned_ranks() == [0, 1, 2, 3]
        assert comm.owned_ranks([3, 1]) == [3, 1]
        assert all(comm.owns(r) for r in range(4))
        assert all(comm.owner_of(r) == 0 for r in range(4))
        with pytest.raises(IndexError):
            comm.owns(9)
        with pytest.raises(ValueError):
            comm.owned_ranks([])

    def test_host_control_plane_is_uncharged(self, factory):
        comm = factory(4)
        merged = comm.host_merge({r: r * r for r in comm.owned_ranks()})
        assert merged == {0: 0, 1: 1, 2: 4, 3: 9}
        assert comm.host_fold(5, lambda x, y: x + y) == 5
        # control-plane traffic must not appear in the paper-level stats
        assert not comm.stats.categories

    def test_collectives_accept_partial_contribution_mappings(self, factory):
        """Missing ranks in a payload mapping mean 'no contribution' —
        the semantics multi-process partial mappings rely on."""
        comm = factory(4)
        gathered = comm.gather(0, {1: "only"})
        assert gathered == {0: None, 1: "only", 2: None, 3: None}
        recv = comm.alltoallv({2: {0: "x"}})
        assert recv[0] == {2: "x"}
        assert all(recv[r] == {} for r in (1, 2, 3))

    def test_barrier_accepts_groups(self, factory):
        comm = factory(4)
        comm.barrier()
        comm.barrier(group=[1, 3])
        with pytest.raises(ValueError):
            comm.barrier(group=[])

    # -- nonblocking primitives ---------------------------------------
    def test_isend_irecv_matches_fifo_posting_order(self, factory):
        comm = factory(3)
        first = comm.isend(0, 1, "a")
        second = comm.isend(0, 1, "b")
        assert comm.wait(comm.irecv(0, 1)) == "a"
        assert comm.wait(comm.irecv(0, 1)) == "b"
        comm.waitall([first, second])

    def test_isend_to_self_delivers(self, factory):
        comm = factory(2)
        send = comm.isend(1, 1, np.arange(4))
        received = comm.wait(comm.irecv(1, 1))
        assert np.array_equal(received, np.arange(4))
        comm.wait(send)
        # self-messages follow the exchange convention: bytes, no message
        assert comm.stats.categories["send_recv"].messages == 0
        assert comm.stats.categories["send_recv"].bytes > 0

    def test_ibcast_matches_blocking_bcast(self, factory):
        blocking, nonblocking = factory(4), factory(4)
        payload = np.arange(16)
        want = blocking.bcast(1, payload, group=[1, 2, 3])
        got = nonblocking.wait(nonblocking.ibcast(1, payload, group=[1, 2, 3]))
        assert set(got) == set(want)
        for rank in want:
            assert np.array_equal(got[rank], want[rank])
        for name, totals in blocking.stats.categories.items():
            other = nonblocking.stats.categories[name]
            assert (totals.bytes, totals.messages) == (other.bytes, other.messages)

    def test_iallgather_matches_blocking_allgather(self, factory):
        blocking, nonblocking = factory(3), factory(3)
        payloads = {r: r * 10 for r in range(3)}
        want = blocking.allgather(payloads)
        got = nonblocking.wait(nonblocking.iallgather(payloads))
        assert got == want
        for name, totals in blocking.stats.categories.items():
            other = nonblocking.stats.categories[name]
            assert (totals.bytes, totals.messages) == (other.bytes, other.messages)

    def test_request_wait_is_idempotent(self, factory):
        comm = factory(2)
        request = comm.ibcast(0, np.ones(8))
        assert not request.done
        first = comm.wait(request)
        assert request.done
        assert comm.wait(request) is first
        # accounting happened exactly once despite the repeated wait
        assert comm.stats.categories["bcast"].operations == 1

    def test_waitall_returns_results_in_posting_order(self, factory):
        comm = factory(4)
        requests = [
            comm.ibcast(0, "root0"),
            comm.iallgather({r: r for r in range(4)}),
            comm.ibcast(2, "root2"),
        ]
        results = comm.waitall(requests)
        assert results[0][3] == "root0"
        assert results[1][0] == {r: r for r in range(4)}
        assert results[2][1] == "root2"
        assert all(request.done for request in requests)


def _collective_script(comm: Communicator) -> None:
    payload = {r: np.arange(4) + r for r in range(comm.n_ranks)}
    comm.bcast(0, np.ones(16))
    comm.allgather(payload)
    comm.alltoallv(
        {0: {0: np.zeros(16), 1: np.zeros(8)}, 1: {0: np.zeros(4)}},
        group=[0, 1],
    )
    comm.exchange([(0, 1, np.zeros(2)), (1, 0, np.zeros(2)), (2, 2, np.zeros(32))])
    comm.gather(0, payload)
    comm.scatter(0, payload)
    # nonblocking legs: accounting must match the blocking collectives'
    send = comm.isend(0, 1, np.zeros(6))
    comm.waitall([comm.ibcast(1, np.ones(32)), comm.iallgather(payload)])
    comm.wait(comm.irecv(0, 1))
    comm.wait(send)


def test_logical_traffic_accounting_matches_simulator():
    """Emulated MPIBackend records the same logical bytes/messages as SimMPI."""
    sim, mpi = SimMPI(4), MPIBackend(4, comm=EmulatedComm())
    _collective_script(sim)
    _collective_script(mpi)
    assert set(sim.stats.categories) == set(mpi.stats.categories)
    for name, totals in sim.stats.categories.items():
        other = mpi.stats.categories[name]
        assert totals.bytes == other.bytes, name
        assert totals.messages == other.messages, name
        assert totals.operations == other.operations, name


class TestSimMPIOverlapModel:
    """Deterministic clock accounting of the nonblocking cost model.

    Every test pins the machine parameters, so the expected simulated
    times are exact closed forms of the alpha/beta model — no tolerance
    for measured noise is needed beyond float round-off.
    """

    @staticmethod
    def _machine(beta: float = 0.0) -> MachineModel:
        # equal intra/inter parameters: the expected costs below do not
        # depend on which node the model places a rank on
        return MachineModel(
            alpha=1e-3, beta=beta, intra_node_alpha=1e-3, intra_node_beta=beta
        )

    def test_outstanding_ibcasts_share_the_overlap_window(self):
        """Two broadcasts posted back to back cost max, not sum."""
        payload = np.zeros(64)
        blocking = SimMPI(4, self._machine())
        blocking.bcast(0, payload)
        blocking.bcast(0, payload)
        serial = blocking.elapsed()
        assert serial == pytest.approx(4e-3)  # 2 bcasts x 2 rounds x alpha

        overlapped = SimMPI(4, self._machine())
        overlapped.waitall([overlapped.ibcast(0, payload), overlapped.ibcast(0, payload)])
        assert overlapped.elapsed() == pytest.approx(serial / 2)

    def test_exposed_and_hidden_seconds_are_attributed(self):
        """The overlap counters split the full transfer cost exactly."""
        payload = np.zeros(64)
        recorder = PerfRecorder()
        with use_recorder(recorder):
            comm = SimMPI(4, self._machine())
            comm.waitall([comm.ibcast(0, payload), comm.ibcast(0, payload)])
        assert recorder.counters["overlap.exposed_seconds"] == pytest.approx(2e-3)
        assert recorder.counters["overlap.hidden_seconds"] == pytest.approx(2e-3)
        assert recorder.counters["overlap.requests"] == 2

    def test_isend_irecv_charges_the_link_cost_once(self):
        machine = self._machine(beta=1e-6)
        comm = SimMPI(2, machine)
        payload = np.zeros(1000)
        send = comm.isend(0, 1, payload)
        received = comm.wait(comm.irecv(0, 1))
        comm.wait(send)
        assert np.array_equal(received, payload)
        assert comm.elapsed() == pytest.approx(
            machine.message_cost(0, 1, payload.nbytes)
        )

    def test_self_message_is_free_in_simulated_time(self):
        comm = SimMPI(2, self._machine(beta=1e-6))
        send = comm.isend(1, 1, np.zeros(1000))
        comm.wait(comm.irecv(1, 1))
        comm.wait(send)
        assert comm.elapsed() == 0.0


class TestSurface:
    """Every public member is one the system (or the benchmark's tracer)
    calls: an unused member cannot creep back into a backend or an mpi4py
    stand-in."""

    PROTOCOL = frozenset(n for n in vars(Communicator) if not n.startswith("_"))

    def test_sim_is_the_protocol_plus_its_clock(self):
        assert _public(SimMPI) == self.PROTOCOL | TRACED_ONLY | {"clock"}

    def test_mpi_backend_is_the_protocol_plus_placement(self):
        assert _public(MPIBackend) == self.PROTOCOL | TRACED_ONLY | {
            "placement",
            "set_placement",
            "interprocess_comm",
            "global_interprocess_comm",
        }

    def test_protocol_leaves_out_the_traced_only_members(self):
        assert not self.PROTOCOL & TRACED_ONLY

    def test_loopback_comm_is_the_mpi4py_calls(self):
        assert _public(LoopbackComm) == MPI4PY_CALLS

    def test_emulated_comm_has_no_point_to_point(self):
        assert _public(EmulatedComm) == MPI4PY_CALLS - {"isend", "recv", "scatter"}


class TestMPIBackendSpecifics:
    def test_emulated_world_owns_every_rank(self):
        comm = MPIBackend(6, comm=EmulatedComm())
        assert not comm.is_real_mpi
        assert comm.world_size == 1
        assert all(comm.owns(r) for r in range(6))

    def test_world_larger_than_ranks_idles_surplus_processes(self):
        """``mpiexec -n 6`` with 4 logical ranks degrades gracefully: the
        surplus processes own nothing and a warning records the waste."""

        class FakeComm(EmulatedComm):
            def Get_size(self):
                return 4

        with pytest.warns(RuntimeWarning, match="will idle"):
            comm = MPIBackend(2, comm=FakeComm())
        assert comm.world_size == 4
        assert comm.owned_ranks() == [0]  # this process is world rank 0
        assert comm.owner_of(1) == 1

    def test_multi_process_world_is_accepted(self):
        """Multi-process worlds construct; ownership is round-robin."""

        class TwoProcComm(EmulatedComm):
            def Get_size(self):
                return 2

        comm = MPIBackend(4, comm=TwoProcComm())
        assert comm.world_size == 2
        assert comm.owned_ranks() == [0, 2]
        assert not comm.owns(1) and comm.owns(2)

    def test_emulated_comm_is_single_rank(self):
        comm = EmulatedComm()
        assert comm.Get_size() == 1 and comm.Get_rank() == 0
        assert comm.bcast("x") == "x"
        assert comm.gather("w") == ["w"]
        assert comm.allgather("y") == ["y"]
        assert comm.alltoall(["z"]) == ["z"]
        comm.barrier()
        with pytest.raises(ValueError):
            comm.bcast("x", root=1)
        with pytest.raises(ValueError):
            comm.gather("x", root=1)
        with pytest.raises(ValueError):
            comm.alltoall(["a", "b"])


class TestFactory:
    def test_default_is_simulator(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        comm = make_communicator(n_ranks=4)
        assert isinstance(comm, SimMPI)

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "mpi")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            comm = make_communicator(n_ranks=4)
        assert isinstance(comm, MPIBackend)

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "mpi")
        comm = make_communicator("sim", n_ranks=2)
        assert isinstance(comm, SimMPI)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown communicator backend"):
            make_communicator("no-such-backend", n_ranks=2)

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_backend_table_reads_both_ways(self, name):
        """Name -> class builds the communicator; class -> name labels it."""
        extra = {"comm": EmulatedComm()} if name == "mpi" else {}
        comm = make_communicator(name, n_ranks=3, **extra)
        assert type(comm) is BACKENDS[name] and comm.n_ranks == 3
        assert backend_name_of(comm) == name
        assert backend_name_of(ServiceWorld(name, **extra).communicator(2)) == name

    def test_communicators_outside_the_table_are_labelled_by_class(self):
        class CustomComm(SimMPI):
            pass

        assert backend_name_of(CustomComm(2)) == "customcomm"


class TestPayloadNbytes:
    def test_unknown_type_warns_once_per_type(self):
        class Opaque:
            pass

        with pytest.warns(RuntimeWarning, match="unknown payload type"):
            assert payload_nbytes(Opaque()) == 64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert payload_nbytes(Opaque()) == 64

    def test_known_types_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload_nbytes(np.zeros(4))
            payload_nbytes({"a": [1, 2.5, None, b"xy"]})
            payload_nbytes("text")
