"""Cross-backend differential harness for the scenario library.

Every generator-library scenario is replayed on the ``sim`` backend and on
the (emulated) ``mpi`` backend, across **both** replay layouts of the
static right-hand operand (CSR, DHB).  For each (scenario, layout) pair
the two backends must produce

* bit-identical final tuples of the maintained matrix ``A`` (and of the
  maintained product ``C`` where the scenario multiplies),
* identical applied-update counts per step,
* identical per-category communication volume (messages and bytes),
* byte-identical application query payloads (triangle counts, SSSP
  distance tuples, contracted-graph COO) for the app-scenario legs.

Layouts must additionally agree with each other on the final state
(structurally identical, values up to float round-off from different
accumulation orders).

Set ``REPRO_SCENARIO_STATS_DIR`` to a directory to dump one JSON file of
per-scenario comm statistics per (scenario, layout, backend) — the CI
matrix job uploads these as artifacts.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.runtime import MPIBackend, backend_switch, world_rank, world_size
from repro.runtime.loopback import run_spmd
from repro.scenarios import (
    REPLAY_LAYOUTS,
    SCENARIO_GENERATORS,
    ScenarioResult,
    replay,
)

N_RANKS = 4
SEED = 2022
#: Both backends are always replayed; REPRO_BACKEND selects which one
#: leads as the reference leg of the cross-layout comparisons.
_PREFERRED = backend_switch()
BACKENDS = (_PREFERRED, "mpi" if _PREFERRED == "sim" else "sim")
REFERENCE = BACKENDS[0]

#: loopback world sizes for the emulated multi-process differential leg
WORLD_SIZES = (1, 2, 4)


def _stats_dir() -> Path | None:
    stats_dir = os.environ.get("REPRO_SCENARIO_STATS_DIR", "")
    if not stats_dir:
        return None
    out = Path(stats_dir)
    rank = world_rank()
    # Under mpiexec every process replays and would race on the same file;
    # per-rank subdirectories keep the artifacts diffable across ranks.
    return out / f"world_rank{rank}" if rank else out


def _dump_stats(result: ScenarioResult) -> None:
    out = _stats_dir()
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    name = f"{result.scenario}-{result.layout}-{result.backend}.json"
    (out / name).write_text(json.dumps(result.as_dict(), indent=2, default=float))


def _replay(generator_name: str, backend: str, layout: str) -> ScenarioResult:
    scenario = SCENARIO_GENERATORS[generator_name](seed=SEED)
    with warnings.catch_warnings():
        # the emulated-mpi backend warns once when mpi4py is absent
        warnings.simplefilter("ignore", RuntimeWarning)
        result = replay(scenario, backend=backend, n_ranks=N_RANKS, layout=layout)
    _dump_stats(result)
    return result


@pytest.fixture(scope="module")
def results() -> dict[tuple[str, str, str], ScenarioResult]:
    """Every (generator, backend, layout) replay, computed once."""
    out: dict[tuple[str, str, str], ScenarioResult] = {}
    for name in SCENARIO_GENERATORS:
        for backend in BACKENDS:
            for layout in REPLAY_LAYOUTS:
                out[(name, backend, layout)] = _replay(name, backend, layout)
    return out


def _assert_tuples_identical(a, b, *, what: str) -> None:
    assert np.array_equal(a[0], b[0]), f"{what}: row structure differs"
    assert np.array_equal(a[1], b[1]), f"{what}: column structure differs"
    assert np.array_equal(a[2], b[2]), f"{what}: values differ"


def _assert_app_results_identical(a, b, *, what: str) -> None:
    """Application query payloads must match byte for byte."""
    assert len(a) == len(b), f"{what}: app query counts differ"
    for got, want in zip(a, b):
        assert (got.index, got.kind, got.label) == (want.index, want.kind, want.label)
        if isinstance(want.payload, tuple):
            _assert_tuples_identical(
                got.payload, want.payload, what=f"{what}: {got.label}"
            )
        else:
            assert got.payload == want.payload, f"{what}: {got.label}"


@pytest.mark.parametrize("layout", REPLAY_LAYOUTS)
@pytest.mark.parametrize("generator_name", sorted(SCENARIO_GENERATORS))
class TestCrossBackend:
    def test_final_tuples_identical(self, results, generator_name, layout):
        sim = results[(generator_name, "sim", layout)]
        mpi = results[(generator_name, "mpi", layout)]
        assert sim.final_a[0].size > 0, "scenario must leave a non-empty matrix"
        _assert_tuples_identical(
            sim.final_a, mpi.final_a, what=f"{generator_name}/{layout}: A"
        )
        assert (sim.final_c is None) == (mpi.final_c is None)
        if sim.final_c is not None:
            _assert_tuples_identical(
                sim.final_c, mpi.final_c, what=f"{generator_name}/{layout}: C"
            )

    def test_applied_counts_identical(self, results, generator_name, layout):
        sim = results[(generator_name, "sim", layout)]
        mpi = results[(generator_name, "mpi", layout)]
        assert sim.truncated_at is None and mpi.truncated_at is None
        assert sim.applied_counts == mpi.applied_counts
        per_step_sim = [(s.kind, s.n_tuples, s.applied) for s in sim.steps]
        per_step_mpi = [(s.kind, s.n_tuples, s.applied) for s in mpi.steps]
        assert per_step_sim == per_step_mpi

    def test_comm_volume_identical(self, results, generator_name, layout):
        sim = results[(generator_name, "sim", layout)]
        mpi = results[(generator_name, "mpi", layout)]
        assert sim.comm_signature() == mpi.comm_signature()
        assert sim.total_comm_bytes() > 0, "scenarios must actually communicate"
        per_step_sim = [(s.comm_messages, s.comm_bytes) for s in sim.steps]
        per_step_mpi = [(s.comm_messages, s.comm_bytes) for s in mpi.steps]
        assert per_step_sim == per_step_mpi

    def test_app_query_results_identical(self, results, generator_name, layout):
        sim = results[(generator_name, "sim", layout)]
        mpi = results[(generator_name, "mpi", layout)]
        _assert_app_results_identical(
            sim.app_results,
            mpi.app_results,
            what=f"{generator_name}/{layout}",
        )


@pytest.mark.parametrize("generator_name", sorted(SCENARIO_GENERATORS))
class TestCrossLayout:
    def test_layouts_agree_on_final_state(self, results, generator_name):
        reference = results[(generator_name, REFERENCE, REPLAY_LAYOUTS[0])]
        for layout in REPLAY_LAYOUTS[1:]:
            other = results[(generator_name, REFERENCE, layout)]
            assert np.array_equal(reference.final_a[0], other.final_a[0])
            assert np.array_equal(reference.final_a[1], other.final_a[1])
            # different layouts may accumulate in different orders
            assert np.allclose(reference.final_a[2], other.final_a[2], rtol=1e-9)
            if reference.final_c is not None:
                assert other.final_c is not None
                assert np.array_equal(reference.final_c[0], other.final_c[0])
                assert np.array_equal(reference.final_c[1], other.final_c[1])
                assert np.allclose(
                    reference.final_c[2], other.final_c[2], rtol=1e-9
                )

    def test_applied_counts_agree_across_layouts(self, results, generator_name):
        reference = results[(generator_name, REFERENCE, REPLAY_LAYOUTS[0])]
        for layout in REPLAY_LAYOUTS[1:]:
            other = results[(generator_name, REFERENCE, layout)]
            assert reference.applied_counts == other.applied_counts

    def test_app_results_agree_across_layouts(self, results, generator_name):
        reference = results[(generator_name, REFERENCE, REPLAY_LAYOUTS[0])]
        for layout in REPLAY_LAYOUTS[1:]:
            other = results[(generator_name, REFERENCE, layout)]
            _assert_app_results_identical(
                reference.app_results,
                other.app_results,
                what=f"{generator_name}/{layout}",
            )


@pytest.mark.parametrize("world", WORLD_SIZES)
@pytest.mark.parametrize(
    "generator_name",
    (
        "grow_from_empty",
        "mixed_update_multiply",
        "social_triangle_stream",
        "road_churn_sssp",
        "multilevel_contraction",
    ),
)
def test_multiprocess_worlds_match_sim(results, generator_name, world):
    """Partial-mapping/ownership differential: the same scenario replayed
    on emulated multi-process worlds (loopback threads behind the mpi4py
    surface, payloads pickled) must match the simulator bit for bit —
    final tuples, applied counts, per-category comm volume and application
    query payloads (triangle counts, SSSP distance tuples, contracted-graph
    COO)."""
    ref = results[(generator_name, "sim", "csr")]
    scenario = SCENARIO_GENERATORS[generator_name](seed=SEED)

    def program(comm_obj, world_rank):
        comm = MPIBackend(N_RANKS, comm=comm_obj)
        return replay(scenario, comm=comm, layout="csr")

    for result in run_spmd(world, program):
        _assert_tuples_identical(
            ref.final_a, result.final_a, what=f"{generator_name}@world={world}: A"
        )
        assert (ref.final_c is None) == (result.final_c is None)
        if ref.final_c is not None:
            _assert_tuples_identical(
                ref.final_c, result.final_c, what=f"{generator_name}@world={world}: C"
            )
        assert result.applied_counts == ref.applied_counts
        assert result.comm_signature() == ref.comm_signature()
        _assert_app_results_identical(
            ref.app_results,
            result.app_results,
            what=f"{generator_name}@world={world}",
        )


#: Exact per-category ``(messages, bytes)`` of every generator at p=4
#: (seed 2022).  These were recorded from the blocking schedule that the
#: pipelines replaced; it and the pipelines gave the same numbers on both
#: backends and every layout.  The pipelines must keep posting exactly the
#: same traffic.  ``road_churn_sssp`` (Algorithm 2) is pinned with the
#: ``C*`` pattern shipped without values: 24 B per reduced step-1 entry and
#: 16 B per broadcast step-5 mask entry.
PINNED_SIGNATURES_P4 = {
    "bursty_skewed_stream": {"redist_comm": (62, 9072)},
    "dhb_bucket_collision_stream": {"redist_comm": (77, 6720)},
    "grow_from_empty": {"redist_comm": (48, 7608)},
    "hotspot_vertex_stream": {"redist_comm": (55, 6480)},
    "mixed_update_multiply": {
        "bcast": (16, 4464),
        "redist_comm": (40, 8184),
        "reduce_scatter": (32, 6744),
        "scatter": (16, 7008),
        "send_recv": (8, 4464),
    },
    "multilevel_contraction": {
        "bcast": (48, 21536),
        "redist_comm": (41, 4368),
        "send_recv": (6, 4608),
    },
    "oscillating_insert_delete": {"redist_comm": (72, 11232)},
    "road_churn_sssp": {
        "allreduce": (4, 48),
        "bcast": (36, 6128),
        "redist_comm": (47, 2856),
        "scatter": (4, 88),
        "send_recv": (14, 2416),
    },
    "sliding_window": {"redist_comm": (88, 10152)},
    "social_triangle_stream": {
        "bcast": (28, 9344),
        "redist_comm": (30, 4272),
        "reduce_scatter": (47, 16968),
        "scatter": (28, 14400),
        "send_recv": (16, 9376),
    },
    "steady_state_churn": {"redist_comm": (104, 14568)},
}


def test_pinned_signatures_cover_the_library():
    assert set(PINNED_SIGNATURES_P4) == set(SCENARIO_GENERATORS)


@pytest.mark.parametrize("layout", REPLAY_LAYOUTS)
@pytest.mark.parametrize("generator_name", sorted(PINNED_SIGNATURES_P4))
def test_pinned_comm_signature_p4(results, generator_name, layout):
    for backend in BACKENDS:
        result = results[(generator_name, backend, layout)]
        assert result.comm_signature() == PINNED_SIGNATURES_P4[generator_name], (
            f"{generator_name}/{backend}/{layout}"
        )


#: Exact per-category ``(messages, bytes)`` of the one communication
#: schedule at p=16 (seed 2022, sim, csr): the pipelined redistribution,
#: SUMMA, Algorithm 1's per-term census skips and Algorithm 2's gated
#: ``A^R``/``C*`` broadcasts.  A rescheduling that changes what is posted
#: changes these numbers.
PINNED_SIGNATURES_P16 = {
    "grow_from_empty": {"redist_comm": (336, 11736)},
    "mixed_update_multiply": {
        "bcast": (171, 14760),
        "redist_comm": (262, 12072),
        "reduce_scatter": (265, 11280),
        "scatter": (192, 10896),
        "send_recv": (48, 4976),
    },
    "road_churn_sssp": {
        "allreduce": (24, 144),
        "bcast": (300, 21000),
        "redist_comm": (174, 5160),
        "reduce_scatter": (6, 168),
        "scatter": (18, 88),
        "send_recv": (84, 3136),
    },
    "multilevel_contraction": {
        "bcast": (576, 74640),
        "redist_comm": (194, 6792),
        "send_recv": (36, 4608),
    },
}


@pytest.mark.parametrize("generator_name", sorted(PINNED_SIGNATURES_P16))
def test_pinned_comm_signature_p16(generator_name):
    scenario = SCENARIO_GENERATORS[generator_name](seed=SEED)
    result = replay(scenario, backend="sim", n_ranks=16, layout="csr")
    assert result.comm_signature() == PINNED_SIGNATURES_P16[generator_name]


@pytest.mark.skipif(
    world_size() < 2,
    reason="real multi-process leg runs under mpiexec -n p with mpi4py",
)
def test_real_mpi_world_attaches():
    """Under ``mpiexec -n p`` the default 'mpi' backend attaches to the
    real COMM_WORLD; the rest of this module then runs the differential
    matrix against genuine multi-process execution."""
    comm = MPIBackend(N_RANKS)
    assert comm.world_size > 1
    assert len(comm.owned_ranks()) < N_RANKS


def test_library_covers_at_least_five_generators():
    assert len(SCENARIO_GENERATORS) >= 5


def test_app_scenarios_record_query_results(results):
    """Every application scenario actually exercises its query steps."""
    expected = {
        "social_triangle_stream": "triangle_count",
        "road_churn_sssp": "shortest_path",
        "multilevel_contraction": "contract",
    }
    for name, kind in expected.items():
        result = results[(name, REFERENCE, "csr")]
        kinds = {r.kind for r in result.app_results}
        assert kind in kinds, name
        assert result.truncated_at is None


def test_snapshot_checks_ran(results):
    """Every library scenario carries active snapshot checks."""
    for name in SCENARIO_GENERATORS:
        result = results[(name, REFERENCE, "csr")]
        assert any(s.kind == "snapshot" for s in result.steps), name


def test_stats_dump_round_trip(tmp_path, monkeypatch):
    """The CI artifact dump produces valid JSON with the comm signature."""
    monkeypatch.setenv("REPRO_SCENARIO_STATS_DIR", str(tmp_path))
    result = _replay("grow_from_empty", "sim", "csr")
    path = _stats_dir() / "grow_from_empty-csr-sim.json"
    payload = json.loads(path.read_text())
    assert payload["scenario"] == "grow_from_empty"
    assert payload["comm_signature"]
    assert payload["final_nnz"] == int(result.final_a[0].size)
