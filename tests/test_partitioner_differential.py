"""Placement differential suite: every partitioner is byte-identical.

Placement is a purely physical decision, so replaying a scenario under any
registered :mod:`repro.runtime.partitioner` strategy must reproduce the
round-robin/simulator outcome bit for bit — final tuples, applied-update
counts and per-category logical communication volume.  The sweep mirrors
the backend differential matrix (`tests/test_scenarios_differential.py`)
along a second axis:

* ``replay(partitioner=...)`` across the ``sim`` and emulated ``mpi``
  backends (the name must be validated and honoured everywhere, including
  backends with no placement surface), and
* the same argument across loopback worlds 1/2/3/4, where placements
  genuinely differ between strategies, installing exactly the strategy's
  map.  World 3 divides neither the 2x2 grid nor its four ranks, so
  ``locality_aware`` falls back to contiguous chunks there.

Under ``mpiexec -n p`` the same module runs against the real
``COMM_WORLD`` (the loopback legs then exercise world size 1 per
process).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.runtime import (
    MPIBackend,
    ProcessGrid,
    available_partitioners,
    make_partitioner,
    verify_placement,
)
from repro.runtime.loopback import run_spmd
from repro.scenarios import SCENARIO_GENERATORS, ScenarioResult, replay
from repro.scenarios.engine import scenario_nnz_weights

N_RANKS = 4
SEED = 2022
WORLD_SIZES = (1, 2, 3, 4)
BACKENDS = ("sim", "mpi")
PARTITIONERS = available_partitioners()

#: scenarios of both sweeps: the skew-prone bursty R-MAT stream is
#: where placements differ most; the multiply scenario adds product state
SWEEP_SCENARIOS = ("bursty_skewed_stream", "mixed_update_multiply")


def _reference(generator_name: str) -> ScenarioResult:
    scenario = SCENARIO_GENERATORS[generator_name](seed=SEED)
    return replay(scenario, backend="sim", n_ranks=N_RANKS)


@pytest.fixture(scope="module")
def references() -> dict[str, ScenarioResult]:
    """Default-placement sim replays, one per scenario."""
    return {name: _reference(name) for name in SWEEP_SCENARIOS}


def _assert_result_identical(result, ref, *, what: str) -> None:
    assert np.array_equal(result.final_a[0], ref.final_a[0]), f"{what}: rows"
    assert np.array_equal(result.final_a[1], ref.final_a[1]), f"{what}: cols"
    assert np.array_equal(result.final_a[2], ref.final_a[2]), f"{what}: values"
    assert (result.final_c is None) == (ref.final_c is None), what
    if ref.final_c is not None:
        assert np.array_equal(result.final_c[0], ref.final_c[0]), f"{what}: C rows"
        assert np.array_equal(result.final_c[2], ref.final_c[2]), f"{what}: C values"
    assert result.applied_counts == ref.applied_counts, what
    assert result.comm_signature() == ref.comm_signature(), what


# ----------------------------------------------------------------------
# partitioner sweep: backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("generator_name", SWEEP_SCENARIOS)
@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_selected_partitioner_is_byte_identical(
    references, backend, generator_name, partitioner
):
    scenario = SCENARIO_GENERATORS[generator_name](seed=SEED)
    with warnings.catch_warnings():
        # the emulated-mpi backend warns once when mpi4py is absent
        warnings.simplefilter("ignore", RuntimeWarning)
        result = replay(
            scenario, backend=backend, n_ranks=N_RANKS, partitioner=partitioner
        )
    _assert_result_identical(
        result,
        references[generator_name],
        what=f"{partitioner}/{generator_name}/{backend}",
    )


# ----------------------------------------------------------------------
# explicit-partitioner loopback worlds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("world", WORLD_SIZES)
@pytest.mark.parametrize("generator_name", SWEEP_SCENARIOS)
@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_loopback_worlds_are_byte_identical(
    references, generator_name, partitioner, world
):
    ref = references[generator_name]
    scenario = SCENARIO_GENERATORS[generator_name](seed=SEED)

    def program(comm_obj, world_rank):
        comm = MPIBackend(N_RANKS, comm=comm_obj)
        result = replay(scenario, comm=comm, partitioner=partitioner)
        return result, comm.placement()

    results = run_spmd(world, program)
    placements = [placement for _, placement in results]
    # every process must agree on one valid placement (nnz_aware derives
    # weights from the scenario prefix, so no uniform-weight oracle here)
    assert all(placement == placements[0] for placement in placements)
    verify_placement(placements[0], N_RANKS, world)
    for result, _ in results:
        _assert_result_identical(
            result, ref, what=f"{generator_name}/{partitioner}@world={world}"
        )


@pytest.mark.parametrize("world", (2, 3, 4))
@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_partitioner_installs_its_placement(partitioner, world):
    """``partitioner=`` installs the strategy's own map on every process —
    for ``nnz_aware`` the one weighted by the scenario's per-rank nnz."""
    scenario = SCENARIO_GENERATORS["bursty_skewed_stream"](seed=SEED)
    grid = ProcessGrid(N_RANKS)
    strategy = make_partitioner(partitioner)
    weights = (
        scenario_nnz_weights(scenario, grid, N_RANKS) if strategy.uses_weights else None
    )
    expected = strategy.placement(N_RANKS, world, grid=grid, weights=weights)

    def program(comm_obj, world_rank):
        comm = MPIBackend(N_RANKS, comm=comm_obj)
        replay(scenario, comm=comm, partitioner=partitioner)
        return comm.placement()

    assert run_spmd(world, program) == [expected] * world

