"""Placement differential suite: every partitioner is byte-identical.

Placement is a purely physical decision, so replaying a scenario under any
registered :mod:`repro.runtime.partitioner` strategy must reproduce the
round-robin/simulator outcome bit for bit — final tuples, applied-update
counts and per-category logical communication volume.  The sweep mirrors
the backend/layout differential matrix (`tests/test_scenarios_differential.py`)
along a third axis:

* ``REPRO_PARTITIONER`` environment sweep across the ``sim`` and emulated
  ``mpi`` backends × both replay layouts (the env var must be validated and
  honoured everywhere, including backends with no placement surface), and
* explicit ``replay(partitioner=...)`` sweeps across loopback worlds
  1/2/4, where placements genuinely differ between strategies.

Under ``mpiexec -n p`` the same module runs against the real
``COMM_WORLD`` (the loopback legs then exercise world size 1 per
process).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.runtime import (
    PARTITIONER_ENV_VAR,
    MPIBackend,
    available_partitioners,
    make_partitioner,
    verify_placement,
)
from repro.runtime.loopback import run_spmd
from repro.scenarios import (
    REPLAY_LAYOUTS,
    SCENARIO_GENERATORS,
    ScenarioResult,
    replay,
)

N_RANKS = 4
SEED = 2022
WORLD_SIZES = (1, 2, 4)
BACKENDS = ("sim", "mpi")
PARTITIONERS = available_partitioners()

#: scenarios of the loopback sweep: the skew-prone bursty R-MAT stream is
#: where placements differ most; the multiply scenario adds product state
SWEEP_SCENARIOS = ("bursty_skewed_stream", "mixed_update_multiply")


def _reference(generator_name: str, layout: str) -> ScenarioResult:
    scenario = SCENARIO_GENERATORS[generator_name](seed=SEED)
    return replay(scenario, backend="sim", n_ranks=N_RANKS, layout=layout)


@pytest.fixture(scope="module")
def references() -> dict[tuple[str, str], ScenarioResult]:
    """Default-placement sim replays, one per (scenario, layout)."""
    return {
        (name, layout): _reference(name, layout)
        for name in SWEEP_SCENARIOS
        for layout in REPLAY_LAYOUTS
    }


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
# REPRO_PARTITIONER environment sweep: backends × layouts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("layout", REPLAY_LAYOUTS)
@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_env_selected_partitioner_is_byte_identical(
    references, monkeypatch, backend, layout, partitioner
):
    monkeypatch.setenv(PARTITIONER_ENV_VAR, partitioner)
    scenario = SCENARIO_GENERATORS["bursty_skewed_stream"](seed=SEED)
    with warnings.catch_warnings():
        # the emulated-mpi backend warns once when mpi4py is absent
        warnings.simplefilter("ignore", RuntimeWarning)
        result = replay(scenario, backend=backend, n_ranks=N_RANKS, layout=layout)
    _assert_result_identical(
        result,
        references[("bursty_skewed_stream", layout)],
        what=f"{partitioner}/{backend}/{layout}",
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
    ref = references[(generator_name, "csr")]
    scenario = SCENARIO_GENERATORS[generator_name](seed=SEED)

    def program(comm_obj, world_rank):
        comm = MPIBackend(N_RANKS, comm=comm_obj)
        result = replay(scenario, comm=comm, layout="csr", partitioner=partitioner)
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


def test_env_var_reaches_loopback_backends(monkeypatch, references):
    """The environment path must install real placements on multi-process
    backends, not only validate the name: at world 2 the block-cyclic
    strategy produces a placement round-robin cannot (locality-aware
    coincides with round-robin on the 2x2 grid, so it proves nothing
    here)."""
    monkeypatch.setenv(PARTITIONER_ENV_VAR, "block_cyclic")
    scenario = SCENARIO_GENERATORS["bursty_skewed_stream"](seed=SEED)

    def program(comm_obj, world_rank):
        comm = MPIBackend(N_RANKS, comm=comm_obj)
        result = replay(scenario, comm=comm, layout="csr")
        return result, comm.placement()

    round_robin = make_partitioner("round_robin").placement(N_RANKS, 2)
    for result, placement in run_spmd(2, program):
        assert placement != round_robin
        _assert_result_identical(
            result,
            references[("bursty_skewed_stream", "csr")],
            what="env block_cyclic@world=2",
        )
