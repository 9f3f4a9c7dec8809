"""Parity and selection tests for the optional compiled kernel tier.

The compiled kernels in :mod:`repro.sparse.kernels` are designed to be
**byte-identical** to the pure-Python oracles they shadow — same tuples,
same bloom bitfields, same created-counts, same deterministic perf
counters (only the ``kernels.tier_*`` selection counters may differ).
This suite pins that contract:

* tier selection (``REPRO_KERNEL_TIER`` and per-call ``kernel_tier=``):
  typos raise :class:`ValueError` naming the allowed set, ``compiled``
  without numba raises :class:`RuntimeError`, an *explicit* ``auto``
  without numba warns exactly once, an unset environment stays silent;
* rowwise and masked SpGEMM parity across every standard semiring, all
  four local layouts and adversarial operand structures (empty rows,
  hotspot inner columns, negative zeros, fully empty operands);
* SPA bulk-load parity (DHB batch insertion has one implementation; its
  model-based suite is ``tests/test_dhb.py``);
* a scenario-differential leg replaying a generator-library scenario
  under ``REPRO_KERNEL_TIER=compiled`` on the sim and (emulated) mpi
  backends across loopback world sizes 1/2/4.

numba is not required: the tests monkeypatch
``repro.sparse.kernels.tier.numba_available`` so the compiled dispatch
path runs even when the jitted cores execute as plain Python through the
identity ``njit`` shim — the *code path* under test is the same either
way, only its speed differs.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro.sparse.kernels.tier as tiermod
from repro.perf import PerfRecorder, use_recorder
from repro.runtime import MPIBackend
from repro.runtime.loopback import run_spmd
from repro.scenarios import SCENARIO_GENERATORS, replay
from repro.semirings import (
    BOOLEAN,
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    PLUS_TIMES,
)
from repro.sparse import (
    CSRMatrix,
    DCSRMatrix,
    DHBMatrix,
    SparseAccumulator,
    pattern_row_index,
    spgemm_local,
    spgemm_local_masked,
)
from repro.sparse.kernels import (
    KERNEL_TIER_ENV_VAR,
    KERNEL_TIERS,
    resolve_kernel_tier,
)
from repro.sparse.kernels.spgemm import compiled_supported

from tests.conftest import random_dense

ALL_SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_PLUS, BOOLEAN, MAX_MIN, MAX_TIMES]
LAYOUTS = ["coo", "csr", "dcsr", "dhb"]

_MAKERS = {
    "coo": lambda d, s: CSRMatrix.from_dense(d, s).to_coo(),
    "csr": CSRMatrix.from_dense,
    "dcsr": DCSRMatrix.from_dense,
    "dhb": DHBMatrix.from_dense,
}


@pytest.fixture
def fake_numba(monkeypatch):
    """Pretend numba is importable so the compiled dispatch path runs.

    Without numba the jitted cores execute as plain Python via the
    identity ``njit`` shim; parity is unaffected.
    """
    monkeypatch.setattr(tiermod, "numba_available", lambda: True)
    monkeypatch.delenv(KERNEL_TIER_ENV_VAR, raising=False)


@pytest.fixture
def no_numba(monkeypatch):
    """Force the numba-absent view regardless of the host environment."""
    monkeypatch.setattr(tiermod, "numba_available", lambda: False)
    monkeypatch.setattr(tiermod, "_warned_auto_fallback", False)
    monkeypatch.delenv(KERNEL_TIER_ENV_VAR, raising=False)


# ----------------------------------------------------------------------
# tier selection (REPRO_KERNEL_TIER / kernel_tier=)
# ----------------------------------------------------------------------
class TestTierSelection:
    def test_valid_env_values_resolve(self, fake_numba, monkeypatch):
        for raw, expected in [
            ("python", "python"),
            ("compiled", "compiled"),
            ("auto", "compiled"),
        ]:
            monkeypatch.setenv(KERNEL_TIER_ENV_VAR, raw)
            assert resolve_kernel_tier() == expected

    def test_env_value_is_normalised(self, fake_numba, monkeypatch):
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "  Compiled\t")
        assert resolve_kernel_tier() == "compiled"

    def test_env_typo_raises_naming_allowed_set(self, fake_numba, monkeypatch):
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "fastest")
        with pytest.raises(ValueError, match=r"'python', 'compiled' or 'auto'"):
            resolve_kernel_tier()

    def test_override_typo_raises_naming_allowed_set(self, fake_numba):
        with pytest.raises(ValueError, match=r"kernel_tier='jit'"):
            resolve_kernel_tier("jit")

    def test_override_wins_over_env(self, fake_numba, monkeypatch):
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "python")
        assert resolve_kernel_tier("compiled") == "compiled"
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "compiled")
        assert resolve_kernel_tier("python") == "python"

    def test_compiled_without_numba_raises(self, no_numba, monkeypatch):
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "compiled")
        with pytest.raises(RuntimeError, match="requires numba"):
            resolve_kernel_tier()
        with pytest.raises(RuntimeError, match="requires numba"):
            resolve_kernel_tier("compiled")

    def test_unset_env_is_silent_auto(self, no_numba):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel_tier() == "python"

    def test_explicit_auto_without_numba_warns_once(self, no_numba, monkeypatch):
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "auto")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_kernel_tier() == "python"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_kernel_tier() == "python"
            assert resolve_kernel_tier("auto") == "python"

    def test_kernel_tier_typo_raises_at_entry_points(self, fake_numba):
        a = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="kernel_tier"):
            spgemm_local(a, a, PLUS_TIMES, use_scipy=False, kernel_tier="nope")
        with pytest.raises(ValueError, match="kernel_tier"):
            spgemm_local_masked(a, a, PLUS_TIMES, {}, kernel_tier="nope")

    def test_selection_is_counted_per_site(self, fake_numba):
        a = CSRMatrix.from_dense(np.eye(4))
        rec = PerfRecorder()
        with use_recorder(rec):
            spgemm_local(a, a, PLUS_TIMES, use_scipy=False, kernel_tier="compiled")
            spgemm_local(a, a, PLUS_TIMES, use_scipy=False, kernel_tier="python")
        assert rec.counters["kernels.tier_compiled"] == 1
        assert rec.counters["kernels.tier_compiled.spgemm_rowwise"] == 1
        assert rec.counters["kernels.tier_python"] == 1
        assert rec.counters["kernels.tier_python.spgemm_rowwise"] == 1

    def test_tier_tuple_is_the_documented_set(self):
        assert KERNEL_TIERS == ("python", "compiled", "auto")


# ----------------------------------------------------------------------
# adversarial operand generators
# ----------------------------------------------------------------------
def _neg_zero_ok(semiring) -> bool:
    """Whether ``±0.0`` are storable values (not the structural zero)."""
    return not bool(np.asarray(semiring.is_zero(np.array([-0.0])))[0])


def _adversarial_dense(semiring, seed, kind, n, m):
    """Dense operand with the requested adversarial structure."""
    rng = np.random.default_rng(seed)
    if kind == "empty":
        return np.full((n, m), semiring.zero)
    mask = rng.random((n, m)) < 0.35
    if kind == "empty_rows":
        # knock out a third of the rows entirely
        mask[rng.choice(n, size=max(1, n // 3), replace=False), :] = False
    elif kind == "hotspot":
        # two dense inner columns force heavy ⊕-collisions per output
        mask[:, : min(2, m)] = True
    vals = rng.random((n, m)) + 0.1
    if semiring is BOOLEAN:
        vals = np.ones((n, m))
    elif kind == "neg_zero" and _neg_zero_ok(semiring):
        signed = np.where(rng.random((n, m)) < 0.5, -0.0, 0.0)
        vals = np.where(rng.random((n, m)) < 0.4, signed, vals)
    return np.where(mask, vals, semiring.zero)


ADVERSARIAL_KINDS = ["plain", "empty_rows", "hotspot", "neg_zero", "empty"]


def _assert_coo_identical(a, b, *, what: str) -> None:
    assert np.array_equal(a.rows, b.rows), f"{what}: rows differ"
    assert np.array_equal(a.cols, b.cols), f"{what}: cols differ"
    same = (a.values == b.values) | (np.isnan(a.values) & np.isnan(b.values))
    assert bool(np.all(same)), f"{what}: values differ"
    # ±0.0 must match bit-for-bit, not just by == (which treats them equal)
    assert np.array_equal(
        np.signbit(a.values), np.signbit(b.values)
    ), f"{what}: value signs differ"


def _assert_counters_match(rec_a: PerfRecorder, rec_b: PerfRecorder, *, what: str):
    """Deterministic counters must agree; tier-selection counters differ."""
    keep = lambda d: {k: v for k, v in d.items() if not k.startswith("kernels.")}
    assert keep(rec_a.counters) == keep(rec_b.counters), f"{what}: counters differ"


# ----------------------------------------------------------------------
# rowwise SpGEMM parity
# ----------------------------------------------------------------------
class TestSpgemmParity:
    def test_every_standard_semiring_has_a_compiled_core(self):
        for semiring in ALL_SEMIRINGS:
            assert compiled_supported(semiring), semiring.name

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_rowwise_byte_identical(self, fake_numba, semiring, layout):
        for kind in ADVERSARIAL_KINDS:
            for seed in (0, 1):
                a_d = _adversarial_dense(semiring, seed, kind, 13, 11)
                b_d = _adversarial_dense(semiring, seed + 100, kind, 11, 9)
                a = _MAKERS[layout](a_d, semiring)
                b = _MAKERS["dcsr" if kind == "hotspot" else "csr"](b_d, semiring)
                for compute_bloom in (False, True):
                    results, recs = [], []
                    for tier in ("python", "compiled"):
                        rec = PerfRecorder()
                        with use_recorder(rec):
                            out = spgemm_local(
                                a,
                                b,
                                semiring,
                                use_scipy=False,
                                compute_bloom=compute_bloom,
                                inner_offset=3 * seed,
                                kernel_tier=tier,
                            )
                        results.append(out)
                        recs.append(rec)
                    (r_py, bl_py), (r_c, bl_c) = results
                    what = f"{semiring.name}/{layout}/{kind}/bloom={compute_bloom}"
                    _assert_coo_identical(r_py, r_c, what=what)
                    assert bl_py == bl_c, f"{what}: bloom differs"
                    _assert_counters_match(recs[0], recs[1], what=what)

    @pytest.mark.parametrize(
        "semiring", [PLUS_TIMES, MIN_PLUS, BOOLEAN], ids=lambda s: s.name
    )
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_masked_byte_identical(self, fake_numba, semiring, layout):
        for seed in range(4):
            a_d = _adversarial_dense(semiring, seed, "hotspot", 12, 10)
            b_d = _adversarial_dense(semiring, seed + 50, "plain", 10, 9)
            mask_d = _adversarial_dense(semiring, seed + 99, "empty_rows", 12, 9)
            a = _MAKERS[layout](a_d, semiring)
            b = _MAKERS["csr"](b_d, semiring)
            mask_rows = pattern_row_index(CSRMatrix.from_dense(mask_d, semiring))
            results, recs = [], []
            for tier in ("python", "compiled"):
                rec = PerfRecorder()
                with use_recorder(rec):
                    out = spgemm_local_masked(
                        a,
                        b,
                        semiring,
                        mask_rows,
                        compute_bloom=True,
                        inner_offset=seed,
                        kernel_tier=tier,
                    )
                results.append(out)
                recs.append(rec)
            (r_py, bl_py), (r_c, bl_c) = results
            what = f"masked/{semiring.name}/{layout}/seed={seed}"
            _assert_coo_identical(r_py, r_c, what=what)
            assert bl_py == bl_c, f"{what}: bloom differs"
            _assert_counters_match(recs[0], recs[1], what=what)

    def test_compiled_tier_via_environment(self, fake_numba, monkeypatch):
        a_d = random_dense(10, 8, 0.3, PLUS_TIMES, seed=5)
        b_d = random_dense(8, 7, 0.3, PLUS_TIMES, seed=6)
        a, b = CSRMatrix.from_dense(a_d), CSRMatrix.from_dense(b_d)
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "python")
        ref, _ = spgemm_local(a, b, PLUS_TIMES, use_scipy=False)
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "compiled")
        rec = PerfRecorder()
        with use_recorder(rec):
            got, _ = spgemm_local(a, b, PLUS_TIMES, use_scipy=False)
        _assert_coo_identical(ref, got, what="env-selected compiled tier")
        assert rec.counters["kernels.tier_compiled.spgemm_rowwise"] == 1


# ----------------------------------------------------------------------
# scipy fast-path clamping (forced use_scipy=True must stay safe)
# ----------------------------------------------------------------------
class _DuckRows:
    """Row-layout duck type with no ``to_scipy``/``to_csr`` conversion."""

    def __init__(self, csr: CSRMatrix) -> None:
        self.shape = csr.shape
        self.nnz = csr.nnz
        self._csr = csr

    def iter_rows(self):
        return self._csr.iter_rows()

    def row_arrays(self, i: int):
        return self._csr.row_arrays(i)


class TestScipyClamp:
    def test_forced_scipy_with_empty_operand_falls_back(self):
        a = CSRMatrix.from_dense(np.zeros((4, 3)))
        b = CSRMatrix.from_dense(np.ones((3, 2)))
        rec = PerfRecorder()
        with use_recorder(rec):
            result, _ = spgemm_local(a, b, PLUS_TIMES, use_scipy=True)
        assert result.nnz == 0
        assert "spgemm.scipy_calls" not in rec.counters
        assert rec.counters["spgemm.rowwise_calls"] == 1

    def test_forced_scipy_with_unconvertible_layout_falls_back(self):
        a = _DuckRows(CSRMatrix.from_dense(random_dense(5, 4, 0.5, seed=1)))
        b = CSRMatrix.from_dense(random_dense(4, 3, 0.5, seed=2))
        rec = PerfRecorder()
        with use_recorder(rec):
            result, _ = spgemm_local(a, b, PLUS_TIMES, use_scipy=True)
        ref, _ = spgemm_local(a._csr, b, PLUS_TIMES, use_scipy=False)
        _assert_coo_identical(ref, result, what="duck layout fallback")
        assert "spgemm.scipy_calls" not in rec.counters

    def test_forced_scipy_still_used_when_applicable(self):
        a = CSRMatrix.from_dense(random_dense(5, 4, 0.5, seed=3))
        b = CSRMatrix.from_dense(random_dense(4, 3, 0.5, seed=4))
        rec = PerfRecorder()
        with use_recorder(rec):
            spgemm_local(a, b, PLUS_TIMES, use_scipy=True)
        assert rec.counters["spgemm.scipy_calls"] == 1


# ----------------------------------------------------------------------
# SPA bulk-load parity
# ----------------------------------------------------------------------
class TestSpaParity:
    @pytest.mark.parametrize(
        "semiring", [PLUS_TIMES, MIN_PLUS, MAX_MIN], ids=lambda s: s.name
    )
    def test_bulk_load_byte_identical(self, fake_numba, monkeypatch, semiring):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            # heavy duplication: 60 terms over only 9 distinct columns
            cols = rng.integers(0, 9, size=60)
            vals = rng.random(60) + 0.1
            emitted = []
            for tier in ("python", "compiled"):
                monkeypatch.setenv(KERNEL_TIER_ENV_VAR, tier)
                acc = SparseAccumulator(semiring)
                acc.accumulate_scaled_row(1.0, cols, vals, bloom_bit=1 << seed)
                emitted.append(acc.emit())
            (c_py, v_py, b_py), (c_c, v_c, b_c) = emitted
            assert np.array_equal(c_py, c_c)
            assert np.array_equal(v_py, v_c)
            assert np.array_equal(b_py, b_c)


# ----------------------------------------------------------------------
# scenario differential under REPRO_KERNEL_TIER=compiled
# ----------------------------------------------------------------------
class TestScenarioDifferential:
    GENERATOR = "mixed_update_multiply"
    SEED = 2022
    N_RANKS = 4

    @pytest.fixture(scope="class")
    def python_reference(self):
        scenario = SCENARIO_GENERATORS[self.GENERATOR](seed=self.SEED)
        return replay(scenario, backend="sim", n_ranks=self.N_RANKS, layout="csr")

    def _assert_matches(self, ref, got, *, what: str) -> None:
        for name, r_t, g_t in [("A", ref.final_a, got.final_a), ("C", ref.final_c, got.final_c)]:
            assert (r_t is None) == (g_t is None)
            if r_t is not None:
                assert np.array_equal(r_t[0], g_t[0]), f"{what}: {name} rows"
                assert np.array_equal(r_t[1], g_t[1]), f"{what}: {name} cols"
                assert np.array_equal(r_t[2], g_t[2]), f"{what}: {name} values"
        assert got.applied_counts == ref.applied_counts, what
        assert got.comm_signature() == ref.comm_signature(), what

    @pytest.mark.parametrize("backend", ["sim", "mpi"])
    def test_compiled_tier_matches_python_reference(
        self, fake_numba, monkeypatch, python_reference, backend
    ):
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "compiled")
        scenario = SCENARIO_GENERATORS[self.GENERATOR](seed=self.SEED)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = replay(scenario, backend=backend, n_ranks=self.N_RANKS, layout="csr")
        self._assert_matches(
            python_reference, got, what=f"compiled@{backend}"
        )

    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_compiled_tier_matches_across_loopback_worlds(
        self, fake_numba, monkeypatch, python_reference, world
    ):
        monkeypatch.setenv(KERNEL_TIER_ENV_VAR, "compiled")
        scenario = SCENARIO_GENERATORS[self.GENERATOR](seed=self.SEED)

        def program(comm_obj, world_rank):
            comm = MPIBackend(self.N_RANKS, comm=comm_obj)
            return replay(scenario, comm=comm, layout="csr")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for result in run_spmd(world, program):
                self._assert_matches(
                    python_reference, result, what=f"compiled@world={world}"
                )
