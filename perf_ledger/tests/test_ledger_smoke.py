"""Smoke test of the perf ledger at ``--tiny`` sizes (collected by tier-1).

Checks the benchmark's own contract, not the program's speed: the emitted
names equal ``BENCHMARK.json``'s, exact metrics repeat for a seed and move
with it, the tracer puts back what it patched, the layer self times cover
the traced pass, and a corrupted reference is reported as failed operations.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf_ledger import compare, metrics, reference, run, tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def _keep_environment():
    """``run_workload`` scrubs ``REPRO_*`` in-process; give them back."""
    saved = dict(os.environ)
    path = list(sys.path)
    yield
    os.environ.clear()
    os.environ.update(saved)
    sys.path[:] = path


_RUNS: dict = {}


def ledger(capsys, workload: str, seed: int, trace: int, *, fresh=False):
    """Exit code and final JSON line of one in-process ``--tiny`` run."""
    key = (workload, seed, trace)
    if fresh or key not in _RUNS:
        code = run.main(
            ["--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace), "--tiny"]
        )
        _RUNS[key] = code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return _RUNS[key]


def values(line: dict) -> dict:
    return {name: m["value"] for name, m in line["metrics"].items()}


def exact(line: dict) -> dict:
    """The metrics ``--compare`` requires to be equal."""
    return {k: v for k, v in values(line).items() if (compare.rule(k) or (0, 0, 0))[2]}


def test_benchmark_json_names_are_well_formed():
    names = (
        metrics.WORKLOAD_NAMES + list(metrics.END_TO_END) + list(metrics.PER_LAYER)
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in metrics.END_TO_END


@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_workload_emits_the_declared_metrics(capsys, workload):
    code, line = ledger(capsys, workload, 1, 0)
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == list(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        n: spec["unit"] for n, spec in metrics.END_TO_END.items()
    }

    code, traced = ledger(capsys, workload, 1, 1)
    assert code == 0 and traced["correct"]
    assert list(traced["metrics"]) == list(metrics.PER_LAYER)
    layer = values(traced)
    # tiny passes are a few milliseconds, so the driver's own loop weighs
    # more than at full size, where the range is 0.98-1.02
    assert 0.85 <= layer["driver.self_sum_ratio"] <= 1.02
    assert layer["driver.untraced_targets"] == 0
    assert layer["sparse.dhb_entries"] > 0 and layer["scenarios.steps"] > 0


def test_layers_run_where_the_design_says(capsys):
    ingest = values(ledger(capsys, "ingest_stream", 1, 1)[1])
    general = values(ledger(capsys, "spgemm_general", 1, 1)[1])
    service = values(ledger(capsys, "service_mixed", 1, 1)[1])
    assert all(v == 0 for k, v in ingest.items() if k.startswith(("core.", "service.")))
    assert general["sparse.bloom_self_s"] > 0 and general["core.general_self_s"] > 0
    assert general["sparse.spgemm_masked_terms"] > 0
    assert ingest["sparse.bloom_self_s"] == 0 == ingest["sparse.spgemm_masked_self_s"]
    assert service["service.requests"] == 40 and service["apps.queries"] == 4
    # the end-of-pass flushes have no reason of their own
    assert service["service.flushes"] >= (
        service["service.flush_by_count"] + service["service.flush_by_deadline"]
        + service["service.flush_by_query"]
    ) > 0
    assert service["service.self_s"] > 0 and service["apps.contract_self_s"] > 0


def test_exact_metrics_repeat_for_a_seed_and_move_with_it(capsys):
    for workload, trace in (("ingest_stream", 0), ("spgemm_general", 1)):
        first = exact(ledger(capsys, workload, 1, trace)[1])
        assert first and exact(ledger(capsys, workload, 1, trace, fresh=True)[1]) == first
        assert exact(ledger(capsys, workload, 2, trace)[1]) != first


def test_tracer_restores_every_patched_attribute():
    import repro.core  # noqa: F401 - make sure aliases exist to be rebound

    active = tracer.Tracer().install()
    patched = active.patched()
    assert patched and not active.missing
    assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    active.uninstall()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
    assert tracer.thread_state() is None


def test_corrupted_reference_counts_as_failed_operations(capsys, monkeypatch):
    real = reference.PoolState.apply

    def forgets_deletes(self, kind, index, vals):
        if kind != "delete":
            real(self, kind, index, vals)

    monkeypatch.setattr(reference.PoolState, "apply", forgets_deletes)
    code, line = ledger(capsys, "ingest_stream", 3, 0)
    assert code == 1 and not line["correct"]
    assert 0 < line["failed"] <= line["attempted"]


def test_compare_flags_only_what_got_worse():
    base = {"workload": "ingest_stream", "trace": 0, "passes": []}
    assert compare.judge("wall_s", 1.0, 1.05, base, base) == "within-bound"
    assert compare.judge("wall_s", 1.0, 1.5, base, base) == "worse"
    assert compare.judge("wall_s", 1.0, 0.5, base, base) == "better"
    assert compare.judge("tuples_per_s", 100.0, 50.0, base, base) == "worse"
    assert compare.judge("comm_bytes", 100, 101, base, base) == "worse"
    assert compare.judge("sparse.dhb_entries", 7, 7, base, base) == "within-bound"
    assert compare.judge("core.summa_self_s", 1.0, 9.0, base, base) is None
    noisy = dict(base, passes=[{"wall_s": w} for w in (0.8, 1.0, 1.6, 1.7)])
    assert compare.judge("wall_s", 1.0, 1.5, noisy, noisy) == "unresolved"
