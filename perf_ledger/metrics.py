"""Metric names and the reductions from passes, spans and counters.

Three kinds of number are kept apart and never mixed in one metric:
wall-clock (``*_s``, ``*_ms``, ``tuples_per_s``), modelled seconds
(``modeled_s``, ``runtime.modeled_comm_s`` — timings too: SimMPI charges
measured compute into its model) and exact counts (bytes, messages,
program counters), which repeat bit for bit for one seed.

``BENCHMARK.json`` is the single source of the gated end-to-end metrics
(unit, direction, bound) and of the per-layer names; :data:`EXTRA` adds the
workload-specific and always-zero metrics the gate cannot carry (see
README.md), which the ledger still prints and ``--compare`` still checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from perf_ledger import tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: end-to-end metrics outside the gated list: only some workloads have
#: them, they are zero on every healthy run, or they are too unsteady on a
#: noisy host to decide the fate of a change on their own
EXTRA = {
    "op_ms_p90": {"unit": "ms", "better": "lower", "bound": 0.25},
    "modeled_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "static_spgemm_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "dynamic_speedup": {"unit": "ratio", "better": "higher", "bound": None},
    "fail_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
}

#: compared for equality, whatever their bound says
EXACT = {
    "comm_bytes", "comm_messages",
    "service.staleness_ticks_p50", "service.staleness_ticks_p90",
}

#: program counters (``PerfRecorder``) behind the per-layer count metrics
_COUNTERS = {
    "distributed.redistribute_tuples": "redistribute.tuples",
    "sparse.dhb_entries": "dhb.insert.entries",
    "sparse.dhb_created": "dhb.insert.created",
    "sparse.dhb_path_vectorized": "dhb.insert.path_vectorized",
    "sparse.dhb_path_per_element": "dhb.insert.path_per_element",
    "sparse.dhb_path_bulk_build": "dhb.insert.path_bulk_build",
    "sparse.dhb_path_combine_fallback": "dhb.insert.path_combine_fallback",
    "sparse.spgemm_terms": "spgemm.terms",
    "sparse.spgemm_output_nnz": "spgemm.output_nnz",
    "sparse.spgemm_scipy_calls": "spgemm.scipy_calls",
    "sparse.spgemm_rowwise_calls": "spgemm.rowwise_calls",
    "sparse.spgemm_masked_terms": "spgemm.masked_terms",
}

#: ``CommStats`` categories behind the per-layer byte metrics
_CATEGORY_BYTES = {
    "core.bcast_bytes": ("bcast",),
    "core.reduce_bytes": ("reduce_scatter", "scatter", "reduce", "allreduce"),
    "core.send_recv_bytes": ("send_recv",),
    "distributed.redist_bytes": ("redist_comm",),
}


def percentile_ms(seconds, q: float) -> float:
    """The ``q``-th percentile of samples in seconds, in milliseconds."""
    return float(np.percentile(seconds, q)) * 1e3


def _envelope(samples_per_pass) -> np.ndarray:
    """Per-index minimum over the passes (index i is the same work in each)."""
    return np.min(np.array(samples_per_pass), axis=0)


def comm_totals(comm: dict) -> tuple[int, int]:
    """Charged ``(bytes, messages)`` over all categories."""
    return (
        int(sum(c.get("bytes", 0) for c in comm.values())),
        int(sum(c.get("messages", 0) for c in comm.values())),
    )


def end_to_end(passes: list, peak_rss_mb: float, attempted: int, failed: int) -> dict:
    """Every end-to-end metric of one run.

    Every timing is a *lower envelope* over the timed passes, because the
    noise of the host is one-sided (contention only ever adds time, in
    bursts and in epochs of up to a minute; see README.md).  Slice ``i`` of
    the ``ops`` region is the same work in every pass, so its minimum over
    the passes is its time with the least interference: ``wall_s`` is the
    sum of those minima, the operation and query percentiles are taken over
    the per-operation minima, and ``setup_s`` / ``modeled_s`` are minima
    over the passes.  Metrics a workload does not have (``static_spgemm_s``
    outside the SpGEMM workloads) are left out.
    """
    ops = _envelope([p.op_s for p in passes])
    wall = float(_envelope([p.slice_s for p in passes]).sum())
    statics = [s for p in passes for s in p.static_s]
    nbytes, messages = comm_totals(passes[-1].comm)
    out = {
        "setup_s": min(p.setup_s for p in passes),
        "wall_s": wall,
        "tuples_per_s": passes[-1].tuples / wall,
        "op_ms_p50": percentile_ms(ops, 50),
        "op_ms_p90": percentile_ms(ops, 90),
        "query_ms_p50": percentile_ms(_envelope([p.query_s for p in passes]), 50),
        "modeled_s": min(p.modeled_s for p in passes),
        "comm_bytes": nbytes,
        "comm_messages": messages,
        "peak_rss_mb": peak_rss_mb,
        "fail_share": failed / attempted,
    }
    if statics:
        out["static_spgemm_s"] = min(statics)
        out["dynamic_speedup"] = out["static_spgemm_s"] * 1e3 / out["op_ms_p50"]
    return out


def per_layer(result, state, recorder, driver: dict) -> dict:
    """Every per-layer metric of the traced pass (explicit zeros included).

    ``state`` holds the spans of the reporting thread, ``recorder`` the
    program's own counters, ``result.counts`` what the driver counted and
    ``driver`` the benchmark's bookkeeping (``driver.*`` metrics).
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    self_s = tracer.self_seconds(state)
    calls = tracer.call_counts(state)
    for name, seconds in self_s.items():
        if name in out:
            out[name] = seconds
    out.update(result.counts)
    for name, counter in _COUNTERS.items():
        out[name] = recorder.counters.get(counter, 0)
    for name, categories in _CATEGORY_BYTES.items():
        out[name] = sum(result.comm.get(c, {}).get("bytes", 0) for c in categories)
    comm = [c for c in result.comm.values() if c.get("messages") or c.get("bytes")]
    out["distributed.redist_messages"] = result.comm.get("redist_comm", {}).get(
        "messages", 0
    )
    out["runtime.comm_operations"] = sum(c.get("operations", 0) for c in comm)
    out["runtime.modeled_comm_s"] = sum(c.get("modeled_seconds", 0.0) for c in comm)
    out["runtime.run_local_calls"] = calls.get("SimMPI.run_local", 0) + calls.get(
        "MPIBackend.run_local", 0
    )
    hidden = recorder.counters.get("overlap.hidden_seconds", 0.0)
    exposed = recorder.counters.get("overlap.exposed_seconds", 0.0)
    out["runtime.overlap_hidden_share"] = (
        hidden / (hidden + exposed) if hidden + exposed else 0.0
    )
    out["scenarios.steps"] = calls.get("NativeExecutor.apply", 0) + calls.get(
        "NativeExecutor.query", 0
    )
    out["apps.queries"] = calls.get(
        "DynamicTriangleCounter.triangle_count", 0
    ) + calls.get("contract_graph", 0)
    entries = out["sparse.dhb_entries"]
    out["sparse.dhb_hit_ratio"] = (
        1.0 - out["sparse.dhb_created"] / entries if entries else 0.0
    )
    nnz = out["sparse.spgemm_output_nnz"]
    out["sparse.spgemm_terms_per_output"] = (
        out["sparse.spgemm_terms"] / nnz if nnz else 0.0
    )
    # every span but the driver's own root regions, over the measured regions
    layers = sum(v for k, v in self_s.items() if k != "driver.self_s")
    out["driver.self_sum_ratio"] = layers / (
        result.setup_s + result.wall_s + result.read_s
    )
    out["driver.trace_overhead_pct"] = (
        (result.wall_s / driver["untraced_wall_s"]) - 1.0
    ) * 100.0
    for name in (
        "driver.gen_s", "driver.warmup_s", "driver.verify_s", "driver.untraced_targets"
    ):
        out[name] = driver[name]
    return {name: out[name] for name in PER_LAYER}


def layer_shares(layer_metrics: dict) -> dict[str, float]:
    """Share of the traced self time per layer (the README table)."""
    totals: dict[str, float] = {}
    for name, value in layer_metrics.items():
        if name.endswith("self_s"):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + value
    whole = sum(totals.values()) or 1.0
    return {layer: seconds / whole for layer, seconds in totals.items()}
