"""``run.py --compare A.json B.json``: is B worse than A, metric by metric?

Both files are ``ledger.json`` documents (or single ``<workload>.traceN.json``
result files).  Each (metric, workload) pair gets one row:

``better`` / ``worse``
    B differs from A by more than the metric's bound, in that direction.
``within-bound``
    the difference stays inside the bound (or, for an exact metric, the two
    values are equal).
``unresolved``
    B is worse by more than the bound, but the pass-to-pass spread of either
    run is wider than the bound and the two runs' passes overlap.

Directions and bounds come from ``BENCHMARK.json`` (and ``metrics.EXTRA``);
``comm_bytes``, ``comm_messages``, ``service.staleness_ticks_*`` and every
per-layer count must be *equal*.  Per-layer timings have no bound and are
not compared.  The exit code is non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from perf_ledger import metrics

#: per-layer metrics in these units are program counts: compared exactly
_COUNT_UNITS = {"count", "bytes", "tuples", "ticks"}

#: end-to-end metric -> the per-pass timing a result file keeps for it
_PASS_SAMPLES = {
    "setup_s": "setup_s", "wall_s": "wall_s", "modeled_s": "modeled_s",
    "tuples_per_s": "wall_s", "op_ms_p50": "op_ms_p50", "op_ms_p90": "op_ms_p90",
}


def _documents(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "workloads" in data:
        return [doc for runs in data["workloads"].values() for doc in runs.values()]
    return [data]


def rule(name: str):
    """``(direction, bound, exact)`` of a metric, or None when not compared."""
    spec = metrics.END_TO_END.get(name) or metrics.EXTRA.get(name)
    if spec is not None:
        if spec["bound"] is None:
            return None
        return spec["better"], spec["bound"], name in metrics.EXACT
    spec = metrics.PER_LAYER.get(name)
    if spec is not None and (spec["unit"] in _COUNT_UNITS or name in metrics.EXACT):
        return spec["better"], 0.0, True
    return None


def _spread(doc: dict, name: str) -> tuple[float, list[float]]:
    """Quartile distance over the median of a metric's per-pass values."""
    key = _PASS_SAMPLES.get(name)
    samples = [p[key] for p in doc.get("passes", [])] if key else []
    if len(samples) < 2:
        return 0.0, samples
    quartiles = statistics.quantiles(samples, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(samples), samples


def judge(name: str, a: float, b: float, doc_a: dict, doc_b: dict) -> str | None:
    """The row status of one metric, or None when it is not compared."""
    found = rule(name)
    if found is None:
        return None
    direction, bound, exact = found
    if exact or bound == 0.0:
        if a == b:
            return "within-bound"
        return "better" if (b < a) == (direction == "lower") else "worse"
    worsening = (b - a) / abs(a) if a else float(b != a)
    if direction == "higher":
        worsening = -worsening
    if worsening < -bound:
        return "better"
    if worsening <= bound:
        return "within-bound"
    spread_a, samples_a = _spread(doc_a, name)
    spread_b, samples_b = _spread(doc_b, name)
    # the kept samples are all timings: a worse B has every pass above A's
    if max(spread_a, spread_b) > bound and min(samples_b) <= max(samples_a):
        return "unresolved"
    return "worse"


def compare_files(path_a: str, path_b: str) -> int:
    """Print one row per (metric, workload); 1 when any row is ``worse``."""
    side_b = {(d["workload"], d["trace"]): d for d in _documents(path_b)}
    worse = 0
    print(f"{'workload':18s} {'metric':36s} {'A':>16s} {'B':>16s}  status")
    for doc_a in _documents(path_a):
        doc_b = side_b.get((doc_a["workload"], doc_a["trace"]))
        if doc_b is None:
            continue
        for name, a in doc_a["metrics"].items():
            if name not in doc_b["metrics"]:
                continue
            b = doc_b["metrics"][name]
            status = judge(name, a, b, doc_a, doc_b)
            if status is None:
                continue
            worse += status == "worse"
            print(f"{doc_a['workload']:18s} {name:36s} {a:16.6g} {b:16.6g}  {status}")
    print(f"# {worse} worse")
    return 1 if worse else 0
