"""Diff two ``BENCH_*.json`` documents and flag performance regressions.

Usage as a library::

    report = compare_documents(baseline_doc, current_doc, threshold=0.25)
    if report.regressed:
        ...

or as a CLI (the CI perf gate)::

    python -m repro.perf.compare BENCH_old.json BENCH_new.json --threshold 0.25

Compared metrics: per-run ``elapsed_seconds_median`` and the
communication volume (``comm.bytes`` / ``comm.messages``, which are
deterministic).  A metric regresses when
``current > baseline * (1 + threshold)``; the threshold must be finite and
non-negative.  ``elapsed_seconds_median`` must in addition be slower by
at least :data:`DEFAULT_MIN_SECONDS` (0.5 ms), so sub-millisecond runs do
not trip the gate on scheduler noise.  The CLI exits 1 when any regression
is found, 2 on malformed inputs or options.

``--expect-speedup X`` flips the gate around: instead of tolerating a
bounded slowdown, every matched run's ``elapsed_seconds_median`` must be
at least ``X`` (a fraction, e.g. ``0.2``) *faster* than the baseline.
The communication volume checks still apply, so the speedup cannot come
from silently doing less work.  This is the CI service gate:
``BENCH_service`` documents produced with ``--variant 1`` (baseline) and
``--variant 16`` (current) are compared with ``--expect-speedup 0.25``.

``--expect-reduction METRIC=FRACTION`` (repeatable) gates arbitrary
deterministic metrics instead of wall-clock time: each matched run must
satisfy ``current <= baseline * (1 - FRACTION)`` for every requested
metric, and **only** the requested metrics are compared — nothing else.
Metric paths: ``comm.bytes``, ``comm.messages``,
``elapsed_seconds_median`` and ``counters.<name>``.  This is the CI
partitioning gate: ``BENCH_partition`` documents produced per placement
strategy are compared against the round-robin document with
``--expect-reduction counters.partition.max_nnz_share=...`` (nnz-aware)
or ``--expect-reduction comm.bytes=...`` (locality-aware), because each
strategy optimises its own metric and may legitimately be worse on the
other.
"""

from __future__ import annotations

import argparse
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.perf.schema import BenchSchemaError, validate_bench

__all__ = [
    "Regression",
    "ComparisonReport",
    "compare_documents",
    "load_bench",
    "parse_expect_reduction",
    "main",
]

#: Default relative slowdown tolerated before a metric counts as regressed.
DEFAULT_THRESHOLD = 0.25

#: Absolute floor (seconds) under which ``elapsed_seconds_median`` drift
#: is ignored.
DEFAULT_MIN_SECONDS = 5e-4


@dataclass
class Regression:
    """One regressed metric of one ``backend × layout`` run."""

    #: run identifier, e.g. ``"sim/csr"``
    run: str
    #: metric name, e.g. ``"elapsed_seconds_median"`` or ``"comm.bytes"``
    metric: str
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        """``current / baseline`` (``inf`` when the baseline is zero)."""
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        """Human-readable one-liner for CLI output."""
        return (
            f"{self.run}: {self.metric} regressed "
            f"{self.baseline:.6g} -> {self.current:.6g} ({self.ratio:.2f}x)"
        )


@dataclass
class ComparisonReport:
    """Outcome of comparing two BENCH documents."""

    figure: str
    threshold: float
    regressions: list[Regression] = field(default_factory=list)
    #: runs present in only one of the documents (not comparable)
    unmatched_runs: list[str] = field(default_factory=list)
    #: metrics compared without finding a regression
    compared_metrics: int = 0

    @property
    def regressed(self) -> bool:
        """``True`` when at least one metric regressed."""
        return bool(self.regressions)


def _metric_value(run: Mapping[str, Any], metric: str) -> float:
    """Resolve a ``--expect-reduction`` metric path against one run entry.

    Supported paths: ``elapsed_seconds_median``, ``comm.bytes``,
    ``comm.messages`` and ``counters.<name>``.  A path that does not
    resolve (unknown shape, or a counter the run never recorded) raises
    ``ValueError`` so a typo fails the gate loudly instead of comparing
    nothing.
    """
    if metric == "elapsed_seconds_median":
        return float(run["elapsed_seconds_median"])
    if metric in ("comm.bytes", "comm.messages"):
        return float(run["comm"][metric.split(".", 1)[1]])
    if metric.startswith("counters."):
        name = metric.split(".", 1)[1]
        counters = run["counters"]
        if name not in counters:
            raise ValueError(
                f"run {_run_key(run)!r} has no counter {name!r} "
                f"(available: {sorted(counters) or 'none'})"
            )
        return float(counters[name])
    raise ValueError(
        f"unknown metric path {metric!r}: expected elapsed_seconds_median, "
        "comm.bytes, comm.messages or counters.<name>"
    )


def parse_expect_reduction(specs: list[str] | None) -> dict[str, float] | None:
    """Parse repeated ``METRIC=FRACTION`` CLI specs into a mapping."""
    if not specs:
        return None
    parsed: dict[str, float] = {}
    for spec in specs:
        metric, sep, fraction = spec.partition("=")
        if not sep or not metric:
            raise ValueError(
                f"malformed --expect-reduction {spec!r}: expected METRIC=FRACTION"
            )
        parsed[metric] = float(fraction)
    return parsed


def _run_key(run: Mapping[str, Any]) -> str:
    """Identity of one run within a document's ``runs[]`` series.

    Scenario-tagged runs (the ``apps`` figure emits one ``backend × csr``
    entry per application scenario) include the tag, so same-layout runs
    of different scenarios never collapse onto one key.
    """
    key = f"{run['backend']}/{run['layout']}"
    scenario = run.get("scenario")
    return f"{key}/{scenario}" if scenario else key


def compare_documents(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    expect_speedup: float | None = None,
    expect_reduction: Mapping[str, float] | None = None,
) -> ComparisonReport:
    """Compare two validated BENCH documents; see the module docstring.

    With ``expect_speedup`` set (a fraction in ``(0, 1)``), each matched
    run's ``elapsed_seconds_median`` must satisfy
    ``current <= baseline * (1 - expect_speedup)`` or the run is reported
    as a regression; the communication volume checks keep their usual
    threshold semantics.

    With ``expect_reduction`` set (metric path -> required fractional
    reduction), **only** those metrics are compared: each matched run must
    satisfy ``current <= baseline * (1 - fraction)`` per metric.  The two
    expectation modes are mutually exclusive.

    Raises ``ValueError`` for a negative or non-finite ``threshold``.
    """
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
    if expect_speedup is not None and not 0.0 < expect_speedup < 1.0:
        raise ValueError(f"expect_speedup must be in (0, 1), got {expect_speedup!r}")
    if expect_reduction is not None:
        if expect_speedup is not None:
            raise ValueError("expect_speedup and expect_reduction are exclusive")
        if not expect_reduction:
            raise ValueError("expect_reduction must name at least one metric")
        for metric, fraction in expect_reduction.items():
            if not 0.0 < fraction < 1.0:
                raise ValueError(
                    f"expect_reduction fraction for {metric!r} must be in (0, 1), "
                    f"got {fraction!r}"
                )
    validate_bench(baseline)
    validate_bench(current)
    if baseline["figure"] != current["figure"]:
        raise BenchSchemaError(
            f"documents describe different figures: "
            f"{baseline['figure']!r} vs {current['figure']!r}"
        )
    report = ComparisonReport(figure=str(current["figure"]), threshold=threshold)
    base_runs = {_run_key(run): run for run in baseline["runs"]}
    cur_runs = {_run_key(run): run for run in current["runs"]}
    report.unmatched_runs = sorted(set(base_runs) ^ set(cur_runs))

    def check(run: str, metric: str, base: float, cur: float, floor: float) -> None:
        report.compared_metrics += 1
        if cur > base * (1.0 + threshold) and cur - base >= floor:
            report.regressions.append(
                Regression(run=run, metric=metric, baseline=base, current=cur)
            )

    for key in sorted(set(base_runs) & set(cur_runs)):
        base, cur = base_runs[key], cur_runs[key]
        if expect_reduction is not None:
            for metric, fraction in sorted(expect_reduction.items()):
                base_value = _metric_value(base, metric)
                cur_value = _metric_value(cur, metric)
                report.compared_metrics += 1
                if cur_value > base_value * (1.0 - fraction):
                    report.regressions.append(
                        Regression(
                            run=key,
                            metric=f"{metric} (expected >= {fraction:.0%} reduction)",
                            baseline=base_value,
                            current=cur_value,
                        )
                    )
            continue
        base_elapsed = float(base["elapsed_seconds_median"])
        cur_elapsed = float(cur["elapsed_seconds_median"])
        if expect_speedup is not None:
            report.compared_metrics += 1
            if cur_elapsed > base_elapsed * (1.0 - expect_speedup):
                report.regressions.append(
                    Regression(
                        run=key,
                        metric=(
                            "elapsed_seconds_median"
                            f" (expected >= {expect_speedup:.0%} speedup)"
                        ),
                        baseline=base_elapsed,
                        current=cur_elapsed,
                    )
                )
        else:
            check(
                key,
                "elapsed_seconds_median",
                base_elapsed,
                cur_elapsed,
                DEFAULT_MIN_SECONDS,
            )
        for volume in ("messages", "bytes"):
            check(
                key,
                f"comm.{volume}",
                float(base["comm"][volume]),
                float(cur["comm"][volume]),
                0.0,
            )
    report.regressions.sort(key=lambda r: r.ratio, reverse=True)
    return report


def load_bench(path: str) -> dict[str, Any]:
    """Load and validate a ``BENCH_*.json`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    validate_bench(document)
    return document


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.compare",
        description="Diff two BENCH_*.json files; exit 1 on regression.",
    )
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="current BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative slowdown tolerated before failing, finite and >= 0 "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--expect-speedup",
        type=float,
        default=None,
        metavar="X",
        help="require every matched run to be at least this fraction "
        "faster than the baseline (e.g. 0.2 for a 20%% speedup)",
    )
    parser.add_argument(
        "--expect-reduction",
        action="append",
        default=None,
        metavar="METRIC=FRACTION",
        help="require every matched run to reduce METRIC (comm.bytes, "
        "comm.messages, elapsed_seconds_median or counters.<name>) by at "
        "least FRACTION vs the baseline; repeatable; only the requested "
        "metrics are compared in this mode",
    )
    args = parser.parse_args(argv)
    try:
        baseline = load_bench(args.baseline)
        current = load_bench(args.current)
        report = compare_documents(
            baseline,
            current,
            threshold=args.threshold,
            expect_speedup=args.expect_speedup,
            expect_reduction=parse_expect_reduction(args.expect_reduction),
        )
    except (OSError, json.JSONDecodeError, BenchSchemaError, ValueError) as exc:
        print(f"error: {exc}")
        return 2
    print(
        f"{report.figure}: compared {report.compared_metrics} metrics "
        f"at threshold {report.threshold:.0%}"
    )
    for run in report.unmatched_runs:
        print(f"  note: run {run} present in only one document (skipped)")
    if not report.regressed:
        print("  no regressions")
        return 0
    for regression in report.regressions:
        print(f"  REGRESSION {regression.describe()}")
    return 1


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
