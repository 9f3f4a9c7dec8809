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

The paper's comparative claims are not this gate's business: each figure
declares them, and the run that measures the figure checks them (see
``benchmarks/figures.py``).
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
    "main",
]

#: Default relative slowdown tolerated before a metric counts as regressed.
DEFAULT_THRESHOLD = 0.25

#: Absolute floor (seconds) under which ``elapsed_seconds_median`` drift
#: is ignored.
DEFAULT_MIN_SECONDS = 5e-4


@dataclass
class Regression:
    """One regressed metric of one run."""

    #: run identifier, e.g. ``"sim"`` or ``"sim/<scenario>"``
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


def _run_key(run: Mapping[str, Any]) -> str:
    """Identity of one run within a document's ``runs[]`` series.

    Scenario-tagged runs (a figure measures many tagged cells on one
    backend) include the tag, so same-backend runs of different scenarios
    never collapse onto one key.
    """
    scenario = run.get("scenario")
    return f"{run['backend']}/{scenario}" if scenario else str(run["backend"])


def compare_documents(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> ComparisonReport:
    """Compare two validated BENCH documents; see the module docstring.

    Raises ``ValueError`` for a negative or non-finite ``threshold``.
    """
    if not (math.isfinite(threshold) and threshold >= 0.0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold!r}")
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
        check(
            key,
            "elapsed_seconds_median",
            float(base["elapsed_seconds_median"]),
            float(cur["elapsed_seconds_median"]),
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
    args = parser.parse_args(argv)
    try:
        baseline = load_bench(args.baseline)
        current = load_bench(args.current)
        report = compare_documents(baseline, current, threshold=args.threshold)
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
