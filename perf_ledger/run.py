#!/usr/bin/env python3
"""The perf ledger: one command that measures, verifies and prints.

    python3 perf_ledger/run.py --workload W --seed S --seconds N --trace 0|1
    python3 perf_ledger/run.py [--seed S] [--trace] [--out DIR]   # all five
    python3 perf_ledger/run.py --compare A.json B.json

With ``--workload`` the process scrubs every ``REPRO_*`` variable, makes the
inputs from the seed, runs two untimed warm-up passes and then timed passes
on a fresh world each (``gc.collect()`` between them, tracing and the
``PerfRecorder`` off) until ``--seconds`` of measuring are used, verifies
every pass against the benchmark's own references, prints every metric by
name with its unit (timings as lower envelopes over the passes) and ends
with one JSON line.  ``--trace 1`` instead runs the warm-up, then a traced
pass between two untraced ones, and reports the per-layer metrics.  Without
``--workload`` each workload runs in a fresh subprocess and the result files
are gathered into ``DIR/ledger.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf_ledger import metrics  # noqa: E402 - needs the path set above

#: untimed passes at the start of a run.  The first pass of a process is
#: off (see README.md), and on the loopback world so is sometimes the
#: second: glibc raises its mmap threshold when the first big buffers are
#: freed, after which pickling large payloads costs ~1.7x as much — the
#: state every later pass, and any long-running process, is in
WARMUP_PASSES = 2

#: a run always has at least this many timed passes
MIN_PASSES = 3


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def hygiene(args, sizes: dict, scrubbed: list[str]) -> dict:
    """What a result file records about how the run was made."""
    import numpy
    import scipy

    return {
        "scrubbed_env": scrubbed,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "sizes": sizes,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "threads": sizes.get("world", 1),
    }


def _attempt(workload, *, oracle: bool, recorder=None):
    """One pass and its verification: ``(result or None, failures, verify_s)``."""
    gc.collect()
    try:
        result = workload.run_pass(recorder)
    except Exception:  # noqa: BLE001 - a failing pass is a counted outcome
        traceback.print_exc()
        return None, ["pass raised"], 0.0
    start = perf_counter()
    failures = workload.verify(result, oracle=oracle)
    result.outputs.clear()
    return result, failures, perf_counter() - start


def run_workload(args) -> int:
    """Measure one workload in this process; returns the exit code."""
    # configuration the program reads from the environment (REPRO_BACKEND,
    # REPRO_KERNEL_TIER, REPRO_OVERLAP, ...): a ledger run never inherits it
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in scrubbed:
        del os.environ[name]
    from repro.perf import PerfRecorder

    from perf_ledger import tracer
    from perf_ledger.workloads import SIZES, TINY, WORKLOADS

    sizes = (TINY if args.tiny else SIZES)[args.workload]
    start = perf_counter()
    workload = WORKLOADS[args.workload](args.seed, sizes)
    driver = {"driver.gen_s": perf_counter() - start, "driver.verify_s": 0.0}

    failures: list[str] = []
    attempted = failed = 0

    def attempt(**kwargs):
        """One pass (None if it raised); counts its operations either way.

        A pass whose outputs are wrong keeps its timings: they are real,
        and the run is reported as incorrect anyway.
        """
        nonlocal attempted, failed
        result, problems, verify_s = _attempt(workload, **kwargs)
        driver["driver.verify_s"] += verify_s
        attempted += workload.ops_per_pass
        if problems:
            failed += workload.ops_per_pass
            failures.extend(problems)
        return result

    # only the first warm-up pass pays for the repo's own oracles
    start = perf_counter()
    for index in range(WARMUP_PASSES):
        attempt(oracle=index == 0)
    driver["driver.warmup_s"] = perf_counter() - start

    passes = []
    values: dict = {}
    spans = None
    if not args.trace:
        start = perf_counter()
        bad = 0
        min_passes = 1 if args.tiny else MIN_PASSES
        while bad < MIN_PASSES and (
            perf_counter() - start < args.seconds or len(passes) < min_passes
        ):
            result = attempt(oracle=False)
            if result is None:
                bad += 1
            else:
                passes.append(result)
        if passes:
            values = metrics.end_to_end(
                passes,
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                attempted,
                failed,
            )
    else:
        # an untraced pass on either side of the traced one brackets the
        # machine's drift, which is larger than the tracing overhead
        untraced = [attempt(oracle=False)]
        recorder = PerfRecorder()
        active = tracer.Tracer().install()
        try:
            traced = attempt(oracle=False, recorder=recorder)
        finally:
            active.uninstall()
        untraced.append(attempt(oracle=False))
        if traced is not None and None not in untraced:
            passes = [traced]
            spans = traced.trace
            driver["untraced_wall_s"] = sum(p.wall_s for p in untraced) / 2
            driver["driver.untraced_targets"] = len(active.missing)
            values = metrics.per_layer(traced, spans, recorder, driver)

    correct = bool(values) and failed == 0
    units = {**metrics.EXTRA, **metrics.END_TO_END, **metrics.PER_LAYER}
    print(f"# {args.workload}  seed={args.seed}  trace={args.trace}")
    for name, value in values.items():
        print(f"{name:40s} {value:>18.6f} {units[name]['unit']}")
    print(
        f"# passes={len(passes)}  op_samples={sum(len(p.op_s) for p in passes)}"
        f"  attempted={attempted}  failed={failed}"
    )
    if spans is not None:
        shares = metrics.layer_shares(values)
        print("# layer shares: " + "  ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        if sizes.get("world", 1) > 1:
            print("# spans are world rank 0's thread and include its waits for the GIL")
    for problem in failures:
        print(f"# FAILED: {problem}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}.trace{args.trace}"
        document = {
            "workload": args.workload,
            "trace": args.trace,
            "hygiene": hygiene(args, sizes, scrubbed),
            "metrics": values,
            "passes": [
                {
                    "setup_s": p.setup_s, "wall_s": p.wall_s,
                    "modeled_s": p.modeled_s, "op_samples": len(p.op_s),
                    "op_ms_p50": metrics.percentile_ms(p.op_s, 50),
                    "op_ms_p90": metrics.percentile_ms(p.op_s, 90),
                    "query_s": p.query_s, "static_s": p.static_s,
                }
                for p in passes
            ],
            "driver": driver,
            "correct": correct, "attempted": attempted, "failed": failed,
            "failures": failures,
        }
        (out / f"{stem}.json").write_text(json.dumps(document, indent=1) + "\n")
        if spans is not None:
            tracer.write_jsonl(spans, out / f"{stem}.spans.jsonl", "rank0")

    if not values:
        return 2
    gated = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": spec["unit"]}
            for name, spec in gated.items()
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh subprocess (which scrubs its own
    environment); gathers the result files into one ledger."""
    out = Path(args.out or ROOT / "perf_ledger_out")
    worst = 0
    ledger: dict = {"workloads": {}}
    for workload in metrics.WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out),
            ] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(command, check=False)
            worst = max(worst, done.returncode)
            path = out / f"{workload}.trace{trace}.json"
            if path.exists():
                ledger["workloads"].setdefault(workload, {})[f"trace{trace}"] = (
                    json.loads(path.read_text(encoding="utf-8"))
                )
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"# ledger written to {out / 'ledger.json'}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="directory for result files and span JSONL")
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from perf_ledger.compare import compare_files

        return compare_files(*args.compare)
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
