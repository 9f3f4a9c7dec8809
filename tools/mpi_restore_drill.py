#!/usr/bin/env python
"""Two-job kill-and-restore drill for real multi-process worlds.

The loopback fault drills (``tests/test_fault_drills.py``) restart a
threaded world inside one process.  This driver exercises the *durable*
half of the contract across genuinely separate jobs: a first ``mpiexec``
job crashes mid-trace after persisting per-process snapshot files, then a
second, fresh ``mpiexec`` job resumes from those files and verifies the
continuation byte-identically against an uninterrupted reference run.

    mpiexec -n 2 env PYTHONPATH=src python tools/mpi_restore_drill.py crash --store /tmp/drill
    mpiexec -n 2 env PYTHONPATH=src python tools/mpi_restore_drill.py resume --store /tmp/drill

The ``crash`` phase replays the checkpointed trace with an injected
whole-world kill (``on_crash="raise"``), confirms every process persisted
its snapshot of the trace and exits 0 — the simulated crash is the
*expected* outcome.  The ``resume`` phase finds each process's snapshot
through a fresh ``CheckpointStore(store).latest(rank, fingerprint)``,
resumes from it (``resume_from=``), recomputes the uninterrupted reference
in-process and fails (exit 1) if final tuples or any non-``recovery``
communication category diverge.  Without ``mpiexec`` the driver runs the
same protocol on the single-rank emulated world, so the drill is also a
plain local smoke test.  Used by the CI fault-drill job; see
``docs/fault_tolerance.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

from repro.runtime import world_rank
from repro.runtime.faults import SimulatedCrash
from repro.scenarios import (
    SCENARIO_GENERATORS,
    CheckpointStore,
    replay,
    scenario_fingerprint,
    with_checkpoint,
)

SCENARIO = "grow_from_empty"
CHECKPOINT_AT = 3
CRASH_AT = 5


def _trace(seed: int):
    return with_checkpoint(SCENARIO_GENERATORS[SCENARIO](seed=seed), at=CHECKPOINT_AT)


def _replay(scenario, args, **kwargs):
    with warnings.catch_warnings():
        # the emulated-mpi fallback warns once when mpi4py is absent
        warnings.simplefilter("ignore", RuntimeWarning)
        return replay(
            scenario,
            backend="mpi",
            n_ranks=args.n_ranks,
            layout=args.layout,
            **kwargs,
        )


def _stored(args: argparse.Namespace, trace):
    """This process's snapshot of ``trace``, read back by a fresh store."""
    return CheckpointStore(args.store).latest(world_rank(), scenario_fingerprint(trace))


def run_crash(args: argparse.Namespace) -> int:
    """Phase 1: crash mid-trace, leaving durable snapshots behind."""
    trace = _trace(args.seed)
    try:
        _replay(
            trace,
            args,
            checkpoint_store=CheckpointStore(args.store),
            faults=f"kill@{CRASH_AT}",
            on_crash="raise",
        )
    except SimulatedCrash as crash:
        if _stored(args, trace) is None:
            print(f"FAILED: crashed but no snapshot in {args.store}", file=sys.stderr)
            return 1
        print(f"rank {world_rank()}: {crash} — snapshot persisted to {args.store}")
        return 0
    print("FAILED: the injected crash did not fire", file=sys.stderr)
    return 1


def run_resume(args: argparse.Namespace) -> int:
    """Phase 2: resume from the durable snapshots, verify byte-identity."""
    rank = world_rank()
    trace = _trace(args.seed)
    snapshot = _stored(args, trace)
    if snapshot is None:
        print(f"FAILED: no snapshot in {args.store} (run the crash phase first)",
              file=sys.stderr)
        return 1
    recovered = _replay(trace, args, resume_from=snapshot)
    reference = _replay(trace, args)
    for a, b in zip(reference.final_a, recovered.final_a):
        if not np.array_equal(a, b):
            print("FAILED: final tuples diverged after restore", file=sys.stderr)
            return 1
    signature = dict(recovered.comm_signature())
    recovery = signature.pop("recovery", (0, 0))
    if signature != dict(reference.comm_signature()):
        print("FAILED: non-recovery comm volume diverged", file=sys.stderr)
        return 1
    print(
        f"rank {rank}: resumed from {args.store} byte-identically "
        f"(recovery traffic: {recovery[0]} messages, {recovery[1]} bytes)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("crash", "resume"))
    parser.add_argument(
        "--store", required=True, help="durable snapshot directory shared by both jobs"
    )
    parser.add_argument("--seed", type=int, default=2022, help="scenario seed")
    parser.add_argument("--layout", default="dhb", help="local layout (default dhb)")
    parser.add_argument(
        "--n-ranks", type=int, default=4, help="logical rank count (default 4)"
    )
    args = parser.parse_args(argv)
    if args.phase == "crash":
        return run_crash(args)
    return run_resume(args)


if __name__ == "__main__":
    raise SystemExit(main())
