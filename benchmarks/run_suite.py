#!/usr/bin/env python
"""The perf-suite runner: measure registry figures, emit ``BENCH_<fig>.json``.

Every figure of ``benchmarks/figures.py`` goes through the same steps,
written here once: plan the cells, measure each (warm-up, repeats, the
median time plus the counters of a :class:`repro.perf.PerfRecorder` and
the comm volume the cell's world recorded, or the cell's own samples), tag
the runs, check the figure's claims on them, assemble and validate the
document, and let world rank 0 write it.  The run exits 1, after writing
every document, when a measured claim fails.  The documents are also the
input of the regression gate ``python -m repro.perf.compare`` (see
``docs/performance.md`` for the figure and claim tables).

Examples
--------
Smoke run of all figures (what CI's perf-smoke job executes)::

    python benchmarks/run_suite.py --smoke

Restrict the matrix, bump the repeat count or pick a larger profile::

    python benchmarks/run_suite.py --backends sim --layouts csr,dhb \
        --figs fig04,fig09 --repeats 5 --profile default --out bench_out
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from statistics import median
from typing import Any, Callable

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from figures import FIGURES, Cell, Context, Figure

from repro.bench.config import BenchProfile, get_profile
from repro.perf import PerfRecorder, bench_document, bench_run_entry, use_recorder
from repro.runtime import world_rank, world_size
from repro.runtime.mpi_backend import load_mpi
from repro.scenarios import REPLAY_LAYOUTS


def measure(figure: Figure, cell: Cell, repeats: int) -> dict[str, Any]:
    """One ``runs[]`` entry, not yet tagged with its scenario."""
    if figure.warmup:
        # the first call pays import and cache costs that would otherwise
        # skew the measured repeats
        cell.run()
    outs = []
    for _ in range(repeats):
        recorder = PerfRecorder()
        with use_recorder(recorder) if figure.recorded else nullcontext():
            outs.append(cell.run())
    if figure.recorded:
        # counters and comm are deterministic: the last repeat's stand
        seconds = [t for t, _ in outs]
        counters, categories = recorder.counters, outs[-1][1]
        comm = {
            key: sum(totals[key] for totals in categories.values())
            for key in ("messages", "bytes")
        }
    else:
        seconds = [t for out in outs for t in out.seconds]
        categories = {}
        counters = {
            key: median(out.counters[key] for out in outs)
            for key in outs[-1].counters
        }
        comm = outs[-1].comm
    return bench_run_entry(
        backend=cell.backend,
        layout=cell.layout,
        repeats=len(seconds),
        elapsed_seconds_median=median(seconds),
        counters=counters,
        comm=comm,
        comm_categories=categories or None,
    )


def _measure_figure(
    figure: Figure, ctx: Context, repeats: int
) -> tuple[list[tuple[Cell, dict[str, Any]]], Callable[[], dict[str, Any]]]:
    """Every planned cell with its tagged ``runs[]`` entry, and the extras hook."""
    cells, extras = figure.plan(ctx)
    measured = []
    for cell in cells:
        entry = measure(figure, cell, repeats)
        if cell.tag is not None:
            suffix = "" if cell.variant is None else figure.variant_sep + cell.variant
            entry["scenario"] = cell.tag + suffix
        measured.append((cell, entry))
    return measured, extras


def _remeasure(figure: Figure, claims: list[dict[str, Any]]) -> bool:
    """Whether a ``simulated`` claim failed, as world rank 0 sees it.

    Smoke-scale simulated seconds still contain measured compute, so such a
    failure earns the figure one more measurement.  That measurement is
    collective, so under ``mpiexec`` every process follows world rank 0.
    """
    failed = any(
        claim["kind"] == "simulated" and claim["status"] == "fails" for claim in claims
    )
    if figure.rank0_only or world_size() == 1:
        return failed
    return bool(load_mpi().bcast(failed, root=0))


def build_document(
    figure: Figure,
    *,
    profile: BenchProfile,
    backends: tuple[str, ...],
    layouts: tuple[str, ...],
    repeats: int | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """Measure ``figure``, check its claims and assemble its validated BENCH document.

    ``repeats``/``seed`` default to the figure's own.  A failed
    ``simulated`` claim re-measures the whole figure once, and the document
    holds that second measurement; ``count`` and ``wall`` claims are not
    retried.  A claim that reads a cell the measured backends should have
    produced, and did not, raises :class:`figures.MissingCell`.
    """
    ctx = Context(
        profile=profile,
        seed=figure.seed if seed is None else seed,
        backends=backends,
        layouts=layouts,
        variants=figure.variants,
    )
    repeats = figure.repeats if repeats is None else repeats
    for _ in range(2):
        measured, extras = _measure_figure(figure, ctx, repeats)
        claims = [claim.record(ctx, measured) for claim in figure.claims]
        if not _remeasure(figure, claims):
            break
    # a figure that pins its own rank count ignores the bench profile and
    # labels the document with its own name
    pinned = figure.n_ranks is not None
    return bench_document(
        figure=figure.name,
        title=figure.title,
        seed=ctx.seed,
        profile=figure.name if pinned else profile.name,
        n_ranks=figure.n_ranks if pinned else profile.n_ranks,
        runs=[entry for _, entry in measured],
        extras=extras(),
        claims=claims,
    )


def format_runs(figure: Figure, document: dict[str, Any]) -> str:
    """The runs and claims of a document, one fixed-width line each."""
    lines = [f"{'tag':<32} {'variant':<14} {'backend':<7} {'layout':<6} {'median s':>12}"]
    for run in document["runs"]:
        tag, measured = run.get("scenario", "-"), "-"
        for name in figure.variants:
            if tag.endswith(figure.variant_sep + name):
                tag, measured = tag[: -len(figure.variant_sep + name)], name
                break
        lines.append(
            f"{tag:<32} {measured:<14} {run['backend']:<7} {run['layout']:<6} "
            f"{run['elapsed_seconds_median']:>12.6f}"
        )
    for claim in document["claims"]:
        value = f"{claim['value']:.4g}" if "value" in claim else "-"
        lines.append(
            f"claim {claim['status']:<12} {value:>10}  {claim['kind']:<9} "
            f"{claim['paper']}: {claim['name']}"
        )
    return "\n".join(lines)


def _csv(text: str) -> tuple[str, ...]:
    return tuple(field.strip() for field in text.split(",") if field.strip())


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add = parser.add_argument
    add("--figs", default=",".join(FIGURES), help="comma-separated figures (default: all)")
    add("--backends", default="sim,mpi", help="comma-separated communicator backends")
    add(
        "--layouts",
        default=",".join(REPLAY_LAYOUTS),
        help="comma-separated replay layouts of the static right operand "
        "(default: %(default)s)",
    )
    add("--repeats", type=int, help="measured calls per cell (default: the figure's)")
    add("--seed", type=int, help="base seed (default: the figure's)")
    add("--out", default="bench_out", help="output directory (default: %(default)s)")
    add("--profile", default="smoke", help="smoke|default|large (default: %(default)s)")
    add("--smoke", action="store_true", help="alias of --profile smoke")
    args = parser.parse_args(argv)
    figs, layouts = _csv(args.figs), _csv(args.layouts)
    try:
        for fig in figs:
            if fig not in FIGURES:
                raise ValueError(f"unknown figure {fig!r}; known: {', '.join(FIGURES)}")
        for layout in layouts:
            if layout not in REPLAY_LAYOUTS:
                raise ValueError(
                    f"unknown layout {layout!r}; known: {', '.join(REPLAY_LAYOUTS)}"
                )
        profile = get_profile("smoke" if args.smoke else args.profile)
    except (KeyError, ValueError) as exc:
        # KeyError: unknown profile; ValueError: unknown figure or layout
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    written = failed = 0
    for fig in figs:
        figure = FIGURES[fig]
        if figure.rank0_only and world_rank() != 0:
            continue
        started = time.perf_counter()
        # a checkpoint drill that fails its round trip, or a claim that
        # misses a cell, raises out of here: the process exits 1 with the
        # cause in the traceback
        document = build_document(
            figure,
            profile=profile,
            backends=_csv(args.backends),
            layouts=layouts,
            repeats=args.repeats,
            seed=args.seed,
        )
        # Under a multi-process launch every process measures (one SPMD
        # program) but only world rank 0 writes, since concurrent writers
        # would race on the files.  The comm volume is merged over the
        # world, so it is the same on every process; the counters stay
        # world rank 0's own.
        if world_rank() != 0:
            continue
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"BENCH_{fig}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written += 1
        failed += sum(claim["status"] == "fails" for claim in document["claims"])
        print(format_runs(figure, document))
        print(
            f"wrote {path}  ({len(document['runs'])} runs, "
            f"{time.perf_counter() - started:.1f}s)"
        )
    print(f"{written} BENCH document(s) written to {args.out}/")
    if failed:
        print(f"error: {failed} measured claim(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
