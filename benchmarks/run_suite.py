#!/usr/bin/env python
"""The perf-suite runner: measure registry figures, emit ``BENCH_<fig>.json``.

Every figure of ``benchmarks/figures.py`` goes through the same steps,
written here once: resolve the variant axis, plan the cells, measure each
(warm-up, repeats, the median time plus the counters of a
:class:`repro.perf.PerfRecorder` and the comm volume the cell's world
recorded, or the cell's own samples), tag the
runs, assemble and validate the document, and let world rank 0 write it.
The documents are the input of the regression gate
``python -m repro.perf.compare`` (see ``docs/performance.md`` for the
figure/variant/gate table).

Examples
--------
Smoke run of all figures (what CI's perf-smoke job executes)::

    python benchmarks/run_suite.py --smoke

Restrict the matrix, bump the repeat count or pick a larger profile::

    python benchmarks/run_suite.py --backends sim --layouts csr,dhb \
        --figs fig04,fig09 --repeats 5 --profile default --out bench_out

One variant of one figure, for a two-document gate::

    python benchmarks/run_suite.py --figs service --variant 1 \
        --filename BENCH_service_single.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from statistics import median
from typing import Any

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from figures import FIGURES, Cell, Context, Figure

from repro.bench.config import BenchProfile, get_profile
from repro.perf import PerfRecorder, bench_document, bench_run_entry, use_recorder
from repro.runtime import world_rank
from repro.scenarios import REPLAY_LAYOUTS


def resolve_variants(figure: Figure, variant: str = "all") -> tuple[str, ...]:
    """The variants one document of ``figure`` measures.

    ``"all"`` is every variant (none for a figure without an axis);
    anything else must be an accepted value of the axis.
    """
    if variant == "all":
        return figure.variants
    if variant not in figure.variants:
        raise ValueError(
            f"figure {figure.name!r} has no variant {variant!r} "
            f"(known: {', '.join(figure.variants) or 'none'})"
        )
    return (variant,)


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


def build_document(
    figure: Figure,
    *,
    profile: BenchProfile,
    variant: str = "all",
    backends: tuple[str, ...],
    layouts: tuple[str, ...],
    repeats: int | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """Measure ``figure`` and assemble its validated BENCH document.

    ``repeats``/``seed`` default to the figure's own.  With one variant
    selected the scenario tags are variant-free, so two single-variant
    documents match run for run under ``repro.perf.compare``; with several
    each tag carries its variant as a suffix.
    """
    ctx = Context(
        profile=profile,
        seed=figure.seed if seed is None else seed,
        backends=backends,
        layouts=layouts,
        variants=resolve_variants(figure, variant),
    )
    cells, extras = figure.plan(ctx)
    runs = []
    for cell in cells:
        entry = measure(figure, cell, figure.repeats if repeats is None else repeats)
        if cell.tag is not None:
            suffix = ctx.combined and cell.variant is not None
            entry["scenario"] = (
                f"{cell.tag}{figure.variant_sep}{cell.variant}" if suffix else cell.tag
            )
        runs.append(entry)
    # a figure that pins its own rank count ignores the bench profile and
    # labels the document with its own name
    pinned = figure.n_ranks is not None
    return bench_document(
        figure=figure.name,
        title=figure.title,
        seed=ctx.seed,
        profile=figure.name if pinned else profile.name,
        n_ranks=figure.n_ranks if pinned else profile.n_ranks,
        runs=runs,
        extras=extras(),
    )


def format_runs(figure: Figure, document: dict[str, Any], variant: str) -> str:
    """The runs of a document built for ``variant``, one fixed-width line each."""
    variants = resolve_variants(figure, variant)
    # a combined document's tags end in their variant; a single-variant
    # document measures nothing else
    combined = len(variants) > 1
    lines = [f"{'tag':<32} {'variant':<14} {'backend':<7} {'layout':<6} {'median s':>12}"]
    for run in document["runs"]:
        tag = run.get("scenario", "-")
        measured = "-" if combined or not variants else variants[0]
        for name in variants if combined else ():
            suffix = figure.variant_sep + name
            if tag.endswith(suffix):
                tag, measured = tag[: -len(suffix)], name
        lines.append(
            f"{tag:<32} {measured:<14} {run['backend']:<7} {run['layout']:<6} "
            f"{run['elapsed_seconds_median']:>12.6f}"
        )
    return "\n".join(lines)


def _csv(text: str) -> tuple[str, ...]:
    return tuple(field.strip() for field in text.split(",") if field.strip())


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add = parser.add_argument
    add("--figs", default=",".join(FIGURES), help="comma-separated figures (default: all)")
    add(
        "--variant",
        default="all",
        help="one value of the figure's variant axis (paper figures: the competitor "
        "ours|combblas|ctf|petsc, service: flush size 1|4|16, partition: a "
        "partitioner) or 'all' for the combined document (default); a value "
        "needs a single figure",
    )
    add("--filename", help="output file name, single figure only (BENCH_<fig>.json)")
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
        if (args.variant != "all" or args.filename) and len(figs) != 1:
            raise ValueError("--variant and --filename need a single --figs entry")
        for fig in figs:
            if fig not in FIGURES:
                raise ValueError(f"unknown figure {fig!r}; known: {', '.join(FIGURES)}")
            resolve_variants(FIGURES[fig], args.variant)
        for layout in layouts:
            if layout not in REPLAY_LAYOUTS:
                raise ValueError(
                    f"unknown layout {layout!r}; known: {', '.join(REPLAY_LAYOUTS)}"
                )
        profile = get_profile("smoke" if args.smoke else args.profile)
    except (KeyError, ValueError) as exc:
        # KeyError: unknown profile; ValueError: unknown figure, variant or layout
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    written = 0
    for fig in figs:
        figure = FIGURES[fig]
        if figure.rank0_only and world_rank() != 0:
            continue
        started = time.perf_counter()
        # a checkpoint drill that fails its round trip raises out of here:
        # the process exits 1 with the mismatch in the traceback
        document = build_document(
            figure,
            profile=profile,
            variant=args.variant,
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
        path = os.path.join(args.out, args.filename or f"BENCH_{fig}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written += 1
        print(format_runs(figure, document, args.variant))
        print(
            f"wrote {path}  ({len(document['runs'])} runs, "
            f"{time.perf_counter() - started:.1f}s)"
        )
    print(f"{written} BENCH document(s) written to {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
