"""Unified performance instrumentation.

Three pieces, layered bottom to top:

``recorder``
    :class:`PerfRecorder` — a registry of named counters.  One
    module-level *active* recorder (installed with :func:`use_recorder`)
    is consulted by the :func:`perf_count` probes of the instrumented
    kernels (local SpGEMM, DHB batch insertion, tuple redistribution, the
    communicator backends, the applications).  When no recorder is active
    every probe is a cheap no-op, so production code pays almost nothing.
    Communication volume is not a counter: each communicator accounts its
    own traffic in its ``CommStats`` (``comm.stats``).

``schema``
    The checked-in ``BENCH_<fig>.json`` document schema
    (:data:`BENCH_SCHEMA`), a dependency-free validator
    (:func:`validate_bench`) and the :func:`bench_document` builder used by
    ``benchmarks/run_suite.py``.

``compare``
    :func:`compare_documents` / the ``python -m repro.perf.compare`` CLI —
    diff two ``BENCH_*.json`` files and fail (exit code 1) on a relative
    slowdown above the threshold.

Time is not attributed to layers here: the paper's breakdowns are per
communication category (``CommStats``), and per-layer self time is what
the ``perf_ledger`` tracer measures from outside.

The subsystem is dependency-free by design (stdlib + NumPy only) and never
imports :mod:`repro.runtime`, so the runtime backends can import it without
cycles.
"""

from repro.perf.recorder import (
    PerfRecorder,
    get_recorder,
    perf_count,
    use_recorder,
)
#: names resolved lazily from their submodule, so that running the CLIs as
#: ``python -m repro.perf.compare`` / ``python -m repro.perf.schema`` does
#: not re-import the module being executed (which would trigger a runpy
#: warning)
_LAZY_EXPORTS = {
    "ComparisonReport": "compare",
    "Regression": "compare",
    "compare_documents": "compare",
    "BENCH_SCHEMA": "schema",
    "BENCH_SCHEMA_VERSION": "schema",
    "BenchSchemaError": "schema",
    "bench_document": "schema",
    "bench_run_entry": "schema",
    "git_sha": "schema",
    "validate_bench": "schema",
}


def __getattr__(name: str):
    """Lazily expose the :mod:`repro.perf.schema` / ``compare`` public names."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f"repro.perf.{module_name}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PerfRecorder",
    "get_recorder",
    "use_recorder",
    "perf_count",
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "BenchSchemaError",
    "bench_document",
    "bench_run_entry",
    "git_sha",
    "validate_bench",
    "ComparisonReport",
    "Regression",
    "compare_documents",
]
