"""Outside-in span tracer: wraps declared public callables of ``repro``.

The program carries no spans of its own, so the traced run installs them
from here.  :data:`SPAN_TARGETS` declares which callables are wrapped and
which per-layer metric each one's *self time* (duration minus the wrapped
calls made inside it) is added to.  Module-level functions are rebound in
every ``repro.*`` module whose attribute ``is`` the original, so
``from x import f`` call sites are caught; methods are patched on the class
that defines them.  Everything is put back by :meth:`Tracer.uninstall`.

What is *not* wrapped, on purpose:

* ``run_local`` / ``map_local`` are counted, never timed: a layer's private
  per-rank closures land in the self time of the public function that
  dispatched them;
* nothing called more than ~10^4 times per pass (no per-element DHB or
  Bloom methods), which keeps the tracing overhead within a few percent.

A declared target the program no longer has is skipped and counted in
``missing`` — a later refactor loses a metric, not the benchmark.

Spans are kept in memory on a per-thread stack.  On the 2-thread loopback
world each thread records its own spans; the reported numbers are world
rank 0's thread and therefore include its waits for the interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
from time import perf_counter

#: metric -> callables whose self time it sums ("module:function" or
#: "module:Class.method")
SPAN_TARGETS: dict[str, list[str]] = {
    "service.self_s": [
        "repro.service.service:GraphService.create_tenant",
        "repro.service.service:GraphService.advance_time",
        "repro.service.service:GraphService.flush_all",
        "repro.service.service:GraphService.shutdown",
        "repro.service.service:GraphTenant.submit",
        "repro.service.service:GraphTenant.flush",
        "repro.service.service:GraphTenant.spgemm",
        "repro.service.service:GraphTenant.triangle_count",
        "repro.service.service:GraphTenant.shortest_paths",
        "repro.service.service:GraphTenant.contract",
        "repro.service.service:GraphTenant.result",
        "repro.service.service:GraphTenant.close",
        "repro.service.queue:coalesce",
    ],
    "scenarios.engine_self_s": [
        "repro.scenarios.engine:ScenarioEngine.begin",
        "repro.scenarios.engine:ScenarioEngine.advance",
    ],
    "scenarios.result_self_s": ["repro.scenarios.engine:ScenarioEngine.result"],
    "scenarios.executor_self_s": [
        "repro.scenarios.executors:NativeExecutor.prepare",
        "repro.scenarios.executors:NativeExecutor.construct",
        "repro.scenarios.executors:NativeExecutor.apply",
        "repro.scenarios.executors:NativeExecutor.query",
        "repro.scenarios.executors:NativeExecutor.snapshot",
        "repro.scenarios.executors:NativeExecutor.final_a",
        "repro.scenarios.executors:NativeExecutor.final_c",
    ],
    "scenarios.scatter_self_s": ["repro.scenarios.model:ScenarioStep.per_rank"],
    "apps.triangle_insert_self_s": [
        "repro.apps.triangle_counting:DynamicTriangleCounter.__init__",
        "repro.apps.triangle_counting:DynamicTriangleCounter.insert_edges",
    ],
    "apps.triangle_count_self_s": [
        "repro.apps.triangle_counting:DynamicTriangleCounter.triangle_count",
        "repro.apps.triangle_counting:DynamicTriangleCounter.closed_wedge_weight",
    ],
    "apps.contract_self_s": [
        "repro.apps.contraction:contract_graph",
        "repro.apps.contraction:contraction_matrix",
    ],
    "core.cstar_self_s": ["repro.core.dynamic_algebraic:compute_cstar"],
    "core.algebraic_self_s": [
        "repro.core.dynamic_algebraic:dynamic_spgemm_algebraic"
    ],
    "core.general_self_s": [
        "repro.core.dynamic_general:dynamic_spgemm_general",
        "repro.core.dynamic_general:filter_by_row_bloom",
    ],
    "core.product_self_s": [
        "repro.core.api:DynamicProduct.__init__",
        "repro.core.api:DynamicProduct.apply_updates",
        "repro.core.transpose:transpose_dist",
    ],
    "core.reduce_self_s": [
        "repro.core.collectives:sparse_reduce_to_root",
        "repro.core.collectives:bloom_reduce_to_root",
    ],
    "core.summa_self_s": ["repro.core.summa:summa_spgemm"],
    "distributed.redistribute_self_s": [
        "repro.distributed.redistribution:redistribute_tuples",
        "repro.distributed.redistribution:redistribute_tuples_single_phase",
    ],
    "distributed.build_update_self_s": [
        "repro.distributed.updates:build_update_matrix"
    ],
    "distributed.apply_update_self_s": [
        "repro.distributed.dist_matrix:DynamicDistMatrix.add_update",
        "repro.distributed.dist_matrix:DynamicDistMatrix.merge_update",
        "repro.distributed.dist_matrix:DynamicDistMatrix.mask_update",
    ],
    "distributed.construct_self_s": [
        "repro.distributed.dist_matrix:DynamicDistMatrix.empty",
        "repro.distributed.dist_matrix:DynamicDistMatrix.from_tuples",
        "repro.distributed.dist_matrix:DynamicDistMatrix.insert_tuples",
        "repro.distributed.dist_matrix:DynamicDistMatrix.to_static",
        "repro.distributed.dist_matrix:DynamicDistMatrix.copy",
        "repro.distributed.dist_matrix:StaticDistMatrix.empty",
        "repro.distributed.dist_matrix:StaticDistMatrix.from_tuples",
        "repro.distributed.dist_matrix:StaticDistMatrix.from_dynamic",
        "repro.distributed.dist_matrix:StaticDistMatrix.to_dynamic",
        "repro.distributed.dist_matrix:StaticDistMatrix.copy",
    ],
    "distributed.collect_self_s": [
        "repro.distributed.dist_matrix:DistMatrixBase.to_coo_global",
        "repro.distributed.dist_matrix:DistMatrixBase.contains_tuples",
        "repro.distributed.dist_matrix:DistMatrixBase.nnz",
        "repro.distributed.dist_matrix:DistMatrixBase.nbytes",
    ],
    "sparse.dhb_insert_self_s": [
        "repro.sparse.dhb:DHBMatrix.insert_batch",
        "repro.sparse.dhb:DHBMatrix.reserve_batch",
        "repro.sparse.dhb:DHBMatrix.add_update",
        "repro.sparse.dhb:DHBMatrix.merge_update",
    ],
    "sparse.dhb_mask_self_s": ["repro.sparse.dhb:DHBMatrix.mask_update"],
    "sparse.spgemm_local_self_s": [
        "repro.sparse.spgemm_local:spgemm_local",
        "repro.sparse.spgemm_local:spgemm_rowwise_spa",
    ],
    "sparse.spgemm_masked_self_s": [
        "repro.sparse.spgemm_local:spgemm_local_masked"
    ],
    "sparse.convert_self_s": [
        "repro.sparse.csr:CSRMatrix.from_coo",
        "repro.sparse.csr:CSRMatrix.to_coo",
        "repro.sparse.csr:CSRMatrix.to_scipy",
        "repro.sparse.csr:CSRMatrix.from_scipy",
        "repro.sparse.dcsr:DCSRMatrix.from_coo",
        "repro.sparse.dcsr:DCSRMatrix.to_coo",
        "repro.sparse.dcsr:DCSRMatrix.to_csr",
        "repro.sparse.dhb:DHBMatrix.from_coo",
        "repro.sparse.dhb:DHBMatrix.to_coo",
        "repro.sparse.dhb:DHBMatrix.to_csr",
        "repro.sparse.dhb:DHBMatrix.copy",
    ],
    "sparse.bloom_self_s": [
        "repro.sparse.bloom:BloomFilterMatrix.or_inplace",
        "repro.sparse.bloom:BloomFilterMatrix.or_with",
        "repro.sparse.bloom:BloomFilterMatrix.masked_by",
        "repro.sparse.bloom:BloomFilterMatrix.copy",
        "repro.sparse.bloom:BloomFilterMatrix.reduce_rows_or",
        "repro.sparse.bloom:BloomFilterMatrix.from_arrays",
        "repro.sparse.bloom:BloomFilterMatrix.from_entries",
        "repro.sparse.bloom:BloomFilterMatrix.to_arrays",
    ],
    "runtime.collective_self_s": [
        f"repro.runtime.{module}:{cls}.{method}"
        for module, cls in (("simmpi", "SimMPI"), ("mpi_backend", "MPIBackend"))
        for method in (
            "exchange", "sendrecv", "alltoallv", "bcast", "gather", "scatter",
            "allgather", "reduce", "allreduce", "isend", "irecv", "ibcast",
            "iallgather", "wait", "waitall", "barrier",
        )
    ],
    "runtime.control_self_s": [
        f"repro.runtime.{module}:{cls}.{method}"
        for module, cls in (("simmpi", "SimMPI"), ("mpi_backend", "MPIBackend"))
        for method in ("host_merge", "host_fold")
    ],
    "runtime.transport_self_s": [
        f"repro.runtime.loopback:LoopbackComm.{method}"
        for method in (
            "barrier", "bcast", "gather", "allgather", "scatter", "alltoall",
            "isend", "recv",
        )
    ],
}

#: counted, not timed
COUNT_TARGETS = [
    f"repro.runtime.{module}:{cls}.{method}"
    for module, cls in (("simmpi", "SimMPI"), ("mpi_backend", "MPIBackend"))
    for method in ("run_local", "map_local")
]

#: every instance this method is called on is remembered (per thread), so
#: the driver can read ``nbytes()`` of the state a service tenant hides
CAPTURE_TARGET = "repro.scenarios.executors:NativeExecutor.construct"

_ACTIVE: "Tracer | None" = None


class _ThreadState:
    """Spans, open-span stack and counts of one thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.counts: dict[str, int] = {}
        self.captured: list = []
        self.op = -1


class Tracer:
    """Installs, records and removes the span wrappers."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- per-thread state ----------------------------------------------
    def local(self) -> _ThreadState:
        """This thread's recording state."""
        state = getattr(self._tls, "state", None)
        if state is None:
            state = self._tls.state = _ThreadState()
        return state

    # -- wrappers -------------------------------------------------------
    def _span_wrapper(self, fn, name: str, metric: str, capture: bool):
        local = self.local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = local()
            if capture:
                state.captured.append(args[0])
            spans, stack = state.spans, state.stack
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = -1
                if stack:
                    stack[-1][1] += end - start
                    parent = stack[-1][0]
                spans[frame[0]] = (name, metric, start, end, frame[1], parent, state.op)

        return wrapper

    def _count_wrapper(self, fn, name: str):
        local = self.local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = local().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------
    def install(self) -> "Tracer":
        """Patch every declared target that exists; remember the originals."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tracer is already installed")
        plan = [
            (target, metric)
            for metric, targets in SPAN_TARGETS.items()
            for target in targets
        ]
        plan += [(target, None) for target in COUNT_TARGETS]
        rebinding: dict[int, object] = {}
        for target, metric in plan:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target)
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            name = path
            if metric is None:
                wrapped = self._count_wrapper(fn, name)
            else:
                wrapped = self._span_wrapper(
                    fn, name, metric, capture=target == CAPTURE_TARGET
                )
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            if parents:
                self._patch(owner, attr, raw, wrapped)
            else:
                rebinding[id(raw)] = wrapped
        # one sweep rebinds every `from x import f` alias of the functions
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = rebinding.get(id(value))
                if wrapped is not None:
                    self._patch(module, attr, value, wrapped)
        _ACTIVE = self
        return self

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        global _ACTIVE
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        _ACTIVE = None

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` of everything currently patched."""
        return list(self._patched)


# ----------------------------------------------------------------------
# hooks the workloads call; no-ops while no tracer is installed
# ----------------------------------------------------------------------
def run_region(name: str, fn):
    """Run ``fn()`` as a root span of the benchmark's own (layer ``driver``)."""
    if _ACTIVE is None:
        return fn()
    return _ACTIVE._span_wrapper(fn, name, "driver.self_s", False)()


def set_op(op: int) -> None:
    """Tag the spans recorded from now on with operation ``op``."""
    if _ACTIVE is not None:
        _ACTIVE.local().op = op


def thread_state() -> "_ThreadState | None":
    """The calling thread's recording, or None while tracing is off."""
    return _ACTIVE.local() if _ACTIVE is not None else None


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def self_seconds(state: _ThreadState) -> dict[str, float]:
    """Self time per metric: duration minus the wrapped calls inside."""
    totals = dict.fromkeys(SPAN_TARGETS, 0.0)
    totals["driver.self_s"] = 0.0
    for _name, metric, start, end, child, _parent, _op in state.spans:
        totals[metric] += (end - start) - child
    return totals


def call_counts(state: _ThreadState) -> dict[str, int]:
    """Calls per wrapped callable (spans and counted-only targets)."""
    counts = dict(state.counts)
    for span in state.spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def write_jsonl(state: _ThreadState, path, thread: str) -> None:
    """One JSON object per span; ``parent`` is a line index or -1."""
    with open(path, "w", encoding="utf-8") as handle:
        for name, metric, start, end, _child, parent, op in state.spans:
            handle.write(
                json.dumps(
                    {
                        "name": name,
                        "layer": metric.split(".", 1)[0],
                        "start": start,
                        "end": end,
                        "parent": parent,
                        "op": op,
                        "thread": thread,
                    }
                )
                + "\n"
            )
