#!/usr/bin/env python
"""List exported names of ``repro`` that nothing outside ``tests/`` uses.

Every string in the ``__all__`` of a package (``src/repro/**/__init__.py``)
is an export.  An export counts as used when its name is read — as a bare
name or as an attribute — in some Python file under ``src/``,
``benchmarks/``, ``examples/``, ``perf_ledger/`` or ``tools/`` other than
the modules that define it.  Imports and ``__all__`` entries are not
reads, so re-exporting a name does not keep it alive; test files are not
scanned at all.  Exit code 1 lists every unused export that is not in
:data:`ALLOWED`, and every entry of :data:`ALLOWED` that is no longer an
unused export.  The check parses source only (no imports), so it needs
nothing beyond the standard library:

    python tools/check_exports.py
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
SCANNED = ("src", "benchmarks", "examples", "perf_ledger", "tools")

_SWITCH = "name of a run switch, beside its siblings (docs/backends.md)"
_SEMIRING = "standard semiring, for callers' own algebras"
_CATALOGUE = "Table I catalogue API, beside generate_instance"
_GATE = "BENCH document format and regression gate (python -m repro.perf.compare)"
_GENERATOR = "library scenario generator (docs/scenarios.md); reached by name"
_DRILL = "checkpoint drill API (docs/fault_tolerance.md)"

#: exports kept although nothing outside tests/ reads them, with the reason
ALLOWED: dict[str, str] = {
    "BACKEND_ENV_VAR": _SWITCH,
    "BOOLEAN": _SEMIRING,
    "MAX_MIN": _SEMIRING,
    "MAX_PLUS": _SEMIRING,
    "MAX_TIMES": _SEMIRING,
    "REGISTRY": "semirings by name, the table get_semiring reads",
    "list_semirings": "the names get_semiring accepts",
    "GRAPH500_PARAMS": _CATALOGUE,
    "GraphInstance": _CATALOGUE,
    "get_instance": _CATALOGUE,
    "list_instances": _CATALOGUE,
    "BENCH_SCHEMA": _GATE,
    "BENCH_SCHEMA_VERSION": _GATE,
    "ComparisonReport": _GATE,
    "Regression": _GATE,
    "compare_documents": _GATE,
    "git_sha": _GATE,
    "get_recorder": "reads the recorder use_recorder installed",
    "bursty_skewed_stream": _GENERATOR,
    "dhb_bucket_collision_stream": _GENERATOR,
    "grow_from_empty": _GENERATOR,
    "hotspot_vertex_stream": _GENERATOR,
    "mixed_update_multiply": _GENERATOR,
    "oscillating_insert_delete": _GENERATOR,
    "sliding_window": _GENERATOR,
    "steady_state_churn": _GENERATOR,
    "library_scenarios": _GENERATOR,
    "SNAPSHOT_VERSION": _DRILL,
    "run_with_recovery": _DRILL,
    "BlockCodecError": "the error a corrupt snapshot block raises to its reader",
    "GraphTenant": "type of the tenants GraphService.create_tenant returns",
    "EmulatedComm": "mpi4py stand-in for MPIBackend(comm=...) (docs/backends.md)",
    "LoopbackComm": "one process of a loopback world (docs/service.md)",
    "LoopbackWorld": "thread-backed multi-process world, mpiexec without MPI",
    "Partitioner": "protocol a custom placement strategy implements",
    "spgemm_rowwise_spa": "test oracle of the ESC kernel; perf_ledger's tracer names it",
}


def _python_files(top: str) -> list[str]:
    files = []
    for root, dirs, names in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d not in ("tests", "__pycache__"))
        files.extend(os.path.join(root, n) for n in sorted(names) if n.endswith(".py"))
    return files


def _parse(path: str) -> ast.Module:
    with open(path, "r", encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _defined(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _reads(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_exports() -> dict[str, list[str]]:
    """``name -> [module paths exporting it]`` for every unread export."""
    trees = {
        path: _parse(path)
        for top in SCANNED
        for path in _python_files(os.path.join(ROOT, top))
    }
    exported: dict[str, list[str]] = {}
    defined_in: dict[str, set[str]] = {}
    for path, tree in trees.items():
        if not path.startswith(PACKAGE + os.sep):
            continue
        if os.path.basename(path) == "__init__.py":
            for name in _exports(tree):
                exported.setdefault(name, []).append(os.path.relpath(path, ROOT))
        for name in _defined(tree):
            defined_in.setdefault(name, set()).add(path)
    reads = {path: _reads(tree) for path, tree in trees.items()}
    return {
        name: modules
        for name, modules in sorted(exported.items())
        if not any(
            name in names
            for path, names in reads.items()
            if path not in defined_in.get(name, ())
        )
    }


def main() -> int:
    """Print unallowed unused exports and stale allowances; return the exit code."""
    unused = unused_exports()
    offenders = {n: m for n, m in unused.items() if n not in ALLOWED}
    stale = sorted(set(ALLOWED) - set(unused))
    for name, modules in offenders.items():
        print(f"{name}: exported by {', '.join(modules)}; no reader outside tests/")
    for name in stale:
        print(f"{name}: allowed in ALLOWED but not an unused export; drop the entry")
    if offenders or stale:
        print(
            f"{len(offenders)} unused export(s), {len(stale)} stale allowance(s): "
            "un-export or delete a name, or allow it in tools/check_exports.py "
            "with a reason"
        )
        return 1
    print("every export has a reader outside tests/ or an allowance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
