"""The checked-in ``BENCH_<fig>.json`` document schema and its validator.

``benchmarks/run_suite.py`` emits one JSON document per reproduced figure;
:data:`BENCH_SCHEMA` is the authoritative description of that document and
:func:`validate_bench` enforces it (a small, dependency-free subset of JSON
Schema: ``type``, ``required``, ``properties``, ``additionalProperties`` as
a schema, ``items``, ``enum`` and ``minimum``).  The perf-regression
harness refuses to compare documents that do not validate, so a drifting
producer fails loudly instead of producing silently incomparable numbers.

Dump the schema itself with ``python -m repro.perf.schema``.
"""

from __future__ import annotations

import json
import os
import subprocess
from typing import Any, Mapping, Sequence

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SCHEMA_VERSION",
    "BenchSchemaError",
    "bench_document",
    "bench_run_entry",
    "git_sha",
    "validate_bench",
]

#: Version stamped into every document; bump on incompatible layout changes.
BENCH_SCHEMA_VERSION = 4

_NUMBER = {"type": "number"}
_STRING = {"type": "string"}
_COUNT = {"type": "number", "minimum": 0}

#: Schema of one ``runs[]`` entry: a single ``backend × layout`` series.
_RUN_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "backend",
        "layout",
        "repeats",
        "elapsed_seconds_median",
        "counters",
        "comm",
    ],
    "properties": {
        "backend": _STRING,
        "layout": _STRING,
        "repeats": {"type": "integer", "minimum": 1},
        "elapsed_seconds_median": _COUNT,
        "counters": {"type": "object", "additionalProperties": _NUMBER},
        "comm": {
            "type": "object",
            "required": ["messages", "bytes"],
            "properties": {"messages": _COUNT, "bytes": _COUNT},
        },
        "comm_categories": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "additionalProperties": _NUMBER,
            },
        },
    },
}

#: Schema of one ``claims[]`` entry: a paper claim checked on the runs.
_CLAIM_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["name", "paper", "kind", "status"],
    "properties": {
        "name": _STRING,
        "paper": _STRING,
        "kind": {"enum": ["count", "simulated", "wall"]},
        "status": {"enum": ["holds", "fails", "not measured"]},
        # the number the claim tested (absent when not measured)
        "value": _NUMBER,
    },
    "additionalProperties": False,
}

#: Schema of a full ``BENCH_<fig>.json`` document.
BENCH_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": [
        "schema_version",
        "figure",
        "title",
        "git_sha",
        "seed",
        "profile",
        "n_ranks",
        "runs",
        "claims",
    ],
    "properties": {
        "schema_version": {"enum": [BENCH_SCHEMA_VERSION]},
        "figure": _STRING,
        "title": _STRING,
        "git_sha": _STRING,
        "seed": {"type": "integer"},
        "profile": _STRING,
        "n_ranks": {"type": "integer", "minimum": 1},
        "runs": {"type": "array", "items": _RUN_SCHEMA},
        "claims": {"type": "array", "items": _CLAIM_SCHEMA},
        "extras": {"type": "object"},
    },
}


class BenchSchemaError(ValueError):
    """A document does not conform to :data:`BENCH_SCHEMA`."""


_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
}


def _check(instance: Any, schema: Mapping[str, Any], path: str) -> None:
    """Recursively validate ``instance`` against the schema subset."""
    expected = schema.get("type")
    if expected is not None:
        kinds = _TYPES[expected]
        if isinstance(instance, bool) and expected in ("integer", "number"):
            raise BenchSchemaError(f"{path}: expected {expected}, got boolean")
        if not isinstance(instance, kinds):
            raise BenchSchemaError(
                f"{path}: expected {expected}, got {type(instance).__name__}"
            )
    if "enum" in schema and instance not in schema["enum"]:
        raise BenchSchemaError(
            f"{path}: value {instance!r} not one of {schema['enum']!r}"
        )
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            raise BenchSchemaError(
                f"{path}: value {instance!r} below minimum {schema['minimum']!r}"
            )
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise BenchSchemaError(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, value in instance.items():
            if key in properties:
                _check(value, properties[key], f"{path}.{key}")
            elif "additionalProperties" in schema:
                extra = schema["additionalProperties"]
                if extra is False:
                    raise BenchSchemaError(f"{path}: unexpected key {key!r}")
                _check(value, extra, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            _check(item, schema["items"], f"{path}[{i}]")


def validate_bench(document: Mapping[str, Any]) -> None:
    """Raise :class:`BenchSchemaError` unless ``document`` conforms."""
    _check(document, BENCH_SCHEMA, "$")


# ----------------------------------------------------------------------
# document builders
# ----------------------------------------------------------------------
def git_sha(default: str = "unknown", *, repo_dir: str | None = None) -> str:
    """Commit SHA of ``repo_dir`` (default: this checkout), or ``default``.

    ``repo_dir`` defaults to the directory containing this package, so the
    answer does not depend on the caller's working directory.
    """
    if repo_dir is None:
        repo_dir = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "-C", repo_dir, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return default
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else default


def bench_run_entry(
    *,
    backend: str,
    layout: str,
    repeats: int,
    elapsed_seconds_median: float,
    counters: Mapping[str, float],
    comm: Mapping[str, float],
    comm_categories: Mapping[str, Mapping[str, float]] | None = None,
) -> dict[str, Any]:
    """One ``runs[]`` entry of a BENCH document."""
    entry: dict[str, Any] = {
        "backend": backend,
        "layout": layout,
        "repeats": int(repeats),
        "elapsed_seconds_median": float(elapsed_seconds_median),
        "counters": {k: float(v) for k, v in counters.items()},
        "comm": {k: float(v) for k, v in comm.items()},
    }
    if comm_categories is not None:
        entry["comm_categories"] = {
            cat: {k: float(v) for k, v in bucket.items()}
            for cat, bucket in comm_categories.items()
        }
    return entry


def bench_document(
    *,
    figure: str,
    title: str,
    seed: int,
    profile: str,
    n_ranks: int,
    runs: list[dict[str, Any]],
    extras: Mapping[str, Any] | None = None,
    claims: Sequence[Mapping[str, Any]] = (),
    sha: str | None = None,
) -> dict[str, Any]:
    """Assemble and validate a full ``BENCH_<fig>.json`` document."""
    document: dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "figure": figure,
        "title": title,
        "git_sha": sha if sha is not None else git_sha(),
        "seed": int(seed),
        "profile": profile,
        "n_ranks": int(n_ranks),
        "runs": runs,
        "claims": [dict(claim) for claim in claims],
    }
    if extras is not None:
        document["extras"] = dict(extras)
    validate_bench(document)
    return document


def main() -> int:
    """Print the checked-in schema as JSON (``python -m repro.perf.schema``)."""
    print(json.dumps(BENCH_SCHEMA, indent=2))
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
