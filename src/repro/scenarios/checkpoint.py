"""Durable checkpoint/restore of a replaying world.

A *snapshot* is a plain (JSON + numpy arrays) description of everything the
remainder of a trace needs to continue **byte-identically**:

* every owned block of every live distributed matrix, in its exact
  layout-internal form (:mod:`repro.distributed.serialization` preserves
  DHB adjacency order, capacities and grow counts);
* the logical-rank→process placement map;
* the incremental product state (``C`` and the general-mode bloom filters
  ``F``) and the application state (triangle counter, SSSP selector);
* the applied-step cursor, per-step statistics, recorded application query
  payloads and the global per-category communication counters up to the
  checkpoint.

Snapshots are assembled through the *uncharged* control plane
(``host_merge``), so a :class:`~repro.scenarios.model.CheckpointStep` adds
no charged traffic — the same trace is both the crashing run and the
uninterrupted reference of a differential drill.  Restoring, by contrast,
ships blocks back into the (rebuilt) world: that traffic is charged to the
``recovery`` category only, keeping every other category byte-identical.
A snapshot re-enters a world one way only: ``ScenarioEngine.begin(resume=)``
(reached through ``replay(resume_from=)`` and ``on_crash="restore"``),
which refuses a snapshot of another trace before it calls
:func:`restore_state`.

The module also provides the snapshot *file* format (versioned,
schema-checked ``.npz``), the thread-safe :class:`CheckpointStore` shared
by the processes of a loopback world, and :func:`run_with_recovery` — the
kill-and-restart harness that reruns a loopback world after an injected
crash.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Callable

import numpy as np

from repro.distributed import (
    decode_block,
    decode_bloom,
    encode_block,
    encode_bloom,
)
from repro.distributed.distribution import BlockDistribution
from repro.distributed.dist_matrix import (
    DistMatrixBase,
    DynamicDistMatrix,
    StaticDistMatrix,
)
from repro.runtime.faults import SimulatedCrash
from repro.runtime.simmpi import payload_nbytes
from repro.runtime.stats import StatCategory
from repro.scenarios.model import Scenario, ScenarioStep
from repro.semirings import get_semiring

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotFormatError",
    "scenario_fingerprint",
    "build_snapshot",
    "restore_state",
    "CheckpointStore",
    "save_snapshot",
    "load_snapshot",
    "with_checkpoint",
    "run_with_recovery",
]

#: Version stamp of the snapshot schema; bumped on incompatible changes.
SNAPSHOT_VERSION = 5

_REQUIRED_KEYS = (
    "version",
    "scenario",
    "fingerprint",
    "cursor",
    "n_ranks",
    "world_size",
    "placement",
    "state",
    "progress",
)

_STATE_KINDS = ("plain", "product")


class SnapshotFormatError(ValueError):
    """A snapshot is malformed, mis-versioned or from another scenario."""


# ----------------------------------------------------------------------
# identity
# ----------------------------------------------------------------------
def scenario_fingerprint(scenario: Scenario) -> str:
    """Content hash of a scenario: shape, seeds and every step's tuples.

    Resuming checks the fingerprint so a snapshot can never silently
    continue a *different* trace (wrong generator, wrong seed, edited
    steps) — the mismatch fails loudly instead of producing drift.
    """
    h = hashlib.sha256()
    head = {
        "name": scenario.name,
        "shape": list(scenario.shape),
        "semiring": scenario.semiring_name,
        "seed": int(scenario.seed),
        "construct_seed": scenario.construct_seed,
        "app": None if scenario.app is None else scenario.app.name,
    }
    h.update(json.dumps(head, sort_keys=True).encode())
    for step in scenario.steps:
        seed = getattr(step, "partition_seed", None)
        h.update(
            f"|{step.kind}:{step.n_tuples}:{seed}".encode()
        )
        if isinstance(step, ScenarioStep):
            h.update(np.ascontiguousarray(step.rows).tobytes())
            h.update(np.ascontiguousarray(step.cols).tobytes())
            h.update(np.ascontiguousarray(step.values).tobytes())
    return h.hexdigest()[:24]


# ----------------------------------------------------------------------
# snapshot assembly
# ----------------------------------------------------------------------
def _encode_dist(comm, matrix: DistMatrixBase) -> dict[str, Any]:
    """Globally-merged encoding of one distributed matrix (uncharged)."""
    local = {
        int(rank): encode_block(block) for rank, block in matrix.blocks.items()
    }
    wrapper: dict[str, Any] = {
        "shape": (int(matrix.shape[0]), int(matrix.shape[1])),
        "semiring": matrix.semiring.name,
        "blocks": comm.host_merge(local),
    }
    if isinstance(matrix, StaticDistMatrix):
        wrapper["static_layout"] = matrix.layout
    return wrapper


def _encode_blooms(comm, blooms: dict[int, Any]) -> dict[int, Any]:
    return comm.host_merge(
        {int(rank): encode_bloom(f) for rank, f in blooms.items()}
    )


def _encode_state(executor) -> dict[str, Any]:
    """The world state: ``plain`` (one matrix) or ``product``.

    A product state is the executor's ``DynamicProduct`` — whether a SpGEMM
    replay or an application built it — plus the application's own fields.
    """
    comm = executor.comm
    product = executor.product
    if product is None:
        return {"kind": "plain", "a": _encode_dist(comm, executor.a)}
    state: dict[str, Any] = {
        "kind": "product",
        "product": {
            "mode": product.mode,
            "semiring": product.semiring.name,
            "a": _encode_dist(comm, product.a),
            # an aliased right operand (A·A) is stored once, as ``a``
            "b": None if product.b is product.a else _encode_dist(comm, product.b),
            "c": _encode_dist(comm, product.c),
            "f": _encode_blooms(comm, product.f),
        },
        "app": None,
    }
    if executor.app is not None:
        sources = getattr(executor.app, "sources", None)
        state["app"] = {
            "name": executor.scenario.app.name,
            "n": int(executor.app.n),
            "sources": (
                None if sources is None else np.asarray(sources, dtype=np.int64)
            ),
        }
    return state


def build_snapshot(executor, *, cursor: int, progress: dict[str, Any]) -> dict[str, Any]:
    """Serialise the executor's full world state plus replay progress.

    ``cursor`` is the index of the first step the restored run must
    execute; ``progress`` (``ScenarioEngine._progress()``: step records,
    recorded query payloads, comm and update statistics, elapsed time)
    covers everything before it.  Identical on every process up to
    per-process wall-clock measurements inside the step records.
    """
    if not hasattr(executor, "a") or not hasattr(executor, "scenario"):
        raise SnapshotFormatError(
            f"executor {type(executor).__name__} is not checkpointable "
            "(only the native executor exposes its full state)"
        )
    comm = executor.comm
    scenario = executor.scenario
    placement = comm.placement() if hasattr(comm, "placement") else None
    snapshot = {
        "version": SNAPSHOT_VERSION,
        "scenario": scenario.name,
        "fingerprint": scenario_fingerprint(scenario),
        "cursor": int(cursor),
        "n_ranks": int(executor.grid.n_ranks),
        "world_size": int(getattr(comm, "world_size", 1)),
        "placement": (
            None
            if placement is None
            else {int(r): int(p) for r, p in placement.items()}
        ),
        "state": _encode_state(executor),
        "progress": {
            "step_stats": [s.as_dict() for s in progress["step_stats"]],
            "app_results": [
                {
                    "index": r.index,
                    "kind": r.kind,
                    "label": r.label,
                    "payload": r.payload,
                }
                for r in progress["app_results"]
            ],
            "comm_stats": progress["comm_stats"],
            "update_stats": progress["update_stats"],
            "elapsed": float(progress["elapsed"]),
        },
    }
    check_snapshot(snapshot)
    return snapshot


def check_snapshot(snapshot: dict[str, Any]) -> None:
    """Validate the snapshot schema; raise :class:`SnapshotFormatError`."""
    if not isinstance(snapshot, dict):
        raise SnapshotFormatError(f"snapshot must be a dict, got {type(snapshot)}")
    missing = [key for key in _REQUIRED_KEYS if key not in snapshot]
    if missing:
        raise SnapshotFormatError(f"snapshot is missing keys {missing}")
    version = snapshot["version"]
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"snapshot version {version!r} is not supported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    state = snapshot["state"]
    if not isinstance(state, dict) or state.get("kind") not in _STATE_KINDS:
        raise SnapshotFormatError(
            f"snapshot state kind {state.get('kind') if isinstance(state, dict) else state!r} "
            f"is not one of {_STATE_KINDS}"
        )
    progress = snapshot["progress"]
    for key in ("step_stats", "comm_stats", "elapsed"):
        if key not in progress:
            raise SnapshotFormatError(f"snapshot progress is missing {key!r}")


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def _decode_dist(comm, grid, wrapper: dict[str, Any]) -> tuple[DistMatrixBase, int]:
    """Rebuild one encoded matrix from its owned blocks; also their bytes."""
    shape = (int(wrapper["shape"][0]), int(wrapper["shape"][1]))
    semiring = get_semiring(str(wrapper["semiring"]))
    dist = BlockDistribution(shape[0], shape[1], grid)
    encoded = {int(r): b for r, b in wrapper["blocks"].items()}
    blocks: dict[int, Any] = {}
    nbytes = 0
    for rank in comm.owned_ranks(grid.all_ranks()):
        blocks[rank] = decode_block(encoded[rank])
        nbytes += payload_nbytes(blocks[rank])
    if "static_layout" in wrapper:
        matrix: DistMatrixBase = StaticDistMatrix(
            comm, grid, dist, semiring, blocks, layout=wrapper["static_layout"]
        )
    else:
        matrix = DynamicDistMatrix(comm, grid, dist, semiring, blocks)
    return matrix, nbytes


def _decode_product(comm, grid, wrapper: dict[str, Any]):
    """Rebuild a ``DynamicProduct``; also its decoded blocks and bytes."""
    from repro.core import DynamicProduct

    a, a_bytes = _decode_dist(comm, grid, wrapper["a"])
    if wrapper["b"] is None:
        b, b_bytes = a, 0
    else:
        b, b_bytes = _decode_dist(comm, grid, wrapper["b"])
    c, c_bytes = _decode_dist(comm, grid, wrapper["c"])
    encoded_f = {int(r): f for r, f in wrapper["f"].items()}
    f: dict[int, Any] = {}
    f_bytes = 0
    for rank in comm.owned_ranks(grid.all_ranks()):
        if rank in encoded_f:
            f[rank] = decode_bloom(encoded_f[rank])
            f_bytes += payload_nbytes(f[rank])
    product = DynamicProduct.__new__(DynamicProduct)
    product.comm = comm
    product.grid = grid
    product.a = a
    product.b = b
    product.semiring = get_semiring(str(wrapper["semiring"]))
    product.mode = str(wrapper["mode"])
    product.c = c
    product.f = f
    n_blocks = sum(len(m.blocks) for m in ((a, c) if b is a else (a, b, c)))
    return product, n_blocks, a_bytes + b_bytes + c_bytes + f_bytes


def restore_state(executor, snapshot: dict[str, Any]) -> int:
    """Replace the executor's world state with the snapshot's.

    Installs the snapshot's placement map when the communicator has a
    placement surface and the world size matches, decodes only the blocks
    the calling process owns, and rebuilds product/application wrappers by
    direct construction (no collective construction traffic).  Every
    decoded block is charged to the ``recovery`` category — one message of
    the block's payload size per owned logical rank, a placement-independent
    global total.  Returns the number of blocks decoded locally.
    """
    check_snapshot(snapshot)
    comm, grid = executor.comm, executor.grid
    if int(snapshot["n_ranks"]) != int(grid.n_ranks):
        raise SnapshotFormatError(
            f"snapshot was taken on {snapshot['n_ranks']} logical ranks but "
            f"this world replays on {grid.n_ranks}"
        )
    placement = snapshot.get("placement")
    if (
        placement is not None
        and hasattr(comm, "set_placement")
        and int(snapshot.get("world_size", 1)) == int(getattr(comm, "world_size", 1))
    ):
        comm.set_placement({int(r): int(p) for r, p in placement.items()})

    state = snapshot["state"]
    with comm.stats.redirect(StatCategory.RECOVERY):
        executor.product = None
        executor.app = None
        if state["kind"] == "plain":
            executor.a, recovered_bytes = _decode_dist(comm, grid, state["a"])
            n_blocks = len(executor.a.blocks)
        else:
            product, n_blocks, recovered_bytes = _decode_product(
                comm, grid, state["product"]
            )
            executor.product = product
            executor.a = product.a
            if state["app"] is not None:
                executor.app = _rebuild_app(comm, grid, state["app"], product)
                executor.a = executor.app.adjacency
    # One recovery message per decoded block, sized by the blocks actually
    # shipped to this process; summed over processes the total is exactly
    # the global state volume, independent of placement.
    comm.stats.record(
        StatCategory.RECOVERY,
        operations=1,
        messages=n_blocks,
        nbytes=int(recovered_bytes),
    )
    return n_blocks


def _rebuild_app(comm, grid, app_state: dict[str, Any], product):
    from repro.apps import DynamicMultiSourceShortestPaths, DynamicTriangleCounter

    name = str(app_state["name"])
    if name == "triangle":
        app = DynamicTriangleCounter.__new__(DynamicTriangleCounter)
        app.comm = comm
        app.grid = grid
        app.n = int(app_state["n"])
        app.product = product
        return app
    app = DynamicMultiSourceShortestPaths.__new__(DynamicMultiSourceShortestPaths)
    app.comm = comm
    app.grid = grid
    app.n = int(app_state["n"])
    app.sources = np.asarray(app_state["sources"], dtype=np.int64)
    app.product = product
    return app


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class CheckpointStore:
    """Thread-safe snapshot store shared by the processes of one drill.

    Snapshots are keyed by ``(fingerprint, process)`` — the trace's
    :func:`scenario_fingerprint` and the (loopback) process whose copy it
    is, with that process's wall-clock measurements.  A trace's later
    checkpoint replaces its earlier one; other traces' snapshots stay.
    With ``directory`` set, each save is also persisted as
    ``snapshot_<fingerprint>_p<process>.npz`` (the durable form used by the
    ``mpiexec`` restore drill and the benchmark).
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self.directory = None if directory is None else os.fspath(directory)
        self._snapshots: dict[tuple[str, int], dict[str, Any]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def save(self, process: int, snapshot: dict[str, Any]) -> None:
        """Store (and optionally persist) one process's snapshot."""
        check_snapshot(snapshot)
        fingerprint = str(snapshot["fingerprint"])
        with self._lock:
            self._snapshots[(fingerprint, int(process))] = snapshot
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)
            save_snapshot(self._path(fingerprint, process), snapshot)

    def latest(self, process: int, fingerprint: str) -> dict[str, Any] | None:
        """The most recently saved snapshot of ``process`` for one trace.

        Looks in memory, then in ``directory``; ``None`` when the trace
        with this :func:`scenario_fingerprint` has none stored.
        """
        with self._lock:
            snapshot = self._snapshots.get((fingerprint, int(process)))
        if snapshot is None and self.directory is not None:
            path = self._path(fingerprint, process)
            if os.path.exists(path):
                snapshot = load_snapshot(path)
        return snapshot

    def _path(self, fingerprint: str, process: int) -> str:
        assert self.directory is not None
        return os.path.join(
            self.directory, f"snapshot_{fingerprint}_p{int(process)}.npz"
        )


# ----------------------------------------------------------------------
# the file format
# ----------------------------------------------------------------------
def _flatten(obj: Any, arrays: dict[str, np.ndarray]) -> Any:
    """JSON-able skeleton of ``obj``; ndarrays spill into ``arrays``."""
    if isinstance(obj, np.ndarray):
        key = f"a{len(arrays)}"
        arrays[key] = obj
        return {"__array__": key}
    if isinstance(obj, dict):
        return {
            "__items__": [
                [k, _flatten(v, arrays)] for k, v in obj.items()
            ]
        }
    if isinstance(obj, tuple):
        return {"__tuple__": [_flatten(v, arrays) for v in obj]}
    if isinstance(obj, list):
        return [_flatten(v, arrays) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise SnapshotFormatError(
        f"cannot serialise object of type {type(obj).__name__} into a snapshot file"
    )


def _unflatten(obj: Any, arrays) -> Any:
    if isinstance(obj, dict):
        if "__array__" in obj:
            return np.asarray(arrays[obj["__array__"]])
        if "__tuple__" in obj:
            return tuple(_unflatten(v, arrays) for v in obj["__tuple__"])
        return {k: _unflatten(v, arrays) for k, v in obj["__items__"]}
    if isinstance(obj, list):
        return [_unflatten(v, arrays) for v in obj]
    return obj


def save_snapshot(path: str | os.PathLike, snapshot: dict[str, Any]) -> int:
    """Persist a snapshot as a versioned ``.npz`` file; returns its size."""
    check_snapshot(snapshot)
    arrays: dict[str, np.ndarray] = {}
    skeleton = _flatten(snapshot, arrays)
    meta = json.dumps({"version": SNAPSHOT_VERSION, "root": skeleton})
    np.savez_compressed(
        path, __meta__=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8), **arrays
    )
    return os.path.getsize(path)


def load_snapshot(path: str | os.PathLike) -> dict[str, Any]:
    """Load and schema-check a snapshot written by :func:`save_snapshot`."""
    try:
        with np.load(path) as data:
            if "__meta__" not in data:
                raise SnapshotFormatError(
                    f"{os.fspath(path)!r} is not a snapshot file (no metadata)"
                )
            meta = json.loads(bytes(data["__meta__"].tobytes()).decode("utf-8"))
            if meta.get("version") != SNAPSHOT_VERSION:
                raise SnapshotFormatError(
                    f"snapshot file version {meta.get('version')!r} is not "
                    f"supported (this build reads version {SNAPSHOT_VERSION})"
                )
            snapshot = _unflatten(meta["root"], data)
    except (OSError, ValueError, KeyError) as exc:
        if isinstance(exc, SnapshotFormatError):
            raise
        raise SnapshotFormatError(
            f"cannot read snapshot file {os.fspath(path)!r}: {exc}"
        ) from exc
    check_snapshot(snapshot)
    return snapshot


# ----------------------------------------------------------------------
# trace helpers and the kill-and-restart harness
# ----------------------------------------------------------------------
def with_checkpoint(scenario: Scenario, at: int) -> Scenario:
    """A copy of ``scenario`` with a checkpoint inserted at position ``at``."""
    import dataclasses

    from repro.scenarios.model import CheckpointStep

    steps = list(scenario.steps)
    steps.insert(int(at), CheckpointStep(label=f"checkpoint@{int(at)}"))
    return dataclasses.replace(scenario, steps=steps)


def crash_cause(exc: BaseException | None) -> SimulatedCrash | None:
    """The :class:`SimulatedCrash` in an exception's cause chain (or None)."""
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        seen.add(id(exc))
        if isinstance(exc, SimulatedCrash):
            return exc
        exc = exc.__cause__ or exc.__context__
    return None


def run_with_recovery(world_size: int, program: Callable[..., Any]) -> list[Any]:
    """Run a loopback SPMD program, restarting the world after crashes.

    Drives :func:`repro.runtime.loopback.run_spmd`; when the world dies of
    an injected :class:`~repro.runtime.faults.SimulatedCrash` (directly or
    as the cause of a process failure) a fresh world is started and
    ``program`` runs again — the program is responsible for resuming from
    its :class:`CheckpointStore` (fault injectors remember fired kills, so
    a restarted world does not re-crash at the same point).  Like
    :func:`~repro.scenarios.replay.replay`, it recovers at most
    :data:`~repro.scenarios.replay.MAX_RECOVERIES` times and re-raises the
    next crash.  Any other failure propagates unchanged.
    """
    from repro.runtime.loopback import run_spmd
    from repro.scenarios.replay import MAX_RECOVERIES

    restarts = 0
    while True:
        try:
            return run_spmd(world_size, program)
        except RuntimeError as exc:
            restarts += 1
            if crash_cause(exc) is None or restarts > MAX_RECOVERIES:
                raise
