"""Checkpoint/restore subsystem: codecs, snapshot files and fault plans.

Covers the serialisation layer the fault drills rest on:

* property-based round trips of the block codec for **all three** layouts a
  distributed matrix can hold (CSR, DCSR, DHB) —
  a decoded block must be indistinguishable from the original, including
  DHB adjacency order, per-row capacities, grow counters and hash-index
  content (the state a canonicalising codec would silently discard);
* snapshot build / save / load round trips, version and schema rejection,
  resume-fingerprint and layout validation, and the store keyed by trace
  fingerprint and process;
* the ``REPRO_FAULTS`` grammar and the determinism contract of the fault
  injector (same spec + seed → identical kill points and identical
  discrete recovery traffic);
* regression pins for state that was not derivable from
  ``(snapshot, trace suffix)`` — notably the construction scatter seed.

The kill-and-recover drill matrix itself lives in
``tests/test_fault_drills.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios as S
from repro.distributed import (
    BlockCodecError,
    decode_block,
    decode_bloom,
    encode_block,
    encode_bloom,
)
from repro.runtime import SimMPI
from repro.runtime.faults import (
    FaultInjector,
    FaultPlan,
    SimulatedCrash,
)
from repro.sparse import (
    BloomFilterMatrix,
    COOMatrix,
    CSRMatrix,
    DCSRMatrix,
    DHBMatrix,
)

from tests.conftest import check_dhb_invariants

SEED = 2022

_LAYOUT_BUILDERS = {
    "csr": CSRMatrix.from_coo,
    "dcsr": DCSRMatrix.from_coo,
    "dhb": DHBMatrix.from_coo,
}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _random_coo(seed: int, *, n: int = 16, nnz: int = 40) -> COOMatrix:
    rng = np.random.default_rng(seed)
    nnz = min(nnz, n * n)
    flat = rng.choice(n * n, size=nnz, replace=False)
    rows, cols = (flat // n).astype(np.int64), (flat % n).astype(np.int64)
    return COOMatrix((n, n), rows, cols, rng.random(nnz) + 0.25)


def _assert_tuples_equal(a: COOMatrix, b: COOMatrix) -> None:
    ca, cb = a.sort(), b.sort()
    assert np.array_equal(ca.rows, cb.rows)
    assert np.array_equal(ca.cols, cb.cols)
    assert np.array_equal(ca.values, cb.values)


def _assert_dhb_identical(a: DHBMatrix, b: DHBMatrix) -> None:
    """Full structural identity, not just equal tuples."""
    check_dhb_invariants(a)
    check_dhb_invariants(b)
    assert a.shape == b.shape
    assert a.nnz == b.nnz
    assert a.nbytes == b.nbytes
    sa, sb = a.storage(), b.storage()
    assert np.array_equal(sa.row_ids, sb.row_ids), "rows owning an extent differ"
    assert np.array_equal(sa.sizes, sb.sizes)
    assert np.array_equal(sa.capacities, sb.capacities), "capacities differ"
    assert sa.grow_count == sb.grow_count, "grow_count differs"
    assert np.array_equal(sa.cols, sb.cols), "adjacency order differs"
    assert np.array_equal(sa.vals, sb.vals)


# ----------------------------------------------------------------------
# block codec round trips (property-based)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1), layout=st.sampled_from(sorted(_LAYOUT_BUILDERS))
)
def test_codec_round_trips_all_layouts(seed: int, layout: str) -> None:
    coo = _random_coo(seed)
    block = _LAYOUT_BUILDERS[layout](coo)
    decoded = decode_block(encode_block(block))
    assert type(decoded) is type(block)
    assert decoded.nnz == block.nnz
    assert decoded.semiring.name == block.semiring.name
    _assert_tuples_equal(decoded.to_coo(), block.to_coo())
    if layout == "csr":
        assert np.array_equal(decoded.indptr, block.indptr)
        assert np.array_equal(decoded.indices, block.indices)
    if layout == "dcsr":
        assert np.array_equal(decoded.nz_rows, block.nz_rows)
    if layout == "dhb":
        _assert_dhb_identical(block, decoded)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_ops=st.integers(1, 120),
)
def test_dhb_codec_preserves_update_history(seed: int, n_ops: int) -> None:
    """A DHB block that lived through inserts *and* deletes round-trips.

    Deletions swap with the last adjacency entry and reallocation history
    accumulates in ``grow_count`` — state that is invisible in the tuple
    set but observable downstream, so the codec must carry it.
    """
    n = 12
    rng = np.random.default_rng(seed)
    mat = DHBMatrix((n, n))
    live: list[tuple[int, int]] = []
    for _ in range(n_ops):
        if live and rng.random() < 0.35:
            i, j = live.pop(int(rng.integers(len(live))))
            mat.delete(i, j)
        else:
            i, j = int(rng.integers(n)), int(rng.integers(n))
            if mat.insert(i, j, float(rng.random() + 0.25)):
                live.append((i, j))
    decoded = decode_block(encode_block(mat))
    _assert_dhb_identical(mat, decoded)
    # and the decoded block keeps behaving identically under further updates
    i, j = int(rng.integers(n)), int(rng.integers(n))
    assert mat.insert(i, j, 1.5) == decoded.insert(i, j, 1.5)
    _assert_dhb_identical(mat, decoded)


_BLOOM_ARRAYS = ("rows", "cols", "bits")


def _random_bloom(seed: int) -> BloomFilterMatrix:
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 40))
    return BloomFilterMatrix.from_arrays(
        (8, 8), rng.integers(0, 8, size), rng.integers(0, 8, size), rng.integers(1, 16, size)
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_bloom_codec_round_trips_sorted_arrays(seed: int) -> None:
    bloom = _random_bloom(seed)
    encoded = encode_bloom(bloom)
    keys = encoded["rows"] * 8 + encoded["cols"]
    assert np.all(keys[1:] > keys[:-1]) and np.all(encoded["bits"] != 0)
    decoded = decode_bloom(encoded)
    assert decoded == bloom
    for a, b in zip(decoded.to_arrays(), bloom.to_arrays()):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert decoded.nbytes == bloom.nbytes


@pytest.mark.parametrize(
    "damage, complaint",
    [
        (lambda e: e.update(bits=e["bits"][:-1]), "aligned"),
        (lambda e: e.update(cols=e["cols"][:, None]), "aligned"),
        (lambda e: e.update(rows=e["rows"].astype(np.int32)), "int64, int64, uint64"),
        (lambda e: e.update(bits=e["bits"].astype(np.int64)), "int64, int64, uint64"),
        (lambda e: e["rows"].__setitem__(-1, e["shape"][0]), "outside"),
        (lambda e: e["cols"].__setitem__(0, -1), "outside"),
        (lambda e: e.update({k: np.repeat(e[k], 2) for k in _BLOOM_ARRAYS}), "repeats"),
        (lambda e: e["bits"].__setitem__(1, 0), "empty bitfield"),
        (lambda e: e.pop("bits"), "malformed"),
    ],
)
def test_bloom_codec_rejects_what_a_filter_cannot_hold(damage, complaint) -> None:
    """Nothing is returned (and nothing silently truncated) from a bad encoding."""
    encoded = encode_bloom(_random_bloom(7))
    assert encoded["rows"].size >= 3
    damage(encoded)
    with pytest.raises(BlockCodecError, match=complaint):
        decode_bloom(encoded)


def test_codec_rejects_unknown_layouts() -> None:
    with pytest.raises(BlockCodecError):
        encode_block(object())
    # no distributed matrix holds a COO block, so the codec has no COO form
    with pytest.raises(BlockCodecError):
        encode_block(_random_coo(3))
    for layout in ("sparsity_map", "coo"):
        with pytest.raises(BlockCodecError):
            decode_block({"layout": layout, "shape": (2, 2), "semiring": "plus_times"})
    with pytest.raises(BlockCodecError):
        decode_block({"shape": (2, 2)})
    with pytest.raises(BlockCodecError):
        decode_bloom({"layout": "coo"})


def _encoded_dhb() -> dict:
    mat = DHBMatrix.from_coo(_random_coo(5))
    for i, j in zip(*(a.tolist() for a in (mat.to_coo().rows[::3], mat.to_coo().cols[::3]))):
        mat.delete(i, j)  # sizes below capacities, rows out of column order
    return encode_block(mat)


@pytest.mark.parametrize(
    "damage, complaint",
    [
        (lambda e: e.update(cols=e["cols"][:-1]), "sizes do not sum"),
        (lambda e: e.update(values=e["values"][:-1]), "sizes do not sum"),
        (lambda e: e.update(sizes=e["sizes"] + (e["capacities"] - e["sizes"] + 1)), "capacity"),
        (lambda e: e.update(row_ids=e["row_ids"][::-1].copy()), "strictly increasing"),
        (lambda e: e["row_ids"].__setitem__(1, e["row_ids"][0]), "strictly increasing"),
        (lambda e: e["row_ids"].__setitem__(-1, e["shape"][0]), "inside the shape"),
        (lambda e: e["cols"].__setitem__(0, e["shape"][1]), "column outside"),
        (lambda e: e["cols"].__setitem__(1, e["cols"][0]), "same column twice"),
        (lambda e: e.update(sizes=e["sizes"][:-1]), "aligned"),
        (lambda e: e.pop("capacities"), "capacities"),
        (lambda e: e.pop("grow_count"), "grow_count"),
    ],
)
def test_codec_rejects_inconsistent_dhb_encodings(damage, complaint) -> None:
    """Nothing is built from a truncated or self-contradicting DHB block."""
    encoded = _encoded_dhb()
    assert encoded["sizes"][0] >= 2  # the duplicate-column case needs two
    _assert_dhb_identical(decode_block(encoded), decode_block(_encoded_dhb()))
    damage(encoded)
    with pytest.raises(BlockCodecError, match=complaint):
        decode_block(encoded)


def _bump_second_pointer(e: dict) -> None:
    """Make ``indptr`` decrease while it still starts at 0 and ends at nnz."""
    assert e["indptr"].size >= 4 and e["indptr"][2] < e["indptr"][-1]
    e["indptr"][1] = e["indptr"][-1]


@pytest.mark.parametrize(
    "layout, damage, complaint",
    [
        ("csr", lambda e: e.pop("indptr"), "malformed CSR block: 'indptr'"),
        ("csr", _bump_second_pointer, "non-decreasing"),
        ("csr", lambda e: e["indptr"].__setitem__(-1, e["indptr"][-1] - 1), "end at nnz"),
        ("csr", lambda e: e["indices"].__setitem__(0, e["shape"][1]), "column index out"),
        ("csr", lambda e: e.update(values=e["values"][:-1]), "identical lengths"),
        ("dcsr", lambda e: e.pop("nz_rows"), "malformed DCSR block: 'nz_rows'"),
        ("dcsr", _bump_second_pointer, "non-decreasing"),
        ("dcsr", lambda e: e["indptr"].__setitem__(-1, e["indptr"][-1] - 1), "end at nnz"),
        ("dcsr", lambda e: e["indices"].__setitem__(0, e["shape"][1]), "column index out"),
        ("dcsr", lambda e: e.update(nz_rows=e["nz_rows"][::-1].copy()), "strictly increasing"),
        ("dcsr", lambda e: e.update(values=e["values"][:-1]), "identical lengths"),
    ],
)
def test_codec_rejects_inconsistent_csr_dcsr_encodings(layout, damage, complaint) -> None:
    """A bad CSR/DCSR encoding raises the codec's error, not a bare one."""
    encoded = encode_block(_LAYOUT_BUILDERS[layout](_random_coo(5)))
    _assert_tuples_equal(decode_block(encoded).to_coo(), _random_coo(5))
    damage(encoded)
    with pytest.raises(BlockCodecError, match=complaint):
        decode_block(encoded)


# ----------------------------------------------------------------------
# snapshot files: save / load round trip and schema rejection
# ----------------------------------------------------------------------
def _deep_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and np.array_equal(a, b)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(_deep_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_deep_equal(x, y) for x, y in zip(a, b))
    return a == b


def _drill_trace() -> S.Scenario:
    return S.with_checkpoint(S.grow_from_empty(seed=SEED), at=3)


def _drill_snapshot(store: S.CheckpointStore) -> dict:
    """Process 0's snapshot of :func:`_drill_trace` in ``store``."""
    return store.latest(0, S.scenario_fingerprint(_drill_trace()))


def _checkpointed_drill(tmp_path, *, layout: str = "dhb"):
    """One crashed-and-restored drill with a durable store; returns both legs."""
    base = _drill_trace()
    reference = S.replay(base, backend="sim", n_ranks=4, layout=layout)
    store = S.CheckpointStore(tmp_path)
    recovered = S.replay(
        base,
        backend="sim",
        n_ranks=4,
        layout=layout,
        checkpoint_store=store,
        faults="kill@5",
        on_crash="restore",
    )
    return reference, recovered, store


def test_snapshot_file_round_trip(tmp_path) -> None:
    _, _, store = _checkpointed_drill(tmp_path)
    in_memory = _drill_snapshot(store)
    from_file = S.load_snapshot(
        store._path(S.scenario_fingerprint(_drill_trace()), 0)
    )
    assert _deep_equal(in_memory, from_file)
    assert from_file["version"] == S.SNAPSHOT_VERSION
    assert from_file["scenario"] == "grow_from_empty"


@pytest.mark.parametrize("layout", S.REPLAY_LAYOUTS)
def test_restore_from_snapshot_file_is_byte_identical(tmp_path, layout) -> None:
    """Resuming from the durable ``.npz`` matches the uninterrupted run."""
    reference, _, store = _checkpointed_drill(tmp_path, layout=layout)
    trace = _drill_trace()
    resumed = S.replay(
        trace,
        backend="sim",
        n_ranks=4,
        layout=layout,
        resume_from=store._path(S.scenario_fingerprint(trace), 0),
    )
    for a, b in zip(reference.final_a, resumed.final_a):
        assert np.array_equal(a, b)
    got = dict(resumed.comm_signature())
    got.pop("recovery", None)
    assert got == dict(reference.comm_signature())


def test_load_snapshot_rejects_garbage(tmp_path) -> None:
    path = tmp_path / "not_a_snapshot.npz"
    path.write_bytes(b"definitely not a zip archive")
    with pytest.raises(S.SnapshotFormatError):
        S.load_snapshot(path)
    np.savez(tmp_path / "no_meta.npz", data=np.arange(3))
    with pytest.raises(S.SnapshotFormatError, match="no metadata"):
        S.load_snapshot(tmp_path / "no_meta.npz")


def test_load_snapshot_rejects_future_versions(tmp_path) -> None:
    _, _, store = _checkpointed_drill(tmp_path)
    snapshot = dict(_drill_snapshot(store))
    snapshot["version"] = S.SNAPSHOT_VERSION + 1
    path = tmp_path / "future.npz"
    with pytest.raises(S.SnapshotFormatError, match="version"):
        S.save_snapshot(path, snapshot)


@pytest.mark.parametrize("version", (2, 3))
def test_older_snapshot_versions_are_refused(tmp_path, monkeypatch, version) -> None:
    """Version 2 stored a DHB block row object by row object (rows in
    insertion order, one grow count each); version 3 also stored the
    applied counts, which this build derives from the step records."""
    import repro.scenarios.checkpoint as checkpoint

    assert S.SNAPSHOT_VERSION == 4
    _, _, store = _checkpointed_drill(tmp_path)
    snapshot = dict(_drill_snapshot(store))
    assert "applied_counts" not in snapshot["progress"]
    snapshot["version"] = version
    with pytest.raises(
        S.SnapshotFormatError, match=f"version {version} is not supported"
    ):
        S.check_snapshot(snapshot)
    path = tmp_path / f"v{version}.npz"
    with monkeypatch.context() as patched:
        patched.setattr(checkpoint, "SNAPSHOT_VERSION", version)
        S.save_snapshot(path, snapshot)
    with pytest.raises(
        S.SnapshotFormatError, match=f"file version {version} is not supported"
    ):
        S.load_snapshot(path)


def test_check_snapshot_rejects_schema_violations(tmp_path) -> None:
    _, _, store = _checkpointed_drill(tmp_path)
    good = _drill_snapshot(store)
    for key in ("version", "fingerprint", "state", "progress", "cursor"):
        bad = {k: v for k, v in good.items() if k != key}
        with pytest.raises(S.SnapshotFormatError):
            S.check_snapshot(bad)
    bad = dict(good)
    bad["state"] = {"kind": "hologram"}
    with pytest.raises(S.SnapshotFormatError):
        S.check_snapshot(bad)


def test_resume_rejects_mismatched_scenarios(tmp_path) -> None:
    """A snapshot only resumes the trace it fingerprints."""
    _, _, store = _checkpointed_drill(tmp_path)
    other = S.with_checkpoint(S.grow_from_empty(seed=SEED + 1), at=3)
    with pytest.raises(S.SnapshotFormatError, match="fingerprint"):
        S.replay(
            other,
            backend="sim",
            n_ranks=4,
            layout="dhb",
            resume_from=_drill_snapshot(store),
        )


def test_resume_rejects_another_layouts_snapshot(tmp_path) -> None:
    """A ``csr`` snapshot never continues a ``dhb`` replay of its trace."""
    _, _, store = _checkpointed_drill(tmp_path, layout="csr")
    with pytest.raises(S.SnapshotFormatError, match="layout 'csr'"):
        S.replay(
            _drill_trace(),
            backend="sim",
            n_ranks=4,
            layout="dhb",
            resume_from=_drill_snapshot(store),
        )


def test_store_shared_by_two_traces_keeps_both(tmp_path) -> None:
    """Each trace's snapshot survives the other's, in memory and on disk."""
    traces = (_drill_trace(), S.with_checkpoint(S.steady_state_churn(seed=SEED), at=2))
    fingerprints = [S.scenario_fingerprint(trace) for trace in traces]
    assert fingerprints[0] != fingerprints[1]
    store = S.CheckpointStore(tmp_path)
    for trace in traces:
        S.replay(trace, backend="sim", n_ranks=4, checkpoint_store=store)
    fresh = S.CheckpointStore(tmp_path)
    for fingerprint in fingerprints:
        assert store.latest(0, fingerprint)["fingerprint"] == fingerprint
        assert fresh.latest(0, fingerprint)["fingerprint"] == fingerprint
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"snapshot_{fingerprint}_p0.npz" for fingerprint in fingerprints
    )


@pytest.mark.parametrize("layout", S.REPLAY_LAYOUTS)
def test_fresh_store_resumes_a_crashed_run_byte_identically(tmp_path, layout) -> None:
    """The two-job drill in one process: a run crashes after persisting its
    checkpoint, and a new store over the same directory resumes it."""
    trace = _drill_trace()
    options = dict(backend="sim", n_ranks=4, layout=layout)
    with pytest.raises(SimulatedCrash):
        S.replay(
            trace, checkpoint_store=S.CheckpointStore(tmp_path), faults="kill@5", **options
        )
    snapshot = S.CheckpointStore(tmp_path).latest(0, S.scenario_fingerprint(trace))
    assert snapshot is not None and snapshot["cursor"] == 4
    reference = S.replay(trace, **options)
    resumed = S.replay(trace, resume_from=snapshot, **options)
    for a, b in zip(reference.final_a, resumed.final_a):
        assert np.array_equal(a, b)
    got = dict(resumed.comm_signature())
    recovery = got.pop("recovery", None)
    assert recovery is not None and recovery[1] > 0
    assert got == dict(reference.comm_signature())
    assert [s.kind for s in resumed.steps] == [s.kind for s in reference.steps]


def test_scenario_fingerprint_is_stable_and_sensitive() -> None:
    a = S.grow_from_empty(seed=SEED)
    b = S.grow_from_empty(seed=SEED)
    assert S.scenario_fingerprint(a) == S.scenario_fingerprint(b)
    assert S.scenario_fingerprint(a) != S.scenario_fingerprint(
        S.grow_from_empty(seed=SEED + 1)
    )
    assert S.scenario_fingerprint(a) != S.scenario_fingerprint(
        S.with_checkpoint(a, at=1)
    )


# ----------------------------------------------------------------------
# Fault grammar and injector determinism
# ----------------------------------------------------------------------
def test_fault_plan_grammar_parses_kills() -> None:
    plan = FaultPlan.parse("kill@3;kill@7:proc=1")
    assert plan.kills == ((3, None), (7, 1))
    assert plan == FaultPlan(kills=((3, None), (7, 1)))


def test_kill_points_fire_exactly_once() -> None:
    injector = FaultInjector(FaultPlan(kills=((3, None),)))
    injector.check_step(2)
    with pytest.raises(SimulatedCrash) as excinfo:
        injector.check_step(3)
    assert excinfo.value.step_index == 3
    injector.check_step(3)  # recovered runs replay the step without refiring


def test_fault_injection_is_deterministic() -> None:
    """Same spec → identical kill points and recovery traffic.

    Wall-clock-derived seconds are excluded: determinism is over the
    discrete quantities (operations, messages, bytes) per category.
    """

    def drill():
        base = S.with_checkpoint(S.grow_from_empty(seed=SEED), at=3)
        return S.replay(
            base,
            backend="sim",
            n_ranks=4,
            layout="dhb",
            checkpoint_store=S.CheckpointStore(),
            faults=FaultInjector(FaultPlan.parse("kill@5")),
            on_crash="restore",
        )

    first, second = drill(), drill()
    assert dict(first.comm_signature()) == dict(second.comm_signature())
    discrete = lambda r: {  # noqa: E731
        k: (v["operations"], v["messages"], v["bytes"])
        for k, v in r.comm_stats.items()
    }
    assert discrete(first) == discrete(second)
    assert "recovery" in first.comm_stats


# ----------------------------------------------------------------------
# regression pins: state must be derivable from (snapshot, trace suffix)
# ----------------------------------------------------------------------
def test_construct_seed_independent_of_missing_partition_seeds() -> None:
    """Regression: the construct seed must not ride the partition pool.

    It used to be derived as the *last* child of the partition-seed spawn,
    so a scenario rebuilt from fully-seeded steps (exactly what the
    checkpoint path does) derived a different scatter order than the
    original — state that was not reproducible from the trace alone.
    """
    original = S.grow_from_empty(seed=SEED)
    # rebuild with every partition seed already assigned: __post_init__ has
    # no missing steps, but must still derive the identical construct seed
    rebuilt = dataclasses.replace(original, construct_seed=None)
    assert all(
        s.partition_seed is not None
        for s in rebuilt.steps
        if isinstance(s, S.ScenarioStep)
    )
    assert rebuilt.construct_seed == original.construct_seed


_DHB_SIM = dict(backend="sim", n_ranks=4, layout="dhb")


def _general_mode_drill():
    """General-mode ``mixed_update_multiply``, checkpointed at step 3 and
    crashed at step 4: ``(uninterrupted run, trace, recovered run, store)``."""
    scenario = S.mixed_update_multiply(seed=SEED)
    steps = [
        dataclasses.replace(s, mode="general") if isinstance(s, S.SpGEMMStep) else s
        for s in scenario.steps
    ]
    base = S.with_checkpoint(dataclasses.replace(scenario, name="general_mum", steps=steps), at=3)
    store = S.CheckpointStore()
    recovered = S.replay(
        base, checkpoint_store=store, faults="kill@4", on_crash="restore", **_DHB_SIM
    )
    return S.replay(base, **_DHB_SIM), base, recovered, store


def _assert_same_continuation(reference, got) -> None:
    for a, b in zip(reference.final_c, got.final_c):
        assert np.array_equal(a, b)
    signature = dict(got.comm_signature())
    signature.pop("recovery", None)
    assert signature == dict(reference.comm_signature())


def test_general_mode_bloom_state_survives_restore() -> None:
    """The incremental filter state ``F`` is part of the snapshot.

    ``mode="general"`` dynamic SpGEMM keeps a bloom-filter matrix per
    block; losing it across restore would change later multiplication
    pruning and with it the comm signature of the continuation.
    """
    reference, _trace, recovered, _store = _general_mode_drill()
    for a, b in zip(reference.final_a, recovered.final_a):
        assert np.array_equal(a, b)
    _assert_same_continuation(reference, recovered)


def test_snapshot_with_insertion_ordered_bloom_entries_restores() -> None:
    """Version-3 snapshots list ``F`` in the insertion order of a dict.

    Filters were once dicts, and a snapshot stored their entries in the
    order they were first set.  Such a file still restores to the same
    filters: the continuation matches the uninterrupted run byte for byte.
    """
    reference, trace, _recovered, store = _general_mode_drill()
    snapshot = store.latest(0, S.scenario_fingerprint(trace))
    rng = np.random.default_rng(SEED)
    shuffled = 0
    for encoded in snapshot["state"]["product"]["f"].values():
        original = decode_bloom(encoded)
        order = rng.permutation(encoded["rows"].size)
        shuffled += int(np.any(order != np.arange(order.size)))
        for key in _BLOOM_ARRAYS:
            encoded[key] = encoded[key][order]
        assert decode_bloom(encoded) == original
    assert shuffled
    _assert_same_continuation(reference, S.replay(trace, resume_from=snapshot, **_DHB_SIM))


# ----------------------------------------------------------------------
# a dhb replay's static B: built as DHB, labelled and checkpointed as DHB
# ----------------------------------------------------------------------
def _algebraic_dhb_drill():
    """Algorithm 1 ``mixed_update_multiply`` on a ``dhb`` B, checkpointed at
    step 3 and crashed at step 4: ``(uninterrupted run, trace, store)``."""
    base = S.with_checkpoint(S.mixed_update_multiply(seed=SEED), at=3)
    store = S.CheckpointStore()
    S.replay(base, checkpoint_store=store, faults="kill@4", on_crash="restore", **_DHB_SIM)
    return S.replay(base, **_DHB_SIM), base, store


def test_dhb_replay_builds_its_static_b_as_dhb() -> None:
    engine = S.ScenarioEngine(
        S.mixed_update_multiply(seed=SEED), SimMPI(4), layout="dhb"
    ).begin()
    b = engine.executor.b_static
    assert b.layout == "dhb"
    assert b.blocks and all(type(block) is DHBMatrix for block in b.blocks.values())


def test_dhb_replay_checkpoints_its_true_static_layout() -> None:
    _reference, trace, store = _algebraic_dhb_drill()
    snapshot = store.latest(0, S.scenario_fingerprint(trace))
    assert snapshot["state"]["product"]["b"]["static_layout"] == "dhb"


def test_snapshot_labelling_a_dhb_b_as_csr_still_restores() -> None:
    """Snapshots once labelled every static B ``csr``, whatever its blocks.

    Such a file restores the blocks it holds, and the continuation matches
    the uninterrupted run byte for byte.
    """
    reference, trace, store = _algebraic_dhb_drill()
    snapshot = store.latest(0, S.scenario_fingerprint(trace))
    assert snapshot["version"] == S.SNAPSHOT_VERSION == 4
    snapshot["state"]["product"]["b"]["static_layout"] = "csr"
    resumed = S.replay(trace, resume_from=snapshot, **_DHB_SIM)
    for a, b in zip(reference.final_a, resumed.final_a):
        assert np.array_equal(a, b)
    _assert_same_continuation(reference, resumed)
