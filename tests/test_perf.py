"""Tests for the perf instrumentation subsystem (`repro.perf`).

Covers: recorder counters, each backend's accounting into its own
``CommStats``, BENCH schema round-trips and the compare gate's pass/fail
thresholds — plus the instrumentation contract of the replay driver
(counters show up, injected faults charge only the replayed
communicator) and the ``benchmarks/`` figure registry with its one
runner, on reduced cells: every paper claim a figure declares holds on
them, and the runner checks claims as specified.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import sys
import threading

import numpy as np
import pytest

from repro.perf import (
    BENCH_SCHEMA_VERSION,
    BenchSchemaError,
    PerfRecorder,
    bench_document,
    bench_run_entry,
    compare_documents,
    get_recorder,
    perf_count,
    use_recorder,
    validate_bench,
)
from repro.bench.config import get_profile
from repro.competitors import PETScBackend
from repro.runtime import (
    CommStats,
    EmulatedComm,
    SimMPI,
    StatCategory,
    make_communicator,
    run_spmd,
)
from repro.scenarios import (
    CheckpointStore,
    NativeExecutor,
    grow_from_empty,
    library_scenarios,
    multilevel_contraction,
    replay,
    road_churn_sssp,
    social_triangle_stream,
    with_checkpoint,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import figures as bench_figures  # noqa: E402
import run_suite as bench_runner  # noqa: E402


# ----------------------------------------------------------------------
# recorder counters and each communicator's own CommStats
# ----------------------------------------------------------------------
def test_counters_and_comm_attribution():
    rec = PerfRecorder()
    rec.count("widgets", 3)
    stats = CommStats()
    stats.record("bcast", operations=1, messages=4, nbytes=100, modeled_seconds=0.5)
    stats.record("bcast", operations=1, messages=1, nbytes=10, modeled_seconds=0.1)
    assert rec.counters == {"widgets": 3}
    assert stats.as_dict()["bcast"] == {
        "operations": 2,
        "messages": 5,
        "bytes": 110,
        "modeled_seconds": pytest.approx(0.6),
        "measured_seconds": 0.0,
    }
    assert (stats.total_messages(), stats.total_bytes()) == (5, 110)


def test_module_probes_noop_without_active_recorder():
    assert get_recorder() is None
    perf_count("nothing")  # must not raise


def test_use_recorder_nests_and_restores():
    outer, inner = PerfRecorder(), PerfRecorder()
    with use_recorder(outer):
        assert get_recorder() is outer
        with use_recorder(inner):
            assert get_recorder() is inner
            perf_count("x")
        assert get_recorder() is outer
    assert get_recorder() is None
    assert inner.counters == {"x": 1}
    assert outer.counters == {}


def test_backend_records_into_its_own_stats():
    comm = SimMPI(4)
    comm.exchange([(0, 1, np.zeros(8)), (2, 3, np.zeros(4))])
    assert comm.stats.categories["send_recv"].operations == 1
    assert comm.stats.categories["send_recv"].messages == 2
    assert comm.stats.categories["send_recv"].bytes == 96


def test_replay_populates_counters_and_comm():
    scenario = grow_from_empty(n=48, n_batches=2, batch=64, seed=5)
    rec = PerfRecorder()
    comm = SimMPI(4)
    with use_recorder(rec):
        result = replay(scenario, comm=comm, collect_final=False)
    assert rec.counters["dhb.insert.entries"] > 0
    assert rec.counters["redistribute.tuples"] > 0
    assert result.comm_stats["redist_comm"]["bytes"] > 0
    # the result reports everything the communicator recorded
    assert result.total_comm_bytes() == comm.stats.total_bytes()
    assert result.total_comm_messages() == comm.stats.total_messages()


@pytest.mark.parametrize(
    "generator, counter",
    [
        (social_triangle_stream, "app_triangle_queries"),
        (road_churn_sssp, "app_sssp_queries"),
        (multilevel_contraction, "app_contract_nnz"),
    ],
)
def test_app_replays_count_their_queries(generator, counter):
    rec = PerfRecorder()
    with use_recorder(rec):
        replay(generator(seed=61), backend="sim", n_ranks=4, collect_final=False)
    assert rec.counters[counter] > 0


def _volumes(comm_stats):
    return {
        category: (totals["messages"], totals["bytes"])
        for category, totals in comm_stats.items()
    }


class _BystanderExecutor(NativeExecutor):
    """Also exchanges on a communicator of its own at every update step."""

    def __init__(self, bystander, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bystander = bystander

    def apply(self, step, per_rank):
        self.bystander.exchange([(0, 1, np.zeros(4)), (1, 0, np.zeros(4))])
        return super().apply(step, per_rank)


@pytest.mark.parametrize("backend", ["sim", "mpi"])
@pytest.mark.parametrize(
    "scenario", library_scenarios(), ids=lambda scenario: scenario.name
)
def test_restore_traffic_charges_only_the_replaying_communicator(scenario, backend):
    """A kill-and-restore charges its restore traffic to the replayed
    communicator's ``CommStats``: a bystander exchanging on its own
    communicator during the replay is charged nothing and leaves the
    replay's accounting unchanged."""
    drill = with_checkpoint(scenario, at=2)

    def run(executor_factory):
        extra = {"comm": EmulatedComm()} if backend == "mpi" else {}
        comm = make_communicator(backend, n_ranks=4, **extra)
        result = replay(
            drill,
            comm=comm,
            checkpoint_store=CheckpointStore(),
            faults="kill@4",
            on_crash="restore",
            executor_factory=executor_factory,
            collect_final=False,
        )
        return _volumes(result.comm_stats)

    bystander = SimMPI(2)
    alone = run(None)
    beside = run(functools.partial(_BystanderExecutor, bystander))
    assert alone[StatCategory.RECOVERY][0] > 0
    assert beside == alone
    assert bystander.stats.total_messages() > 0
    assert StatCategory.RECOVERY not in bystander.stats.categories


# ----------------------------------------------------------------------
# schema round-trip
# ----------------------------------------------------------------------
def _sample_run(**overrides):
    entry = bench_run_entry(
        backend="sim",
        layout="csr",
        repeats=3,
        elapsed_seconds_median=0.25,
        counters={"dhb.insert.entries": 4096},
        comm={"messages": 480, "bytes": 123456},
        comm_categories={"alltoall": {"messages": 480, "bytes": 123456}},
    )
    entry.update(overrides)
    return entry


def _sample_document(**overrides):
    doc = bench_document(
        figure="fig04",
        title="sample",
        seed=0,
        profile="smoke",
        n_ranks=16,
        runs=[_sample_run()],
        extras={"note": "test"},
        sha="deadbeef",
    )
    doc.update(overrides)
    return doc


def test_bench_document_round_trips_through_json():
    doc = _sample_document()
    validate_bench(doc)
    restored = json.loads(json.dumps(doc))
    validate_bench(restored)
    assert restored == doc
    assert restored["schema_version"] == BENCH_SCHEMA_VERSION
    assert restored["git_sha"] == "deadbeef"


@pytest.mark.parametrize(
    "corrupt",
    [
        {"schema_version": 99},
        {"schema_version": 1},
        {"runs": [{"backend": "sim"}]},
        {"seed": "zero"},
        {"n_ranks": 0},
        {"runs": [_sample_run(elapsed_seconds_median=-1.0)]},
        {"runs": [_sample_run(comm={"messages": 1})]},
        {"claims": [{"name": "c", "paper": "Fig. 4", "kind": "x", "status": "holds"}]},
    ],
)
def test_schema_rejects_corrupt_documents(corrupt):
    doc = _sample_document(**corrupt)
    with pytest.raises(BenchSchemaError):
        validate_bench(doc)


def test_schema_rejects_missing_required_key():
    doc = _sample_document()
    del doc["git_sha"]
    with pytest.raises(BenchSchemaError):
        validate_bench(doc)


# ----------------------------------------------------------------------
# compare gate
# ----------------------------------------------------------------------
def test_compare_identical_documents_passes():
    doc = _sample_document()
    report = compare_documents(doc, doc, threshold=0.25)
    assert not report.regressed
    assert report.compared_metrics > 0


def test_compare_flags_injected_2x_slowdown():
    base = _sample_document()
    slow = _sample_document()
    slow["runs"][0]["elapsed_seconds_median"] *= 2.0
    report = compare_documents(base, slow, threshold=0.25)
    assert report.regressed
    (regression,) = report.regressions
    assert regression.metric == "elapsed_seconds_median"
    assert regression.ratio == pytest.approx(2.0)


def test_compare_tolerates_drift_below_threshold():
    base = _sample_document()
    near = _sample_document()
    near["runs"][0]["elapsed_seconds_median"] *= 1.2  # under the 25% gate
    assert not compare_documents(base, near, threshold=0.25).regressed


def test_compare_timing_floor_spares_elapsed_but_not_comm_volume():
    base = _sample_document()
    base["runs"][0]["elapsed_seconds_median"] = 2e-4
    base["runs"][0]["comm"] = {"messages": 1, "bytes": 2}
    # 2x on both, but the elapsed time grows by only 0.2 ms: under the
    # absolute floor; the deterministic volume has no floor
    tiny = json.loads(json.dumps(base))
    tiny["runs"][0]["elapsed_seconds_median"] = 4e-4
    tiny["runs"][0]["comm"]["bytes"] = 4
    report = compare_documents(base, tiny)
    assert [r.metric for r in report.regressions] == ["comm.bytes"]


@pytest.mark.parametrize("threshold", [-0.5, float("nan"), float("inf")])
def test_compare_rejects_a_negative_or_non_finite_threshold(threshold, tmp_path, capsys):
    from repro.perf.compare import main

    doc = _sample_document()
    with pytest.raises(ValueError, match="threshold"):
        compare_documents(doc, doc, threshold=threshold)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([str(path), str(path), "--threshold", str(threshold)]) == 2
    assert capsys.readouterr().out.startswith("error:")


def test_compare_refuses_cross_figure_documents():
    base = _sample_document()
    other = _sample_document(figure="fig08")
    with pytest.raises(BenchSchemaError):
        compare_documents(base, other)


def test_compare_reports_unmatched_runs():
    base = _sample_document()
    wider = _sample_document()
    wider["runs"] = [_sample_run(), _sample_run(layout="dhb")]
    report = compare_documents(base, wider)
    assert report.unmatched_runs == ["sim/dhb"]
    assert not report.regressed


def test_compare_cli_round_trip(tmp_path):
    from repro.perf.compare import main

    base_path = tmp_path / "base.json"
    slow_path = tmp_path / "slow.json"
    base = _sample_document()
    slow = _sample_document()
    slow["runs"][0]["elapsed_seconds_median"] *= 2.0
    base_path.write_text(json.dumps(base))
    slow_path.write_text(json.dumps(slow))
    assert main([str(base_path), str(base_path)]) == 0
    assert main([str(base_path), str(slow_path)]) == 1
    assert main([str(base_path), str(tmp_path / "missing.json")]) == 2


# ----------------------------------------------------------------------
# the figure registry and its runner, every figure on reduced cells
# ----------------------------------------------------------------------
#: Cell tags kept per figure.  The full smoke matrix takes ~25 s; one cell
#: of each kind exercises the same code.  The paper's figures keep the
#: first instance at its smallest and largest batch, or only the smallest
#: where nothing is claimed over sizes.
_ENDS = {"LiveJournal@b16", "LiveJournal@b256"}
KEPT_TAGS = {
    "partition": {"bursty_skewed_stream@w2"},
    "service": {"ingest", "query", "tenants@2"},
    "fig03": {"LiveJournal"},
    "fig04": _ENDS,
    "fig05a": _ENDS,
    "fig05b": _ENDS,
    "fig10": {"LiveJournal@b8"},
    "fig12": {"p4"},
}


def _build(name: str) -> dict:
    figure = bench_figures.FIGURES[name]
    kept = KEPT_TAGS.get(name)
    if kept is not None:

        def plan(ctx, full=figure.plan):
            cells, extras = full(ctx)
            return [cell for cell in cells if cell.tag in kept], extras

        figure = dataclasses.replace(figure, plan=plan)
    return bench_runner.build_document(
        figure,
        profile=get_profile("smoke"),
        backends=("sim",),
        layouts=("csr",),
        repeats=1,
    )


_document = functools.lru_cache(maxsize=None)(_build)


@pytest.mark.parametrize("name", list(bench_figures.FIGURES))
def test_every_registry_figure_builds_a_valid_document(name):
    figure = bench_figures.FIGURES[name]
    document = _document(name)
    validate_bench(document)
    assert document["figure"] == name and document["title"] == figure.title
    assert document["seed"] == figure.seed
    # Table I has nothing to time: its catalogue is the extras
    assert bool(document["runs"]) == (name != "table1")
    assert all(run["repeats"] >= 1 for run in document["runs"])
    assert not compare_documents(document, document).regressed
    assert len(document["claims"]) == len(figure.claims)
    if not figure.variants:
        return
    # every variant tags its own copy of the same stems
    tags = [run.get("scenario") for run in document["runs"]]
    suffixes = [figure.variant_sep + variant for variant in figure.variants]
    stems = {
        suffix: {tag[: -len(suffix)] for tag in tags if tag.endswith(suffix)}
        for suffix in suffixes
    }
    assert stems[suffixes[0]] and len({frozenset(s) for s in stems.values()}) == 1
    assert document["extras"]  # every figure describes its cells


def test_replay_figures_record_counters_and_comm():
    runs = _document("fig08")["runs"]
    assert [run["scenario"] for run in runs] == [
        "strong@p4", "strong@p16", "weak@p4", "weak@p16"
    ]
    for run in runs:
        assert (run["backend"], run["layout"]) == ("sim", "csr")
        assert run["counters"]["dhb.insert.entries"] > 0
        categories = run["comm_categories"]
        assert run["comm"]["bytes"] == sum(c["bytes"] for c in categories.values())
    assert set(_document("fig04")["extras"]["dhb_insertion"]) == {
        "construction",
        "dense_batches",
    }


def test_recorded_cell_reports_world_comm_under_loopback(monkeypatch):
    """Every process of a multi-process world reports the comm of the
    whole world, not of the logical ranks it owns."""
    scenario = grow_from_empty(n=48, n_batches=2, batch=64, seed=5)
    machine = get_profile("smoke").machine

    def cell(backend):
        return bench_figures._replay_cell(
            scenario, backend=backend, n_ranks=4, machine=machine
        )

    _, expected = cell("sim").run()
    # each thread of the world builds its MPIBackend on its own LoopbackComm
    local = threading.local()
    monkeypatch.setattr(
        bench_figures,
        "make_communicator",
        lambda backend, **kwargs: make_communicator(backend, comm=local.comm, **kwargs),
    )

    def process(comm_obj, _rank):
        local.comm = comm_obj
        return cell("mpi").run()[1]

    first, second = run_spmd(2, process)
    assert _volumes(first) == _volumes(second) == _volumes(expected)


def test_run_suite_cli_writes_and_rejects(tmp_path, capsys):
    argv = ["--backends", "sim", "--layouts", "csr", "--repeats", "1"]
    out = ["--out", str(tmp_path)]
    assert bench_runner.main(["--figs", "fig08", "--smoke", *argv, *out]) == 0
    with open(tmp_path / "BENCH_fig08.json", "r", encoding="utf-8") as handle:
        validate_bench(json.load(handle))
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["tag", "variant", "backend", "layout", "median", "s"]
    assert table[1].split()[:4] == ["strong@p4", "-", "sim", "csr"]
    # the table splits each tag from its variant, and lists the claims last
    service = bench_figures.FIGURES["service"]
    table = bench_runner.format_runs(service, _document("service")).splitlines()
    assert table[1].split()[:2] == ["ingest", "1"]
    assert [line.split()[:2] for line in table[-2:]] == [["claim", "holds"]] * 2
    for bad in (["--figs", "fig99"], ["--figs", "fig08", "--profile", "nope"]):
        assert bench_runner.main([*bad, *out]) == 2
        assert "error:" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["BENCH_fig08.json"]


def test_run_suite_rejects_unknown_layouts_before_measuring(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    for bad in (["--figs", "table1", "--layouts", "bogus"], ["--layouts", "csr,coo"]):
        assert bench_runner.main([*bad, *out]) == 2
        assert "error: unknown layout" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ----------------------------------------------------------------------
# the claims: declared on their figures, checked by the run that measures them
# ----------------------------------------------------------------------
CLAIMS = [
    (name, index)
    for name, figure in bench_figures.FIGURES.items()
    for index in range(len(figure.claims))
]


@pytest.mark.parametrize("name, index", CLAIMS, ids=[f"{n}[{i}]" for n, i in CLAIMS])
def test_every_claim_holds_on_the_smoke_documents(name, index):
    """``KEPT_TAGS`` keeps every cell a claim reads."""
    claim = _document(name)["claims"][index]
    assert claim["name"] == bench_figures.FIGURES[name].claims[index].name
    assert claim["status"] == "holds", claim


def _stub_figure(*claims, calls=None):
    """One cell, ``t`` of variant ``a`` on ``sim``/``csr``: 1 s, no traffic."""

    def plan(ctx):
        if calls is not None:
            calls.append(ctx)
        sample = bench_figures.Sample([1.0], {}, {"messages": 0, "bytes": 0})
        return [bench_figures.Cell(lambda: sample, "sim", "csr", "t", "a")], dict

    return bench_figures.Figure(
        "stub", "stub", plan, repeats=1, recorded=False, variants=("a",), claims=claims
    )


def _claim(test, kind="count", **where):
    return bench_figures.Claim("stub claim", "Fig. 0", kind, test, **where)


def _build_stub(figure, backends=("sim",)):
    return bench_runner.build_document(
        figure, profile=get_profile("smoke"), backends=backends, layouts=("csr",)
    )


def test_claims_on_an_unmeasured_backend_are_recorded_as_not_measured():
    # under --backends mpi, Fig. 9's claims read the sim runs of ours
    pinned = _claim(
        lambda cells: (cells("t", "a")["elapsed_seconds_median"], True), backend=None
    )
    fig09 = bench_figures.FIGURES["fig09"].claims
    claims = _build_stub(_stub_figure(*fig09, pinned), backends=("mpi",))["claims"]
    assert [claim["status"] for claim in claims] == ["not measured"] * 2 + ["holds"]
    assert "value" not in claims[0] and claims[2]["value"] == 1.0


def test_a_claim_on_a_missing_cell_raises():
    # Fig. 9's claims on a document without its cells
    with pytest.raises(bench_figures.MissingCell, match="'ours'"):
        _build_stub(_stub_figure(*bench_figures.FIGURES["fig09"].claims))
    with pytest.raises(bench_figures.MissingCell, match="'t' of 'b'"):
        _build_stub(_stub_figure(_claim(lambda cells: (0.0, cells("t", "b") != {}))))


def test_a_failed_simulated_claim_re_measures_the_figure_exactly_once():
    calls = []
    flaky = _claim(lambda cells: (len(calls), len(calls) > 1), "simulated")
    (claim,) = _build_stub(_stub_figure(flaky, calls=calls))["claims"]
    assert len(calls) == 2 and (claim["status"], claim["value"]) == ("holds", 2.0)
    for kind, measurements in (("simulated", 2), ("count", 1), ("wall", 1)):
        calls.clear()
        broken = _claim(lambda cells: (0.0, False), kind)
        (claim,) = _build_stub(_stub_figure(broken, calls=calls))["claims"]
        assert len(calls) == measurements and claim["status"] == "fails"


def test_a_failed_claim_fails_the_run_after_writing_its_document(
    tmp_path, monkeypatch, capsys
):
    figure = _stub_figure(_claim(lambda cells: (0.5, False)))
    monkeypatch.setitem(bench_figures.FIGURES, "stub", figure)
    assert bench_runner.main(["--figs", "stub", "--out", str(tmp_path)]) == 1
    with open(tmp_path / "BENCH_stub.json", "r", encoding="utf-8") as handle:
        (claim,) = json.load(handle)["claims"]
    assert (claim["status"], claim["value"]) == ("fails", 0.5)
    assert "error: 1 measured claim(s) failed" in capsys.readouterr().err


def _variants(document) -> dict[tuple[str, str], dict]:
    """``(tag, variant) -> run`` of a document whose tags end in ``:variant``."""
    return {run["scenario"].rpartition(":")[::2]: run for run in document["runs"]}


#: Table I at the smoke profile: instance -> (n, nnz) of the surrogate
TABLE1_SMOKE = {
    "LiveJournal": (976, 15066),
    "orkut": (732, 30432),
    "tech-p2p": (1220, 64448),
    "indochina": (1708, 59444),
    "sinaweibo": (14160, 117870),
    "uk2002": (4394, 121314),
    "wikipedia": (6591, 238476),
    "PayDomain": (10253, 269366),
    "uk2005": (9521, 361484),
    "webbase": (28808, 410754),
    "twitter": (10009, 466136),
    "friendster": (30273, 745550),
}

#: the scenarios behind the figures are the generation-1 drivers', cell for cell
FINGERPRINTS = {
    "fig03": {"LiveJournal": "a3de40bd08752d4f8f31eca3"},
    "fig04": {"LiveJournal@b16": "95984f9432823f3f7380bf6a"},
    "fig05a": {"LiveJournal@b256": "a083f4c165e248e6f5923db2"},
    "fig05b": {"orkut@b64": "d54f6bd89d41d7e080b0a0e2"},
    "fig06": {"p4": "804ad3a66e17ec7971c231da"},
    "fig07": {"p16": "297635f9ec22dde45f31d937"},
    "fig08": {
        "strong@p16": "024dd009ae8990f1210acc76",
        "weak@p4": "fc1fa8e526e7da4e140791b9",
        "weak@p16": "6d03d7ce6d4ce9be7b8692fa",
    },
    "fig09": {"LiveJournal@b8": "0121a55d5bd32f66e4b6cb88"},
    "fig10": {"LiveJournal@b16": "2973c4fe33f8813477e10db5"},
    "fig11": {"p16": "f39015b64309219555697f0c"},
    "fig12": {"p4": "e9657c75f94ba95e17482c03"},
}


def test_table1_lists_the_catalogue_with_its_surrogate_sizes():
    rows = _document("table1")["extras"]["instances"]
    assert {
        row["instance"]: (row["n_surrogate"], row["nnz_surrogate"]) for row in rows
    } == TABLE1_SMOKE
    assert all(row["nnz_paper"] > row["nnz_surrogate"] for row in rows)


@pytest.mark.parametrize("name", list(FINGERPRINTS))
def test_paper_figures_replay_the_seeded_scenarios(name):
    fingerprints = _document(name)["extras"]["fingerprints"]
    assert FINGERPRINTS[name].items() <= fingerprints.items()


def test_fig05b_has_no_petsc_series():
    assert not PETScBackend.supports_deletions
    systems = {variant for _, variant in _variants(_document("fig05b"))}
    assert systems == {"ours", "combblas", "ctf"}


@pytest.mark.parametrize(
    "name, categories",
    [
        ("fig06", StatCategory.INSERTION_BREAKDOWN),
        ("fig07", StatCategory.INSERTION_BREAKDOWN),
        ("fig11", StatCategory.SPGEMM_BREAKDOWN),
        ("fig12", StatCategory.SPGEMM_BREAKDOWN),
    ],
)
def test_breakdown_figures_report_exactly_the_paper_phases(name, categories):
    runs = _document(name)["runs"]
    assert runs[0]["scenario"] == "p4"
    for run in runs:
        phases = {
            key.split(".")[1]: value
            for key, value in run["counters"].items()
            if key.startswith("breakdown.")
        }
        assert set(phases) == set(categories)
        assert sum(phases.values()) > 0.0


def test_fig10_measures_every_system():
    cells = _variants(_document("fig10"))
    assert {variant for _, variant in cells} == set(bench_figures.COMPETITORS)
    assert all(run["elapsed_seconds_median"] > 0 for run in cells.values())


def test_summa_crossover_matches_the_seeded_update_sizes():
    crossover = _variants(_document("ablation_summa_crossover"))
    update_nnz = {
        tag: run["counters"]["ablation.update_nnz"]
        for (tag, algorithm), run in crossover.items()
        if algorithm == "dynamic"
    }
    assert update_nnz == {
        "f0.01": 150, "f0.05": 734, "f0.2": 2726, "f0.5": 5896, "f1.0": 9551
    }


def test_compare_distinguishes_scenario_tagged_runs():
    """Same-layout runs of different scenarios must not collapse onto one
    comparison key — a regression in the *first* scenario run is caught."""

    def doc(first_elapsed):
        runs = []
        for name, elapsed in (("alpha", first_elapsed), ("beta", 1.0)):
            run = bench_run_entry(
                backend="sim",
                layout="csr",
                repeats=1,
                elapsed_seconds_median=elapsed,
                counters={},
                comm={"messages": 1, "bytes": 100},
            )
            run["scenario"] = name
            runs.append(run)
        return bench_document(
            figure="service",
            title="t",
            seed=0,
            profile="smoke",
            n_ranks=4,
            runs=runs,
            sha="x",
        )

    report = compare_documents(doc(1.0), doc(10.0))
    assert report.regressed
    assert not report.unmatched_runs
    assert any("alpha" in r.run for r in report.regressions)


# ----------------------------------------------------------------------
# cross-backend determinism of the funnel
# ----------------------------------------------------------------------
def test_comm_volume_identical_across_backends():
    scenario = grow_from_empty(n=48, n_batches=2, batch=64, seed=5)
    volumes = {}
    for backend in ("sim", "mpi"):
        comm = make_communicator(backend, n_ranks=4, comm=EmulatedComm()) \
            if backend == "mpi" else make_communicator(backend, n_ranks=4)
        result = replay(scenario, comm=comm, collect_final=False)
        volumes[backend] = _volumes(result.comm_stats)
    assert volumes["sim"] == volumes["mpi"]
