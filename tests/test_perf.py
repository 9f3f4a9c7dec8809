"""Tests for the perf instrumentation subsystem (`repro.perf`).

Covers: nested-timer correctness, counter/phase merge across per-rank
recorders, the backend accounting funnel, BENCH schema round-trips and the
compare gate's pass/fail thresholds — plus the instrumentation contract of
the replay driver (phases show up, comm volume is attributed) and the
``benchmarks/`` figure registry with its one runner, on reduced cells.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import sys

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
    perf_phase,
    use_recorder,
    validate_bench,
)
from repro.bench.config import get_profile
from repro.competitors import PETScBackend
from repro.runtime import SimMPI, StatCategory, make_communicator
from repro.scenarios import grow_from_empty, replay

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "benchmarks"))

import figures as bench_figures  # noqa: E402
import run_suite as bench_runner  # noqa: E402


# ----------------------------------------------------------------------
# recorder: nested timers
# ----------------------------------------------------------------------
class FakeClock:
    """Deterministic clock: each read advances by `step` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def test_nested_phases_accumulate_under_paths():
    rec = PerfRecorder()
    with rec.phase("outer"):
        with rec.phase("inner"):
            pass
        with rec.phase("inner"):
            pass
    assert rec.phases["outer"].calls == 1
    assert rec.phases["outer/inner"].calls == 2
    assert "inner" not in rec.phases  # nested path, not a sibling root


def test_nested_phase_timing_is_inclusive_and_exclusive_derives():
    # Each clock read advances 1s: outer spans reads (0, 5) = 5s inclusive;
    # the two inner phases span (1, 2) and (3, 4) = 1s each.
    rec = PerfRecorder(clock=FakeClock())
    with rec.phase("outer"):
        with rec.phase("inner"):
            pass
        with rec.phase("inner"):
            pass
    assert rec.phase_seconds("outer") == pytest.approx(5.0)
    assert rec.phase_seconds("outer/inner") == pytest.approx(2.0)
    assert rec.exclusive_seconds("outer") == pytest.approx(3.0)
    # exclusive only subtracts *direct* children
    assert rec.exclusive_seconds("outer/inner") == pytest.approx(2.0)


def test_phase_stack_restored_on_exception():
    rec = PerfRecorder()
    with pytest.raises(RuntimeError):
        with rec.phase("outer"):
            with rec.phase("inner"):
                raise RuntimeError("boom")
    assert rec.current_path() == ""
    assert rec.phases["outer"].calls == 1
    assert rec.phases["outer/inner"].calls == 1


def test_phase_name_validation():
    rec = PerfRecorder()
    with pytest.raises(ValueError):
        with rec.phase("bad/name"):
            pass
    with pytest.raises(ValueError):
        with rec.phase(""):
            pass


# ----------------------------------------------------------------------
# recorder: counters, comm, merge
# ----------------------------------------------------------------------
def test_counters_and_comm_attribution():
    rec = PerfRecorder()
    with rec.phase("work"):
        rec.count("widgets", 3)
        rec.record_comm("bcast", messages=4, nbytes=100, seconds=0.5)
    rec.record_comm("bcast", messages=1, nbytes=10, seconds=0.1)  # outside phase
    assert rec.counters["widgets"] == 3
    assert rec.comm["bcast"] == {
        "events": 2,
        "messages": 5,
        "bytes": 110,
        "seconds": pytest.approx(0.6),
    }
    # only the in-phase share lands on the phase
    assert rec.phases["work"].messages == 4
    assert rec.phases["work"].bytes == 100
    assert rec.total_comm() == {"messages": 5, "bytes": 110}


def test_merge_across_ranks_sums_everything():
    ranks = []
    for rank in range(3):
        rec = PerfRecorder()
        with rec.phase("step"):
            rec.count("entries", 10 * (rank + 1))
            rec.record_comm("alltoall", messages=2, nbytes=rank + 1)
        ranks.append(rec)
    merged = PerfRecorder()
    for rec in ranks:
        merged.merge(rec)
    assert merged.counters["entries"] == 60
    assert merged.phases["step"].calls == 3
    assert merged.comm["alltoall"]["messages"] == 6
    assert merged.comm["alltoall"]["bytes"] == 6
    assert merged.phases["step"].bytes == 6


def test_module_probes_noop_without_active_recorder():
    assert get_recorder() is None
    with perf_phase("anything"):
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


def test_backend_funnel_records_into_stats_and_recorder():
    rec = PerfRecorder()
    with use_recorder(rec):
        comm = SimMPI(4)
        with rec.phase("exchange"):
            comm.exchange([(0, 1, np.zeros(8)), (2, 3, np.zeros(4))])
    # CommStats side (unchanged semantics)
    assert comm.stats.categories["send_recv"].messages == 2
    assert comm.stats.categories["send_recv"].bytes == 96
    # recorder side, attributed to the open phase
    assert rec.comm["send_recv"]["messages"] == 2
    assert rec.phases["exchange"].bytes == 96


def test_replay_populates_phases_and_comm():
    scenario = grow_from_empty(n=48, n_batches=2, batch=64, seed=5)
    rec = PerfRecorder()
    with use_recorder(rec):
        replay(scenario, n_ranks=4, collect_final=False)
    assert rec.phases["replay_construct"].calls == 1
    assert rec.phases["replay_insert"].calls == 2
    assert rec.phase_seconds("replay_insert/redistribute") > 0.0
    assert rec.phases["replay_insert"].bytes > 0
    assert rec.counters["dhb.insert.entries"] > 0


# ----------------------------------------------------------------------
# schema round-trip
# ----------------------------------------------------------------------
def _sample_run(**overrides):
    entry = bench_run_entry(
        backend="sim",
        layout="csr",
        repeats=3,
        elapsed_seconds_median=0.25,
        phase_seconds_median={"replay_insert": 0.1, "replay_insert/redistribute": 0.04},
        phase_calls={"replay_insert": 4},
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
        {"runs": [{"backend": "sim"}]},
        {"seed": "zero"},
        {"n_ranks": 0},
        {"runs": [_sample_run(elapsed_seconds_median=-1.0)]},
        {"runs": [_sample_run(comm={"messages": 1})]},
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
    slow["runs"][0]["phase_seconds_median"]["replay_insert"] *= 2.0
    report = compare_documents(base, slow, threshold=0.25)
    assert report.regressed
    (regression,) = report.regressions
    assert regression.metric == "phase:replay_insert"
    assert regression.ratio == pytest.approx(2.0)


def test_compare_tolerates_drift_below_threshold():
    base = _sample_document()
    near = _sample_document()
    near["runs"][0]["elapsed_seconds_median"] *= 1.2  # under the 25% gate
    assert not compare_documents(base, near, threshold=0.25).regressed


def test_compare_absolute_floor_ignores_micro_phases():
    base = _sample_document()
    noisy = _sample_document()
    noisy["runs"][0]["phase_seconds_median"]["replay_insert/redistribute"] = 0.0402
    base["runs"][0]["phase_seconds_median"]["replay_insert/redistribute"] = 0.0200
    # 2x ratio but only +20ms; with a large floor it must pass, with the
    # default floor it must fail
    assert not compare_documents(base, noisy, min_seconds=0.05).regressed
    assert compare_documents(base, noisy, min_seconds=5e-4).regressed


def test_compare_comm_volume_has_no_timing_floor():
    base = _sample_document()
    bloated = _sample_document()
    bloated["runs"][0]["comm"]["bytes"] *= 2
    report = compare_documents(base, bloated, min_seconds=1e9)
    assert report.regressed
    assert report.regressions[0].metric == "comm.bytes"


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


def test_compare_expect_speedup_requires_faster_current():
    base = _sample_document()
    fast = _sample_document()
    fast["runs"][0]["elapsed_seconds_median"] *= 0.7  # 30% faster
    assert not compare_documents(base, fast, expect_speedup=0.2).regressed
    # 30% is not a 40% speedup
    report = compare_documents(base, fast, expect_speedup=0.4)
    assert report.regressed
    assert "expected >= 40% speedup" in report.regressions[0].metric
    # equal timings are a failure too: no speedup at all
    assert compare_documents(base, base, expect_speedup=0.2).regressed


def test_compare_expect_speedup_skips_phases_but_keeps_volume():
    base = _sample_document()
    current = _sample_document()
    current["runs"][0]["elapsed_seconds_median"] *= 0.5
    # phases may shift freely between modes...
    current["runs"][0]["phase_seconds_median"]["replay_insert"] *= 10.0
    assert not compare_documents(base, current, expect_speedup=0.2).regressed
    # ...but the communication volume must not grow
    current["runs"][0]["comm"]["bytes"] *= 2
    report = compare_documents(base, current, expect_speedup=0.2)
    assert report.regressed
    assert report.regressions[0].metric == "comm.bytes"


def test_compare_expect_speedup_validates_fraction():
    base = _sample_document()
    with pytest.raises(ValueError):
        compare_documents(base, base, expect_speedup=1.5)


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
    # --expect-speedup flips the gate: baseline-vs-half-time passes,
    # self-comparison (no speedup) fails
    assert main([str(slow_path), str(base_path), "--expect-speedup", "0.2"]) == 0
    assert main([str(base_path), str(base_path), "--expect-speedup", "0.2"]) == 1
    assert main([str(base_path), str(base_path), "--expect-speedup", "2"]) == 2


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


def _build(name: str, variant: str = "all") -> dict:
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
        variant=variant,
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

    variants = bench_runner.resolve_variants(figure)
    tags = [run.get("scenario") for run in document["runs"]]
    suffixes = [figure.variant_sep + variant for variant in variants]
    if len(variants) < 2:
        # no axis (or a one-value axis): nothing carries a variant suffix
        assert not any(tag and tag.endswith(tuple(suffixes)) for tag in tags)
        return
    # combined document: every variant tags its own copy of the same stems
    stems = {
        suffix: {tag[: -len(suffix)] for tag in tags if tag.endswith(suffix)}
        for suffix in suffixes
    }
    assert stems[suffixes[0]] and len({frozenset(s) for s in stems.values()}) == 1
    assert document["extras"]  # every figure describes its cells
    # single-variant document: variant-free tags, so two of them match run
    # for run under compare; the cells are a subset of the combined stems
    # (the last variant is the cheapest to measure a second time)
    single = _document(name, variants[-1])
    single_tags = {run["scenario"] for run in single["runs"]}
    assert single_tags <= stems[suffixes[0]]
    assert not compare_documents(single, single).unmatched_runs


def test_replay_figures_record_their_phases():
    runs = _document("fig08")["runs"]
    assert [run["scenario"] for run in runs] == [
        "strong@p4", "strong@p16", "weak@p4", "weak@p16"
    ]
    for run in runs:
        assert (run["backend"], run["layout"]) == ("sim", "csr")
        assert run["phase_seconds_median"]["replay_construct"] > 0.0
    assert set(_document("fig04")["extras"]["dhb_insertion"]) == {
        "construction",
        "dense_batches",
    }
    apps = _document("apps")
    scenarios = [run["scenario"] for run in apps["runs"]]
    assert scenarios == apps["extras"]["scenarios"]
    assert set(scenarios) == {
        "social_triangle_stream",
        "road_churn_sssp",
        "multilevel_contraction",
    }
    # the app phases recorded by the instrumented applications are present
    phases = {p for run in apps["runs"] for p in run["phase_seconds_median"]}
    assert any("app_triangle_count" in p for p in phases)
    assert any("app_sssp_query" in p for p in phases)
    assert any("app_contract" in p for p in phases)


def test_run_suite_cli_writes_and_rejects(tmp_path, capsys):
    argv = ["--backends", "sim", "--layouts", "csr", "--repeats", "1"]
    out = ["--out", str(tmp_path)]
    assert bench_runner.main(["--figs", "fig08", "--smoke", *argv, *out]) == 0
    with open(tmp_path / "BENCH_fig08.json", "r", encoding="utf-8") as handle:
        validate_bench(json.load(handle))
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["tag", "variant", "backend", "layout", "median", "s"]
    assert table[1].split()[:4] == ["strong@p4", "-", "sim", "csr"]
    named = ["--figs", "service", "--variant", "16", "--filename", "micro.json"]
    assert bench_runner.main([*named, *argv, *out]) == 0
    with open(tmp_path / "micro.json", "r", encoding="utf-8") as handle:
        document = json.load(handle)
    assert [run["scenario"] for run in document["runs"]] == ["ingest"]
    assert document["extras"]["flush_sizes"] == [16] and document["seed"] == 2022
    assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["ingest", "16"]
    for bad in (
        ["--figs", "fig99"],
        ["--figs", "service", "--variant", "sideways"],
        ["--figs", "fig08", "--variant", "on"],
        ["--figs", "fig04,fig08", "--filename", "one.json"],
        ["--figs", "fig08", "--profile", "nope"],
    ):
        assert bench_runner.main([*bad, *out]) == 2
        assert "error:" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "BENCH_fig08.json",
        "micro.json",
    ]


# ----------------------------------------------------------------------
# what the reproduction reproduces: the paper's claims, on the same documents
# ----------------------------------------------------------------------
def _by_cell(document) -> dict[tuple[str, str], dict]:
    """``(tag, variant) -> run`` of a combined document."""
    out = {}
    for run in document["runs"]:
        tag, _, variant = run["scenario"].rpartition(":")
        out[tag, variant] = run
    return out


def _holds(name: str, claim) -> bool:
    """A timing claim, measured once more before it counts as broken.

    Smoke-scale steps are sub-100µs, so one scheduler stall can corrupt a
    whole document.
    """
    return claim(_by_cell(_document(name))) or claim(_by_cell(_build(name)))


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


def test_fig04_rebuilding_storage_suffers_more_from_small_batches():
    """CombBLAS rebuilds its static blocks every batch, so its per-non-zero
    cost explodes as batches shrink; the dynamic structure degrades less."""

    def claim(cells):
        def sensitivity(system):
            per_nnz = {
                size: cells[f"LiveJournal@b{size}", system]["elapsed_seconds_median"] / size
                for size in (16, 256)
            }
            return per_nnz[16] / per_nnz[256]

        return sensitivity("combblas") > sensitivity("ours")

    assert _holds("fig04", claim)


def test_fig05b_has_no_petsc_series():
    assert not PETScBackend.supports_deletions
    document = _document("fig05b")
    systems = {variant for _, variant in _by_cell(document)}
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


def test_fig09_dynamic_spgemm_beats_summa_on_hypersparse_batches():
    smallest, largest = "LiveJournal@b8", "LiveJournal@b32"

    def faster(cells):
        # fixed overheads dominate at smoke scale, hence the tolerance
        ours = cells[smallest, "ours"]["elapsed_seconds_median"]
        return ours < 1.5 * cells[smallest, "combblas"]["elapsed_seconds_median"]

    assert _holds("fig09", faster)
    # Algorithm 1 never broadcasts B: deterministic, so exact.  The
    # advantage shrinks as the update matrices stop being hypersparse.
    cells = _by_cell(_document("fig09"))
    ratio = {
        tag: cells[tag, "ours"]["comm"]["bytes"] / cells[tag, "combblas"]["comm"]["bytes"]
        for tag in (smallest, largest)
    }
    assert ratio[smallest] < 1.0
    assert ratio[smallest] < ratio[largest]


def test_fig10_measures_every_system():
    # Not asserted at surrogate scale: the masked recomputation of
    # Algorithm 2 is dominated by per-call interpreter overhead here and
    # does not necessarily beat a from-scratch SUMMA recompute.  The series
    # is still produced so the trend with batch size can be inspected.
    cells = _by_cell(_document("fig10"))
    assert {variant for _, variant in cells} == set(bench_figures.COMPETITORS)
    assert all(run["elapsed_seconds_median"] > 0 for run in cells.values())


def test_ablations_match_the_seeded_volumes():
    redistribution = {
        run["scenario"]: (run["counters"]["ablation.tuples"], run["comm"]["bytes"])
        for run in _document("ablation_redistribution")["runs"]
    }
    assert redistribution == {
        "two_phase@counting": (4096, 147912),
        "two_phase@comparison": (4096, 147912),
        "single_phase@counting": (4096, 92616),
        "single_phase@comparison": (4096, 92616),
    }
    crossover = _by_cell(_document("ablation_summa_crossover"))
    update_nnz = {
        tag: run["counters"]["ablation.update_nnz"]
        for (tag, algorithm), run in crossover.items()
        if algorithm == "dynamic"
    }
    assert update_nnz == {
        "f0.01": 150, "f0.05": 734, "f0.2": 2726, "f0.5": 5896, "f1.0": 9551
    }


def test_summa_crossover_advantage_shrinks_as_updates_densify():
    def claim(cells):
        def speedup(tag):
            return (
                cells[tag, "summa"]["elapsed_seconds_median"]
                / cells[tag, "dynamic"]["elapsed_seconds_median"]
            )

        return speedup("f0.01") >= 0.5 * speedup("f1.0")

    assert _holds("ablation_summa_crossover", claim)


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
                phase_seconds_median={},
                phase_calls={},
                counters={},
                comm={"messages": 1, "bytes": 100},
            )
            run["scenario"] = name
            runs.append(run)
        return bench_document(
            figure="apps",
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
        rec = PerfRecorder()
        comm = make_communicator(backend, n_ranks=4, force_emulator=True) \
            if backend == "mpi" else make_communicator(backend, n_ranks=4)
        with use_recorder(rec):
            replay(scenario, comm=comm, collect_final=False)
        volumes[backend] = rec.total_comm()
    assert volumes["sim"] == volumes["mpi"]
