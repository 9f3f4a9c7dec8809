"""Unit tests for the scenario model, generator library and replay driver."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.config import PROFILES, get_profile, paper_regime_machine
from repro.runtime import make_communicator
from repro.scenarios import (
    CompetitorExecutor,
    DeleteBatch,
    InsertBatch,
    Scenario,
    ScenarioCheckError,
    SnapshotCheck,
    SpGEMMStep,
    bursty_skewed_stream,
    grow_from_empty,
    library_scenarios,
    mixed_update_multiply,
    replay,
    sliding_window,
    steady_state_churn,
    with_checkpoint,
)
from repro.bench.workloads import (
    batched_operation_scenario,
    construction_scenario,
    draw_batch,
    prepare_instance,
    spgemm_stream_scenario,
    split_batches,
)
from repro.scenarios.model import spawn_seeds


class TestModel:
    def test_step_validates_lengths(self):
        with pytest.raises(ValueError):
            InsertBatch(np.arange(3), np.arange(2), np.ones(3))

    def test_spgemm_step_validates_mode(self):
        with pytest.raises(ValueError):
            SpGEMMStep(np.arange(2), np.arange(2), np.ones(2), mode="bogus")
        with pytest.raises(ValueError, match="additive inserts"):
            SpGEMMStep(np.arange(2), np.arange(2), np.ones(2), kind="update")

    def test_scenario_rejects_out_of_bounds_steps(self):
        step = InsertBatch(np.array([5]), np.array([1]), np.ones(1))
        with pytest.raises(ValueError):
            Scenario(name="bad", shape=(4, 4), steps=[step])

    def test_partition_seeds_are_assigned_and_deterministic(self):
        def build(seed):
            return Scenario(
                name="s",
                shape=(8, 8),
                steps=[
                    InsertBatch(np.array([1]), np.array([2]), np.ones(1)),
                    InsertBatch(np.array([3]), np.array([4]), np.ones(1)),
                ],
                seed=seed,
            )

        a, b, c = build(7), build(7), build(8)
        seeds_a = [s.partition_seed for s in a.steps]
        seeds_b = [s.partition_seed for s in b.steps]
        seeds_c = [s.partition_seed for s in c.steps]
        assert all(s is not None for s in seeds_a)
        assert seeds_a == seeds_b
        assert seeds_a != seeds_c
        assert a.construct_seed == b.construct_seed

    def test_explicit_partition_seed_is_kept(self):
        step = InsertBatch(np.array([1]), np.array([2]), np.ones(1), partition_seed=99)
        Scenario(name="s", shape=(8, 8), steps=[step], seed=0)
        assert step.partition_seed == 99

    def test_per_rank_matches_partitioning(self):
        step = InsertBatch(
            np.arange(10), np.arange(10), np.ones(10), partition_seed=5
        )
        Scenario(name="s", shape=(16, 16), steps=[step])
        split = step.per_rank(4)
        assert sorted(split) == [0, 1, 2, 3]
        total = sum(r.size for r, _c, _v in split.values())
        assert total == 10

    def test_describe_counts_steps(self):
        scenario = grow_from_empty(seed=1)
        described = scenario.describe()
        assert described["steps"]["insert"] > 0
        assert described["steps"]["snapshot"] > 0
        json.dumps(described)  # JSON-friendly


class TestGenerators:
    @pytest.mark.parametrize(
        "generator",
        [
            grow_from_empty,
            steady_state_churn,
            sliding_window,
            bursty_skewed_stream,
            mixed_update_multiply,
        ],
    )
    def test_same_seed_same_trace(self, generator):
        a, b = generator(seed=11), generator(seed=11)
        assert a.n_steps == b.n_steps
        for sa, sb in zip(a.update_steps(), b.update_steps()):
            assert np.array_equal(sa.rows, sb.rows)
            assert np.array_equal(sa.cols, sb.cols)
            assert np.array_equal(sa.values, sb.values)
            assert sa.partition_seed == sb.partition_seed

    def test_different_seeds_differ(self):
        a, b = grow_from_empty(seed=1), grow_from_empty(seed=2)
        first_a = next(iter(a.update_steps()))
        first_b = next(iter(b.update_steps()))
        assert not (
            np.array_equal(first_a.rows, first_b.rows)
            and np.array_equal(first_a.cols, first_b.cols)
        )

    def test_library_has_five_distinct_scenarios(self):
        scenarios = library_scenarios(seed=0)
        assert len(scenarios) >= 5
        assert len({s.name for s in scenarios}) == len(scenarios)

    def test_sliding_window_expires_batches(self):
        scenario = sliding_window(seed=3, window=2, n_batches=5, batch=20)
        result = replay(scenario, backend="sim", n_ranks=4)
        # only the last `window` insert batches survive
        assert result.final_a[0].size == 2 * scenario.metadata["batch"]

    def test_churn_keeps_size_stationary(self):
        scenario = steady_state_churn(seed=3)
        initial_nnz = scenario.initial_tuples[0].size
        result = replay(scenario, backend="sim", n_ranks=4)
        assert result.final_a[0].size == initial_nnz

    def test_mixed_update_multiply_verifies_product(self):
        scenario = mixed_update_multiply(seed=3)
        result = replay(scenario, backend="sim", n_ranks=4)
        assert result.final_c is not None
        assert result.final_c[0].size > 0


class TestReplay:
    def test_snapshot_mismatch_raises(self):
        steps = [
            InsertBatch(np.array([1, 2]), np.array([3, 4]), np.ones(2)),
            SnapshotCheck(expect_nnz=99, label="wrong"),
        ]
        scenario = Scenario(name="s", shape=(8, 8), steps=steps)
        with pytest.raises(ScenarioCheckError, match="wrong"):
            replay(scenario, backend="sim", n_ranks=4)

    def test_check_snapshots_false_skips_evaluation(self):
        steps = [
            InsertBatch(np.array([1, 2]), np.array([3, 4]), np.ones(2)),
            SnapshotCheck(expect_nnz=99),
        ]
        scenario = Scenario(name="s", shape=(8, 8), steps=steps)
        result = replay(scenario, backend="sim", n_ranks=4, check_snapshots=False)
        assert result.final_a[0].size == 2

    def test_unsupported_operation_truncates(self):
        """PETSc cannot delete: the replay truncates at the delete step."""
        steps = [
            InsertBatch(np.array([1, 2]), np.array([3, 4]), np.ones(2)),
            DeleteBatch(np.array([1]), np.array([3]), np.ones(1)),
            InsertBatch(np.array([5]), np.array([6]), np.ones(1)),
        ]
        scenario = Scenario(name="s", shape=(8, 8), steps=steps)
        result = replay(
            scenario,
            backend="sim",
            n_ranks=4,
            executor_factory=CompetitorExecutor.factory("petsc"),
            collect_final=False,
        )
        assert result.truncated_at == 1
        assert [s.supported for s in result.steps] == [True, False]
        assert len(result.measured_steps()) == 1

    def test_control_steps_are_not_measured(self):
        """Checkpoint records steer the replay; they take no measured
        time, so they neither count as measured steps nor add to the
        applied counts."""
        plain = replay(grow_from_empty(seed=5), backend="sim", n_ranks=4)
        traced = with_checkpoint(grow_from_empty(seed=5), at=2)
        result = replay(traced, backend="sim", n_ranks=4)
        assert "checkpoint" in {s.kind for s in result.steps}
        measured = [s.kind for s in result.measured_steps()]
        assert len(measured) == 6
        assert measured == [s.kind for s in plain.measured_steps()]
        assert result.applied_counts == plain.applied_counts

    def test_spgemm_requires_b_tuples(self):
        steps = [SpGEMMStep(np.array([1]), np.array([2]), np.ones(1))]
        scenario = Scenario(name="s", shape=(8, 8), steps=steps)
        with pytest.raises(ValueError, match="b_tuples"):
            replay(scenario, backend="sim", n_ranks=4)

    def test_spgemm_preloaded_a_enters_the_product(self):
        """An algebraic product starts at A₀·B, not empty."""
        scenario = Scenario(
            name="s",
            shape=(8, 8),
            steps=[
                SpGEMMStep(np.array([1]), np.array([2]), np.ones(1)),
                SnapshotCheck(verify_product=True),
            ],
            initial_tuples=(np.array([0, 4]), np.array([1, 2]), np.ones(2)),
            b_tuples=(np.array([1, 2]), np.array([5, 3]), np.array([2.0, 3.0])),
        )
        result = replay(scenario, backend="sim", n_ranks=4)
        c = dict(zip(zip(*map(np.ndarray.tolist, result.final_c[:2])), result.final_c[2]))
        assert c == {(0, 5): 2.0, (1, 3): 3.0, (4, 3): 3.0}

    @pytest.mark.parametrize("mode", ["algebraic", "general"])
    def test_verify_product_compares_with_the_b_it_holds(self, mode):
        """A repeated B coordinate sums (static B) or is overwritten by
        whichever copy is scattered last (dynamic B)."""
        scenario = Scenario(
            name="s",
            shape=(8, 8),
            steps=[
                SpGEMMStep(np.array([0, 0]), np.array([1, 2]), np.ones(2), mode=mode),
                SnapshotCheck(verify_product=True),
            ],
            b_tuples=(np.array([1, 1, 2]), np.array([2, 2, 3]), np.array([1.0, 5.0, 1.0])),
        )
        result = replay(scenario, backend="sim", n_ranks=4)
        assert result.final_c[0].tolist() == [0, 0]
        held = [6.0] if mode == "algebraic" else [1.0, 5.0]
        assert result.final_c[2][0] in held and result.final_c[2][1] == 1.0

    def test_spgemm_step_of_the_other_mode_is_rejected(self):
        steps = [
            SpGEMMStep(np.array([1]), np.array([2]), np.ones(1), mode="general"),
            SpGEMMStep(np.array([3]), np.array([4]), np.ones(1), mode="algebraic"),
        ]
        ones = (np.array([1]), np.array([2]), np.ones(1))
        scenario = Scenario(name="s", shape=(8, 8), steps=steps, b_tuples=ones)
        with pytest.raises(ValueError, match="'algebraic'.*'general'"):
            replay(scenario, backend="sim", n_ranks=4)

    def test_result_as_dict_is_json_serialisable(self):
        result = replay(grow_from_empty(seed=0), backend="sim", n_ranks=4)
        payload = json.loads(json.dumps(result.as_dict(), default=float))
        assert payload["scenario"] == "grow_from_empty"
        assert payload["applied_counts"]["insert"] > 0

    def test_reused_communicator(self):
        """Replays can share one communicator; stats diffs stay per-replay."""
        comm = make_communicator("sim", n_ranks=4)
        first = replay(grow_from_empty(seed=0), comm=comm)
        second = replay(grow_from_empty(seed=0), comm=comm)
        assert first.comm_signature() == second.comm_signature()


class TestProfiles:
    def test_profiles_exist_and_resolve(self):
        assert set(PROFILES) == {"smoke", "default", "large"}
        assert get_profile().name == "smoke"
        assert get_profile("default").name == "default"
        with pytest.raises(KeyError):
            get_profile("bogus")

    def test_paper_regime_machine_is_slower_network(self):
        assert paper_regime_machine().beta > get_profile("smoke").machine.beta


class TestWorkloadScenarios:
    @pytest.fixture(scope="class")
    def workload(self):
        return prepare_instance("LiveJournal", scale_divisor=65536, seed=7)

    def test_prepare_instance_and_pools(self, workload):
        assert workload.nnz > 0
        first, second = workload.split_half(seed=2)
        assert first[0].size + second[0].size == workload.nnz
        batch = draw_batch(second, 10, seed=3)
        assert batch[0].size == 10
        batches = split_batches(second, 3, 5, seed=4)
        assert len(batches) == 3 and all(b[0].size == 5 for b in batches)
        per_rank = workload.all_tuples_per_rank(4)
        assert sum(v[0].size for v in per_rank.values()) == workload.nnz

    def test_spawn_seeds_are_independent(self):
        a = [s.generate_state(1)[0] for s in spawn_seeds(17, 3)]
        b = [s.generate_state(1)[0] for s in spawn_seeds(18, 3)]
        assert len(set(a) | set(b)) == 6  # no shared streams across seeds

    def test_insert_scenario_preloads_half(self, workload):
        scenario = batched_operation_scenario(
            workload, "insert", n_batches=2, batch_total=16, seed=17
        )
        assert scenario.initial_tuples[0].size == workload.nnz // 2
        assert all(s.kind == "insert" for s in scenario.update_steps())

    def test_delete_scenario_draws_disjoint_batches(self, workload):
        scenario = batched_operation_scenario(
            workload, "delete", n_batches=3, batch_total=8, seed=17
        )
        seen: set[tuple[int, int]] = set()
        for step in scenario.update_steps():
            coords = {(int(i), int(j)) for i, j in zip(step.rows, step.cols)}
            assert not (coords & seen)
            seen |= coords

    def test_update_scenario_preloads_full_matrix(self, workload):
        scenario = batched_operation_scenario(
            workload, "update", n_batches=2, batch_total=8, seed=17
        )
        assert scenario.initial_tuples[0].size == workload.nnz
        assert all(s.kind == "update" for s in scenario.update_steps())

    def test_spgemm_scenario_modes(self, workload):
        algebraic = spgemm_stream_scenario(
            workload, n_batches=2, batch_total=8, mode="algebraic", seed=79
        )
        general = spgemm_stream_scenario(
            workload,
            n_batches=2,
            batch_total=8,
            mode="general",
            kind="update",
            semiring_name="min_plus",
            seed=101,
        )
        assert algebraic.has_spgemm and not algebraic.has_general_spgemm
        assert general.has_general_spgemm
        assert general.semiring_name == "min_plus"
        r = replay(general, backend="sim", n_ranks=4, collect_final=True)
        assert r.final_c is not None

    def test_construction_scenario_times_construction(self, workload):
        scenario = construction_scenario(
            "c", (workload.n, workload.n), workload.all_tuples(), seed=53
        )
        result = replay(scenario, backend="sim", n_ranks=4, collect_final=False)
        assert result.steps[0].kind == "construct"
        assert result.steps[0].seconds > 0
