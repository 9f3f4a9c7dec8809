"""Property, edge-case and determinism tests for the application layer.

Three groups, mirroring the SpGEMM property suite's oracle style:

* **Properties** — a random graph plus a random update sequence: the
  incremental :class:`DynamicTriangleCounter` must equal
  :func:`count_triangles_reference` after every batch, and
  :class:`DynamicMultiSourceShortestPaths` must equal the NetworkX Dijkstra
  reference (and, bit-for-bit, the dense min-plus reference) after every
  round — replayed through the scenario engine across all four local
  layouts.
* **Edge cases** — empty graphs, self-loops, duplicate edges within one
  batch, deleting absent edges and contraction with empty clusters, for
  each app entry point.
* **Determinism** — app global reductions must be byte-identical across
  world sizes: :func:`repro.apps.rank_ordered_sum` sums per-rank partials
  in canonical rank order, which the regression test pins against the
  process-grouped fold that *does* drift with the launch geometry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ProcessGrid, SimMPI
from repro.apps import (
    DynamicMultiSourceShortestPaths,
    DynamicTriangleCounter,
    contract_graph,
    count_triangles_reference,
    distances_to_tuples,
    rank_ordered_sum,
    sssp_minplus_reference,
    sssp_reference,
)
from repro.distributed import DynamicDistMatrix, UpdateBatch
from repro.graphs import erdos_renyi_edges
from repro.runtime import MPIBackend
from repro.runtime.loopback import run_spmd
from repro.scenarios import (
    REPLAY_LAYOUTS,
    road_churn_sssp,
    replay,
    social_triangle_stream,
)

N_RANKS = 4


def _comm_grid() -> tuple[SimMPI, ProcessGrid]:
    return SimMPI(N_RANKS), ProcessGrid(N_RANKS)


def _unique_undirected(n: int, count: int, rng) -> tuple[np.ndarray, np.ndarray]:
    src = rng.integers(0, n, size=4 * count)
    dst = rng.integers(0, n, size=4 * count)
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    _, first = np.unique(lo * n + hi, return_index=True)
    first.sort()
    return lo[first][:count].astype(np.int64), hi[first][:count].astype(np.int64)


# ----------------------------------------------------------------------
# properties: random graph + random update sequence vs the references
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 17, 29])
def test_triangle_counter_tracks_reference_over_random_stream(seed):
    comm, grid = _comm_grid()
    n = 24
    rng = np.random.default_rng(seed)
    rows, cols = _unique_undirected(n, 80, rng)
    counter = DynamicTriangleCounter(comm, grid, n, rows[:20], cols[:20], seed=seed)
    inserted_r, inserted_c = rows[:20], cols[:20]
    for b in range(4):
        sel = slice(20 + b * 15, 20 + (b + 1) * 15)
        counter.insert_edges(rows[sel], cols[sel], seed=seed + b)
        inserted_r = np.concatenate([inserted_r, rows[sel]])
        inserted_c = np.concatenate([inserted_c, cols[sel]])
        assert counter.triangle_count() == count_triangles_reference(
            n, inserted_r, inserted_c
        )
    # A² is maintained over one adjacency: both operands are the same object
    assert counter.product.a is counter.product.b is counter.adjacency
    assert counter.verify()


@pytest.mark.parametrize("seed", [5, 23])
def test_sssp_tracks_references_over_random_churn(seed):
    comm, grid = _comm_grid()
    n = 20
    rng = np.random.default_rng(seed)
    src, dst = erdos_renyi_edges(n, 120, seed=seed)
    weights = rng.uniform(1.0, 4.0, src.size)
    sources = np.array([0, n // 2])
    app = DynamicMultiSourceShortestPaths(comm, grid, n, src, dst, weights, sources)
    edges = {
        (int(i), int(j)): float(w) for i, j, w in zip(src, dst, weights)
    }
    for r in range(3):
        present = sorted(edges)
        idx = rng.choice(len(present), size=min(8, len(present)), replace=False)
        chosen = [present[i] for i in idx]
        new_w = rng.uniform(0.5, 8.0, len(chosen))
        for p, w in zip(chosen, new_w):
            edges[p] = float(w)
        arr = np.asarray(chosen, dtype=np.int64)
        app.update_edges(arr[:, 0], arr[:, 1], new_w, seed=seed + r)
        drop = [present[i] for i in rng.choice(len(present), size=4, replace=False)]
        for p in drop:
            edges.pop(p, None)
        arr = np.asarray(drop, dtype=np.int64)
        app.delete_edges(arr[:, 0], arr[:, 1], seed=seed + 10 + r)
        assert app.verify_one_hop()
        er = np.asarray([p[0] for p in sorted(edges)], dtype=np.int64)
        ec = np.asarray([p[1] for p in sorted(edges)], dtype=np.int64)
        ew = np.asarray([edges[p] for p in sorted(edges)])
        got = app.full_distances()
        # bit-compatible dense min-plus reference: exact match
        assert np.array_equal(
            np.nan_to_num(got, posinf=1e300),
            np.nan_to_num(
                sssp_minplus_reference(n, er, ec, ew, sources), posinf=1e300
            ),
        )
        # independent Dijkstra oracle: match up to float tolerance
        assert np.allclose(
            np.nan_to_num(got, posinf=1e18),
            np.nan_to_num(sssp_reference(n, er, ec, ew, sources), posinf=1e18),
            rtol=1e-9,
        )


@pytest.mark.parametrize("layout", REPLAY_LAYOUTS)
def test_app_scenarios_replay_identically_across_layouts(layout):
    """The app executor's query payloads do not depend on the layout knob."""
    for scenario_fn in (social_triangle_stream, road_churn_sssp):
        scenario = scenario_fn(seed=7)
        result = replay(scenario, backend="sim", n_ranks=N_RANKS, layout=layout)
        reference = replay(scenario, backend="sim", n_ranks=N_RANKS, layout="csr")
        assert result.truncated_at is None
        assert len(result.app_results) == len(reference.app_results) > 0
        for got, want in zip(result.app_results, reference.app_results):
            if isinstance(want.payload, tuple):
                for g, w in zip(got.payload, want.payload):
                    assert np.array_equal(g, w)
            else:
                assert got.payload == want.payload


def test_triangle_scenarios_reject_non_insert_steps_at_construction():
    """An invalid triangle trace fails fast, not mid-replay."""
    from repro.scenarios import AppSpec, DeleteBatch, InsertBatch, Scenario

    edge = (np.array([0]), np.array([1]), np.ones(1))
    with pytest.raises(ValueError, match="only insert steps"):
        Scenario(
            name="bad",
            shape=(4, 4),
            steps=[InsertBatch(*edge), DeleteBatch(*edge)],
            app=AppSpec(name="triangle"),
        )


def test_road_churn_generator_survives_small_vertex_counts():
    """The unique-pair pool of a small graph can undershoot the requested
    initial size; the generator must shrink the initial graph instead of
    emitting mismatched initial tuples (regression)."""
    for n in (6, 8):
        scenario = road_churn_sssp(n=n, seed=3)
        rows, cols, values = scenario.initial_tuples
        assert rows.size == cols.size == values.size
        result = replay(scenario, backend="sim", n_ranks=N_RANKS)
        assert result.truncated_at is None
        assert len(result.app_results) == 2


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
class TestTriangleEdgeCases:
    def test_empty_graph_counts_zero(self):
        comm, grid = _comm_grid()
        empty = np.empty(0, dtype=np.int64)
        counter = DynamicTriangleCounter(comm, grid, 8, empty, empty)
        assert counter.triangle_count() == 0
        assert counter.insert_edges(empty, empty) == 0
        assert counter.triangle_count() == 0

    def test_self_loops_are_dropped(self):
        comm, grid = _comm_grid()
        counter = DynamicTriangleCounter(
            comm, grid, 6, np.array([0, 1, 2]), np.array([0, 1, 2])
        )
        assert counter.adjacency.nnz() == 0
        inserted = counter.insert_edges(np.array([3, 4]), np.array([3, 4]))
        assert inserted == 0 and counter.triangle_count() == 0

    def test_duplicate_edges_in_batch_count_once(self):
        comm, grid = _comm_grid()
        empty = np.empty(0, dtype=np.int64)
        counter = DynamicTriangleCounter(comm, grid, 5, empty, empty)
        # the same triangle named twice, once with reversed orientation
        rows = np.array([0, 1, 2, 0, 1, 2])
        cols = np.array([1, 2, 0, 1, 2, 0])
        inserted = counter.insert_edges(rows, cols)
        assert inserted == 6  # 3 undirected edges = 6 directed non-zeros
        assert counter.triangle_count() == 1
        assert counter.verify()

    def test_reinserting_present_edges_is_a_noop(self):
        comm, grid = _comm_grid()
        counter = DynamicTriangleCounter(
            comm, grid, 5, np.array([0, 1, 2]), np.array([1, 2, 0])
        )
        assert counter.insert_edges(np.array([1, 0]), np.array([0, 1])) == 0
        assert counter.triangle_count() == 1


class TestSsspEdgeCases:
    def _app(self, n=10, sources=(0,)):
        comm, grid = _comm_grid()
        empty = np.empty(0, dtype=np.int64)
        return DynamicMultiSourceShortestPaths(
            comm, grid, n, empty, empty, np.empty(0), np.asarray(sources)
        )

    def test_empty_graph_reaches_only_sources(self):
        app = self._app(sources=(2, 5))
        src, vertex, dist = app.distance_tuples()
        assert src.tolist() == [0, 1]
        assert vertex.tolist() == [2, 5]
        assert dist.tolist() == [0.0, 0.0]

    def test_deleting_nonexistent_edge_is_noop(self):
        app = self._app()
        app.update_edges(np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0]))
        before = distances_to_tuples(app.full_distances())
        app.delete_edges(np.array([5, 0]), np.array([6, 7]))
        assert app.adjacency.nnz() == 2
        after = distances_to_tuples(app.full_distances())
        for b, a in zip(before, after):
            assert np.array_equal(b, a)
        assert app.verify_one_hop()

    def test_duplicate_edges_in_batch_last_write_wins(self):
        app = self._app()
        app.update_edges(
            np.array([0, 0]), np.array([1, 1]), np.array([9.0, 2.0])
        )
        assert app.adjacency.nnz() == 1
        assert app.adjacency.get(0, 1) == 2.0

    def test_self_loop_does_not_change_distances(self):
        app = self._app()
        app.update_edges(np.array([0]), np.array([1]), np.array([3.0]))
        before = distances_to_tuples(app.full_distances())
        app.update_edges(np.array([1]), np.array([1]), np.array([7.0]))
        after = distances_to_tuples(app.full_distances())
        for b, a in zip(before, after):
            assert np.array_equal(b, a)


class TestContractionEdgeCases:
    def _adjacency(self, n, rows, cols, values=None):
        comm, grid = _comm_grid()
        values = values if values is not None else np.ones(len(rows))
        batch = UpdateBatch.from_global(
            (n, n),
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
            N_RANKS,
            seed=1,
        )
        adjacency = DynamicDistMatrix.from_tuples(
            comm, grid, (n, n), batch.tuples_per_rank, combine="last"
        )
        return comm, grid, adjacency

    def test_empty_graph_contracts_to_empty(self):
        comm, grid, adjacency = self._adjacency(6, [], [])
        coarse = contract_graph(comm, grid, adjacency, np.zeros(6, dtype=np.int64))
        assert coarse.nnz == 0

    def test_empty_clusters_leave_empty_rows(self):
        # 4 vertices all in cluster 0 of 3 declared clusters: clusters 1, 2
        # exist but stay empty in the contracted graph
        comm, grid, adjacency = self._adjacency(4, [0, 1, 2], [1, 2, 3])
        coarse = contract_graph(
            comm, grid, adjacency, np.zeros(4, dtype=np.int64), n_clusters=3
        )
        assert coarse.shape == (3, 3)
        assert coarse.rows.tolist() == [0] and coarse.cols.tolist() == [0]
        assert coarse.values.tolist() == [3.0]

    def test_self_loops_can_be_dropped(self):
        comm, grid, adjacency = self._adjacency(4, [0, 1, 2], [1, 0, 3])
        clusters = np.array([0, 0, 1, 1])
        with_loops = contract_graph(comm, grid, adjacency, clusters)
        dropped = contract_graph(
            comm, grid, adjacency, clusters, drop_self_loops=True
        )
        assert with_loops.nnz == 2  # (0,0) weight 2 and (1,1) weight 1
        assert dropped.nnz == 0


# ----------------------------------------------------------------------
# determinism of app global reductions across world sizes
# ----------------------------------------------------------------------
class TestRankOrderedReduction:
    #: per-rank float partials whose process-grouped accumulation differs
    #: between world sizes (1e16 absorbs unit-scale addends one at a time,
    #: but not a pre-summed group of them)
    PARTIALS = {r: (1e16 if r % 2 == 0 else 1.5) for r in range(16)}

    def _grouped(self, world: int) -> float:
        """The naive fold: per-process sums, folded in process order."""
        total = 0.0
        for proc in range(world):
            local = 0.0
            for rank in range(proc, 16, world):
                local += self.PARTIALS[rank]
            total += local
        return total

    def test_process_grouped_fold_depends_on_world_size(self):
        """The bug class being guarded against actually exists."""
        assert self._grouped(2) != self._grouped(1)

    def test_rank_ordered_sum_is_byte_identical_across_worlds(self):
        reference = rank_ordered_sum(SimMPI(16), self.PARTIALS)
        assert reference == self._grouped(1)  # canonical rank order
        for world in (1, 2, 4):

            def program(comm_obj, world_rank):
                comm = MPIBackend(16, comm=comm_obj)
                local = {r: self.PARTIALS[r] for r in comm.owned_ranks()}
                return rank_ordered_sum(comm, local)

            for value in run_spmd(world, program):
                assert value == reference

    def test_triangle_wedge_weight_uses_rank_order(self):
        """End-to-end: the closed-wedge sum is identical across worlds."""
        rng = np.random.default_rng(11)
        rows, cols = _unique_undirected(12, 30, rng)

        def program(comm_obj, world_rank):
            comm = MPIBackend(N_RANKS, comm=comm_obj)
            grid = ProcessGrid(N_RANKS)
            counter = DynamicTriangleCounter(comm, grid, 12, rows, cols)
            return counter.closed_wedge_weight()

        reference = DynamicTriangleCounter(
            *_comm_grid(), 12, rows, cols
        ).closed_wedge_weight()
        for world in (1, 2, 4):
            for value in run_spmd(world, program):
                assert value == reference
