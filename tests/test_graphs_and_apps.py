"""Tests for the graph substrate and the applications built on the API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ProcessGrid, SimMPI
from repro.graphs import (
    GRAPH500_PARAMS,
    TABLE1_INSTANCES,
    erdos_renyi_edges,
    generate_instance,
    get_instance,
    list_instances,
    ring_of_cliques_edges,
    rmat_edges,
)
from repro.apps import (
    DynamicMultiSourceShortestPaths,
    DynamicTriangleCounter,
    contract_graph,
    count_triangles_reference,
    sssp_reference,
)
from repro.apps.contraction import contraction_matrix
from repro.distributed import UpdateBatch, DynamicDistMatrix

from tests.conftest import dist_from_dense, random_dense


class TestRMAT:
    def test_sizes_and_bounds(self):
        n, src, dst = rmat_edges(8, 4, seed=1)
        assert n == 256
        assert src.size == dst.size == 256 * 4
        assert src.min() >= 0 and src.max() < n
        assert dst.min() >= 0 and dst.max() < n

    def test_determinism(self):
        _, s1, d1 = rmat_edges(7, 3, seed=5)
        _, s2, d2 = rmat_edges(7, 3, seed=5)
        assert np.array_equal(s1, s2) and np.array_equal(d1, d2)
        _, s3, _ = rmat_edges(7, 3, seed=6)
        assert not np.array_equal(s1, s3)

    def test_skew_of_graph500_parameters(self):
        n, src, _dst = rmat_edges(10, 8, seed=2, noise=0.0)
        degrees = np.bincount(src, minlength=n)
        # the Graph500 parameters produce a heavy-tailed degree distribution
        assert degrees.max() > 10 * max(1.0, np.median(degrees[degrees > 0]))

    def test_options(self):
        n, src, dst = rmat_edges(6, 4, seed=3, remove_self_loops=True, deduplicate=True)
        assert np.all(src != dst)
        keys = src * n + dst
        assert len(np.unique(keys)) == len(keys)
        with pytest.raises(ValueError):
            rmat_edges(5, 4, params=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            rmat_edges(-1, 4)
        assert sum(GRAPH500_PARAMS) == pytest.approx(1.0)


class TestInstances:
    def test_catalogue_matches_table1(self):
        assert len(TABLE1_INSTANCES) == 12
        assert list_instances()[0] == "LiveJournal"
        lj = get_instance("LiveJournal")
        assert lj.n_full == 4_000_000 and lj.nnz_full == 86_000_000
        friendster = get_instance("friendster")
        assert friendster.nnz_full == 3_612_000_000
        with pytest.raises(KeyError):
            get_instance("unknown-graph")

    def test_surrogate_generation(self):
        n, rows, cols, vals = generate_instance("orkut", scale_divisor=32768, seed=1)
        assert rows.size == cols.size == vals.size
        assert rows.max() < n and cols.max() < n
        # symmetric (read as undirected) and no self loops
        keys = set(zip(rows.tolist(), cols.tolist()))
        assert all((c, r) in keys for r, c in keys)
        assert all(r != c for r, c in keys)
        assert np.all(vals > 0)

    def test_surrogate_preserves_relative_ordering(self):
        sizes = {}
        for name in ("LiveJournal", "twitter"):
            _n, rows, _c, _v = generate_instance(name, scale_divisor=65536)
            sizes[name] = rows.size
        assert sizes["twitter"] > sizes["LiveJournal"]

    def test_weight_modes(self):
        _n, _r, _c, ones = generate_instance("LiveJournal", scale_divisor=65536, weights="ones")
        assert np.all(ones == 1.0)
        with pytest.raises(ValueError):
            generate_instance("LiveJournal", weights="bogus")


class TestRandomGraphsAndNX:
    def test_erdos_renyi(self):
        src, dst = erdos_renyi_edges(50, 200, seed=1)
        assert src.size <= 200
        assert np.all(src != dst)
        with pytest.raises(ValueError):
            erdos_renyi_edges(0, 10)

    def test_ring_of_cliques(self):
        src, dst = ring_of_cliques_edges(4, 3)
        # each clique: 3*2 = 6 directed edges, plus 2 bridge edges per clique
        assert src.size == 4 * 6 + 4 * 2
        with pytest.raises(ValueError):
            ring_of_cliques_edges(0, 3)

class TestApplications:
    def test_triangle_counter_matches_reference(self):
        p = 4
        comm, grid = SimMPI(p), ProcessGrid(p)
        src, dst = ring_of_cliques_edges(3, 5)
        directed = src < dst
        counter = DynamicTriangleCounter(comm, grid, 15, src[directed], dst[directed])
        assert counter.triangle_count() == count_triangles_reference(15, src, dst)
        # insert new edges and re-check
        new_src = np.array([0, 1])
        new_dst = np.array([7, 12])
        counter.insert_edges(new_src, new_dst, seed=1)
        adj = counter.adjacency.to_coo_global()
        assert counter.triangle_count() == count_triangles_reference(15, adj.rows, adj.cols)
        assert counter.verify()

    def test_triangle_counter_skips_existing_edges(self):
        p = 4
        comm, grid = SimMPI(p), ProcessGrid(p)
        src = np.array([0, 1, 2])
        dst = np.array([1, 2, 0])
        counter = DynamicTriangleCounter(comm, grid, 5, src, dst)
        assert counter.triangle_count() == 1
        inserted = counter.insert_edges(np.array([0]), np.array([1]), seed=2)
        assert inserted == 0
        assert counter.triangle_count() == 1

    def test_sssp_matches_networkx_after_updates(self):
        p = 4
        comm, grid = SimMPI(p), ProcessGrid(p)
        n = 30
        src, dst = erdos_renyi_edges(n, 200, seed=5)
        rng = np.random.default_rng(5)
        weights = rng.uniform(1.0, 5.0, src.size)
        sources = np.array([0, 3])
        app = DynamicMultiSourceShortestPaths(comm, grid, n, src, dst, weights, sources)
        assert app.verify_one_hop()
        # change weights and delete some edges
        sel = rng.choice(src.size, size=10, replace=False)
        app.update_edges(src[sel], dst[sel], weights[sel] * 4.0, seed=1)
        deleted = rng.choice(src.size, size=5, replace=False)
        app.delete_edges(src[deleted], dst[deleted], seed=2)
        assert app.verify_one_hop()
        adj = app.adjacency.to_coo_global()
        reference = sssp_reference(n, adj.rows, adj.cols, adj.values, sources)
        dist = app.full_distances()
        assert np.allclose(
            np.nan_to_num(dist, posinf=1e18),
            np.nan_to_num(reference, posinf=1e18),
            rtol=1e-9,
        )

    def test_contraction_of_ring_of_cliques(self):
        p = 4
        comm, grid = SimMPI(p), ProcessGrid(p)
        n_cliques, size = 5, 4
        src, dst = ring_of_cliques_edges(n_cliques, size)
        n = n_cliques * size
        batch = UpdateBatch.from_global((n, n), src, dst, np.ones(src.size), p, seed=1)
        adjacency = DynamicDistMatrix.from_tuples(
            comm, grid, (n, n), batch.tuples_per_rank, combine="last"
        )
        clusters = np.arange(n) // size
        coarse = contract_graph(comm, grid, adjacency, clusters, drop_self_loops=True)
        assert coarse.shape == (n_cliques, n_cliques)
        assert coarse.nnz == 2 * n_cliques  # the ring, both directions
        assert np.allclose(coarse.values, 1.0)

    def test_contraction_matrix_validation(self):
        p = 4
        comm, grid = SimMPI(p), ProcessGrid(p)
        with pytest.raises(ValueError):
            contraction_matrix(comm, grid, np.array([0, 1, 5]), n_clusters=2)
        adjacency = DynamicDistMatrix.empty(comm, grid, (4, 4))
        with pytest.raises(ValueError):
            contract_graph(comm, grid, adjacency, np.array([0, 1]))
