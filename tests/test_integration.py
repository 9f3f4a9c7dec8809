"""Integration tests: full pipelines across grid sizes and workloads.

These tests stitch the whole stack together — graph generation, random
permutation, distributed construction, batches of mixed updates, both
dynamic SpGEMM algorithms and the competitor baselines — and check the
end state against sequential recomputation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DynamicDistMatrix,
    DynamicProduct,
    ProcessGrid,
    SimMPI,
    StaticDistMatrix,
    UpdateBatch,
    build_update_matrix,
    dynamic_spgemm_algebraic,
    partition_tuples_round_robin,
    summa_spgemm,
)
from repro.competitors import get_backend
from repro.graphs import generate_instance, rmat_edges
from repro.semirings import MIN_PLUS, PLUS_TIMES
from repro.distributed import IndexPermutation

from tests.conftest import dense_product, dist_from_dense, random_dense


@pytest.mark.parametrize("p", [1, 4, 9, 16])
def test_full_pipeline_on_surrogate_instance(p):
    """Construct a Table-I surrogate, stream insertions, verify the product."""
    comm, grid = SimMPI(p), ProcessGrid(p)
    n, rows, cols, vals = generate_instance("LiveJournal", scale_divisor=65536, seed=p)
    perm = IndexPermutation(n, seed=p)
    rows, cols = perm.apply(rows), perm.apply(cols)

    # split: 60% initial adjacency for B, A' grows from the rest
    rng = np.random.default_rng(p)
    order = rng.permutation(rows.size)
    cut = int(rows.size * 0.6)
    b_sel, a_pool = order[:cut], order[cut:]

    b = DynamicDistMatrix.from_tuples(
        comm,
        grid,
        (n, n),
        partition_tuples_round_robin(rows[b_sel], cols[b_sel], vals[b_sel], p, seed=1),
        combine="last",
    )
    a = DynamicDistMatrix.empty(comm, grid, (n, n))
    product = DynamicProduct(comm, grid, a, b, mode="algebraic")

    batch_size = max(4, a_pool.size // 3)
    for step in range(3):
        sel = a_pool[step * batch_size : (step + 1) * batch_size]
        if sel.size == 0:
            break
        batch = UpdateBatch.from_global(
            (n, n), rows[sel], cols[sel], vals[sel], p, kind="insert", seed=step
        )
        product.apply_updates(a_batch=batch)
    assert product.check_consistency()
    # modelled time advanced and communication was recorded
    assert comm.elapsed() > 0
    assert comm.stats.total_bytes() > 0


@pytest.mark.parametrize("p", [4, 16])
def test_dynamic_vs_static_recomputation_agree_on_rmat(p):
    """Dynamic SpGEMM result equals a SUMMA recomputation on R-MAT data."""
    comm, grid = SimMPI(p), ProcessGrid(p)
    n, src, dst = rmat_edges(7, 4, seed=p, remove_self_loops=True, deduplicate=True)
    weights = np.random.default_rng(p).random(src.size)
    half = src.size // 2
    b = DynamicDistMatrix.from_tuples(
        comm,
        grid,
        (n, n),
        partition_tuples_round_robin(src, dst, weights, p, seed=2),
        combine="last",
    )
    a = DynamicDistMatrix.empty(comm, grid, (n, n))
    product = DynamicProduct(comm, grid, a, b, mode="algebraic")
    batch = UpdateBatch.from_global(
        (n, n), src[:half], dst[:half], weights[:half], p, kind="insert", seed=3
    )
    product.apply_updates(a_batch=batch)

    static_result, _ = summa_spgemm(comm, grid, product.a, b, output="static")
    assert np.allclose(product.c.to_dense(), static_result.to_dense())


def test_min_plus_lifecycle_with_mixed_update_kinds():
    """General-mode product survives interleaved inserts, updates, deletes."""
    p = 9
    comm, grid = SimMPI(p), ProcessGrid(p)
    n = 21
    a0 = random_dense(n, n, 0.2, MIN_PLUS, seed=1)
    b0 = random_dense(n, n, 0.2, MIN_PLUS, seed=2)
    product = DynamicProduct(
        comm,
        grid,
        dist_from_dense(comm, grid, a0, MIN_PLUS),
        dist_from_dense(comm, grid, b0, MIN_PLUS),
        semiring=MIN_PLUS,
        mode="general",
    )
    model = a0.copy()
    rng = np.random.default_rng(3)
    for step in range(3):
        # overwrite a few weights (possibly increasing them)
        nz = np.argwhere(~np.isinf(model))
        sel = nz[rng.choice(len(nz), size=5, replace=False)]
        new_vals = rng.uniform(0.5, 9.0, len(sel))
        product.apply_updates(
            a_batch=UpdateBatch.from_global(
                (n, n), sel[:, 0], sel[:, 1], new_vals, p,
                kind="update", semiring=MIN_PLUS, seed=10 + step,
            )
        )
        for (r, c), v in zip(sel, new_vals):
            model[r, c] = v
        # delete a few entries
        nz = np.argwhere(~np.isinf(model))
        sel = nz[rng.choice(len(nz), size=4, replace=False)]
        product.apply_updates(
            a_batch=UpdateBatch.from_global(
                (n, n), sel[:, 0], sel[:, 1], np.zeros(len(sel)), p,
                kind="delete", semiring=MIN_PLUS, seed=20 + step,
            )
        )
        for r, c in sel:
            model[r, c] = np.inf
        expected = dense_product(MIN_PLUS, model, b0)
        assert np.allclose(product.c.to_dense(), expected, equal_nan=True)


def test_backends_and_dynamic_structure_agree_on_streaming_workload():
    """Every backend ends with the dynamic structure's matrix after one stream."""
    p = 16
    grid = ProcessGrid(p)
    n, rows, cols, vals = generate_instance("orkut", scale_divisor=65536, seed=7)
    rng = np.random.default_rng(7)
    initial = partition_tuples_round_robin(rows, cols, vals, p, seed=1)
    inserted = partition_tuples_round_robin(
        rng.integers(0, n, 64), rng.integers(0, n, 64), rng.random(64) + 0.5, p, seed=2
    )
    delete_sel = rng.choice(rows.size, size=32, replace=False)
    deleted = partition_tuples_round_robin(
        rows[delete_sel], cols[delete_sel], np.zeros(32), p, seed=3
    )

    comm = SimMPI(p)
    ours = DynamicDistMatrix.from_tuples(comm, grid, (n, n), initial)
    ours.add_update(build_update_matrix(comm, grid, ours.dist, inserted))
    ours.mask_update(build_update_matrix(comm, grid, ours.dist, deleted))
    expected = ours.to_dense()
    for backend_name in ("combblas", "ctf"):
        backend = get_backend(backend_name)(SimMPI(p), grid, (n, n))
        backend.construct(initial)
        backend.insert_batch(inserted)
        backend.delete_batch(deleted)
        assert np.allclose(backend.to_coo_global().to_dense(), expected), backend_name


def test_hypersparse_update_matrices_use_less_bandwidth_than_operands():
    """The central claim: update-driven communication ≪ operand size."""
    p = 16
    comm, grid = SimMPI(p), ProcessGrid(p)
    n, rows, cols, vals = generate_instance("LiveJournal", scale_divisor=32768, seed=11)
    b = StaticDistMatrix.from_tuples(
        comm, grid, (n, n),
        partition_tuples_round_robin(rows, cols, vals, p, seed=1),
        PLUS_TIMES, layout="csr",
    )
    a = DynamicDistMatrix.empty(comm, grid, (n, n))
    c = DynamicDistMatrix.empty(comm, grid, (n, n))
    sel = np.random.default_rng(2).choice(rows.size, size=max(16, rows.size // 50), replace=False)
    per_rank = partition_tuples_round_robin(rows[sel], cols[sel], vals[sel], p, seed=3)

    snap_dyn = comm.stats.snapshot()
    a_star = build_update_matrix(comm, grid, a.dist, per_rank, PLUS_TIMES)
    dynamic_spgemm_algebraic(comm, grid, a, b, a_star, None, c)
    dyn_bytes = comm.stats.diff(snap_dyn).total_bytes()

    snap_summa = comm.stats.snapshot()
    summa_spgemm(comm, grid, a_star, b, output="static")
    summa_bytes = comm.stats.diff(snap_summa).total_bytes()

    # Algorithm 1 avoids broadcasting B, so it must move (much) less data
    # than SUMMA on the same inputs.
    assert dyn_bytes < summa_bytes
