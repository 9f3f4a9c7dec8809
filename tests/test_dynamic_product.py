"""End-to-end tests for the high-level DynamicProduct API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DynamicDistMatrix, DynamicProduct, ProcessGrid, SimMPI, UpdateBatch
from repro.semirings import MIN_PLUS, PLUS_TIMES, SemiringError

from tests.conftest import dense_product, dist_from_dense, random_dense


def _batch_from_dense(shape, dense_update, p, semiring=PLUS_TIMES, kind="insert", seed=0):
    rows, cols = np.nonzero(~semiring.is_zero(dense_update))
    vals = dense_update[rows, cols]
    return UpdateBatch.from_global(
        shape, rows, cols, vals, p, kind=kind, semiring=semiring, seed=seed
    )


class TestDynamicProductAlgebraic:
    @pytest.mark.parametrize("right", ["dynamic", "static", "alias"])
    def test_repeated_insertions_stay_consistent(self, comm16, grid16, right):
        n = 20
        a0 = random_dense(n, n, 0.1, seed=1)
        b0 = random_dense(n, n, 0.2, seed=2)
        a = dist_from_dense(comm16, grid16, a0)
        b = dist_from_dense(comm16, grid16, b0)
        prod = DynamicProduct(
            comm16,
            grid16,
            a,
            {"dynamic": b, "static": b.to_static("dcsr"), "alias": a}[right],
        )
        current_a = a0.copy()
        for step in range(3):
            delta = random_dense(n, n, 0.04, seed=10 + step)
            batch = _batch_from_dense((n, n), delta, 16, seed=step)
            outcome = prod.apply_updates(a_batch=batch)
            current_a = current_a + delta
            assert outcome.algorithm == "algebraic"
            current_b = current_a if right == "alias" else b0
            assert np.allclose(prod.c.to_dense(), current_a @ current_b)
            if right != "dynamic":
                with pytest.raises(ValueError, match="takes no b_batch"):
                    prod.apply_updates(b_batch=batch)
        assert prod.a is a and (prod.b is a) == (right == "alias")
        assert prod.check_consistency()

    def test_updates_on_both_operands(self, comm16, grid16):
        n = 16
        a0 = random_dense(n, n, 0.15, seed=3)
        b0 = random_dense(n, n, 0.15, seed=4)
        prod = DynamicProduct(
            comm16,
            grid16,
            dist_from_dense(comm16, grid16, a0),
            dist_from_dense(comm16, grid16, b0),
        )
        delta_a = random_dense(n, n, 0.05, seed=5)
        delta_b = random_dense(n, n, 0.05, seed=6)
        prod.apply_updates(
            a_batch=_batch_from_dense((n, n), delta_a, 16, seed=7),
            b_batch=_batch_from_dense((n, n), delta_b, 16, seed=8),
        )
        assert np.allclose(prod.c.to_dense(), (a0 + delta_a) @ (b0 + delta_b))
        assert prod.check_consistency()

    def test_noop_and_empty_updates(self, comm16, grid16):
        n = 10
        prod = DynamicProduct(
            comm16,
            grid16,
            dist_from_dense(comm16, grid16, random_dense(n, n, 0.2, seed=9)),
            dist_from_dense(comm16, grid16, random_dense(n, n, 0.2, seed=10)),
        )
        before = prod.c.to_dense()
        outcome = prod.apply_updates()
        assert outcome.algorithm == "noop"
        assert np.allclose(prod.c.to_dense(), before)

    def test_algebraic_mode_rejects_deletions(self, comm16, grid16):
        n = 10
        prod = DynamicProduct(
            comm16,
            grid16,
            dist_from_dense(comm16, grid16, random_dense(n, n, 0.2, seed=11)),
            dist_from_dense(comm16, grid16, random_dense(n, n, 0.2, seed=12)),
        )
        batch = UpdateBatch.from_global(
            (n, n), np.array([0]), np.array([0]), np.array([1.0]), 16, kind="delete"
        )
        with pytest.raises(SemiringError):
            prod.apply_updates(a_batch=batch)

    def test_validation_errors(self, comm16, grid16):
        n = 10
        a = dist_from_dense(comm16, grid16, random_dense(n, n, 0.2, seed=13))
        b = dist_from_dense(comm16, grid16, random_dense(n, n, 0.2, seed=14))
        with pytest.raises(ValueError, match="distinct objects"):
            DynamicProduct(comm16, grid16, a, a, mode="general")
        with pytest.raises(ValueError, match="mode"):
            DynamicProduct(comm16, grid16, a, b, mode="bogus")
        prod = DynamicProduct(comm16, grid16, a, b)
        bad_shape = UpdateBatch.from_global(
            (n + 1, n + 1), np.array([0]), np.array([0]), np.array([1.0]), 16
        )
        with pytest.raises(ValueError, match="shape"):
            prod.apply_updates(a_batch=bad_shape)
        bad_semiring = UpdateBatch.from_global(
            (n, n), np.array([0]), np.array([0]), np.array([1.0]), 16, semiring=MIN_PLUS
        )
        with pytest.raises(ValueError, match="semiring"):
            prod.apply_updates(a_batch=bad_semiring)

    def test_mismatched_inner_dimensions(self, comm16, grid16):
        a = DynamicDistMatrix.empty(comm16, grid16, (8, 9))
        b = DynamicDistMatrix.empty(comm16, grid16, (10, 8))
        with pytest.raises(ValueError, match="inner dimensions"):
            DynamicProduct(comm16, grid16, a, b)


class TestDynamicProductGeneral:
    def test_min_plus_update_and_delete_sequence(self, comm16, grid16):
        n = 18
        a0 = random_dense(n, n, 0.2, MIN_PLUS, seed=21)
        b0 = random_dense(n, n, 0.2, MIN_PLUS, seed=22)
        prod = DynamicProduct(
            comm16,
            grid16,
            dist_from_dense(comm16, grid16, a0, MIN_PLUS),
            dist_from_dense(comm16, grid16, b0, MIN_PLUS),
            semiring=MIN_PLUS,
            mode="general",
        )
        current = a0.copy()
        rng = np.random.default_rng(23)
        # weight increases (not expressible as min-additions)
        nz = np.argwhere(~np.isinf(current))
        sel = nz[rng.choice(len(nz), size=8, replace=False)]
        new_vals = rng.random(len(sel)) + 5.0
        batch = UpdateBatch.from_global(
            (n, n), sel[:, 0], sel[:, 1], new_vals, 16,
            kind="update", semiring=MIN_PLUS, seed=1,
        )
        prod.apply_updates(a_batch=batch)
        for (r, c), v in zip(sel, new_vals):
            current[r, c] = v
        assert np.allclose(
            prod.c.to_dense(), dense_product(MIN_PLUS, current, b0), equal_nan=True
        )
        # deletions
        nz = np.argwhere(~np.isinf(current))
        sel = nz[rng.choice(len(nz), size=6, replace=False)]
        batch = UpdateBatch.from_global(
            (n, n), sel[:, 0], sel[:, 1], np.zeros(len(sel)), 16,
            kind="delete", semiring=MIN_PLUS, seed=2,
        )
        outcome = prod.apply_updates(a_batch=batch)
        assert outcome.algorithm == "general"
        for r, c in sel:
            current[r, c] = np.inf
        assert np.allclose(
            prod.c.to_dense(), dense_product(MIN_PLUS, current, b0), equal_nan=True
        )
        assert prod.check_consistency()

    def test_general_updates_on_right_operand(self, comm16, grid16):
        n = 14
        a0 = random_dense(n, n, 0.25, MIN_PLUS, seed=31)
        b0 = random_dense(n, n, 0.25, MIN_PLUS, seed=32)
        prod = DynamicProduct(
            comm16,
            grid16,
            dist_from_dense(comm16, grid16, a0, MIN_PLUS),
            dist_from_dense(comm16, grid16, b0, MIN_PLUS),
            semiring=MIN_PLUS,
            mode="general",
        )
        rng = np.random.default_rng(33)
        nz = np.argwhere(~np.isinf(b0))
        sel = nz[rng.choice(len(nz), size=7, replace=False)]
        batch = UpdateBatch.from_global(
            (n, n), sel[:, 0], sel[:, 1], np.zeros(len(sel)), 16,
            kind="delete", semiring=MIN_PLUS, seed=3,
        )
        prod.apply_updates(b_batch=batch)
        current_b = b0.copy()
        for r, c in sel:
            current_b[r, c] = np.inf
        assert np.allclose(
            prod.c.to_dense(), dense_product(MIN_PLUS, a0, current_b), equal_nan=True
        )

    def test_result_coo_and_reference(self, comm16, grid16):
        n = 12
        a0 = random_dense(n, n, 0.2, seed=41)
        b0 = random_dense(n, n, 0.2, seed=42)
        prod = DynamicProduct(
            comm16,
            grid16,
            dist_from_dense(comm16, grid16, a0),
            dist_from_dense(comm16, grid16, b0),
        )
        assert np.allclose(prod.result_coo().to_dense(), a0 @ b0)
        assert np.allclose(prod.recompute_reference().to_dense(), a0 @ b0)
        assert prod.shape == (n, n)
