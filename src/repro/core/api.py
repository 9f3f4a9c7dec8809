"""High-level API: a maintained (dynamic) distributed matrix product.

:class:`DynamicProduct` owns the two operands ``A`` and ``B``, the
maintained result ``C = A·B`` and — for the general-update mode — the
Bloom filter ``F``.  It is the one place that orders a product update:
:meth:`DynamicProduct.apply_updates`

1. assembles the distributed (hypersparse DCSR) update matrices,
2. runs the appropriate dynamic SpGEMM algorithm (Algorithm 1 for algebraic
   updates, Algorithm 2 for general updates) to bring ``C`` up to date, and
3. applies the updates to the operands themselves,

and :meth:`DynamicProduct.check_consistency` compares ``C`` with a fresh
recomputation.  The examples, the applications in :mod:`repro.apps`, the
scenario engine (and through it the service and the benchmark harness)
all maintain their products through this class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.semirings import Semiring, SemiringError
from repro.sparse import BloomFilterMatrix, COOMatrix, CSRMatrix, spgemm_local
from repro.distributed import (
    DynamicDistMatrix,
    StaticDistMatrix,
    UpdateBatch,
    build_update_matrix,
)
from repro.core.summa import summa_spgemm
from repro.core.dynamic_algebraic import dynamic_spgemm_algebraic
from repro.core.dynamic_general import dynamic_spgemm_general

__all__ = ["DynamicProduct", "UpdateResult"]


@dataclass
class UpdateResult:
    """Summary of one :meth:`DynamicProduct.apply_updates` call."""

    #: update tuples in the A-side batch (0 if none)
    a_updates: int
    #: update tuples in the B-side batch (0 if none)
    b_updates: int
    #: result entries touched (algebraic) or recomputed (general); an
    #: aliased product (``a is b``) counts the entries of both terms
    #: ``A·A*`` and ``A*·A′``, so one touched by both is counted twice
    touched_outputs: int
    #: which algorithm ran: "algebraic", "general" or "noop"
    algorithm: str


class DynamicProduct:
    """A distributed matrix product maintained under batch updates.

    The left operand ``a`` is a dynamic matrix.  The right operand ``b`` is
    either

    * another dynamic matrix, updated through ``b_batch``;
    * a :class:`~repro.distributed.StaticDistMatrix` in any local layout —
      the paper's Fig. 9 setting, where only ``A`` changes; or
    * ``a`` itself (algebraic mode only), which maintains ``A²`` over a
      single adjacency: one ``a_batch`` is applied as ``C ⊕= A·A*`` against
      the old ``A``, then ``A ⊕= A*``, then ``C ⊕= A*·A′``.

    A static or aliased right operand takes no ``b_batch``.  The initial
    product is computed with one sparse SUMMA unless an operand is empty,
    in which case ``C`` starts empty without any communication.
    """

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        a: DynamicDistMatrix,
        b: DynamicDistMatrix | StaticDistMatrix,
        *,
        semiring: Semiring | None = None,
        mode: str = "algebraic",
    ) -> None:
        if mode not in ("algebraic", "general"):
            raise ValueError(f"unknown mode {mode!r} (use 'algebraic' or 'general')")
        if a.shape[1] != b.shape[0]:
            raise ValueError(
                f"inner dimensions do not match: A {a.shape} x B {b.shape}"
            )
        if a is b and mode != "algebraic":
            raise ValueError(
                "A and B must be distinct objects in general mode (pass "
                "a.copy() to maintain A·A): Algorithm 2 recomputes from both "
                "post-update operands and still needs the pre-update A"
            )
        self.comm = comm
        self.grid = grid
        self.a = a
        self.b = b
        self.semiring = semiring if semiring is not None else a.semiring
        self.mode = mode
        if self.mode == "algebraic" and self.semiring.name != a.semiring.name:
            raise ValueError("operands must use the product's semiring")
        self.c: DynamicDistMatrix
        self.f: dict[int, BloomFilterMatrix] = {}
        if a.nnz() and b.nnz():
            c, blooms = summa_spgemm(
                comm,
                grid,
                a,
                b,
                semiring=self.semiring,
                output="dynamic",
                compute_bloom=(mode == "general"),
            )
            self.c = c  # type: ignore[assignment]
            if blooms is not None:
                self.f = blooms
        else:
            self.c = DynamicDistMatrix.empty(
                comm, grid, (a.shape[0], b.shape[1]), self.semiring
            )
            if mode == "general":
                self.f = {
                    rank: BloomFilterMatrix(self.c.dist.block_shape_of_rank(rank))
                    for rank in comm.owned_ranks(grid.all_ranks())
                }

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Shape of the maintained product ``C`` (rows of A × cols of B)."""
        return (self.a.shape[0], self.b.shape[1])

    # ------------------------------------------------------------------
    def apply_updates(
        self,
        a_batch: UpdateBatch | None = None,
        b_batch: UpdateBatch | None = None,
    ) -> UpdateResult:
        """Apply one batch of updates to A and/or B and refresh ``C``.

        In ``"algebraic"`` mode every batch must consist of additive
        insertions (``kind="insert"``); value updates that are not additive
        and deletions raise :class:`SemiringError`.  In ``"general"`` mode
        insert/update batches are applied with MERGE semantics and delete
        batches with MASK semantics, and Algorithm 2 recomputes the affected
        entries of ``C``.
        """
        if a_batch is None and b_batch is None:
            return UpdateResult(0, 0, 0, "noop")
        if b_batch is not None and (
            self.a is self.b or isinstance(self.b, StaticDistMatrix)
        ):
            raise ValueError(
                "this product's right operand takes no b_batch: it is "
                + ("the left operand itself" if self.a is self.b else "static")
            )
        self._validate_batch(a_batch, self.a.shape, "A")
        self._validate_batch(b_batch, self.b.shape, "B")
        if self.mode == "algebraic":
            touched = self._apply_algebraic(a_batch, b_batch)
        else:
            touched = self._apply_general(a_batch, b_batch)
        return UpdateResult(
            a_updates=a_batch.total_tuples if a_batch else 0,
            b_updates=b_batch.total_tuples if b_batch else 0,
            touched_outputs=touched,
            algorithm=self.mode,
        )

    # ------------------------------------------------------------------
    def _apply_algebraic(
        self, a_batch: UpdateBatch | None, b_batch: UpdateBatch | None
    ) -> int:
        for batch, name in ((a_batch, "A"), (b_batch, "B")):
            if batch is not None and batch.kind != "insert":
                raise SemiringError(
                    f"algebraic mode only supports additive insertions; the "
                    f"{name}-side batch has kind {batch.kind!r} — use "
                    "mode='general' instead"
                )
        a_star = self._build_update(a_batch)
        b_star = self._build_update(b_batch)

        def fold(a_star, b_star) -> int:
            return dynamic_spgemm_algebraic(
                self.comm,
                self.grid,
                self.a,
                self.b,
                a_star,
                b_star,
                self.c,
                semiring=self.semiring,
            )

        if self.a is self.b:
            # (A ⊕ A*)² = A² ⊕ A·A* ⊕ A*·A′: the second term needs the old
            # A and the third the new one, so A* is applied in between.
            touched = fold(None, a_star)
            self.a.add_update(a_star)
            return touched + fold(a_star, None)
        # B must become B' *before* Algorithm 1 runs (C* = A*·B' + A·B*),
        # while A stays at its pre-update state until afterwards.
        if b_star is not None:
            self.b.add_update(b_star)
        touched = fold(a_star, b_star)
        if a_star is not None:
            self.a.add_update(a_star)
        return touched

    def _apply_general(
        self, a_batch: UpdateBatch | None, b_batch: UpdateBatch | None
    ) -> int:
        a_star = self._build_update(a_batch)
        b_star = self._build_update(b_batch)
        # COMPUTE_PATTERN needs the pre-update A for the A·B* term; keep a
        # copy only when both operands change (otherwise the term vanishes
        # or the old A is not needed).
        a_old = self.a.copy() if (a_star is not None and b_star is not None) else self.a
        # Apply the updates to the operands first: Algorithm 2 recomputes
        # affected outputs from the *new* operands.
        self._merge_or_mask(self.b, b_batch, b_star)
        self._merge_or_mask(self.a, a_batch, a_star)
        return dynamic_spgemm_general(
            self.comm,
            self.grid,
            a_old,
            self.a,
            self.b,
            a_star,
            b_star,
            self.c,
            self.f,
            semiring=self.semiring,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _merge_or_mask(
        operand: DynamicDistMatrix,
        batch: UpdateBatch | None,
        update: StaticDistMatrix | None,
    ) -> None:
        """Apply a general-mode update: deletions MASK, the rest MERGE."""
        if batch is None or update is None:
            return
        if batch.kind == "delete":
            operand.mask_update(update)
        else:
            operand.merge_update(update)

    def _build_update(self, batch: UpdateBatch | None) -> StaticDistMatrix | None:
        if batch is None:
            return None
        target_dist = self.a.dist if batch.shape == self.a.shape else self.b.dist
        update = build_update_matrix(
            self.comm,
            self.grid,
            target_dist,
            batch,
            self.semiring,
            layout="dcsr",
            combine="add" if (self.mode == "algebraic" and batch.kind == "insert") else "last",
        )
        if batch.kind == "delete":
            # Deletion markers: only the structure matters; normalise the
            # values to the multiplicative identity so that the pattern
            # computation cannot be annihilated by semiring zeros.
            for rank, block in update.blocks.items():
                block.values[:] = self.semiring.one
        return update

    def _validate_batch(
        self, batch: UpdateBatch | None, shape: tuple[int, int], name: str
    ) -> None:
        if batch is None:
            return
        if batch.shape != shape:
            raise ValueError(
                f"{name}-side batch shape {batch.shape} does not match the "
                f"operand shape {shape}"
            )
        if batch.semiring.name != self.semiring.name:
            raise ValueError(f"{name}-side batch uses a different semiring")

    # ------------------------------------------------------------------
    # verification helpers
    # ------------------------------------------------------------------
    def recompute_reference(self) -> COOMatrix:
        """Recompute ``A·B`` from scratch, sequentially (for verification).

        Does not touch the simulated clocks; intended for tests and examples
        that want to check the maintained ``C`` against the ground truth.
        """
        a_global = CSRMatrix.from_coo(self.a.to_coo_global())
        b_global = CSRMatrix.from_coo(self.b.to_coo_global())
        ref, _ = spgemm_local(a_global, b_global, self.semiring)
        return ref

    def result_coo(self) -> COOMatrix:
        """The maintained result ``C`` as one global COO matrix."""
        return self.c.to_coo_global()

    def check_consistency(self, *, rtol: float = 1e-9) -> bool:
        """``True`` when the maintained ``C`` matches a fresh recomputation.

        Structural zeros that carry the semiring's annihilating value are
        ignored on both sides so that explicit zeros (which can legitimately
        differ between the incremental and the from-scratch computation) do
        not cause false negatives.
        """
        import numpy as np

        maintained = self.result_coo().drop_zeros().sort()
        reference = self.recompute_reference().drop_zeros().sort()
        if maintained.nnz != reference.nnz:
            return False
        return bool(
            np.array_equal(maintained.rows, reference.rows)
            and np.array_equal(maintained.cols, reference.cols)
            and np.allclose(maintained.values, reference.values, rtol=rtol)
        )
