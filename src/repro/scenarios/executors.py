"""Step executors: how one scenario step becomes matrix operations.

The :class:`~repro.scenarios.engine.ScenarioEngine` delegates the actual
application of steps to an *executor*:

* :class:`NativeExecutor` — the paper's own machinery: a
  :class:`~repro.distributed.DynamicDistMatrix` target whose DHB blocks
  take a plain step's routed tuples in place, hypersparse update matrices
  and Algorithm 1 / 2 for :class:`~repro.scenarios.model.SpGEMMStep`
  steps, with the static right-hand operand of an Algorithm 1 replay built
  as CSR blocks.
* :class:`CompetitorExecutor` — wraps any backend from
  :mod:`repro.competitors` (``combblas``, ``ctf``, ``petsc``), so the
  figures can replay one scenario against every system under comparison.
  Steps a backend does not support truncate the replay and are reported
  via ``ScenarioResult.truncated_at``.

Both classes are re-exported from :mod:`repro.scenarios.replay` (their
historical home) and :mod:`repro.scenarios`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import DynamicProduct
from repro.distributed import (
    DynamicDistMatrix,
    StaticDistMatrix,
    UpdateBatch,
    partition_tuples_round_robin,
)
from repro.runtime import ProcessGrid
from repro.runtime.backend import Communicator
from repro.scenarios.model import (
    AppQueryStep,
    ContractStep,
    Scenario,
    ScenarioStep,
    ShortestPathCheck,
    SnapshotCheck,
    SpGEMMStep,
    TriangleCountCheck,
    TupleArrays,
    canonical_tuples,
)
from repro.semirings import PLUS_TIMES, Semiring

__all__ = [
    "ScenarioCheckError",
    "NativeExecutor",
    "CompetitorExecutor",
]

class ScenarioCheckError(RuntimeError):
    """A :class:`SnapshotCheck` assertion failed during replay."""


# ----------------------------------------------------------------------
# native executor (the paper's machinery)
# ----------------------------------------------------------------------
class NativeExecutor:
    """Replays a scenario on the repository's own distributed matrices.

    When the scenario carries an :class:`~repro.scenarios.model.AppSpec`,
    the executor instantiates the corresponding application at construction
    time, routes every update step through it (so the app's incremental
    state — the maintained ``A²`` or ``S·A`` product — tracks the trace),
    and answers the application query steps from that state.
    """

    name = "native"
    #: the maintained application instance (None outside app scenarios)
    app = None

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        scenario: Scenario,
    ) -> None:
        self.comm = comm
        self.grid = grid
        self.scenario = scenario
        self.semiring: Semiring = scenario.semiring
        self.a: DynamicDistMatrix | None = None
        #: the maintained product (None in pure-update scenarios)
        self.product: DynamicProduct | None = None
        self._initial_per_rank: dict[int, TupleArrays] | None = None
        self._b_per_rank: dict[int, TupleArrays] | None = None

    @property
    def b_static(self) -> StaticDistMatrix | None:
        """The product's right operand when it is static (Algorithm 1 replays)."""
        b = None if self.product is None else self.product.b
        return b if isinstance(b, StaticDistMatrix) else None

    @property
    def c(self) -> DynamicDistMatrix | None:
        """The maintained product ``C``, if any."""
        return None if self.product is None else self.product.c

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Scatter the construction tuples (outside the timed region)."""
        scenario, grid = self.scenario, self.grid
        if scenario.b_tuples is None and scenario.has_spgemm:
            raise ValueError(
                f"scenario {scenario.name!r} contains SpGEMM steps but no "
                "b_tuples for the right-hand operand"
            )
        if scenario.app is not None:
            # the applications scatter their own construction batches
            # (seeded with construct_seed), so there is nothing to stage
            return
        if scenario.initial_tuples is not None:
            self._initial_per_rank = partition_tuples_round_robin(
                *scenario.initial_tuples, grid.n_ranks, seed=scenario.construct_seed
            )
        if scenario.b_tuples is not None:
            self._b_per_rank = partition_tuples_round_robin(
                *scenario.b_tuples, grid.n_ranks, seed=scenario.construct_seed
            )

    def _construct_app(self) -> None:
        """Instantiate the scenario's application and alias its matrices.

        ``self.a`` aliases the app's adjacency matrix and ``self.product``
        its maintained product, so snapshot checks, ``final_a``/``final_c``
        and :class:`ContractStep` work unchanged on app scenarios.
        """
        from repro.apps import (
            DynamicMultiSourceShortestPaths,
            DynamicTriangleCounter,
        )

        scenario, comm, grid = self.scenario, self.comm, self.grid
        spec = scenario.app
        n = scenario.shape[0]
        empty = np.empty(0, dtype=np.int64)
        rows, cols, values = scenario.initial_tuples or (
            empty,
            empty,
            np.empty(0, dtype=np.float64),
        )
        if spec.name == "triangle":
            self.app = DynamicTriangleCounter(
                comm, grid, n, rows, cols, seed=scenario.construct_seed
            )
        else:  # sssp (AppSpec validated the name)
            self.app = DynamicMultiSourceShortestPaths(
                comm,
                grid,
                n,
                rows,
                cols,
                values,
                spec.sources,
                seed=scenario.construct_seed,
            )
        self.a = self.app.adjacency
        self.product = self.app.product

    def construct(self) -> None:
        """Build the initial distributed state (matrices or application)."""
        scenario, comm, grid = self.scenario, self.comm, self.grid
        shape = scenario.shape
        if scenario.app is not None:
            self._construct_app()
            return
        if self._initial_per_rank is not None:
            self.a = DynamicDistMatrix.from_tuples(
                comm, grid, shape, self._initial_per_rank, self.semiring, combine="add"
            )
        else:
            self.a = DynamicDistMatrix.empty(comm, grid, shape, self.semiring)
        if self._b_per_rank is None:
            return
        general = scenario.has_general_spgemm
        b: DynamicDistMatrix | StaticDistMatrix
        if general:
            # Algorithm 2 replays keep a dynamic right operand
            # (last-write-wins duplicates).
            b = DynamicDistMatrix.from_tuples(
                comm, grid, shape, self._b_per_rank, self.semiring, combine="last"
            )
        else:
            b = StaticDistMatrix.from_tuples(
                comm, grid, shape, self._b_per_rank, self.semiring
            )
        self.product = DynamicProduct(
            comm,
            grid,
            self.a,
            b,
            semiring=self.semiring,
            mode="general" if general else "algebraic",
        )

    # ------------------------------------------------------------------
    def apply(self, step: ScenarioStep, per_rank: dict[int, TupleArrays]) -> int:
        """Apply one tuple step; returns the applied-update count."""
        if self.app is not None:
            return self._apply_app(step)
        if isinstance(step, SpGEMMStep):
            built_for = None if self.product is None else self.product.mode
            if step.mode != built_for:
                raise ValueError(
                    f"step {step.label!r}: a {step.mode!r} SpGEMM step cannot "
                    f"be applied to a product built for {built_for!r}"
                )
            batch = UpdateBatch(
                shape=self.scenario.shape,
                tuples_per_rank=dict(per_rank),
                kind=step.kind,
                semiring=self.semiring,
            )
            return self.product.apply_updates(a_batch=batch).touched_outputs
        assert self.a is not None
        # A plain step needs no update matrix: the routed tuples go straight
        # into the DHB blocks, which fold duplicates themselves.
        if step.kind == "delete":
            return self.a.delete_tuples(per_rank)
        return self.a.insert_tuples(
            per_rank,
            combine="add" if step.kind == "insert" else "last",
            reserve=False,
        )

    def _apply_app(self, step: ScenarioStep) -> int:
        """Route one update step through the maintained application.

        The applications redistribute their (symmetrised / semiring-coerced)
        batches themselves, seeded with the step's ``partition_seed``, so
        the pre-scattered ``per_rank`` mapping is not used here.
        """
        spec = self.scenario.app
        if spec.name == "triangle":
            if step.kind != "insert":
                raise ValueError(
                    "the triangle application maintains A² additively; "
                    f"{step.kind!r} steps are not expressible (insert only)"
                )
            return self.app.insert_edges(
                step.rows, step.cols, seed=step.partition_seed
            )
        if step.kind == "delete":
            return self.app.delete_edges(
                step.rows, step.cols, seed=step.partition_seed
            )
        # insert and value-update steps are both general MERGE updates
        return self.app.update_edges(
            step.rows, step.cols, step.values, seed=step.partition_seed
        )

    # ------------------------------------------------------------------
    def query(self, step: AppQueryStep, *, check: bool = True) -> tuple[int, object]:
        """Execute one application query step.

        Returns ``(applied, payload)`` — an operation count for the step
        statistics and the byte-comparable payload recorded in
        ``ScenarioResult.app_results``.  ``check=False`` records without
        evaluating the baked-in expectations (mirrors ``check_snapshots``).
        """
        if isinstance(step, ContractStep):
            return self._query_contract(step, check)
        if isinstance(step, TriangleCountCheck):
            if self.app is None or self.scenario.app.name != "triangle":
                raise ScenarioCheckError(
                    f"step {step.label!r}: TriangleCountCheck requires a "
                    "triangle application scenario"
                )
            count = self.app.triangle_count()
            if check and step.expect is not None and count != step.expect:
                raise ScenarioCheckError(
                    f"step {step.label!r}: expected {step.expect} triangles, "
                    f"got {count}"
                )
            return count, int(count)
        if isinstance(step, ShortestPathCheck):
            if self.app is None or self.scenario.app.name != "sssp":
                raise ScenarioCheckError(
                    f"step {step.label!r}: ShortestPathCheck requires an "
                    "sssp application scenario"
                )
            payload = self.app.distance_tuples(max_hops=step.max_hops)
            if check and step.expect_tuples is not None:
                self._check_expected_tuples(step.label, payload, step.expect_tuples)
            return int(payload[0].size), payload
        raise ScenarioCheckError(f"unknown application query step {step!r}")

    def _query_contract(self, step: ContractStep, check: bool) -> tuple[int, object]:
        from repro.apps import contract_graph

        assert self.a is not None
        contracted = contract_graph(
            self.comm,
            self.grid,
            self.a,
            step.clusters,
            n_clusters=step.n_clusters,
            drop_self_loops=step.drop_self_loops,
        )
        payload = canonical_tuples(contracted)
        if check and step.expect_tuples is not None:
            self._check_expected_tuples(step.label, payload, step.expect_tuples)
        return int(contracted.nnz), payload

    @staticmethod
    def _check_expected_tuples(
        label: str, got: TupleArrays, expected: TupleArrays
    ) -> None:
        ok = (
            np.array_equal(got[0], expected[0])
            and np.array_equal(got[1], expected[1])
            and np.allclose(got[2], expected[2], rtol=1e-9)
        )
        if not ok:
            raise ScenarioCheckError(
                f"step {label!r}: query result ({got[0].size} tuples) does "
                f"not match the expected tuples ({expected[0].size})"
            )

    # ------------------------------------------------------------------
    def snapshot(self, step: SnapshotCheck) -> None:
        """Run one mid-trace invariant check (nnz and/or product)."""
        assert self.a is not None
        if step.expect_nnz is not None:
            got = self.a.nnz()
            if got != step.expect_nnz:
                raise ScenarioCheckError(
                    f"snapshot {step.label!r}: expected nnz {step.expect_nnz}, "
                    f"got {got}"
                )
        if step.verify_product:
            if self.product is None:
                raise ScenarioCheckError(
                    f"snapshot {step.label!r}: verify_product requires SpGEMM state"
                )
            if not self.product.check_consistency():
                raise ScenarioCheckError(
                    f"snapshot {step.label!r}: maintained C (nnz "
                    f"{self.product.c.nnz()}) does not match recomputed A·B"
                )

    # ------------------------------------------------------------------
    def final_a(self) -> TupleArrays:
        """Canonical global tuples of the maintained matrix ``A``."""
        assert self.a is not None
        return canonical_tuples(self.a.to_coo_global())

    def final_c(self) -> TupleArrays | None:
        """Canonical global tuples of the maintained product ``C``, if any."""
        if self.c is None:
            return None
        return canonical_tuples(self.c.to_coo_global())


# ----------------------------------------------------------------------
# competitor executor (benchmark backends)
# ----------------------------------------------------------------------
class CompetitorExecutor:
    """Replays a scenario on a simulated competitor framework.

    Data-structure steps go through the uniform
    :class:`repro.competitors.base.Backend` interface.  When the scenario
    has a right operand, :class:`~repro.scenarios.model.SpGEMMStep` steps go
    through the framework's :func:`~repro.competitors.spgemm_stream`
    protocol instead, whose left operand grows from empty (the Fig. 9–11
    workloads); a plain update step cannot reach that operand and truncates
    such a replay, like any step a backend does not support (mirroring how
    the paper's figures drop unsupported systems).  A framework without
    configurable semirings keeps ``(+, ·)`` whatever the scenario asks for,
    as PETSc does in the paper's Fig. 10.
    """

    name = "competitor"
    #: competitor backends expose no incremental application state
    app = None

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        scenario: Scenario,
        *,
        backend_name: str,
    ) -> None:
        from repro.competitors import get_backend

        self.comm = comm
        self.grid = grid
        self.scenario = scenario
        self.backend_name = backend_name
        backend_cls = get_backend(backend_name)
        semiring = scenario.semiring if backend_cls.supports_semirings else PLUS_TIMES
        self.backend = backend_cls(comm, grid, scenario.shape, semiring)
        #: the framework's dynamic-SpGEMM protocol (SpGEMM scenarios only)
        self.stream = None

    @classmethod
    def factory(cls, backend_name: str) -> Callable:
        """An ``executor_factory`` for :func:`replay` bound to a backend."""

        def make(comm, grid, scenario):
            return cls(comm, grid, scenario, backend_name=backend_name)

        return make

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Scatter the construction tuples (outside the timed region)."""
        scenario, n_ranks = self.scenario, self.grid.n_ranks

        def scattered(tuples):
            if tuples is None:
                return None
            return partition_tuples_round_robin(
                *tuples, n_ranks, seed=scenario.construct_seed
            )

        self._initial_per_rank = scattered(scenario.initial_tuples) or {}
        self._b_per_rank = scattered(scenario.b_tuples)

    def construct(self) -> None:
        """Build the backend's matrix and, if any, the right operand."""
        from repro.competitors import spgemm_stream

        self.backend.construct(self._initial_per_rank)
        if self._b_per_rank is not None:
            self.stream = spgemm_stream(
                self.backend,
                self._b_per_rank,
                general=self.scenario.has_general_spgemm,
            )

    def apply(self, step: ScenarioStep, per_rank: dict[int, TupleArrays]) -> int:
        """Apply one tuple step through the backend or its SpGEMM stream."""
        from repro.competitors import UnsupportedOperation

        if isinstance(step, SpGEMMStep) != (self.stream is not None):
            raise UnsupportedOperation(
                f"backend {self.backend_name!r} keeps the left operand of a "
                "SpGEMM stream apart from its own matrix: SpGEMM steps need a "
                "right operand, and plain update steps cannot be mixed in"
            )
        if self.stream is not None:
            self.stream.apply(per_rank, step.kind)
        else:
            self.backend.apply_batch(step.kind, per_rank)
        # Neither interface reports created/changed counts; the batch size
        # is the comparable volume measure.
        return step.n_tuples

    def query(self, step: AppQueryStep, *, check: bool = True) -> tuple[int, object]:
        """Application queries are outside the uniform backend interface."""
        from repro.competitors import UnsupportedOperation

        raise UnsupportedOperation(
            f"backend {self.backend_name!r} cannot answer application "
            f"queries ({step.kind})"
        )

    def snapshot(self, step: SnapshotCheck) -> None:
        """Check nnz invariants (product checks need the native executor)."""
        if step.expect_nnz is not None:
            got = self.backend.nnz()
            if got != step.expect_nnz:
                raise ScenarioCheckError(
                    f"snapshot {step.label!r}: expected nnz {step.expect_nnz}, "
                    f"got {got}"
                )
        if step.verify_product:
            raise ScenarioCheckError(
                "verify_product snapshots require the native executor"
            )

    def final_a(self) -> TupleArrays:
        """Canonical global tuples of the matrix the steps were applied to."""
        holder = self.backend if self.stream is None else self.stream
        return canonical_tuples(holder.to_coo_global())

    def final_c(self) -> TupleArrays | None:
        """Canonical global tuples of the framework's product ``C``, if any."""
        product = None if self.stream is None else self.stream.product_global()
        return None if product is None else canonical_tuples(product)
