"""Derived sparse matrices are valid without being checked again.

The public constructors of :class:`COOMatrix`, :class:`CSRMatrix` and
:class:`DCSRMatrix` check their input.  Everything the library derives from
valid matrices (sorting, combining, slicing, converting, multiplying,
reducing, routing) builds through the layout's unchecked ``_unchecked``
constructor instead.  This property test stands in for the checks those
derivations no longer run: while it drives every derivation on random valid
operands, each unchecked build is re-checked by the public constructor and
must hold C-contiguous ``int64`` coordinates and ``semiring.dtype`` values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DynamicDistMatrix, ProcessGrid, SimMPI, UpdateBatch
from repro.apps.contraction import contract_graph
from repro.core.collectives import sparse_reduce_to_root
from repro.core.dynamic_general import filter_by_row_bloom
from repro.scenarios import (
    CompetitorExecutor,
    DeleteBatch,
    InsertBatch,
    Scenario,
    SpGEMMStep,
    ValueUpdateBatch,
    replay,
)
from repro.semirings import BOOLEAN, MAX_MIN, MAX_PLUS, MAX_TIMES, MIN_PLUS, PLUS_TIMES
from repro.sparse import COOMatrix, CSRMatrix, DCSRMatrix, DHBMatrix
from repro.sparse.elementwise import mask_pattern, merge_pattern
from repro.sparse.spgemm_local import (
    spgemm_local,
    spgemm_local_masked,
    spgemm_rowwise_spa,
)

from tests.conftest import check_dhb_invariants

SEMIRINGS = (PLUS_TIMES, MIN_PLUS, MAX_PLUS, BOOLEAN, MAX_MIN, MAX_TIMES)
N_RANKS = 4

#: coordinate fields per layout (``values`` is checked against the semiring)
INDEX_FIELDS = {
    COOMatrix: ("rows", "cols"),
    CSRMatrix: ("indptr", "indices"),
    DCSRMatrix: ("nz_rows", "indptr", "indices"),
}

#: every function that builds through ``_unchecked`` (directly or through
#: ``COOMatrix._take``); the test fails when one of them is not exercised or
#: a new one is not listed here
DERIVATIONS = {
    "COOMatrix.empty",
    "COOMatrix.copy",
    "COOMatrix.sort",
    "COOMatrix.sum_duplicates",
    "COOMatrix.last_write_wins",
    "COOMatrix.drop_zeros",
    "COOMatrix.concatenate",
    "COOMatrix.transpose",
    "CSRMatrix.empty",
    "CSRMatrix.from_coo",
    "CSRMatrix.copy",
    "CSRMatrix.to_coo",
    "CSRMatrix.extract_rows",
    "DCSRMatrix.empty",
    "DCSRMatrix.from_coo",
    "DCSRMatrix.copy",
    "DCSRMatrix.to_coo",
    "DHBMatrix._flat_coo",
    "_live_entries",
    "_esc",
    "spgemm_rowwise_spa",
    "merge_pattern",
    "mask_pattern",
    "_values",
    "filter_by_row_bloom",
    "DistMatrixBase.to_coo_global",
    "StaticDistMatrix._assemble.<locals>._build",
    "UpdateBatch.to_global_coo",
    "contract_graph",
    "CombBLASBackend._local_coo",
    "CTFBackend._global_remap.<locals>._rebuild",
    "PETScBackend._set_values.<locals>._assemble",
    "PETScBackend.row_slices",
    "PETScBackend.rows_to_global",
}


def assert_valid(mat) -> None:
    """``mat`` holds what its checked public constructor would accept."""
    for name in INDEX_FIELDS[type(mat)]:
        array = getattr(mat, name)
        assert array.ndim == 1 and array.dtype == np.int64, name
        assert array.flags.c_contiguous, name
    assert mat.values.dtype == mat.semiring.dtype and mat.values.flags.c_contiguous
    fields = {f.name: getattr(mat, f.name) for f in dataclasses.fields(mat)}
    type(mat)(**fields)  # raises on lengths or coordinates out of range


@contextlib.contextmanager
def every_unchecked_build_checked(seen: set[str]):
    """Re-check each ``_unchecked`` build; record which function made it."""

    def checking(build):
        def unchecked(cls, *args):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_take":
                caller = caller.f_back
            seen.add(caller.f_code.co_qualname)
            out = build(*args)
            assert_valid(out)
            return out

        return classmethod(unchecked)

    with pytest.MonkeyPatch.context() as patch:
        for layout in INDEX_FIELDS:
            patch.setattr(layout, "_unchecked", checking(layout._unchecked))
        yield


# ----------------------------------------------------------------------
# operands
# ----------------------------------------------------------------------
@st.composite
def tuples(draw, shape, semiring, max_size=10):
    """Coordinates in range, unsorted, with duplicates, −0.0 and zeros."""
    n, m = shape
    values = st.sampled_from([-0.0, 0.0, 1.0, 2.5, -3.0, semiring.zero])
    entries = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), values),
            max_size=max_size,
        )
    )
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    return rows, cols, np.array([e[2] for e in entries], dtype=np.float64)


@st.composite
def coo(draw, shape, semiring):
    return COOMatrix(shape, *draw(tuples(shape, semiring)), semiring)


dims = st.integers(1, 6)


# ----------------------------------------------------------------------
# derivations
# ----------------------------------------------------------------------
def _local(data) -> None:
    semiring = data.draw(st.sampled_from(SEMIRINGS))
    n, k, m = data.draw(dims), data.draw(dims), data.draw(dims)
    a = data.draw(coo((n, k), semiring))
    other = data.draw(coo((n, k), semiring))
    b = data.draw(coo((k, m), semiring))
    outs = [
        COOMatrix.empty((n, k), semiring),
        a.copy(),
        a.sort(),
        a.sum_duplicates(),
        a.last_write_wins(),
        a.drop_zeros(),
        a.concatenate(other),
        a.add(other),
        a.transpose(),
        merge_pattern(a, other),
        mask_pattern(a, other),
        CSRMatrix.empty((n, k), semiring),
        DCSRMatrix.empty((n, k), semiring),
    ]
    for dedup in (True, False):
        csr, dcsr = CSRMatrix.from_coo(a, dedup=dedup), DCSRMatrix.from_coo(a, dedup=dedup)
        outs += [csr, csr.copy(), csr.to_coo(), csr.transpose(), dcsr.to_csr()]
        outs += [dcsr, dcsr.copy(), dcsr.to_coo(), dcsr.transpose()]
        outs.append(csr.extract_rows(np.unique(a.rows)))
    dhb = DHBMatrix.from_coo(a)
    for apply in (dhb.add_update, dhb.merge_update, dhb.mask_update):
        apply(other)
        check_dhb_invariants(dhb)
    outs += [dhb.to_coo(), dhb.to_csr()]
    mask_block = data.draw(coo((n, m), semiring))
    mask = (mask_block.rows, mask_block.cols)
    for left in (a, CSRMatrix.from_coo(a), DCSRMatrix.from_coo(a), DHBMatrix.from_coo(a)):
        for right in (b, DHBMatrix.from_coo(b)):
            outs.append(spgemm_local(left, right, semiring)[0])
            outs.append(spgemm_local_masked(left, right, semiring, mask)[0])
        outs.append(spgemm_rowwise_spa(left, b, semiring))
        bits = data.draw(st.lists(st.integers(0, 2**64 - 1), max_size=n))
        outs.append(
            filter_by_row_bloom(left, np.array(bits, dtype=np.uint64), 3, semiring)
        )
    for out in outs:
        assert_valid(out)


def _distributed(data) -> None:
    semiring = data.draw(st.sampled_from(SEMIRINGS))
    n = data.draw(st.integers(2, 7))
    shape = (n, n)
    comm, grid = SimMPI(N_RANKS), ProcessGrid(N_RANKS)
    parts = {rank: data.draw(coo(shape, semiring)) for rank in range(N_RANKS)}
    reduced = sparse_reduce_to_root(
        comm, list(range(N_RANKS)), 0, parts, semiring, shape=shape
    )
    assert_valid(reduced)
    batch = UpdateBatch(
        shape,
        {rank: (p.rows, p.cols, p.values) for rank, p in parts.items()},
        kind=data.draw(st.sampled_from(["insert", "update"])),
        semiring=semiring,
    )
    assert_valid(batch.to_global_coo())
    adjacency = DynamicDistMatrix.from_tuples(
        comm, grid, shape, batch.tuples_per_rank, semiring
    )
    clusters = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    assert_valid(contract_graph(comm, grid, adjacency, clusters, drop_self_loops=True))

    scenario = _scenario(data, shape, semiring)
    replay(scenario, backend="sim", n_ranks=N_RANKS)
    # the competitors take PLUS_TIMES only
    plain = _scenario(data, shape, PLUS_TIMES)
    for backend_name in ("combblas", "ctf", "petsc"):
        replay(
            plain,
            backend="sim",
            n_ranks=N_RANKS,
            executor_factory=CompetitorExecutor.factory(backend_name),
        )


def _scenario(data, shape, semiring) -> Scenario:
    """Updates and one kind of dynamic SpGEMM over random tuples."""

    def draw_tuples():
        return data.draw(tuples(shape, semiring))

    if data.draw(st.booleans()):
        products = [SpGEMMStep(*draw_tuples(), mode="algebraic")]
    else:
        products = [
            SpGEMMStep(*draw_tuples(), mode="general", kind=kind)
            for kind in ("update", "delete")
        ]
    return Scenario(
        name="derivations",
        shape=shape,
        steps=[
            *products,
            InsertBatch(*draw_tuples()),
            ValueUpdateBatch(*draw_tuples()),
            DeleteBatch(*draw_tuples()),
        ],
        initial_tuples=draw_tuples(),
        b_tuples=draw_tuples(),
        semiring_name=semiring.name,
        seed=data.draw(st.integers(0, 100)),
    )


def test_every_derivation_builds_a_valid_matrix():
    seen: set[str] = set()

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(st.data())
    def derive(data):
        _local(data)
        _distributed(data)

    with every_unchecked_build_checked(seen):
        derive()
    assert seen == DERIVATIONS, (
        f"not exercised: {sorted(DERIVATIONS - seen)}, "
        f"not listed: {sorted(seen - DERIVATIONS)}"
    )
