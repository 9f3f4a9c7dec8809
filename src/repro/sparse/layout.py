"""Uniform row-access protocol and registry over sparse matrix layouts.

The local SpGEMM kernels need exactly two capabilities from an operand,
regardless of its storage layout:

* ``iter_rows()`` — yield ``(row, cols, vals)`` for every non-empty row
  (left operands are only ever *iterated*);
* ``row_arrays(i)`` — return ``(cols, vals)`` of row ``i``, empty arrays
  when the row is empty (right operands are accessed row-by-row).

:class:`RowReader` captures this as a structural protocol.  All built-in
layouts (:class:`~repro.sparse.coo.COOMatrix`,
:class:`~repro.sparse.csr.CSRMatrix`, :class:`~repro.sparse.dcsr.DCSRMatrix`,
:class:`~repro.sparse.dhb.DHBMatrix`) implement it natively — DCSR caches
its row-id → slot index and COO caches its converted forms, so repeated
kernel invocations on the same operand do not rebuild them.

Layouts that cannot (or should not) implement the methods themselves are
plugged in through a type registry: :func:`register_row_layout` maps a class
to an adapter factory, and :func:`row_reader` resolves an operand by walking
its MRO through the registry before falling back to the native protocol.
This replaces the ``isinstance`` dispatch chains the kernels used to carry.

The expand–sort–compress kernel of :mod:`repro.sparse.spgemm_local` needs
a third view: the operand's non-empty rows as *flat arrays* it can expand
in one pass.  :func:`flat_rows` produces a :class:`FlatRows` record through
a second per-type registry (:func:`register_flat_rows` — CSR and DCSR
expose their storage zero-copy, DHB gathers its row arrays in one pass)
with a generic fallback for unregistered layouts that concatenates
``iter_rows()`` output.  Every extractor preserves each row's native
within-row order — which fixes the order a product's terms are folded in
for layouts like DHB whose rows are in adjacency (insertion) order — and
the same view is what DHB's conversions, the left-operand pruning in front
of the kernel, Algorithm 2's ``A^R`` filter and the triangle query read.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any, Callable, Iterator, NamedTuple, Protocol, runtime_checkable

import numpy as np

__all__ = [
    "FlatRows",
    "RowReader",
    "flat_rows",
    "pack_rows",
    "register_flat_rows",
    "register_row_layout",
    "registered_flat_rows_layouts",
    "registered_row_layouts",
    "row_reader",
]


@runtime_checkable
class RowReader(Protocol):
    """Row-wise view of a sparse operand, independent of storage layout."""

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(row, cols, vals)`` for every non-empty row."""
        ...

    def row_arrays(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """``(cols, vals)`` of row ``i`` (empty arrays for an empty row)."""
        ...


#: type -> adapter factory returning a :class:`RowReader` for an instance.
_ROW_LAYOUT_REGISTRY: dict[type, Callable[[Any], RowReader]] = {}


def register_row_layout(
    cls: type, adapter: Callable[[Any], RowReader] | None = None
) -> None:
    """Register ``cls`` as a row-readable layout.

    ``adapter`` turns an instance into a :class:`RowReader`; omit it for
    classes that implement the protocol themselves (identity adapter).
    """
    _ROW_LAYOUT_REGISTRY[cls] = adapter if adapter is not None else (lambda m: m)


def registered_row_layouts() -> tuple[type, ...]:
    """The registered layout classes (mainly for introspection/tests)."""
    return tuple(_ROW_LAYOUT_REGISTRY)


class FlatRows(NamedTuple):
    """An operand's rows flattened into kernel-ready arrays.

    ``row_ids[s]`` is the matrix row of segment ``s`` (ascending); its
    columns and values occupy ``cols[row_ptr[s]:row_ptr[s + 1]]`` /
    ``vals[row_ptr[s]:row_ptr[s + 1]]`` in the row's native order (sorted
    for CSR/DCSR, adjacency order for DHB).  Segments may be empty (CSR
    exposes every row zero-copy); consumers must treat the arrays as
    read-only views of the operand's storage.
    """

    row_ids: np.ndarray
    row_ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


#: type -> extractor returning a :class:`FlatRows` view of an instance.
_FLAT_ROWS_REGISTRY: dict[type, Callable[[Any], FlatRows]] = {}


def register_flat_rows(cls: type, extractor: Callable[[Any], FlatRows]) -> None:
    """Register a zero-copy (or cheap) flat-row extractor for ``cls``."""
    _FLAT_ROWS_REGISTRY[cls] = extractor


def registered_flat_rows_layouts() -> tuple[type, ...]:
    """The layout classes with a registered flat-row extractor."""
    return tuple(_FLAT_ROWS_REGISTRY)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + n) for s, n in zip(starts, lens)])``."""
    ends = lens.cumsum()
    total = int(ends[-1]) if ends.size else 0
    return (starts - ends + lens).repeat(lens) + np.arange(total)


def _runs(sorted_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, length)`` of each run of equal values in a non-empty sorted array."""
    change = np.empty(sorted_ids.size + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=change[1:-1])
    edges = change.nonzero()[0]
    return edges[:-1], edges[1:] - edges[:-1]


def pack_rows(rows: Iterable[tuple[int, np.ndarray, np.ndarray]]) -> FlatRows:
    """Gather ``(row, cols, vals)`` triples into one :class:`FlatRows`.

    One concatenation per array whatever the number of rows; each row keeps
    the order it arrives in.  This is the one primitive behind every flat
    view that is not zero-copy: a DHB matrix, a selection of its rows, an
    unregistered layout.
    """
    rows = list(rows)
    if not rows:
        return FlatRows(
            row_ids=np.empty(0, dtype=np.int64),
            row_ptr=np.zeros(1, dtype=np.int64),
            cols=np.empty(0, dtype=np.int64),
            vals=np.empty(0, dtype=np.float64),
        )
    ids, cols, vals = zip(*rows)
    row_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in cols], out=row_ptr[1:])
    return FlatRows(
        row_ids=np.array(ids, dtype=np.int64),
        row_ptr=row_ptr,
        cols=np.asarray(np.concatenate(cols), dtype=np.int64),
        vals=np.concatenate(vals),
    )


def flat_rows(mat: Any) -> FlatRows:
    """Resolve a :class:`FlatRows` view of ``mat``.

    Resolution order mirrors :func:`row_reader`: exact type then MRO walk
    through the extractor registry, then :func:`pack_rows` over the
    operand's ``iter_rows()`` for unregistered layouts.
    """
    for base in type(mat).__mro__:
        extractor = _FLAT_ROWS_REGISTRY.get(base)
        if extractor is not None:
            return extractor(mat)
    return pack_rows(row_reader(mat).iter_rows())


def row_reader(mat: Any) -> RowReader:
    """Resolve a :class:`RowReader` for ``mat``.

    Resolution order: exact type in the registry, then base classes in MRO
    order, then the native method protocol.  Raises :class:`TypeError` for
    operands that provide none of these.
    """
    for base in type(mat).__mro__:
        adapter = _ROW_LAYOUT_REGISTRY.get(base)
        if adapter is not None:
            return adapter(mat)
    if isinstance(mat, RowReader):
        return mat
    raise TypeError(
        f"unsupported operand layout {type(mat).__name__}: expected a "
        "registered layout or an object with iter_rows()/row_arrays()"
    )
