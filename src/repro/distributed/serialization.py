"""Faithful (de)serialisation of per-process sparse blocks.

The checkpoint subsystem (:mod:`repro.scenarios.checkpoint`) must restore a
world so exactly that continuing a trace after a crash is *byte-identical*
to never having crashed.  That rules out round-tripping blocks through a
canonical form: a :class:`~repro.sparse.dhb.DHBMatrix` keeps its entries in
adjacency-array order (deletions fill holes from the row's tail), and that
order is observable downstream, so the codec preserves it — together with
per-row capacity and the block's ``grow_count`` so memory-management
accounting continues from the same state.  What it does not keep is where a
row sits in the arena and the hash table: neither is observable, and the
table is rebuilt on decode.

Every encoded block is a self-describing ``dict`` of plain numpy arrays and
scalars (safe to ship through ``np.savez`` or any communicator):

``{"layout": <csr|dcsr|dhb>, "shape": (n, m), "semiring": <name>, ...}``

plus the layout-specific arrays.  Bloom filter matrices (the incremental
state ``F`` of the general dynamic-SpGEMM algorithm) get their own pair of
helpers: a filter is already three typed arrays in ``(row, col)`` order,
and decoding checks that what it reads can only describe one filter.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.semirings import Semiring, get_semiring
from repro.sparse import BloomFilterMatrix, CSRMatrix, DCSRMatrix, DHBMatrix
from repro.sparse.dhb import DHBStorage

__all__ = [
    "BlockCodecError",
    "encode_block",
    "decode_block",
    "encode_bloom",
    "decode_bloom",
]


class BlockCodecError(ValueError):
    """An encoded block is malformed or names an unknown layout."""


def _base(layout: str, shape: tuple[int, int], semiring: Semiring) -> dict[str, Any]:
    return {
        "layout": layout,
        "shape": (int(shape[0]), int(shape[1])),
        "semiring": semiring.name,
    }


#: layout -> (class, the attributes it is encoded as, in constructor order)
_STATIC_FIELDS = {
    "csr": (CSRMatrix, ("indptr", "indices", "values")),
    "dcsr": (DCSRMatrix, ("nz_rows", "indptr", "indices", "values")),
}


def encode_block(block: Any) -> dict[str, Any]:
    """Encode a sparse block into a self-describing dict of arrays.

    Supports the three layouts a distributed matrix can hold (CSR, DCSR,
    DHB).  The encoding is *faithful*, not canonical: DHB rows keep their
    adjacency order and capacities and the block its grow count, so a
    decoded matrix is indistinguishable from the original under any
    sequence of further updates and accounting queries.
    """
    for layout, (cls, fields) in _STATIC_FIELDS.items():
        if isinstance(block, cls):
            out = _base(layout, block.shape, block.semiring)
            out.update((name, np.ascontiguousarray(getattr(block, name))) for name in fields)
            return out
    if isinstance(block, DHBMatrix):
        return _encode_dhb(block)
    raise BlockCodecError(f"cannot encode block of type {type(block).__name__}")


#: :class:`~repro.sparse.dhb.DHBStorage`'s fields under their encoded names
_DHB_FIELDS = ("row_ids", "sizes", "capacities", "grow_count", "cols", "values")


def _encode_dhb(block: DHBMatrix) -> dict[str, Any]:
    out = _base("dhb", block.shape, block.semiring)
    out.update(zip(_DHB_FIELDS, block.storage()))
    return out


def decode_block(data: dict[str, Any]) -> Any:
    """Rebuild a sparse block from its :func:`encode_block` form."""
    try:
        layout = str(data["layout"])
        shape = (int(data["shape"][0]), int(data["shape"][1]))
        semiring = get_semiring(str(data["semiring"]))
    except (KeyError, IndexError, TypeError) as exc:
        raise BlockCodecError(f"malformed encoded block: {exc}") from exc
    if layout in _STATIC_FIELDS:
        cls, fields = _STATIC_FIELDS[layout]
        try:
            return cls(shape, *(data[name] for name in fields), semiring=semiring)
        except (KeyError, TypeError, ValueError) as exc:
            raise BlockCodecError(f"malformed {layout.upper()} block: {exc}") from exc
    if layout == "dhb":
        return _decode_dhb(data, shape, semiring)
    raise BlockCodecError(f"unknown block layout {layout!r}")


def _decode_dhb(
    data: dict[str, Any], shape: tuple[int, int], semiring: Semiring
) -> DHBMatrix:
    try:
        storage = DHBStorage(*(data[name] for name in _DHB_FIELDS))
        return DHBMatrix.from_storage(shape, semiring, storage)
    except (KeyError, TypeError, ValueError) as exc:
        raise BlockCodecError(f"malformed DHB block: {exc}") from exc


def encode_bloom(matrix: BloomFilterMatrix) -> dict[str, Any]:
    """Encode a bloom-filter matrix as its sorted ``(rows, cols, bits)`` arrays."""
    rows, cols, bits = matrix.to_arrays()
    return {
        "layout": "bloom",
        "shape": (int(matrix.shape[0]), int(matrix.shape[1])),
        "rows": rows,
        "cols": cols,
        "bits": bits,
    }


def decode_bloom(data: dict[str, Any]) -> BloomFilterMatrix:
    """Rebuild a bloom-filter matrix from its :func:`encode_bloom` form.

    Entries may come in any order: snapshots written while ``F`` was a
    dict list them in insertion order.  Raises :class:`BlockCodecError`
    unless the encoding holds aligned ``int64``/``int64``/``uint64`` arrays
    of in-shape coordinates, each coordinate once, with no zero bitfield.
    """
    if data.get("layout") != "bloom":
        raise BlockCodecError(
            f"expected a bloom encoding, got layout {data.get('layout')!r}"
        )
    try:
        n, m = (int(data["shape"][0]), int(data["shape"][1]))
        rows, cols, bits = (np.asarray(data[key]) for key in ("rows", "cols", "bits"))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise BlockCodecError(f"malformed bloom encoding: {exc}") from exc
    dtypes = (rows.dtype, cols.dtype, bits.dtype)
    if dtypes != (np.dtype(np.int64), np.dtype(np.int64), np.dtype(np.uint64)):
        raise BlockCodecError(f"bloom arrays must be int64, int64, uint64: {dtypes}")
    if np.any(bits == 0):
        raise BlockCodecError("bloom entry with an empty bitfield")
    try:
        matrix = BloomFilterMatrix.from_arrays((n, m), rows, cols, bits)
    except (ValueError, IndexError) as exc:
        raise BlockCodecError(f"malformed bloom encoding: {exc}") from exc
    # no bitfield is zero, so only a repeated coordinate folds entries away
    if matrix.nnz != rows.size:
        raise BlockCodecError("bloom encoding repeats a (row, col) coordinate")
    return matrix
