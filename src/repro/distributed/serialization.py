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

``{"layout": <coo|csr|dcsr|dhb>, "shape": (n, m), "semiring": <name>, ...}``

plus the layout-specific arrays.  Bloom filter matrices (the incremental
state ``F`` of the general dynamic-SpGEMM algorithm) get their own pair of
helpers; their ``(row, col) -> bits`` mapping is encoded in insertion order
so the rebuilt dict iterates identically.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.semirings import Semiring, get_semiring
from repro.sparse import (
    BloomFilterMatrix,
    COOMatrix,
    CSRMatrix,
    DCSRMatrix,
    DHBMatrix,
)
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


def encode_block(block: Any) -> dict[str, Any]:
    """Encode a sparse block into a self-describing dict of arrays.

    Supports all four layouts (COO, CSR, DCSR, DHB).  The encoding is
    *faithful*, not canonical: DHB rows keep their adjacency order and
    capacities and the block its grow count, so a decoded matrix is
    indistinguishable from the original under any sequence of further
    updates and accounting queries.
    """
    if isinstance(block, COOMatrix):
        out = _base("coo", block.shape, block.semiring)
        out["rows"] = np.ascontiguousarray(block.rows)
        out["cols"] = np.ascontiguousarray(block.cols)
        out["values"] = np.ascontiguousarray(block.values)
        return out
    if isinstance(block, CSRMatrix):
        out = _base("csr", block.shape, block.semiring)
        out["indptr"] = np.ascontiguousarray(block.indptr)
        out["indices"] = np.ascontiguousarray(block.indices)
        out["values"] = np.ascontiguousarray(block.values)
        return out
    if isinstance(block, DCSRMatrix):
        out = _base("dcsr", block.shape, block.semiring)
        out["nz_rows"] = np.ascontiguousarray(block.nz_rows)
        out["indptr"] = np.ascontiguousarray(block.indptr)
        out["indices"] = np.ascontiguousarray(block.indices)
        out["values"] = np.ascontiguousarray(block.values)
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
    if layout == "coo":
        return COOMatrix(
            shape, data["rows"], data["cols"], data["values"], semiring=semiring
        )
    if layout == "csr":
        return CSRMatrix(
            shape, data["indptr"], data["indices"], data["values"], semiring=semiring
        )
    if layout == "dcsr":
        return DCSRMatrix(
            shape,
            data["nz_rows"],
            data["indptr"],
            data["indices"],
            data["values"],
            semiring=semiring,
        )
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
    """Encode a bloom-filter matrix, preserving entry insertion order."""
    n_entries = len(matrix._bits)
    rows = np.empty(n_entries, dtype=np.int64)
    cols = np.empty(n_entries, dtype=np.int64)
    bits = np.empty(n_entries, dtype=np.uint64)
    for k, ((i, j), b) in enumerate(matrix._bits.items()):
        rows[k] = i
        cols[k] = j
        bits[k] = b
    return {
        "layout": "bloom",
        "shape": (int(matrix.shape[0]), int(matrix.shape[1])),
        "rows": rows,
        "cols": cols,
        "bits": bits,
    }


def decode_bloom(data: dict[str, Any]) -> BloomFilterMatrix:
    """Rebuild a bloom-filter matrix from its :func:`encode_bloom` form."""
    if data.get("layout") != "bloom":
        raise BlockCodecError(
            f"expected a bloom encoding, got layout {data.get('layout')!r}"
        )
    shape = (int(data["shape"][0]), int(data["shape"][1]))
    return BloomFilterMatrix.from_arrays(
        shape, data["rows"], data["cols"], data["bits"]
    )
