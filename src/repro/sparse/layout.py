"""The one row view every sparse layout hands over: :class:`FlatRows`.

Each local layout — :class:`~repro.sparse.coo.COOMatrix`,
:class:`~repro.sparse.csr.CSRMatrix`, :class:`~repro.sparse.dcsr.DCSRMatrix`,
:class:`~repro.sparse.dhb.DHBMatrix` — has a ``flat_rows()`` method that
returns its rows as flat arrays the expand–sort–compress kernel of
:mod:`repro.sparse.spgemm_local` can expand in one pass.  CSR and DCSR
hand over their storage zero-copy, DHB gathers its adjacency arrays in one
pass (or only the rows asked for), and COO packs itself through a DCSR
build.  Every view keeps each row's native within-row order — which fixes
the order a product's terms are folded in for layouts like DHB whose rows
are in adjacency (insertion) order — and the same view is what DHB's
conversions, the left-operand pruning in front of the kernel, Algorithm 2's
``A^R`` filter, the triangle query and the distributed snapshot read
(``to_coo_global``) read.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["FlatRows"]


class FlatRows(NamedTuple):
    """An operand's rows flattened into kernel-ready arrays.

    ``row_ids[s]`` is the matrix row of segment ``s`` (ascending); its
    columns and values occupy ``cols[row_ptr[s]:row_ptr[s + 1]]`` /
    ``vals[row_ptr[s]:row_ptr[s + 1]]`` in the row's native order (sorted
    for COO/CSR/DCSR, adjacency order for DHB).  Segments may be empty (CSR
    exposes every row zero-copy); consumers must treat the arrays as
    read-only views of the operand's storage.
    """

    row_ids: np.ndarray
    row_ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


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
