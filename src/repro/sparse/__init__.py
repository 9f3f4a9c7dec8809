"""Local (per-rank) sparse matrix substrate.

The paper distinguishes three local storage layouts (Section IV):

* **Dynamic matrices** — the DHB data structure (adjacency arrays plus a
  hash index) supporting O(1) expected insertion, deletion and value
  update.  Implemented by :class:`~repro.sparse.dhb.DHBMatrix`.
* **Static CSR** — compressed sparse row, used for sparse but not
  hypersparse operands.  Implemented by :class:`~repro.sparse.csr.CSRMatrix`.
* **Doubly-compressed CSR (DCSR)** — stores row pointers only for non-empty
  rows; used for hypersparse blocks (update matrices, SUMMA partial
  products) and for all matrices that are communicated.  Implemented by
  :class:`~repro.sparse.dcsr.DCSRMatrix`.

On top of these the package provides the local kernels needed by the
distributed algorithms: element-wise ``ADD`` / ``MERGE`` / ``MASK``
(Section IV-A), an expand–sort–compress SpGEMM and its masked variant
(with a sparse-accumulator Gustavson loop as their test oracle), and the
64-bit Bloom-filter matrices of Section V-B.
"""

from repro.sparse.layout import (
    RowReader,
    register_row_layout,
    registered_row_layouts,
    row_reader,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.dcsr import DCSRMatrix
from repro.sparse.dhb import DHBMatrix, DHBStorage
from repro.sparse.bloom import BloomFilterMatrix, BLOOM_BITS
from repro.sparse.spa import SparseAccumulator
from repro.sparse.elementwise import (
    add_coo,
    mask_pattern,
    merge_pattern,
)
from repro.sparse.spgemm_local import (
    spgemm_local,
    spgemm_local_masked,
    spgemm_rowwise_spa,
)

__all__ = [
    "RowReader",
    "register_row_layout",
    "registered_row_layouts",
    "row_reader",
    "COOMatrix",
    "CSRMatrix",
    "DCSRMatrix",
    "DHBMatrix",
    "DHBStorage",
    "BloomFilterMatrix",
    "BLOOM_BITS",
    "SparseAccumulator",
    "add_coo",
    "merge_pattern",
    "mask_pattern",
    "spgemm_local",
    "spgemm_local_masked",
    "spgemm_rowwise_spa",
]
