"""Distributed (2D block) sparse matrices on the simulated MPI runtime.

This package implements Section IV of the paper:

* :mod:`repro.distributed.distribution` — the 2D block distribution over a
  square process grid and the random index permutation used for load
  balancing.
* :mod:`repro.distributed.redistribution` — routing of update tuples to the
  owning rank: the paper's two-phase (rows of the grid, then columns)
  counting-sort + ``ALLTOALL`` scheme, plus the single-phase global
  ``ALLTOALL`` variant used by the competitors and by the ablation study.
* :mod:`repro.distributed.dist_matrix` — :class:`DynamicDistMatrix` (DHB
  blocks, in-place updates) and :class:`StaticDistMatrix` (CSR/DCSR blocks).
* :mod:`repro.distributed.updates` — batch-update representation and the
  construction of distributed (hypersparse, DCSR) update matrices.
* :mod:`repro.distributed.serialization` — faithful block codecs used by
  the checkpoint/restore subsystem (adjacency order and capacities survive
  the round trip; bloom filters are checked as they are read).
"""

from repro.distributed.distribution import BlockDistribution, IndexPermutation
from repro.distributed.redistribution import (
    group_by_buckets,
    redistribute_tuples,
    redistribute_tuples_single_phase,
)
from repro.distributed.dist_matrix import (
    DistMatrixBase,
    DynamicDistMatrix,
    StaticDistMatrix,
)
from repro.distributed.updates import (
    UpdateBatch,
    build_update_matrix,
    partition_tuples_round_robin,
)
from repro.distributed.serialization import (
    BlockCodecError,
    decode_block,
    decode_bloom,
    encode_block,
    encode_bloom,
)

__all__ = [
    "BlockDistribution",
    "IndexPermutation",
    "group_by_buckets",
    "redistribute_tuples",
    "redistribute_tuples_single_phase",
    "DistMatrixBase",
    "DynamicDistMatrix",
    "StaticDistMatrix",
    "UpdateBatch",
    "build_update_matrix",
    "partition_tuples_round_robin",
    "BlockCodecError",
    "encode_block",
    "decode_block",
    "encode_bloom",
    "decode_bloom",
]
