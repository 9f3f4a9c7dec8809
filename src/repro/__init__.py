"""repro — Fast Dynamic Updates and Dynamic SpGEMM on (simulated) MPI-Distributed Graphs.

A from-scratch Python reproduction of

    A. van der Grinten, G. Custers, D. Le Thanh, H. Meyerhenke:
    "Fast Dynamic Updates and Dynamic SpGEMM on MPI-Distributed Graphs",
    IEEE CLUSTER 2022 (arXiv:2202.08808).

The package provides

* a simulated MPI runtime (:mod:`repro.runtime`),
* local sparse matrix layouts — CSR, doubly-compressed CSR and the DHB
  dynamic layout (:mod:`repro.sparse`) over arbitrary semirings
  (:mod:`repro.semirings`),
* 2D-distributed dynamic and static matrices with fast batch updates
  (:mod:`repro.distributed`),
* the paper's dynamic SpGEMM algorithms and the high-level
  :class:`~repro.core.DynamicProduct` API (:mod:`repro.core`),
* simulated CombBLAS / CTF / PETSc competitor backends
  (:mod:`repro.competitors`),
* graph generators and the Table-I surrogate catalogue (:mod:`repro.graphs`),
* applications (triangle counting, shortest paths, contraction;
  :mod:`repro.apps`) and the benchmark harness reproducing every table and
  figure of the paper (:mod:`repro.bench`),
* replayable, fully seeded dynamic-graph scenarios and the cross-backend
  replay driver (:mod:`repro.scenarios`),
* unified performance instrumentation — counters and the
  ``BENCH_*.json`` regression harness
  (:mod:`repro.perf`).
"""

from repro.semirings import (
    BOOLEAN,
    MAX_MIN,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    PLUS_TIMES,
    Semiring,
    SemiringError,
    get_semiring,
)
from repro.runtime import (
    CommStats,
    Communicator,
    MPIBackend,
    MachineModel,
    ProcessGrid,
    SimMPI,
    StatCategory,
    make_communicator,
)
from repro.sparse import (
    BloomFilterMatrix,
    COOMatrix,
    CSRMatrix,
    DCSRMatrix,
    DHBMatrix,
    spgemm_local,
    spgemm_local_masked,
)
from repro.distributed import (
    BlockDistribution,
    DynamicDistMatrix,
    IndexPermutation,
    StaticDistMatrix,
    UpdateBatch,
    build_update_matrix,
    partition_tuples_round_robin,
)
from repro.core import (
    DynamicProduct,
    compute_cstar,
    dynamic_spgemm_algebraic,
    dynamic_spgemm_general,
    summa_spgemm,
    transpose_dist,
)
from repro.scenarios import (
    Scenario,
    ScenarioResult,
    library_scenarios,
    replay,
)
from repro.perf import PerfRecorder, use_recorder

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # semirings
    "Semiring",
    "SemiringError",
    "PLUS_TIMES",
    "MIN_PLUS",
    "MAX_PLUS",
    "MAX_MIN",
    "MAX_TIMES",
    "BOOLEAN",
    "get_semiring",
    # runtime
    "Communicator",
    "SimMPI",
    "MPIBackend",
    "make_communicator",
    "ProcessGrid",
    "MachineModel",
    "CommStats",
    "StatCategory",
    # sparse
    "COOMatrix",
    "CSRMatrix",
    "DCSRMatrix",
    "DHBMatrix",
    "BloomFilterMatrix",
    "spgemm_local",
    "spgemm_local_masked",
    # distributed
    "BlockDistribution",
    "IndexPermutation",
    "DynamicDistMatrix",
    "StaticDistMatrix",
    "UpdateBatch",
    "build_update_matrix",
    "partition_tuples_round_robin",
    # core
    "DynamicProduct",
    "summa_spgemm",
    "dynamic_spgemm_algebraic",
    "dynamic_spgemm_general",
    "compute_cstar",
    "transpose_dist",
    # scenarios
    "Scenario",
    "ScenarioResult",
    "library_scenarios",
    "replay",
    # perf
    "PerfRecorder",
    "use_recorder",
]
