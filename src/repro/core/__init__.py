"""The paper's primary contribution: distributed dynamic SpGEMM.

Modules
-------
* :mod:`repro.core.collectives` — every communication pattern of the
  algorithms below, written once: the pipelined ``√p``-round broadcasts,
  the transpose send/receive round and the custom sparse reduce-scatter
  of Section VI-A (with its bitwise-OR twin for Bloom-filter matrices).
* :mod:`repro.core.summa` — static sparse SUMMA, the "algorithm of choice"
  baseline that CombBLAS uses and that the dynamic algorithms replace.
* :mod:`repro.core.dynamic_algebraic` — Algorithm 1 (algebraic updates):
  ``C' = C + A*·B' + A·B*`` with broadcasts of only the hypersparse update
  blocks.
* :mod:`repro.core.dynamic_general` — Algorithm 2 (general updates): masked
  recomputation of the affected entries of ``C`` driven by 64-bit Bloom
  filters.
* :mod:`repro.core.transpose` — distributed transposition helpers
  (Section V-C).
* :mod:`repro.core.api` — :class:`DynamicProduct`, the high-level
  maintained-product interface used by the examples and applications.
"""

from repro.core.summa import summa_spgemm
from repro.core.dynamic_algebraic import dynamic_spgemm_algebraic, compute_cstar
from repro.core.dynamic_general import dynamic_spgemm_general
from repro.core.transpose import transpose_dist
from repro.core.api import DynamicProduct

__all__ = [
    "summa_spgemm",
    "dynamic_spgemm_algebraic",
    "compute_cstar",
    "dynamic_spgemm_general",
    "transpose_dist",
    "DynamicProduct",
]
