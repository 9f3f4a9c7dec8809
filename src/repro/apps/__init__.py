"""Algebraic graph applications built on the dynamic SpGEMM API.

The paper motivates dynamic SpGEMM with graph workloads whose inputs change
over time (Section I).  This package implements three such applications on
top of :class:`repro.core.DynamicProduct`:

* :mod:`repro.apps.triangle_counting` — triangle counting via the masked
  product ``(A·A) ∘ A``, maintained as edges are inserted.
* :mod:`repro.apps.shortest_paths` — multi-source shortest paths in the
  ``(min, +)`` semiring, maintained under edge insertions, weight changes
  and deletions (the general-update algorithm).
* :mod:`repro.apps.contraction` — graph contraction / coarsening expressed
  as ``Sᵀ·A·S`` with a cluster-membership matrix ``S``.

All three are wired into the scenario engine (see
:mod:`repro.scenarios`): the app-aware executor maintains the incremental
state across a scenario's update steps, and the query steps
(``TriangleCountCheck``, ``ShortestPathCheck``, ``ContractStep``) record
byte-comparable results.  Global float reductions go through
:func:`repro.apps.reductions.rank_ordered_sum` so query results are
byte-identical across backends and world sizes.
"""

from repro.apps.triangle_counting import DynamicTriangleCounter, count_triangles_reference
from repro.apps.shortest_paths import (
    DynamicMultiSourceShortestPaths,
    distances_to_tuples,
    sssp_minplus_reference,
    sssp_reference,
)
from repro.apps.contraction import contract_graph
from repro.apps.reductions import rank_ordered_sum

__all__ = [
    "DynamicTriangleCounter",
    "count_triangles_reference",
    "DynamicMultiSourceShortestPaths",
    "sssp_reference",
    "sssp_minplus_reference",
    "distances_to_tuples",
    "contract_graph",
    "rank_ordered_sum",
]
