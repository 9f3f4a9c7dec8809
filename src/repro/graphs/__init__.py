"""Graph substrate: generators, instance catalogue and workloads.

The paper evaluates on 12 large real-world graphs (Table I, 86 M – 3.6 B
edges, downloaded from SNAP / Network Repository) plus synthetic R-MAT
graphs with Graph500 parameters.  Neither the originals nor a cluster to
hold them is available here, so this package provides:

* :mod:`repro.graphs.rmat` — a vectorised R-MAT generator (Graph500
  parameters by default), used both for the paper's synthetic experiments
  and to synthesise surrogates of the real-world instances.
* :mod:`repro.graphs.random_graphs` — Erdős–Rényi and simple structured
  generators used by tests and examples.
* :mod:`repro.graphs.instances` — the Table-I catalogue: for every paper
  instance a scaled-down synthetic surrogate with the same category
  (social / web / peer-to-peer), the same n : nnz ratio and a skew chosen
  per category.
"""

from repro.graphs.rmat import GRAPH500_PARAMS, rmat_edges
from repro.graphs.random_graphs import erdos_renyi_edges, ring_of_cliques_edges
from repro.graphs.instances import (
    GraphInstance,
    TABLE1_INSTANCES,
    generate_instance,
    get_instance,
    list_instances,
)

__all__ = [
    "GRAPH500_PARAMS",
    "rmat_edges",
    "erdos_renyi_edges",
    "ring_of_cliques_edges",
    "GraphInstance",
    "TABLE1_INSTANCES",
    "generate_instance",
    "get_instance",
    "list_instances",
]
