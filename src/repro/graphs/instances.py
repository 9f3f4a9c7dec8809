"""The Table-I instance catalogue and its scaled-down surrogates.

The paper's real-world inputs cannot be downloaded in this offline
environment and would not fit a pure-Python substrate, so every instance is
replaced by a *surrogate*: an R-MAT graph whose

* vertex count and edge count are the paper's values divided by a
  configurable ``scale_divisor`` (so the n : nnz ratio — average degree —
  is preserved),
* skew parameters are chosen per category (social networks are the most
  skewed, web crawls moderately, peer-to-peer the least),
* edges are read as undirected (both ``(u, v)`` and ``(v, u)`` are added),
  exactly as the paper constructs its adjacency matrices.

Surrogates keep the properties that drive the paper's results — degree
skew, density, relative instance ordering and the hypersparsity of update
matrices relative to the adjacency matrix — while staying small enough to
simulate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.rmat import rmat_edges

__all__ = [
    "GraphInstance",
    "TABLE1_INSTANCES",
    "get_instance",
    "list_instances",
    "generate_instance",
]

#: Default divisor applied to the paper's instance sizes.
DEFAULT_SCALE_DIVISOR = 16384

#: R-MAT skew parameters per instance category.
CATEGORY_PARAMS: dict[str, tuple[float, float, float, float]] = {
    "social": (0.57, 0.19, 0.19, 0.05),
    "web": (0.50, 0.22, 0.22, 0.06),
    "peer-to-peer": (0.45, 0.22, 0.22, 0.11),
}


@dataclass(frozen=True)
class GraphInstance:
    """One row of the paper's Table I."""

    #: instance name as used in the paper
    name: str
    #: data source in the paper (SNAP or Network Repository)
    source: str
    #: category / type column of Table I
    category: str
    #: number of vertices in the original instance
    n_full: int
    #: number of non-zeros (directed edge entries) in the original instance
    nnz_full: int

    def surrogate_size(self, scale_divisor: int = DEFAULT_SCALE_DIVISOR) -> tuple[int, int]:
        """(n, target undirected edge count) of the scaled surrogate."""
        n = max(64, int(self.n_full // scale_divisor))
        # nnz in Table I counts matrix non-zeros (both directions); the
        # generator produces undirected edges, each contributing two
        # non-zeros, hence the division by 2.
        edges = max(4 * n, int(self.nnz_full // scale_divisor) // 2)
        return n, edges


TABLE1_INSTANCES: dict[str, GraphInstance] = {
    inst.name: inst
    for inst in (
        GraphInstance("LiveJournal", "SNAP", "social", 4_000_000, 86_000_000),
        GraphInstance("orkut", "SNAP", "social", 3_000_000, 234_000_000),
        GraphInstance("tech-p2p", "Network Repository", "peer-to-peer", 5_000_000, 295_000_000),
        GraphInstance("indochina", "Network Repository", "web", 7_000_000, 304_000_000),
        GraphInstance("sinaweibo", "Network Repository", "social", 58_000_000, 522_000_000),
        GraphInstance("uk2002", "Network Repository", "web", 18_000_000, 529_000_000),
        GraphInstance("wikipedia", "Network Repository", "web", 27_000_000, 1_088_000_000),
        GraphInstance("PayDomain", "Network Repository", "web", 42_000_000, 1_165_000_000),
        GraphInstance("uk2005", "Network Repository", "web", 39_000_000, 1_581_000_000),
        GraphInstance("webbase", "Network Repository", "web", 118_000_000, 1_736_000_000),
        GraphInstance("twitter", "Network Repository", "social", 41_000_000, 2_405_000_000),
        GraphInstance("friendster", "SNAP", "social", 124_000_000, 3_612_000_000),
    )
}


def list_instances() -> list[str]:
    """Instance names in the order of the paper's Table I."""
    return list(TABLE1_INSTANCES)


def get_instance(name: str) -> GraphInstance:
    try:
        return TABLE1_INSTANCES[name]
    except KeyError:
        known = ", ".join(TABLE1_INSTANCES)
        raise KeyError(f"unknown instance {name!r}; known instances: {known}") from None


def generate_instance(
    name: str,
    *,
    scale_divisor: int = DEFAULT_SCALE_DIVISOR,
    seed: int | None = None,
    symmetrize: bool = True,
    weights: str = "uniform",
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Generate the scaled surrogate of a Table-I instance.

    Returns ``(n, rows, cols, values)`` of the adjacency matrix; with
    ``symmetrize=True`` (the paper reads all graphs as undirected) both
    ``(u, v)`` and ``(v, u)`` are present and de-duplicated.

    ``weights`` selects the value distribution: ``"uniform"`` draws from
    ``(0, 1]`` (suitable for ``(min, +)``), ``"ones"`` sets every value to 1.
    """
    inst = get_instance(name)
    n_target, edge_target = inst.surrogate_size(scale_divisor)
    if seed is None:
        seed = abs(hash(name)) % (2**31)
    params = CATEGORY_PARAMS.get(inst.category, CATEGORY_PARAMS["web"])
    # choose an R-MAT scale that covers n_target, then fold indices into
    # [0, n_target) to keep the requested vertex count exact.
    scale = max(1, int(np.ceil(np.log2(n_target))))
    edge_factor = max(1, int(np.ceil(edge_target / (1 << scale))))
    _n_pow2, src, dst = rmat_edges(
        scale,
        edge_factor,
        params=params,
        seed=seed,
        remove_self_loops=False,
    )
    src = src % n_target
    dst = dst % n_target
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if src.size > edge_target:
        src, dst = src[:edge_target], dst[:edge_target]
    if symmetrize:
        rows = np.concatenate([src, dst])
        cols = np.concatenate([dst, src])
    else:
        rows, cols = src, dst
    keys = rows * np.int64(n_target) + cols
    _, idx = np.unique(keys, return_index=True)
    idx.sort()
    rows, cols = rows[idx], cols[idx]
    rng = np.random.default_rng(seed + 1)
    if weights == "uniform":
        values = rng.random(rows.size) * 0.999 + 0.001
    elif weights == "ones":
        values = np.ones(rows.size, dtype=np.float64)
    else:
        raise ValueError(f"unknown weight distribution {weights!r}")
    return n_target, rows, cols, values
