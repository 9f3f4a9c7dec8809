"""Seeded input generators of the perf ledger (NumPy only, no ``repro``).

Every workload input is made here, in the benchmark's own process, from
``--seed``; the program under test only ever receives the arrays.  The
generators deliberately do not use ``repro.graphs`` or
``repro.scenarios.generators``: the benchmark must keep producing the same
inputs when those modules change.

What the seed varies and what it does not.  Each workload is a fixed *data
set*: the R-MAT instances, which of their edges every batch or request
touches, the tenant of every request and the arrival schedule are drawn
from :data:`INSTANCE_SEED`.  The ``--seed`` draws the vertex relabelling
(so every coordinate, and the rank that owns it, changes), every value, the
order of the tuples inside a batch and — inside the program — the scatter
of every batch over the ranks.  Two seeds therefore give isomorphic work:
when the structure was drawn from the seed as well, the hubs of a
scale-10..13 R-MAT graph moved ``comm_bytes`` by 5 % and ``wall_s`` by
10-20 % from seed to seed, and the triangle tenant's share of the requests
moved ``comm_messages`` by 10 % — more than a regression worth catching.

Two rules keep the outputs checkable by a plain reference model:

* update tuples are drawn *by index* from a de-duplicated edge pool, so the
  reference state is two flat arrays (``present``, ``value``) over the pool;
* no coordinate repeats inside one value-overwrite batch (or inside one run
  of service requests that may coalesce into one step): "last write wins"
  among duplicates depends on the program's scatter order and is not part
  of its contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("insert", "update", "delete")

#: Graph500 R-MAT quadrant probabilities
_RMAT = (0.57, 0.19, 0.19, 0.05)

#: seed of everything that makes up the fixed data set of a workload
INSTANCE_SEED = 20220208


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng([int(seed), int(stream)])


def fixed_rng(*key: int) -> np.random.Generator:
    """The generator of one part of the data set (the same for every seed)."""
    return np.random.default_rng([INSTANCE_SEED, *key])


def rmat_edges(scale: int, edge_factor: int, rng: np.random.Generator):
    """R-MAT edge list (multi-edges kept): ``(n, src, dst)``."""
    a, b, c, _d = _RMAT
    n = 1 << scale
    m = n * edge_factor
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for level in range(scale):
        r = rng.random(m)
        bit = np.int64(1 << (scale - 1 - level))
        src += (r >= a + b) * bit
        dst += (((r >= a) & (r < a + b)) | (r >= a + b + c)) * bit
    return n, src, dst


@dataclass
class EdgePool:
    """The de-duplicated edges of one instance under one relabelling.

    Index ``i`` is the same edge of the instance for every seed; only its
    coordinates change with the relabelling.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray

    @property
    def size(self) -> int:
        return int(self.rows.size)


def edge_pool(scale: int, edge_factor: int, label: np.ndarray, instance: int = 0) -> EdgePool:
    """Instance ``instance`` of the given size under the relabelling ``label``.

    Operands of one product share ``label``, so that A·B keeps the
    structure the two instances have in common label space.
    """
    fixed = fixed_rng(scale, instance)
    n, src, dst = rmat_edges(scale, edge_factor, fixed)
    keys = np.unique(src * np.int64(n) + dst)
    fixed.shuffle(keys)
    return EdgePool(n, label[keys // n], label[keys % n])


def values(rng: np.random.Generator, size: int) -> np.ndarray:
    """Strictly positive weights: products never cancel to zero."""
    return rng.uniform(0.5, 1.5, size)


@dataclass
class Batch:
    """One update batch: pool indices, values and the update kind."""

    kind: str
    index: np.ndarray
    values: np.ndarray


def pool_batches(
    pool: EdgePool, n_batches: int, batch_size: int, fixed, rng, kinds=KINDS
) -> list[Batch]:
    """Batches cycling through ``kinds``; no repeated edge inside a batch.

    ``fixed`` picks the edges of each batch, ``rng`` their order and values.
    """
    size = min(batch_size, pool.size)
    return [
        Batch(
            kinds[i % len(kinds)],
            rng.permutation(fixed.choice(pool.size, size, replace=False)),
            values(rng, size),
        )
        for i in range(n_batches)
    ]


@dataclass
class Request:
    """One service request: tenant, arrival tick, kind and pool indices."""

    tenant: str
    tick: float
    kind: str
    index: np.ndarray
    values: np.ndarray
    #: name of the tenant to query after this request, or None
    query: str | None = None


def service_requests(
    pools: dict[str, EdgePool],
    shares: dict[str, float],
    n_requests: int,
    fixed,
    rng,
    *,
    query_every: int,
    query_rotation: tuple[str, ...],
    run_length: int = 4,
) -> list[Request]:
    """A request stream over the tenants in ``pools``.

    ``fixed`` draws the schedule, the tenants, the sizes and the edges;
    ``rng`` the order of the tuples inside a request and their values.

    Arrival ticks follow an exponential schedule with mean 1 on the
    service's logical clock; every ``query_every``-th request is followed
    by a query on the next tenant of ``query_rotation``.  ``churn`` switches
    kind every ``run_length`` of its requests and the tuples of one run are
    drawn without replacement, so requests that coalesce never overwrite
    one coordinate twice.  ``tri`` requests are a quarter of the size.
    """
    names = list(shares)
    owner = fixed.permutation(
        np.repeat(np.arange(len(names)), [round(shares[t] * n_requests) for t in names])
    )
    n_requests = owner.size
    ticks = np.cumsum(fixed.exponential(1.0, n_requests))
    sizes = fixed.integers(4, 17, n_requests)
    counts = dict.fromkeys(names, 0)
    runs: dict[str, np.ndarray] = {}
    out: list[Request] = []
    queries = 0
    for i in range(n_requests):
        tenant = names[owner[i]]
        pool = pools[tenant]
        size = int(sizes[i]) if tenant != "tri" else max(1, int(sizes[i]) // 4)
        k = counts[tenant]
        counts[tenant] = k + 1
        if tenant == "churn":
            kind = KINDS[(k // run_length) % 3]
            if k % run_length == 0:
                runs[tenant] = fixed.permutation(pool.size)[: 16 * run_length]
            start = 16 * (k % run_length)
            index = runs[tenant][start : start + size]
        else:
            kind = "insert"
            index = fixed.choice(pool.size, size, replace=False)
        index = rng.permutation(index)
        request = Request(tenant, float(ticks[i]), kind, index, values(rng, index.size))
        if (i + 1) % query_every == 0:
            request.query = query_rotation[queries % len(query_rotation)]
            queries += 1
        out.append(request)
    return out
