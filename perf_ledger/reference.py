"""Reference models the benchmark checks the program's outputs against.

Built from the generated inputs with NumPy and ``scipy.sparse`` only — none
of the program's kernels are used, so a kernel bug cannot agree with itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from perf_ledger.gen import EdgePool

Tuples = tuple[np.ndarray, np.ndarray, np.ndarray]


class PoolState:
    """Replay of insert / update / delete semantics over an edge pool.

    ``insert`` ⊕-combines with an existing entry (``additive=True``, the
    plain update path) or overwrites it (``additive=False``, the general
    dynamic-SpGEMM path, where inserts are MERGE updates); ``update``
    overwrites or creates; ``delete`` removes.  ``index`` never repeats an
    edge inside one call (the generators guarantee it).
    """

    def __init__(self, pool: EdgePool, *, additive: bool = True) -> None:
        self.pool = pool
        self.additive = additive
        self.present = np.zeros(pool.size, dtype=bool)
        self.value = np.zeros(pool.size, dtype=np.float64)

    def apply(self, kind: str, index: np.ndarray, values: np.ndarray) -> None:
        if kind == "delete":
            self.present[index] = False
            return
        if kind == "insert" and self.additive:
            values = np.where(self.present[index], self.value[index], 0.0) + values
        self.value[index] = values
        self.present[index] = True

    def tuples(self) -> Tuples:
        """Present entries sorted by (row, col)."""
        rows, cols = self.pool.rows[self.present], self.pool.cols[self.present]
        order = np.argsort(rows * np.int64(self.pool.n) + cols, kind="stable")
        return rows[order], cols[order], self.value[self.present][order]

    def csr(self) -> sp.csr_matrix:
        rows, cols, vals = self.tuples()
        n = self.pool.n
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def csr_tuples(matrix) -> Tuples:
    """Non-zero entries of a scipy matrix sorted by (row, col)."""
    coo = sp.coo_matrix(matrix)
    coo.sum_duplicates()
    keep = coo.data != 0
    rows = coo.row[keep].astype(np.int64)
    cols = coo.col[keep].astype(np.int64)
    order = np.argsort(rows * np.int64(coo.shape[1]) + cols, kind="stable")
    return rows[order], cols[order], coo.data[keep][order]


def same_tuples(got: Tuples, want: Tuples, *, rtol: float = 1e-9) -> bool:
    """Same structure and values up to round-off; explicit zeros ignored."""
    keep = np.asarray(got[2]) != 0
    rows, cols, vals = (np.asarray(part)[keep] for part in got)
    return bool(
        rows.size == want[0].size
        and np.array_equal(rows, want[0])
        and np.array_equal(cols, want[1])
        and np.allclose(vals, want[2], rtol=rtol, atol=0.0)
    )


def simple_graph(n: int, rows: np.ndarray, cols: np.ndarray) -> sp.csr_matrix:
    """0/1 adjacency of the simple undirected graph over the given edges."""
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    adj = ((adj + adj.T) > 0).astype(np.float64)
    adj.setdiag(0)
    adj.eliminate_zeros()
    return adj


def triangle_count(adj: sp.csr_matrix) -> int:
    """Triangles of a simple undirected graph: ``sum(A² ∘ A) / 6``."""
    return int(round((adj @ adj).multiply(adj).sum() / 6.0))


def contraction(adjacency: sp.csr_matrix, clusters: np.ndarray, k: int) -> Tuples:
    """``Sᵀ·A·S`` for the cluster-membership matrix ``S``."""
    n = adjacency.shape[0]
    s = sp.csr_matrix((np.ones(n), (np.arange(n), clusters)), shape=(n, k))
    return csr_tuples(s.T @ adjacency @ s)
