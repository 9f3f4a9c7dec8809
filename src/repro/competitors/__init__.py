"""Simulated competitor frameworks.

The paper compares against CombBLAS 2.0, CTF 1.35 and PETSc 3.17.1.  Those
frameworks are not available here (and would need a real cluster), so this
package re-implements *how each of them handles dynamic workloads* on top
of the same simulated runtime and local kernels:

* :class:`CombBLASBackend` — 2D grid of static doubly-compressed blocks;
  updates require assembling an update matrix with a comparison sort plus a
  single global ``ALLTOALL`` and then *rebuilding* the static storage.
* :class:`CTFBackend` — cyclic data layout; every write epoch redistributes
  and re-sorts **all** non-zeros of the matrix, which is why CTF is orders
  of magnitude slower for small batches.
* :class:`PETScBackend` — 1D row distribution, CSR storage rebuilt through
  ``MatSetValues``-style per-element insertion plus a full matrix assembly;
  no deletion support and no configurable semirings.

The paper's own approach is not a backend here: it is the repository's
:class:`~repro.distributed.DynamicDistMatrix` machinery, replayed by
:class:`~repro.scenarios.NativeExecutor`.

The SpGEMM-side baselines (static SUMMA recomputation, 1D PETSc-style
``MatMatMult``) and the per-batch protocol each framework follows over an
update stream (:func:`spgemm_stream`) live in
:mod:`repro.competitors.spgemm_baselines`.

The point of these backends is to reproduce the *relative shape* of the
paper's comparisons (who wins, how the gap shrinks as batches grow), not
the absolute constants of the closed-source implementations.
"""

from repro.competitors.base import Backend, UnsupportedOperation, get_backend
from repro.competitors.combblas import CombBLASBackend
from repro.competitors.ctf import CTFBackend
from repro.competitors.petsc import PETScBackend
from repro.competitors.spgemm_baselines import spgemm_stream

__all__ = [
    "Backend",
    "UnsupportedOperation",
    "get_backend",
    "CombBLASBackend",
    "CTFBackend",
    "PETScBackend",
    "spgemm_stream",
]
