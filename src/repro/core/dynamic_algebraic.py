"""Algorithm 1 — MPI-parallel dynamic SpGEMM for algebraic updates.

Given ``C = A·B`` and updates expressible as semiring additions
(``A' = A ⊕ A*``, ``B' = B ⊕ B*``), distributivity yields::

    C' = (A ⊕ A*)·(B ⊕ B*) = C ⊕ A*·B' ⊕ A·B*  =  C ⊕ C*

so only ``C* = A*·B' ⊕ A·B*`` has to be computed.  The static SUMMA
algorithm would broadcast blocks of the *large* operands ``A`` and ``B'``;
Algorithm 1 instead broadcasts only the hypersparse ``A*`` / ``B*`` blocks
(after one transpose send/receive round that moves each block onto the
process row / column it must be broadcast over) and pays an extra
*non-local aggregation* of the partial results with the custom sparse
reduce-scatter of :mod:`repro.core.collectives`.

Per round ``k`` (of ``√p`` rounds), on every rank ``(i, j)``::

    X^i_{k,j} = A*_{k,i} · B'_{i,j}        (aggregated onto rank (k, j))
    Y^j_{i,k} = A_{i,j}  · B*_{j,k}        (aggregated onto rank (i, k))

After the loop every rank ``(i, j)`` holds ``X_{i,j}`` and ``Y_{i,j}`` and
applies ``C'_{i,j} = C_{i,j} ⊕ X_{i,j} ⊕ Y_{i,j}`` locally.

The whole computation follows the partial-mapping contract: every process
touches only the blocks of the logical ranks it owns, and the two
control-flow decisions — skipping a round / a per-root broadcast when the
update block is empty, and gating the sparse reduce-scatter on whether any
partial product is non-empty — are agreed through the uncharged
``host_merge`` / ``host_fold`` control plane so that every process (and
every world size) takes identical branches.  Empty hypersparse blocks are
*never* broadcast: a per-root nnz census skips them individually, which is
where the hypersparse update matrices actually save broadcast volume.

:func:`compute_cstar` returns the per-rank local blocks of ``C*`` for the
owned ranks — or, as the ``COMPUTE_PATTERN`` subroutine of Algorithm 2,
the Bloom filter ``F*`` whose coordinates are the pattern of ``C*``: the
reduce-scatter then ships each entry's coordinates and bits but no value;
:func:`dynamic_spgemm_algebraic` additionally folds ``C*`` into a dynamic
result matrix ``C``.
"""

from __future__ import annotations

from repro.core.collectives import (
    Broadcast,
    pipelined_broadcasts,
    reduce_line,
    sum_pieces,
    transpose_blocks,
)
from repro.runtime.grid import ProcessGrid
from repro.runtime.backend import Communicator
from repro.runtime.stats import StatCategory
from repro.semirings import Semiring, SemiringError
from repro.sparse import BloomFilterMatrix, COOMatrix, spgemm_local
from repro.distributed import BlockDistribution, DynamicDistMatrix
from repro.distributed.dist_matrix import DistMatrixBase

__all__ = ["compute_cstar", "dynamic_spgemm_algebraic"]


def _check_operands(
    grid: ProcessGrid,
    a: DistMatrixBase,
    b_prime: DistMatrixBase,
    a_star: DistMatrixBase | None,
    b_star: DistMatrixBase | None,
) -> tuple[int, int, int]:
    n, k_dim = a.shape
    k_dim2, m = b_prime.shape
    if k_dim != k_dim2:
        raise ValueError(
            f"inner dimensions do not match: A {a.shape} x B' {b_prime.shape}"
        )
    if a_star is not None and a_star.shape != a.shape:
        raise ValueError(f"A* shape {a_star.shape} does not match A shape {a.shape}")
    if b_star is not None and b_star.shape != b_prime.shape:
        raise ValueError(
            f"B* shape {b_star.shape} does not match B' shape {b_prime.shape}"
        )
    for op in (a, b_prime, a_star, b_star):
        if op is not None and op.grid.n_ranks != grid.n_ranks:
            raise ValueError("all operands must live on the same process grid")
    return n, k_dim, m


def _nnz_census(comm: Communicator, blocks: dict[int, object]) -> dict[int, int]:
    """Global ``rank -> nnz`` of a partial block mapping (control plane)."""
    return comm.host_merge({rank: int(blk.nnz) for rank, blk in blocks.items()})


class _Term:
    """One term of ``C*``: a hypersparse update times a large operand.

    ``left=True`` is the X-term ``A*·B'``: block ``A*_{k,i}`` is broadcast
    over process row ``i`` and ``X^i_{k,j}`` reduced over column ``j`` onto
    rank ``(k, j)``.  ``left=False`` is the Y-term ``A·B*``, its mirror
    image: ``B*_{j,k}`` travels over process column ``j`` and ``Y^j_{i,k}``
    is reduced over row ``i`` onto rank ``(i, k)``.

    Construction runs the transpose send/receive round that moves every
    update block onto the process row / column it is broadcast over, and the
    nnz census that makes every block's size globally known, so the
    empty-broadcast skips are identical on every process.
    """

    def __init__(
        self,
        comm: Communicator,
        grid: ProcessGrid,
        star: DistMatrixBase,
        operand: DistMatrixBase,
        *,
        left: bool,
    ) -> None:
        self.grid = grid
        self.left = left
        self.operand = operand
        self.star_t = transpose_blocks(comm, grid, star.blocks)
        self.nnz = _nnz_census(comm, self.star_t)
        self.bcast_group = grid.row_group if left else grid.col_group
        self.reduce_group = grid.col_group if left else grid.row_group
        #: broadcast line of a rank, also the inner block index it multiplies
        self.line_of = grid.row_of if left else grid.col_of

    def bcast_root(self, line: int, k: int) -> int:
        """Rank holding the round-``k`` update block of broadcast line ``line``."""
        return self.grid.rank_of(line, k) if self.left else self.grid.rank_of(k, line)

    def reduce_root(self, line: int, k: int) -> int:
        """Rank the round-``k`` partials of reduction line ``line`` land on."""
        return self.bcast_root(k, line)

    def plan(self, k: int) -> list[Broadcast]:
        """Round ``k``'s broadcasts; an empty update block is skipped."""
        roots = [self.bcast_root(line, k) for line in range(self.grid.q)]
        return [
            (root, self.star_t.get(root), self.bcast_group(line))
            if self.nnz[root]
            else None
            for line, root in enumerate(roots)
        ]


def compute_cstar(
    comm: Communicator,
    grid: ProcessGrid,
    a: DistMatrixBase,
    b_prime: DistMatrixBase,
    a_star: DistMatrixBase | None,
    b_star: DistMatrixBase | None = None,
    *,
    semiring: Semiring | None = None,
    compute_bloom: bool = False,
) -> dict[int, COOMatrix] | dict[int, BloomFilterMatrix]:
    """Compute the per-rank local blocks of ``C* = A*·B' ⊕ A·B*``.

    ``b_star=None`` means ``B* = 0`` (the Figure-9 workload, where only the
    left operand changes) and, symmetrically, ``a_star=None`` means
    ``A* = 0``: an absent term costs neither its transpose round nor any
    broadcast.

    Returns a *partial* mapping over the ranks this process owns, in the
    local coordinates of each rank's output block: the COO blocks of
    ``C*``, or with ``compute_bloom`` the Bloom filter ``F*`` of ``C*``
    instead (``COMPUTE_PATTERN`` in Algorithm 2).  Bit ``k mod 64`` of
    ``f*_{i,j}`` is set whenever the term with global inner index ``k``
    contributed to ``c*_{i,j}``, so every entry of ``C*`` — also one whose
    terms fold to the semiring zero — has a non-zero bitfield, and ``F*``'s
    coordinates are the pattern of ``C*``.  Algorithm 2 reads nothing else
    of ``C*``, so its values are then neither reduced nor folded: each
    reduced entry ships its coordinates and its bits only.
    """
    semiring = semiring if semiring is not None else a.semiring
    n, _k_dim, m = _check_operands(grid, a, b_prime, a_star, b_star)
    q = grid.q
    out_dist = BlockDistribution(n, m, grid)
    owned = comm.owned_ranks(grid.all_ranks())

    # X-term first, then Y-term: the order of the transpose rounds, of the
    # postings and of the per-round work below.
    terms: list[_Term] = []
    if a_star is not None:
        terms.append(_Term(comm, grid, a_star, b_prime, left=True))
    if b_star is not None:
        terms.append(_Term(comm, grid, b_star, a, left=False))

    partials: dict[int, list[COOMatrix]] = {r: [] for r in owned}
    blooms: dict[int, BloomFilterMatrix] = {}
    if compute_bloom:
        blooms = {r: BloomFilterMatrix(out_dist.block_shape_of_rank(r)) for r in owned}

    def _multiply_reduce(term: _Term, k: int, received: list) -> None:
        """Local multiplies of one term's round, then its sparse reductions."""
        for line in range(q):
            group_ranks = term.reduce_group(line)
            root = term.reduce_root(line, k)
            products: dict[int, tuple[COOMatrix | None, BloomFilterMatrix | None]] = {}
            for rank in comm.owned_ranks(group_ranks):
                got = received[term.line_of(rank)]
                if got is None:
                    continue
                star_blk, big_blk = got[rank], term.operand.blocks[rank]
                values, bloom = comm.run_local(
                    rank,
                    spgemm_local,
                    *((star_blk, big_blk) if term.left else (big_blk, star_blk)),
                    semiring,
                    compute_bloom=compute_bloom,
                    inner_offset=int(a.dist.col_offsets[term.line_of(rank)]),
                    category=StatCategory.LOCAL_MULT,
                )
                products[rank] = (None, bloom) if compute_bloom else (values, None)
            reduced, reduced_bloom = reduce_line(
                comm,
                group_ranks,
                root,
                products,
                semiring,
                shape=out_dist.block_shape_of_rank(root),
                with_bloom=compute_bloom,
            )
            if reduced_bloom is not None:
                blooms[root].or_inplace(reduced_bloom)
            elif reduced is not None and reduced.nnz:
                partials[root].append(reduced)

    # The hypersparse update blocks of round k+1 travel while round k's
    # multiplies and sparse reductions run; a term whose round-k update
    # blocks are all empty skips the round.
    for k, received in pipelined_broadcasts(
        comm, q, lambda k: [entry for term in terms for entry in term.plan(k)]
    ):
        for t, term in enumerate(terms):
            term_received = received[t * q : (t + 1) * q]
            if any(got is not None for got in term_received):
                _multiply_reduce(term, k, term_received)

    if compute_bloom:
        return blooms
    # Per-rank accumulation of the reduced contributions (owned ranks).
    return {
        rank: comm.run_local(
            rank,
            sum_pieces,
            partials[rank],
            out_dist.block_shape_of_rank(rank),
            semiring,
            category=StatCategory.LOCAL_MULT,
        )
        for rank in owned
    }


def dynamic_spgemm_algebraic(
    comm: Communicator,
    grid: ProcessGrid,
    a: DistMatrixBase,
    b_prime: DistMatrixBase,
    a_star: DistMatrixBase | None,
    b_star: DistMatrixBase | None,
    c: DynamicDistMatrix,
    *,
    semiring: Semiring | None = None,
    require_ring: bool = False,
) -> int:
    """Apply an algebraic update to the maintained product ``C``.

    Computes ``C* = A*·B' ⊕ A·B*`` with Algorithm 1 and folds it into ``C``
    (a dynamic distributed matrix) purely locally; either update may be
    ``None`` (that operand did not change).  Returns the *global*
    number of structural non-zeros of ``C*`` (i.e. how many result entries
    were touched), identical on every process.

    ``require_ring=True`` asserts that the semiring is a ring, i.e. that
    *every* conceivable update (including deletions) is expressible as an
    algebraic update; without it the caller is responsible for only feeding
    updates that are genuine semiring additions.
    """
    semiring = semiring if semiring is not None else c.semiring
    if require_ring and not semiring.is_ring:
        raise SemiringError(
            f"semiring {semiring.name!r} is not a ring; general updates must "
            "use dynamic_spgemm_general"
        )
    if c.shape != (a.shape[0], b_prime.shape[1]):
        raise ValueError(
            f"result shape {c.shape} does not match A x B' = "
            f"({a.shape[0]}, {b_prime.shape[1]})"
        )
    cstar_blocks = compute_cstar(
        comm, grid, a, b_prime, a_star, b_star, semiring=semiring
    )
    touched = 0
    for rank, cstar in cstar_blocks.items():
        if cstar.nnz == 0:
            continue
        touched += cstar.nnz
        block = c.blocks[rank]
        comm.run_local(
            rank,
            block.add_update,
            cstar,
            category=StatCategory.LOCAL_ADDITION,
        )
    return int(comm.host_fold(touched, lambda x, y: x + y))

