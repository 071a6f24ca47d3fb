"""Non-overlapping Schur-complement domain decomposition with block-Jacobi CG.

Each rank condenses its domain onto the shared boundary; the boundary
problem is solved by the preconditioned conjugate gradient with owner-only
dot products, where a boundary dof is owned by the lowest rank holding it
(rank 0 owns its whole boundary, later ranks may own nothing).  The
condensation is sparse (Smith, Bjorstad & Gropp, Domain Decomposition, CUP
1996, ch. 4): only the boundary columns coupled to the interior (``cpl``)
reach the interior solve, S = A_bb - A_bI A_II^-1 A_Ib is A_bb plus a dense
cpl x cpl block on a pattern fixed by dd_layout, and an owner receives only
S's values on its preconditioner block.  The cpl x cpl block comes from
sparsela.schur_product: W^T W with W = L^-1 A_Ib from one triangular solve
when the interior block has a dense Cholesky factor (at most
sparsela.DENSE_MAX dofs), A_bI (A_II^-1 A_Ib) from SuperLU otherwise.  A
singular interior block is factorized shifted (interior solves then
refined), a singular preconditioner block shifted row by row
(_preconditioner_shifted).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .reference import assemble_reference
from .runtime import RankContext
from .sparsela import (SHIFT, CgReport, CscPattern, SingularMatrixError, factorize, pcg, refine,
                       schur_product, shifted, solve)

__all__ = ["DdLayout", "DdResult", "boundary_exchange", "condense", "dd_layout",
           "dd_solve_from_triplets", "reference_rank_triplets"]

# safety cap of the boundary CG; a semi-definite boundary problem converges
# well before it (see _preconditioner_shifted)
CG_ITER_MAX = 400
# relative diagonal shift of a singular preconditioner block: above the
# round-off of the condensation, which outgrows sparsela.SHIFT
PRECOND_SHIFT = 1e-6


@dataclass
class DdResult:
    x: np.ndarray          # full solution (every rank)
    warm: np.ndarray       # this rank's boundary shard for restarts
    report: CgReport
    shifted: bool          # some rank factorized a shifted (singular) F_II or F_M
    factor_flops: int      # of every rank's F_II and F_M


def _factorize(A, shift=shifted):
    """(factorize(A), False), or (factorize(shift(A)), True) when A is singular."""
    try:
        return factorize(A), False
    except SingularMatrixError:
        return factorize(shift(A)), True


def _preconditioner_shifted(M):
    """M + diag(s) for a singular preconditioner block M.

    s is PRECOND_SHIFT |M_ii| (1 on an empty row), so that dofs of tiny
    diagonal keep their weight, and SHIFT max|diag(M)| on a row that round-off
    has made indefinite: a negative diagonal entry, or the smaller diagonal of
    a pair with M_ij^2 > M_ii M_jj.
    """
    d = M.diagonal()
    U = sp.triu(M, 1).tocoo()
    pair = U.data ** 2 > d[U.row] * d[U.col]
    noisy = d < 0.0
    noisy[np.where(np.abs(d[U.row]) <= np.abs(d[U.col]), U.row, U.col)[pair]] = True
    s = np.where(d == 0.0, 1.0, PRECOND_SHIFT * np.abs(d))
    s[noisy] = SHIFT * np.abs(d).max()
    return M + sp.diags(s)


@dataclass
class DdLayout:
    """One rank's dd structure for a fixed triplet list, built once by dd_layout.

    The local dofs are numbered interior first, then shared boundary dofs
    (each part ascending); the triplets sum onto ``pattern`` and load entry
    i adds to local dof ``b_loc[i]``.  S sums A's data at ``a_bb`` (the
    A_bb entries) followed by minus the row-major cpl x cpl block of
    A_bI A_II^-1 A_Ib onto ``s_pattern``; the owned preconditioner block
    M_jj sums S's data at ``m_own`` followed by the values each co-rank
    sends, in ascending rank order, onto ``m_pattern``.  A dot product sends
    values only and sums them in ``dot_order``.
    """

    dofs: np.ndarray            # global id of each local dof
    nI: int                     # interior dofs
    pattern: CscPattern
    b_loc: np.ndarray
    owner: np.ndarray           # owning rank per boundary dof
    co_ranks: list              # ranks sharing a boundary dof with this one
    send_idx: dict              # co-rank -> boundary positions shared with it
    cpl: np.ndarray             # boundary positions coupled to the interior
    a_bb: np.ndarray            # positions of the A_bb entries in A's data
    s_pattern: CscPattern
    m_send: dict                # co-rank -> S slots of the block it owns
    m_own: np.ndarray           # S slots of the block this rank owns
    m_pattern: CscPattern
    dot_order: np.ndarray       # stable order of every rank's owned boundary dofs, in rank order
    blocks: dict                # block name -> its CSC structure, data = positions in A's data

    def block(self, A, name):
        """A's block II, bI (cpl rows), Ib (cpl columns), BI or IB, read from A's data at
        the positions dd_layout sliced once, so equal to slicing A bitwise."""
        b = self.blocks[name]
        return sp.csc_matrix((A.data[b.data], b.indices, b.indptr), shape=b.shape)


def dd_layout(ctx: RankContext, trips, bvecs) -> DdLayout:
    """Build the dd layout of a triplet list (collective over ctx).

    trips: (rows, cols[, vals]) and bvecs (idx[, vals]) in global dof
    indices, in the order their values will be given; this rank's dofs are
    the ones they name.
    """
    cat = lambda items, i: np.concatenate([np.zeros(0, np.int64)] + [t[i] for t in items])
    rows, cols, idx = cat(trips, 0), cat(trips, 1), cat(bvecs, 0)
    dofs = np.unique(np.concatenate([rows, cols, idx]))
    # held[r, i]: rank r holds dofs[i]; a shared dof is owned by its lowest holder
    all_dofs = ctx.allgather(dofs)
    held = np.array([np.isin(dofs, dl) for dl in all_dofs])
    shared = held.sum(axis=0) >= 2
    # owner of every shared dof: ranks send their owned values in rank order
    _, first, count = np.unique(np.concatenate(all_dofs), return_index=True, return_counts=True)
    owners = np.repeat(np.arange(ctx.size), [len(d) for d in all_dofs])[first[count >= 2]]
    order = np.concatenate([np.nonzero(~shared)[0], np.nonzero(shared)[0]])
    local = np.empty(len(dofs), dtype=np.int64)
    local[order] = np.arange(len(dofs))
    b_held = held[:, shared]
    b_dofs = dofs[shared]
    nI, nb = int((~shared).sum()), len(b_dofs)
    owner = np.argmax(b_held, axis=0)
    co_ranks = [q for q in range(ctx.size) if q != ctx.rank and b_held[q].any()]
    lidx = lambda g: local[np.searchsorted(dofs, g)]
    pattern = CscPattern.of(lidx(rows), lidx(cols), (len(dofs), len(dofs)))

    # S: the A_bb entries plus the dense block of the boundary dofs coupled to the interior
    r, c = pattern.indices, np.repeat(np.arange(len(dofs)), np.diff(pattern.indptr))
    a_bb = np.nonzero((r >= nI) & (c >= nI))[0]
    cpl = np.unique(np.concatenate([c[(r < nI) & (c >= nI)], r[(r >= nI) & (c < nI)]])) - nI
    s_pattern = CscPattern.of(np.concatenate([r[a_bb] - nI, np.repeat(cpl, len(cpl))]),
                              np.concatenate([c[a_bb] - nI, np.tile(cpl, len(cpl))]), (nb, nb))
    # preconditioner: the S entries whose row and column one rank owns go to it
    s_r, s_c = s_pattern.indices, np.repeat(np.arange(nb), np.diff(s_pattern.indptr))
    block = np.where(owner[s_r] == owner[s_c], owner[s_r], -1)
    m_send = {q: np.nonzero(block == q)[0] for q in co_ranks}
    for q in co_ranks:
        ctx.send(q, (b_dofs[s_r[m_send[q]]], b_dofs[s_c[m_send[q]]]), tag=44)
    m_own = np.nonzero(block == ctx.rank)[0]
    m_ij = [(b_dofs[s_r[m_own]], b_dofs[s_c[m_own]])] + [ctx.recv(q, tag=44) for q in co_ranks]
    j_dofs = b_dofs[owner == ctx.rank]
    m_rows, m_cols = (np.searchsorted(j_dofs, np.concatenate(g)) for g in zip(*m_ij))
    # the blocks condense and the solve take of A: slice a matrix of 1-based data positions once
    slot = sp.csc_matrix((np.arange(1, len(pattern.indices) + 1), pattern.indices,
                          pattern.indptr), shape=pattern.shape)
    I, B, C = slice(0, nI), slice(nI, len(dofs)), nI + cpl
    blocks = {k: slot[i, j] for k, (i, j) in
              dict(II=(I, I), bI=(C, I), Ib=(I, C), BI=(B, I), IB=(I, B)).items()}
    for b in blocks.values():
        b.data -= 1
    return DdLayout(
        dofs[order], nI, pattern, lidx(idx), owner, co_ranks,
        {q: np.nonzero(b_held[q])[0] for q in co_ranks}, cpl, a_bb, s_pattern, m_send, m_own,
        CscPattern.of(m_rows, m_cols, (len(j_dofs), len(j_dofs))),
        np.argsort(np.argsort(owners, kind="stable")), blocks)


def condense(A, lay: DdLayout):
    """Schur complement of a rank's assembled matrix onto its boundary (no communication).

    A is the local CSC matrix on lay.pattern.  Returns S = A_bb - A_bI
    A_II^-1 A_Ib on lay.s_pattern, the interior solver (refined against A_II
    when shifted), whether A_II was shifted and its factor_flops.  Only the
    coupled columns lay.cpl are solved, in one call: through
    sparsela.schur_product, or with refinement when shifted.  S is bitwise
    the formula on the cpl columns with the same factor (A_bb elsewhere),
    and within 1e-12 of SuperLU's with every boundary column solved.
    """
    A_II = lay.block(A, "II")
    F_II, shift = _factorize(A_II)

    def solve_II(rhs):
        x = solve(F_II, rhs)
        return refine(F_II, A_II, rhs, x)[0] if shift else x

    A_bI, A_Ib = lay.block(A, "bI"), lay.block(A, "Ib")
    C = A_bI @ solve_II(A_Ib.toarray()) if shift else schur_product(F_II, A_bI, A_Ib)
    S = lay.s_pattern.assemble(np.concatenate([A.data[lay.a_bb], -C.ravel()]))
    return S, solve_II, shift, F_II.factor_flops


def _add_shared(lay: DdLayout, vec, parts):
    """vec plus each co-rank's values at the positions shared with it, in ascending rank order."""
    out = vec.copy()
    for q, part in zip(lay.co_ranks, parts):
        out[lay.send_idx[q]] += part
    return out


def boundary_exchange(ctx: RankContext, lay: DdLayout, S, B_b):
    """Assembled shared load and owned preconditioner block (collective).

    One message per co-rank carries this rank's load values shared with it
    and S's values on the block it owns.  Returns (B_b summed over the
    holders, M_jj = the owned block of S summed in ascending rank order).
    """
    for q in lay.co_ranks:
        ctx.send(q, (B_b[lay.send_idx[q]], S.data[lay.m_send[q]]), tag=41)
    parts = [ctx.recv(q, tag=41) for q in lay.co_ranks]
    M_jj = lay.m_pattern.assemble(np.concatenate([S.data[lay.m_own]] + [m for _, m in parts]))
    return _add_shared(lay, B_b, [b for b, _ in parts]), M_jj


def dd_solve_from_triplets(ctx: RankContext, n: int, trips, bvecs, eps: float,
                           warm: np.ndarray | None = None, layout: DdLayout | None = None):
    """Solve a distributed SPD system given per-rank assembly triplets.

    trips are (rows, cols, vals) and bvecs (idx, vals) in global dof
    indices; each list is summed in its order.  layout, from dd_layout over
    the same structure, is built here (collective) when not given.  warm is
    this rank's boundary shard of an earlier solve.  Raises on a single
    rank: the decomposition needs at least two domains.
    """
    if ctx.size == 1:
        raise ValueError("domain decomposition does not handle the single domain case")

    lay = layout if layout is not None else dd_layout(ctx, trips, bvecs)
    A = lay.pattern.assemble(np.concatenate([np.zeros(0)] + [t[2] for t in trips]))
    B = np.bincount(lay.b_loc, weights=np.concatenate([np.zeros(0)] + [t[1] for t in bvecs]),
                    minlength=len(lay.dofs))
    nI, owner, co_ranks, send_idx = lay.nI, lay.owner, lay.co_ranks, lay.send_idx
    owned_mask = owner == ctx.rank
    j_local = np.nonzero(owned_mask)[0]

    S, solve_II, shift, flops = condense(A, lay)
    B_I = B[:nI]
    B_b, M_jj = boundary_exchange(ctx, lay, S, B[nI:] - lay.block(A, "BI") @ solve_II(B_I))
    # block-Jacobi preconditioner on owned boundary blocks
    F_M, shift_M = _factorize(M_jj, _preconditioner_shifted) if len(j_local) else (None, False)
    flops += F_M.factor_flops if F_M is not None else 0

    def apply_S(x):
        y = S @ x
        for r in co_ranks:
            ctx.send(r, y[send_idx[r]], tag=41)
        return _add_shared(lay, y, [ctx.recv(r, tag=41) for r in co_ranks])

    def apply_M(r_vec):
        z = np.zeros_like(r_vec)
        if F_M is not None:
            z[j_local] = solve(F_M, r_vec[j_local])
        # owner values broadcast to co-holders
        for r in co_ranks:
            ctx.send(r, z[send_idx[r][owned_mask[send_idx[r]]]], tag=43)
        for r in co_ranks:
            z[owner == r] = ctx.recv(r, tag=43)
        return z

    j_dofs = lay.dofs[nI:][j_local]

    def dot(u, v):
        return ctx.all_reduce_permuted_sum(u[j_local] * v[j_local], lay.dot_order)

    x0 = warm if warm is not None and len(warm) == len(owner) else np.zeros(len(owner))
    x_b, report = pcg(x0, apply_S, B_b, apply_M, eps, iter_max=CG_ITER_MAX, dot=dot)
    X_I = solve_II(B_I - lay.block(A, "IB") @ x_b)

    # every rank builds x from the same rank-ordered list
    parts = ctx.allgather((np.concatenate([lay.dofs[:nI], j_dofs]),
                           np.concatenate([X_I, x_b[j_local]]), shift or shift_M, flops))
    x = np.zeros(n)
    for idx, v, _, _ in parts:
        x[idx] = v
    return DdResult(x, x_b, report, any(p[2] for p in parts), sum(p[3] for p in parts))


def reference_rank_triplets(nested, partition, material, loads, plan, rank):
    """This rank's share of A_rr, B_r as dd_solve_from_triplets items: one item, the
    reference assembly over the rank's elements, the load on its matrix rows."""
    system = assemble_reference(nested, partition, material, loads, plan.elements_of(rank))
    A = system.A_rr.tocoo()
    idx = np.unique(A.row)
    return [(A.row, A.col, A.data)], [(idx, system.B_r[idx])]
