"""Non-overlapping Schur-complement domain decomposition with block-Jacobi CG.

Each rank condenses its domain onto the shared boundary; the boundary
problem is solved by the preconditioned conjugate gradient with owner-only
dot products, where a boundary dof is owned by the lowest rank holding it
(rank 0 owns its whole boundary, later ranks may own nothing).  A singular
interior block is factorized shifted and its solves refined against it; a
singular preconditioner block is factorized shifted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .runtime import RankContext
from .sparsela import (CgReport, CscPattern, SingularMatrixError, factorize, pcg, refine, shifted,
                       solve)

__all__ = ["DdLayout", "DdResult", "dd_layout", "dd_solve_from_triplets", "reference_rank_triplets"]

CONDENSE_BLOCK = 32  # right-hand sides per interior solve pass
# the boundary CG stops after CG_ITER_MAX iterations: on a singular boundary
# problem it stalls at round-off and its iterate drifts
CG_ITER_MAX = 400


@dataclass
class DdResult:
    x: np.ndarray          # full solution (every rank)
    warm: np.ndarray       # this rank's boundary shard for restarts
    report: CgReport
    shifted: bool          # some rank factorized a shifted (singular) F_II or F_M


def _factorize(A):
    """(factorize(A), False), or (factorize(shifted(A)), True) when A is singular."""
    try:
        return factorize(A), False
    except SingularMatrixError:
        return factorize(shifted(A)), True


@dataclass
class DdLayout:
    """One rank's dd structure for a fixed triplet list, built once by dd_layout.

    The local dofs are numbered interior first, then shared boundary dofs
    (each part ascending); the triplets sum onto ``pattern`` and load entry
    i adds to local dof ``b_loc[i]``.
    """

    dofs: np.ndarray            # global id of each local dof
    nI: int                     # interior dofs
    pattern: CscPattern
    b_loc: np.ndarray
    owner: np.ndarray           # owning rank per boundary dof
    co_ranks: list              # ranks sharing a boundary dof with this one
    send_idx: dict              # co-rank -> boundary positions shared with it
    m_send: dict                # co-rank -> boundary positions it owns (preconditioner)
    m_sel: dict                 # co-rank -> owned-block positions of what it sends


def dd_layout(ctx: RankContext, trips, bvecs) -> DdLayout:
    """Build the dd layout of a triplet list (collective over ctx).

    trips: (key, rows, cols[, vals]) and bvecs (key, idx[, vals]) in global
    dof indices, in the order their values will be given; this rank's dofs
    are the ones they name.
    """
    cat = lambda items, i: np.concatenate([np.zeros(0, np.int64)] + [t[i] for t in items])
    rows, cols, idx = cat(trips, 1), cat(trips, 2), cat(bvecs, 1)
    dofs = np.unique(np.concatenate([rows, cols, idx]))
    # held[r, i]: rank r holds dofs[i]; a shared dof is owned by its lowest holder
    held = np.array([np.isin(dofs, dl) for dl in ctx.allgather(dofs)])
    shared = held.sum(axis=0) >= 2
    order = np.concatenate([np.nonzero(~shared)[0], np.nonzero(shared)[0]])
    local = np.empty(len(dofs), dtype=np.int64)
    local[order] = np.arange(len(dofs))
    b_held = held[:, shared]
    b_dofs = dofs[shared]
    owner = np.argmax(b_held, axis=0)
    co_ranks = [q for q in range(ctx.size) if q != ctx.rank and b_held[q].any()]
    m_send = {q: np.nonzero(owner == q)[0] for q in co_ranks}
    for q in co_ranks:
        ctx.send(q, b_dofs[m_send[q]], tag=44)
    j_dofs = b_dofs[owner == ctx.rank]
    m_sel = {q: np.searchsorted(j_dofs, ctx.recv(q, tag=44)) for q in co_ranks}
    lidx = lambda g: local[np.searchsorted(dofs, g)]
    return DdLayout(
        dofs[order], int((~shared).sum()),
        CscPattern.of(lidx(rows), lidx(cols), (len(dofs), len(dofs))), lidx(idx),
        owner, co_ranks, {q: np.nonzero(b_held[q])[0] for q in co_ranks}, m_send, m_sel)


def dd_solve_from_triplets(ctx: RankContext, n: int, trips, bvecs, eps: float,
                           warm: np.ndarray | None = None, layout: DdLayout | None = None):
    """Solve a distributed SPD system given per-rank assembly triplets.

    trips are (key, rows, cols, vals) and bvecs (key, idx, vals) in global
    dof indices; each list is summed in its order and the keys are not
    read.  layout, from dd_layout over the same structure, is built here
    (collective) when not given.  warm is this rank's boundary shard of an
    earlier solve.  Raises on a single rank: the decomposition needs at
    least two domains.
    """
    if ctx.size == 1:
        raise ValueError("domain decomposition does not handle the single domain case")

    lay = layout if layout is not None else dd_layout(ctx, trips, bvecs)
    A = lay.pattern.assemble(np.concatenate([np.zeros(0)] + [t[3] for t in trips]))
    B = np.bincount(lay.b_loc, weights=np.concatenate([np.zeros(0)] + [t[2] for t in bvecs]),
                    minlength=len(lay.dofs))
    nI = lay.nI
    b_dofs = lay.dofs[nI:]
    owner, co_ranks, send_idx = lay.owner, lay.co_ranks, lay.send_idx
    owned_mask = owner == ctx.rank
    j_local = np.nonzero(owned_mask)[0]

    # condensation: S = A_bb - A_bI A_II^-1 A_Ib, column-blocked interior solves
    A_II, A_bI = A[:nI, :nI], A[nI:, :nI]
    A_Ib, A_bb = A[:nI, nI:].toarray(), A[nI:, nI:].toarray()
    F_II, shift = _factorize(A_II) if nI else (None, False)

    def solve_II(rhs):
        x = solve(F_II, rhs)
        return refine(F_II, A_II, rhs, x)[0] if shift else x

    Y = np.zeros_like(A_Ib)
    for lo in range(0, A_Ib.shape[1] if nI else 0, CONDENSE_BLOCK):
        Y[:, lo:lo + CONDENSE_BLOCK] = solve_II(A_Ib[:, lo:lo + CONDENSE_BLOCK])
    S = A_bb - (A_bI @ Y if nI else 0.0)
    B_I = B[:nI]
    B_b = B[nI:] - (A_bI @ solve_II(B_I) if nI else 0.0)

    def exchange_sum(vec):
        """Assemble shared values: every replica receives the full sum."""
        for r in co_ranks:
            ctx.send(r, vec[send_idx[r]], tag=41)
        parts = {r: ctx.recv(r, tag=41) for r in co_ranks}
        out = vec.copy()
        for r in co_ranks:  # ascending rank order: deterministic fold
            out[send_idx[r]] += parts[r]
        return out

    B_b = exchange_sum(B_b)

    # block-Jacobi preconditioner on owned boundary blocks
    for r in co_ranks:
        ctx.send(r, S[np.ix_(lay.m_send[r], lay.m_send[r])], tag=42)
    M_jj = S[np.ix_(j_local, j_local)].copy()
    for r in co_ranks:
        sel = lay.m_sel[r]
        M_jj[np.ix_(sel, sel)] += ctx.recv(r, tag=42)
    F_M, shift_M = _factorize(sp.csc_matrix(M_jj)) if len(j_local) else (None, False)

    def apply_S(x):
        return exchange_sum(S @ x)

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

    j_dofs = b_dofs[j_local]

    def dot(u, v):
        return ctx.all_reduce_ordered_sum((j_dofs, u[j_local] * v[j_local]))

    x0 = warm if warm is not None and len(warm) == len(b_dofs) else np.zeros(len(b_dofs))
    x_b, report = pcg(x0, apply_S, B_b, apply_M, eps, iter_max=CG_ITER_MAX, dot=dot)
    X_I = solve_II(B_I - A_Ib @ x_b) if nI else np.zeros(0)

    lists = ctx.gather((np.concatenate([lay.dofs[:nI], j_dofs]),
                        np.concatenate([X_I, x_b[j_local]]), shift or shift_M), 0)
    out = None
    if ctx.rank == 0:
        x = np.zeros(n)
        for idx, v, _ in lists:
            x[idx] = v
        out = (x, any(s for _, _, s in lists))
    x, shift = ctx.bcast(out, 0)
    return DdResult(x, x_b, report, shift)


def reference_rank_triplets(nested, sp_info, partition, material, loads, plan, rank):
    """This rank's contributions to the reduced reference system A_rr, B_r.

    Returns (trips, bvecs) in the form of dd_solve_from_triplets, one item
    per owned element, ascending element id.
    """
    from .elasticity import assemble_element_block, assemble_nsp, node_dofs, traction_face_table

    tr_table = traction_face_table(nested, loads)
    mine = plan.element_rank == rank
    sp_mine, nsp_mine = (els[mine[els]] for els in (sp_info.sp_elements, sp_info.nsp_elements))
    blocks = assemble_element_block(sp_mine, nested, material, loads, tr_table)
    nsp = assemble_nsp(nsp_mine, nested, material, loads, tr_table)
    trips, bvecs = [], []

    def add(e, dofs, rows, cols, vals, B):  # one element, free entries only
        fidx = partition.ref_dof_index[dofs]
        r, c = fidx[rows], fidx[cols]
        keep = (r >= 0) & (c >= 0)
        trips.append((int(e), r[keep], c[keep], vals[keep]))
        bvecs.append((int(e), fidx[fidx >= 0], B[fidx >= 0]))

    ptr = 3 * blocks.node_ptr
    for i, e in enumerate(sp_mine):
        A = blocks.A_FF[ptr[i]:ptr[i + 1], ptr[i]:ptr[i + 1]].tocoo()
        add(e, node_dofs(blocks.nodes_of(i)), A.row, A.col, A.data, blocks.B_F[ptr[i]:ptr[i + 1]])
    for e, tet, K, B in zip(nsp.elements, nsp.nodes, nsp.K, nsp.B):
        add(e, node_dofs(tet), *np.divmod(np.arange(144), 12), K.ravel(), B)
    return sorted(trips, key=lambda t: t[0]), sorted(bvecs, key=lambda t: t[0])
