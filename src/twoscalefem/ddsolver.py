"""Non-overlapping Schur-complement domain decomposition with block-Jacobi CG.

Each rank condenses its domain onto the shared boundary; the boundary
problem is solved by the preconditioned conjugate gradient with owner-only
dot products, where a boundary dof is owned by the lowest rank holding it
(rank 0 owns its whole boundary, later ranks may own nothing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .runtime import RankContext
from .sparsela import CgReport, SingularMatrixError, factorize, pcg, solve

__all__ = ["DdResult", "dd_solve_from_triplets", "reference_rank_triplets"]

CONDENSE_BLOCK = 32  # right-hand sides per interior solve pass


class IllConditionedError(RuntimeError):
    pass


@dataclass
class DdResult:
    x: np.ndarray          # full solution (every rank)
    warm: np.ndarray       # this rank's boundary shard for restarts
    report: CgReport


def dd_solve_from_triplets(
    ctx: RankContext,
    n: int,
    const_trips,
    const_b,
    extra_trips=(),
    extra_b=(),
    eps: float = 1e-10,
    warm: np.ndarray | None = None,
    dof_set=None,
    iter_max: int = 10000,
):
    """Solve a distributed SPD system given per-rank assembly triplets.

    const/extra triplets are lists of (element id, rows, cols, vals) in
    global dof indices; extra_b like (element id, idx, vals).  dof_set may
    pin this rank's dof layout (needed when extras vary between calls).
    Raises on a single rank: the decomposition needs at least two domains.
    """
    if ctx.size == 1:
        raise ValueError("domain decomposition does not handle the single domain case")

    trips = sorted(list(const_trips) + list(extra_trips), key=lambda t: t[0])
    bvecs = sorted(list(const_b) + list(extra_b), key=lambda t: t[0])
    if dof_set is None:
        pieces = [np.unique(np.concatenate([t[1], t[2]])) for t in trips] or [np.zeros(0, np.int64)]
        dofs = np.unique(np.concatenate(pieces)).astype(np.int64)
    else:
        dofs = np.unique(np.asarray(dof_set, dtype=np.int64))

    # held[r, i]: rank r holds dofs[i]; a shared dof is owned by its lowest holder
    held = np.array([np.isin(dofs, dl) for dl in ctx.allgather(dofs)])

    nk = len(dofs)  # dofs is sorted and unique: searchsorted gives local indices
    rows = np.concatenate([t[1] for t in trips]) if trips else np.zeros(0, np.int64)
    cols = np.concatenate([t[2] for t in trips]) if trips else np.zeros(0, np.int64)
    vals = np.concatenate([t[3] for t in trips]) if trips else np.zeros(0)
    A = sp.coo_matrix((vals, (np.searchsorted(dofs, rows), np.searchsorted(dofs, cols))),
                      shape=(nk, nk)).tocsc()
    A.sum_duplicates()
    B = np.zeros(nk)
    for _, idx, v in bvecs:
        np.add.at(B, np.searchsorted(dofs, idx), v)

    shared = held.sum(axis=0) >= 2
    I_idx = np.nonzero(~shared)[0]
    b_idx = np.nonzero(shared)[0]
    b_dofs = dofs[b_idx]
    b_held = held[:, b_idx]
    owner = np.argmax(b_held, axis=0)
    owned_mask = owner == ctx.rank

    # condensation: S = A_bb - A_bI A_II^-1 A_Ib, column-blocked interior solves
    A_II = A[I_idx][:, I_idx].tocsc()
    A_Ib = A[I_idx][:, b_idx].toarray() if len(b_idx) else np.zeros((len(I_idx), 0))
    A_bI = A[b_idx][:, I_idx]
    A_bb = A[b_idx][:, b_idx].toarray()
    nI = len(I_idx)
    F_II = factorize(A_II) if nI else None
    Y = np.zeros_like(A_Ib)
    for lo in range(0, A_Ib.shape[1], CONDENSE_BLOCK):
        hi = min(lo + CONDENSE_BLOCK, A_Ib.shape[1])
        if nI:
            Y[:, lo:hi] = solve(F_II, A_Ib[:, lo:hi])
    S = A_bb - (A_bI @ Y if nI else 0.0)
    B_I = B[I_idx]
    B_b = B[b_idx] - (A_bI @ solve(F_II, B_I) if nI else 0.0)

    # communication tables over shared dofs
    co_ranks = [r for r in range(ctx.size) if r != ctx.rank and b_held[r].any()]
    send_idx = {r: np.nonzero(b_held[r])[0] for r in co_ranks}

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
    j_local = np.nonzero(owned_mask)[0]
    pieces_out: dict[int, list] = {}
    for r in range(ctx.size):
        if r == ctx.rank:
            continue
        t = np.nonzero(owner == r)[0]
        if len(t) and r in co_ranks:
            pieces_out.setdefault(r, []).append((b_dofs[t], S[np.ix_(t, t)]))
    for r in co_ranks:
        ctx.send(r, pieces_out.get(r, []), tag=42)
    M_jj = S[np.ix_(j_local, j_local)].copy()
    for r in co_ranks:
        for dl, Spart in ctx.recv(r, tag=42):
            sel = np.searchsorted(b_dofs[j_local], dl)
            M_jj[np.ix_(sel, sel)] += Spart
    if len(j_local):
        try:
            F_M = factorize(sp.csc_matrix(M_jj))
        except SingularMatrixError as exc:
            raise IllConditionedError("ill-conditioned global matrix") from exc
    else:
        F_M = None

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

    def dot(u, v):
        items = [(int(b_dofs[i]), float(u[i] * v[i])) for i in j_local]
        return ctx.all_reduce_ordered_sum(items)

    x0 = warm if warm is not None and len(warm) == len(b_dofs) else np.zeros(len(b_dofs))
    x_b, report = pcg(x0, apply_S, B_b, apply_M, eps, iter_max=iter_max, dot=dot)
    X_I = solve(F_II, B_I - A_Ib @ x_b) if nI else np.zeros(0)

    lists = ctx.gather((np.concatenate([dofs[I_idx], b_dofs[j_local]]),
                        np.concatenate([X_I, x_b[j_local]])), 0)
    if ctx.rank == 0:
        x = np.zeros(n)
        for idx, vals in lists:
            x[idx] = vals
    else:
        x = None
    x = ctx.bcast(x, 0)
    return DdResult(x, x_b, report)


def reference_rank_triplets(nested, sp_info, partition, material, loads, plan, rank):
    """This rank's contributions to the reduced reference system A_rr, B_r."""
    from .elasticity import assemble_element_block, assemble_nsp, node_dofs, traction_face_table

    tr_table = traction_face_table(nested, loads)
    trips, bvecs, dof_list = [], [], []
    mine = set(int(e) for e in plan.elements_of(rank))
    for e in map(int, sp_info.sp_elements):
        if e not in mine:
            continue
        block = assemble_element_block(e, nested, material, loads, tr_table)
        fidx = partition.ref_dof_index[node_dofs(block.nodes)]
        coo = block.A_FF.tocoo()
        r, c = fidx[coo.row], fidx[coo.col]
        keep = (r >= 0) & (c >= 0)
        trips.append((e, r[keep], c[keep], coo.data[keep]))
        keep_b = fidx >= 0
        bvecs.append((e, fidx[keep_b], block.B_F[keep_b]))
        dof_list.append(fidx[keep_b])
    for e in map(int, sp_info.nsp_elements):
        if e not in mine:
            continue
        nb = assemble_nsp(e, nested, material, loads, tr_table)
        fidx = partition.ref_dof_index[node_dofs(nb.nodes)]
        rr, cc = np.meshgrid(fidx, fidx, indexing="ij")
        keep = (rr >= 0) & (cc >= 0)
        trips.append((e, rr[keep], cc[keep], nb.K[keep]))
        keep_b = fidx >= 0
        bvecs.append((e, fidx[keep_b], nb.B[keep_b]))
        dof_list.append(fidx[keep_b])
    dofs = np.unique(np.concatenate(dof_list)) if dof_list else np.zeros(0, np.int64)
    return trips, bvecs, dofs
