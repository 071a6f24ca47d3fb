"""The two-scale solver: initialization, scale loop and coarse strategies.

Every rank owns a subset of macro elements; patches follow that layout and
distributed patches are solved sequence by sequence on subgroup
communicators.  All cross-rank accumulations fold contributions in sorted
element order, so residual histories are bitwise identical for any rank
count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import ddsolver
from .elasticity import (
    LoadSet,
    Material,
    assemble_element_block,
    assemble_nsp,
    node_dofs,
)
from .mesh import DofPartition, NestedMesh, SpInfo, spf_nodes
from .runtime import PartitionPlan, RankContext, run_ranks
from .scheduler import PatchGraph, Schedule, build_schedule
from .sparsela import SingularMatrixError, factorize, pcg, refine, shifted, solve
from .transfer import (
    CoarseSystem,
    build_tfk,
    coarse_constant_system,
    coarse_triplets_constant,
    coarse_triplets_enrichment,
    nsp_triplets,
    stack_blocks,
    update_tfe,
)

__all__ = ["TsConfig", "TsResult", "ProblemSetup", "solve_case", "ts_program"]

# the loop gives up once resi has stayed above STAGNATION_FACTOR times its
# best value for STAGNATION_WINDOW consecutive iterations
STAGNATION_WINDOW = 5
STAGNATION_FACTOR = 10.0
# tsi switches to PCG on the last direct factor from iteration
# TSI_MIN_ITERATIONS on, once resi < TSI_SWITCH_FACTOR * eps; a PCG solve
# taking more than TSI_REFRESH_CG_ITERS iterations asks for a new factor, and
# one not converged in PCG_ITER_MAX iterations falls back to a direct solve
# (tsdd's boundary CG has its own cap, ddsolver.CG_ITER_MAX)
TSI_SWITCH_FACTOR = 1e4
TSI_MIN_ITERATIONS = 2
TSI_REFRESH_CG_ITERS = 13
PCG_ITER_MAX = 400


@dataclass
class TsConfig:
    eps: float = 1e-7
    max_iterations: int = 200
    coarse_strategy: str = "tsd"        # tsd | tsi | tsdd
    record_iterates: bool = False

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.coarse_strategy not in COARSE_SOLVERS:
            raise ValueError(f"unknown coarse strategy {self.coarse_strategy}")


@dataclass
class ProblemSetup:
    """Immutable inputs shared by all ranks (read-only after construction)."""

    nested: NestedMesh
    sp_info: SpInfo
    partition: DofPartition
    material: Material
    loads: LoadSet


@dataclass
class IterationRecord:
    iteration: int
    resi: float
    coarse_kind: str
    pcg_iterations: int
    wall_time: float
    factor_flops: int
    solve_flops: int
    shifted: bool = False         # the coarse solve factorized a shifted (singular) matrix
    refinement_steps: int = 0     # refinement steps against the unshifted matrix
    pcg_fallback: bool = False    # tsi's PCG did not converge: solved directly


@dataclass
class TsResult:
    converged: bool
    reason: str                   # converged | stagnated | max_iterations | zero_load
    iterations: int
    resi_history: list[float]
    U_g: np.ndarray
    u_r: np.ndarray
    records: list[IterationRecord]
    norm_B: float
    schedule: Schedule | None = None
    iterates: list[np.ndarray] | None = None


class _RankState:
    """Everything one rank holds between procedures."""

    def __init__(self):
        self.stack = None           # transfer.BlockStack of the owned SP blocks
        self.const = None           # constant coarse triplets of the owned elements,
        self.const_b = None         # flat (keys, rows, cols, vals) and (keys, idx, vals)
        self.patches = None         # _PatchPass of the owned patches
        self.patch_scatter = {}     # distributed patch index -> (stack rows, field slots,
                                    # solution positions) of this rank's member blocks
        self.w_resi = None          # residual weight per owned row (element order)
        self.w_bnorm = None         # the same, SPF ring rows kept
        self.norm_B = 0.0
        self.coarse_const = None    # rank 0: the summed constant coarse matrix and load
        self.schedule = None
        self.patch_owner = None     # patch index -> participant ranks (PatchGraph)
        self.groups = None          # per schedule sequence: subgroup or None
        self.fold = None            # _FoldTables of the owned blocks' nodes
        self.spf_nodes = None       # SPF ring nodes, ascending
        self.btmp = None            # coarse classical NSP load vector (full)


# ---------------------------------------------------------------------------
# initialization


@dataclass
class _FoldTables:
    """Node -> (element, slot) tables of the assembled-vector fold.

    A row is one (SP element, slot) pair; rows are numbered in ascending
    element order, slots ascending within an element.  Every row touching
    one of ``nodes`` (the nodes of this rank's blocks) is folded in row
    order, so each node sums its contributions in element-id order
    whatever the rank layout.
    """

    nodes: np.ndarray       # fold targets, ascending
    target: np.ndarray      # target position of each folded row
    own: np.ndarray         # folded-row position of each owned row
    send: dict              # neighbour rank -> owned rows it folds
    recv: dict              # neighbour rank -> folded-row positions of its rows


def _fold_tables(rank, plan, row_elem, row_node):
    row_rank = plan.element_rank[row_elem]
    nodes = np.unique(row_node[row_rank == rank])
    folded = np.nonzero(np.isin(row_node, nodes))[0]
    owned = row_node[row_rank == rank]
    send, recv = {}, {}
    for r in np.unique(row_rank[folded]):
        if r != rank:
            recv[int(r)] = np.nonzero(row_rank[folded] == r)[0]
            send[int(r)] = np.nonzero(np.isin(owned, row_node[row_rank == r]))[0]
    return _FoldTables(nodes, np.searchsorted(nodes, row_node[folded]),
                       np.nonzero(row_rank[folded] == rank)[0], send, recv)


def _kept_nodes(nested, elements):
    """(element, node) of the kept nodes of every element, element-major, nodes ascending."""
    n = nested.n_nodes
    leaves = np.concatenate([np.zeros((0, 4), np.int64)] + [nested.micro[e] for e in elements])
    group = np.repeat(np.arange(len(elements)), [len(nested.micro[e]) for e in elements])
    keys = np.sort(group[:, None] * n + leaves, axis=None)  # np.unique: 4x slower on numpy 2.4
    keys = keys[np.diff(keys, prepend=-1) > 0]
    keys = keys[~np.isin(keys % n, nested.hanging)]
    return np.asarray(elements, dtype=np.int64)[keys // n], keys % n


def ts_init(ctx: RankContext, problem: ProblemSetup, plan: PartitionPlan):
    nested, sp_info, part = problem.nested, problem.sp_info, problem.partition
    mat, loads = problem.material, problem.loads
    state = _RankState()

    # shared metadata: identical on every rank (mesh is global, plan is global)
    row_elem, row_node = _kept_nodes(nested, sp_info.sp_elements)
    state.fold = _fold_tables(ctx.rank, plan, row_elem, row_node)
    state.spf_nodes = spf_nodes(nested, part)
    mult = np.bincount(row_node)

    # element blocks (A_FF, B_F) of the owned SP elements and their T_Fk,
    # stacked with a width fixed by the largest SP block of the mesh; the
    # stack keeps all a block's state, the blocks are dropped after set-up
    mine = plan.element_rank == ctx.rank
    blocks = assemble_element_block(sp_info.sp_elements[mine[sp_info.sp_elements]],
                                    nested, mat, loads)
    T_Fk = build_tfk(blocks, nested)
    width = 3 * int(np.bincount(row_elem).max(initial=0))
    stack = state.stack = stack_blocks(blocks, T_Fk, nested, part, width)
    nsp = assemble_nsp(sp_info.nsp_elements[mine[sp_info.nsp_elements]], nested, mat, loads)
    state.const, state.const_b = (tuple(map(np.concatenate, zip(a, b))) for a, b in zip(
        coarse_triplets_constant(blocks, T_Fk, nested, part), nsp_triplets(nsp, part)))
    del blocks, T_Fk

    # residual weights of the owned rows: 1/multiplicity, 0 on Dirichlet
    # rows, and for the residual also 0 on the SPF ring rows
    dofs = stack.dofs[stack.dofs >= 0]
    w = 1.0 / mult[dofs // 3]
    w[part.ref_dirichlet[dofs]] = 0.0
    state.w_bnorm = w
    state.w_resi = np.where(np.isin(dofs // 3, state.spf_nodes), 0.0, w)

    # patch schedule and patch systems
    graph = PatchGraph.of(sp_info, plan)
    state.schedule = build_schedule(ctx, *graph.rank_view(ctx.rank))
    state.patch_owner = graph.participants

    _build_patch_systems(ctx, state, problem, plan)

    # the constant coarse system on rank 0, and the NSP load vector over
    # coarse classical free dofs, both summed in element order
    parts = ctx.gather((state.const, state.const_b), 0)
    btmp = None
    if ctx.rank == 0:
        const, const_b = ([np.concatenate(a) for a in zip(*p)] for p in zip(*parts))
        state.coarse_const = coarse_constant_system(part.n_coarse_free, const, const_b)
        keys, idx, vals = const_b
        nsp = np.flatnonzero(np.isin(keys, sp_info.nsp_elements))
        nsp = nsp[np.argsort(keys[nsp], kind="stable")]
        btmp = np.bincount(idx[nsp], weights=vals[nsp], minlength=part.n_coarse_free)
    state.btmp = ctx.bcast(btmp, 0)

    state.norm_B = compute_b_norm(ctx, state, problem)
    return state


def _positions(sorted_ids, ids):
    """Position of each id in the ascending array sorted_ids, -1 where absent."""
    pos = np.searchsorted(sorted_ids, ids)
    found = pos < len(sorted_ids)
    found[found] = sorted_ids[pos[found]] == ids[found]
    return np.where(found, pos, -1)


def _patch_positions(q_dofs, d_dofs, dofs):
    """Position of each dof in [q_dofs, d_dofs], len(q_dofs) + len(d_dofs) where absent."""
    qi, di = _positions(q_dofs, dofs), _positions(d_dofs, dofs)
    return np.where(qi >= 0, qi, np.where(di >= 0, len(q_dofs) + di, len(q_dofs) + len(d_dofs)))


@dataclass
class _PatchPass:
    """The patches a rank owns, in schedule order, solved as one block system.

    Patch k has the q dofs q_ptr[k]:q_ptr[k+1] of the concatenated u_q and
    the d dofs d_ptr[k]:d_ptr[k+1] of u_d.  u_d is read at d_gather from
    [stack.u, the pieces received for the owned distributed patches in
    schedule order], u_q solves A_qq u_q = BI + D_qd u_d patch by patch
    (D_qd block-diagonal), and the owned fields are set at slots from
    [u_q, u_d, 0] at src.
    """

    patches: list           # patch index of each owned patch
    factors: list           # Factor of each A_qq
    q_ptr: np.ndarray
    d_ptr: np.ndarray
    BI: np.ndarray
    D_qd: sp.csr_matrix
    d_gather: np.ndarray
    slots: np.ndarray
    src: np.ndarray
    distributed: list       # positions of the distributed patches, schedule order


def _build_patch_systems(ctx, state, problem, plan):
    """Assemble and factorize A_qq per patch; owner is the lowest participant.

    Also builds the gather/scatter index arrays: every participant of a
    distributed patch keeps, per own member element, the position of each
    stacked row in the owner's broadcast [u_q, u_d, 0] (Dirichlet dofs read
    the 0), and the owner keeps d_src, the position of each d dof's value
    in the concatenated member u_F vectors as they arrive, folded into the
    rank's _PatchPass.  A d dof takes its value from the highest-id member
    element holding it, so the patch data do not depend on the rank layout.
    Participants send their member blocks' rows, sliced from the rank
    stack, patch-indexed.
    """
    sp_info, part, stack = problem.sp_info, problem.partition, state.stack
    owned = []

    def handle_patch(pi, group):
        sets, patch = part.patch_sets[pi], sp_info.patches[pi]
        q_dofs, d_dofs = sets["q"], sets["d"]
        nq, nd = len(q_dofs), len(d_dofs)
        mine = [e for e in map(int, patch.elements) if int(plan.element_rank[e]) == ctx.rank]
        rows = [stack.rows_of(e) for e in mine]
        pos = [_patch_positions(q_dofs, d_dofs, stack.dofs[r]) for r in rows]
        payload = []
        for e, r, p in zip(mine, rows, pos):
            p[part.ref_dirichlet[stack.dofs[r]]] = nq + nd
            # the block's q rows with their q and d columns, B_F on q, its d rows
            ptr = stack.A.indptr[r[0]:r[-1] + 2]
            i = np.repeat(p, np.diff(ptr))
            j = p[stack.A.indices[ptr[0]:ptr[-1]] - r[0]]
            keep = (i < nq) & (j < nq + nd)
            d = np.nonzero((p >= nq) & (p < nq + nd))[0]
            payload.append((e, len(r), i[keep].astype(np.int32), j[keep].astype(np.int32),
                            stack.A.data[ptr[0]:ptr[-1]][keep], p[p < nq], stack.B[r][p < nq],
                            p[d] - nq, d))
        slots = [stack.field_slots(e, patch.node) for e in mine]
        scatter = tuple(np.concatenate([np.zeros(0, np.int64)] + a) for a in (rows, slots, pos))
        if group is not None:
            state.patch_scatter[pi] = scatter
        pieces = [payload] if group is None else group.gather(payload, root=0)
        if pieces is None:  # not the owner
            return
        arrived = [t for lst in pieces for t in lst]
        offsets = np.cumsum([0] + [t[1] for t in arrived])
        d_src = np.full(nd, -1, dtype=np.int64)
        BI, trips = np.zeros(nq), []
        for k in np.argsort([t[0] for t in arrived]):  # ascending element id
            e, n, i, j, v, bq, bv, dq, d = arrived[k]
            trips.append((i, j, v))
            np.add.at(BI, bq, bv)
            d_src[dq] = offsets[k] + d
        # the q and the d columns of the member blocks, in element order
        r, c, v = (np.concatenate(a) for a in zip(*trips))
        qq = c < nq
        A_qq = sp.coo_matrix((v[qq], (r[qq], c[qq])), shape=(nq, nq)).tocsc()
        A_qd = sp.coo_matrix((v[~qq], (r[~qq], c[~qq] - nq)), shape=(nq, nd)).tocsr()
        try:
            factor = factorize(A_qq)
        except SingularMatrixError as exc:
            raise SingularMatrixError(exc.dof, exc.pivot) from RuntimeError(
                f"patch {patch.node} has a singular interior matrix")
        owned.append((pi, factor, BI, -A_qd, d_src, scatter, offsets[-1], group is not None))

    _iterate_schedule(ctx, state, handle_patch)
    state.patches = _patch_pass(owned, len(stack.u))


def _patch_pass(owned, n_u):
    """_PatchPass of the owned patches' (index, factor, BI, D_qd, d_src, scatter, arrived
    length, distributed) in schedule order; n_u is the length of the stack's u."""
    pis, factors, BI, D_qd, d_src, scatter, arrived, dist = zip(*owned) if owned else ([],) * 8
    q_ptr = np.cumsum([0] + [len(b) for b in BI])
    d_ptr = np.cumsum([0] + [len(d) for d in d_src])
    # d values: own rows from the stack, the rest from the received pieces
    d_gather, recv = [], n_u
    for (rows, _, _), src, n in zip(scatter, d_src, arrived):
        d_gather.append(np.where(src < len(rows), rows[np.minimum(src, len(rows) - 1)],
                                 recv + src - len(rows)))
        recv += n - len(rows)  # 0 for a local patch
    # [u_q, u_d, 0] positions of the owned fields
    nq, nd = q_ptr[-1], d_ptr[-1]
    src = [np.where(pos < len(b), q0 + pos, np.where(pos < len(b) + len(d), nq + d0 + pos - len(b),
                                                     nq + nd))
           for (_, _, pos), b, d, q0, d0 in zip(scatter, BI, d_src, q_ptr, d_ptr)]
    cat = lambda a, dtype=np.int64: np.concatenate([np.zeros(0, dtype)] + list(a))
    nnz = np.cumsum([0] + [m.nnz for m in D_qd])
    D = sp.csr_matrix((cat([m.data for m in D_qd], np.float64),
                       cat([m.indices + d0 for m, d0 in zip(D_qd, d_ptr)]),
                       cat([[0]] + [m.indptr[1:] + n0 for m, n0 in zip(D_qd, nnz)])),
                      shape=(nq, nd))
    return _PatchPass(list(pis), list(factors), q_ptr, d_ptr, cat(BI, np.float64), D, cat(d_gather),
                      cat(s[1] for s in scatter), cat(src), list(np.flatnonzero(dist)))


def _iterate_schedule(ctx, state, fn):
    """Visit patches sequence by sequence (subgroups for distributed ones).

    fn(patch_index, subgroup_or_None); local patches pass None.  The
    schedule is fixed, so the subgroups are split once, on the first visit,
    and reused.  A rank joining two patches in one sequence would deadlock
    the subgroup collectives, which the schedule guarantees against
    (asserted).
    """
    sched = state.schedule
    M = sched.M
    if state.groups is None:
        state.groups = []
        for s in range(sched.n_sequences):
            # every rank holds M and the participants, so each knows all colors
            colors = [int(p) if p >= 0 and len(state.patch_owner[int(p)]) >= 2 else None
                      for p in M[:, s]]
            my = colors[ctx.rank]
            if my is not None:
                assert list(np.nonzero(M[:, s] == my)[0]) == list(state.patch_owner[my]), \
                    "schedule violation: participant mismatch"
            state.groups.append(ctx.split_by_color(colors))
    for s, group in enumerate(state.groups):
        if M[ctx.rank, s] >= 0:
            fn(int(M[ctx.rank, s]), group)
    done = {int(p) for s in range(sched.n_sequences) for p in M[:, s] if p >= 0}
    for p in sched.L_o[ctx.rank]:
        if p not in done:
            fn(int(p), None)


# ---------------------------------------------------------------------------
# scale-loop procedures


def micro_scale_resolution(ctx, state):
    """Solve every patch with the current boundary data from u_F.

    The boundary values of the distributed patches are gathered first, in
    schedule order, so a rank waits only for the values of the patches it
    owns; then the rank solves its patches in one pass (see _PatchPass), the
    owners broadcast the distributed patches' solutions, and the other
    participants receive them.
    """
    pp, stack = state.patches, state.stack
    received, owned, pending = [], [], []

    def gather(pi, group):
        if group is None:
            return
        rows, slots, pos = state.patch_scatter[pi]
        pieces = group.gather(stack.u[rows] if group.rank else None, root=0)
        if pieces is None:
            pending.append((group, slots, pos))
        else:
            received.extend(pieces[1:])
            owned.append(group)

    _iterate_schedule(ctx, state, gather)
    u_d = np.concatenate([stack.u] + received)[pp.d_gather]
    rhs = pp.BI + pp.D_qd @ u_d
    u_q = np.concatenate([np.zeros(0)] + [solve(F, rhs[a:b]) for F, a, b in
                                          zip(pp.factors, pp.q_ptr, pp.q_ptr[1:])])
    fields = stack.fields.reshape(-1)
    fields[pp.slots] = np.concatenate([u_q, u_d, [0.0]])[pp.src]
    q, d = pp.q_ptr, pp.d_ptr
    for k, group in zip(pp.distributed, owned):
        group.bcast(np.concatenate([u_q[q[k]:q[k + 1]], u_d[d[k]:d[k + 1]], [0.0]]), root=0)
    for group, slots, pos in pending:
        fields[slots] = group.bcast(None, root=0)[pos]


def update_macro_prb(state):
    """Rebuild T_Fe of the rank stack; returns its enrichment values (A_gg part, B_e)."""
    update_tfe(state.stack)
    return coarse_triplets_enrichment(state.stack)


def build_coarse_on_root(ctx, system, enrich, b_enrich):
    """Gather the enrichment values on rank 0 and assemble A_gg, B_g there
    (system: the CoarseSystem on rank 0)."""
    parts = ctx.gather((enrich, b_enrich), 0)
    if ctx.rank == 0:
        return system.build(*(np.concatenate(a) for a in zip(*parts)))
    return None, None


def update_micro_dofs(state, problem, U_g):
    """u_F of every owned block from the coarse solution (classical + enrichment)."""
    part, stack = problem.partition, state.stack
    # the extra last entry is the zero read by absent T_Fe columns (e_dofs -1)
    full = np.zeros(3 * part.n_coarse_nodes + 3 * part.n_enriched + 1)
    full[part.free_coarse_dofs] = U_g
    enriched = stack.T @ full[stack.e_dofs].reshape(*stack.T.shape[::2], 1)
    np.add(stack.T_Fk @ full[stack.c_dofs], enriched.reshape(-1), out=stack.u)


def _element_sq_norms(ctx, state, vec, weights, extra=None):
    """Per-element weighted squares of a stacked vector assembled over the ranks.

    The owned rows of vec (the stack's block dofs) and the neighbours' rows
    are folded into nodal values, every node summing its contributions in
    element-id order (see _FoldTables); extra, optional (len(fold.nodes), 3)
    values, is added after the fold.  Returns the owned element ids and
    their sums, ready for the ordered all-reduce.
    """
    fold, stack = state.fold, state.stack
    rows = vec[stack.dofs >= 0].reshape(-1, 3)
    for r, idx in fold.send.items():
        ctx.send(r, rows[idx], tag=31)
    folded = np.empty((len(fold.target), 3))
    folded[fold.own] = rows
    for r, dst in fold.recv.items():
        folded[dst] = ctx.recv(r, tag=31)
    values = np.zeros((len(fold.nodes), 3))
    np.add.at(values, fold.target, folded)  # sequential: row (element-id) order per node
    if extra is not None:
        values += extra
    vr = values[fold.target[fold.own]].reshape(-1)
    nb = len(stack.elements)
    return stack.elements, np.bincount(np.repeat(np.arange(nb), stack.ndof),
                                       weights=weights * vr * vr, minlength=nb)


def compute_b_norm(ctx, state, problem):
    """Monolithic-exact ||B_r||: NSP h rows plus assembled f rows once each."""
    part, nodes = problem.partition, state.fold.nodes
    on_ring = np.isin(nodes, state.spf_nodes)
    gi = part.coarse_dof_index[node_dofs(nodes[on_ring])].reshape(-1, 3)
    spf_extra = np.zeros((len(nodes), 3))
    spf_extra[on_ring] = np.where(gi >= 0, state.btmp[gi], 0.0)
    keys, sums = _element_sq_norms(ctx, state, state.stack.B, state.w_bnorm, spf_extra)
    if ctx.rank == 0:
        gi = part.coarse_dof_index[node_dofs(part.coarse_h_nodes)]
        keys = np.concatenate([[-1], keys])
        sums = np.concatenate([[np.sum(state.btmp[gi[gi >= 0]] ** 2)], sums])
    return float(np.sqrt(ctx.all_reduce_ordered_sum((keys, sums))))


def compute_residual(ctx, state):
    """resi = ||A_fr u_r - B_f|| / ||B_r|| with interface rows treated as zero."""
    stack = state.stack
    keys, sums = _element_sq_norms(ctx, state, stack.A @ stack.u - stack.B, state.w_resi)
    return float(np.sqrt(ctx.all_reduce_ordered_sum((keys, sums)))) / state.norm_B


def gather_u_r(ctx, state, problem, U_g):
    """Assemble the global free reference vector from the rank stacks.

    A dof shared by several elements takes the value of the highest element id.
    """
    part, stack = problem.partition, state.stack
    real = stack.dofs >= 0
    idx = part.ref_dof_index[stack.dofs[real]]
    keep = idx >= 0
    keys = np.repeat(stack.elements, stack.ndof)
    pieces = ctx.gather((keys[keep], idx[keep], stack.u[real][keep]), 0)
    u_r = None
    if ctx.rank == 0:
        keys, idx, vals = (np.concatenate(a) for a in zip(*pieces))
        # highest element id first, then the first row of each dof
        order = np.argsort(keys, kind="stable")[::-1]
        idx, first = np.unique(idx[order], return_index=True)
        u_r = np.zeros(part.n_ref_free)
        u_r[idx] = vals[order][first]
        full = np.zeros(3 * part.n_coarse_nodes + 3 * part.n_enriched)
        full[part.free_coarse_dofs] = U_g
        dofs = node_dofs(part.h_nodes)
        idx = part.ref_dof_index[dofs]
        u_r[idx[idx >= 0]] = full[dofs[idx >= 0]]
    return ctx.bcast(u_r, 0)


# ---------------------------------------------------------------------------
# coarse solves


def _initial_coarse_solve(ctx, state, problem):
    """Unenriched coarse problem: classical block only, enrichment pinned to zero."""
    part = problem.partition
    if ctx.rank == 0:
        A, B = state.coarse_const
        n_cl = part.n_coarse_free - 3 * part.n_enriched
        F = factorize(A[:n_cl, :n_cl].tocsc())
        U = np.zeros(part.n_coarse_free)
        U[:n_cl] = solve(F, B[:n_cl])
    else:
        U = None
    return ctx.bcast(U, 0)


class _RootCoarse:
    """tsd/tsi: A_gg, B_g assembled on rank 0 and solved there.

    Rank 0 builds the CoarseSystem once, from the constant system ts_init
    summed and the structure of every rank's enrichment triplets, whose
    values then arrive every iteration in the same rank order.  A direct
    solve factorizes A, or shifted(A) refined against A when A is singular,
    and keeps the factor; tsi preconditions PCG with it once the switch
    condition holds.  The factor, the last U and the flop sum live on rank 0.
    """

    def __init__(self, ctx, state, problem, config):
        stack = state.stack
        parts = ctx.gather(((stack.e_keys, stack.e_rows, stack.e_cols),
                            (stack.b_keys, stack.b_idx)), 0)
        self.system = None
        if ctx.rank == 0:
            self.system = CoarseSystem.of(*state.coarse_const, *(
                [np.concatenate(a) for a in zip(*p)] for p in zip(*parts)))
        self.eps = config.eps
        self.pcg = config.coarse_strategy == "tsi"
        self.factor = None
        self.U = None
        self.refresh = False      # tsi: the next solve is direct
        self.factor_flops = 0

    def solve(self, ctx, state, enrich, b_enrich, resi_prev, it):
        """(U_g, IterationRecord fields) on every rank."""
        A, B = build_coarse_on_root(ctx, self.system, enrich, b_enrich)
        out = None
        if ctx.rank == 0:
            kind, piters, shift, steps, fallback = "direct", 0, False, 0, False
            if (self.pcg and self.factor is not None and not self.refresh
                    and it >= TSI_MIN_ITERATIONS and resi_prev is not None
                    and resi_prev < self.eps * TSI_SWITCH_FACTOR):
                x, rep = pcg(self.U, lambda v: A @ v, B, lambda v: solve(self.factor, v),
                             self.eps * 1e-4, iter_max=PCG_ITER_MAX)
                if rep.converged:
                    self.U, kind, piters = x, "pcg", rep.iterations
                    self.refresh = rep.iterations > TSI_REFRESH_CG_ITERS
                else:  # fall back to a direct solve this iteration
                    fallback = True
            if kind == "direct":
                try:
                    F = factorize(A)
                except SingularMatrixError:
                    F, shift = factorize(shifted(A)), True
                self.factor_flops += F.factor_flops
                self.U = solve(F, B)
                if shift:
                    self.U, steps = refine(F, A, B, self.U)
                self.factor, self.refresh = F, False
            out = self.U, dict(coarse_kind=kind, pcg_iterations=piters, shifted=shift,
                               refinement_steps=steps, pcg_fallback=fallback)
        U, fields = ctx.bcast(out, 0)
        return U, dict(fields, factor_flops=self.factor_flops)


class _DdCoarse:
    """tsdd: the Schur-complement backend over the ranks, from a warm boundary start.

    The dd layout is built once (collective).  Its triplets are the
    constant ones ts_init kept on the rank state followed by the rank
    stack's enrichment triplets, explicit zeros included, so their
    structure holds the classical free dofs of every owned element and the
    enriched dofs of the owned SP elements.
    """

    def __init__(self, ctx, state, problem, config):
        stack = state.stack
        self.n = problem.partition.n_coarse_free
        self.eps = config.eps * 1e-2
        self.layout = ddsolver.dd_layout(ctx, [state.const[1:], (stack.e_rows, stack.e_cols)],
                                         [state.const_b[1:], (stack.b_idx,)])
        self.warm = None
        self.factor_flops = 0

    def solve(self, ctx, state, enrich, b_enrich, resi_prev, it):
        """(U_g, IterationRecord fields) on every rank."""
        stack = state.stack
        out = ddsolver.dd_solve_from_triplets(
            ctx, self.n, [state.const[1:], (stack.e_rows, stack.e_cols, enrich)],
            [state.const_b[1:], (stack.b_idx, b_enrich)], self.eps, warm=self.warm,
            layout=self.layout)
        self.warm = out.warm
        self.factor_flops += out.factor_flops
        return out.x, dict(coarse_kind="dd", pcg_iterations=out.report.iterations,
                           factor_flops=self.factor_flops, shifted=out.shifted)


COARSE_SOLVERS = {"tsd": _RootCoarse, "tsi": _RootCoarse, "tsdd": _DdCoarse}


# ---------------------------------------------------------------------------
# the solver program


def ts_program(ctx: RankContext, problem: ProblemSetup, plan: PartitionPlan,
               config: TsConfig, warm_u_r=None):
    part = problem.partition
    state = ts_init(ctx, problem, plan)
    coarse = COARSE_SOLVERS[config.coarse_strategy](ctx, state, problem, config)
    records: list[IterationRecord] = []
    resi_history: list[float] = []
    patch_flops: list[int] = []   # this rank's patch solve flops so far, per iteration

    if state.norm_B == 0.0:
        U_g = np.zeros(part.n_coarse_free)
        update_micro_dofs(state, problem, U_g)
        u_r = gather_u_r(ctx, state, problem, U_g)
        return TsResult(True, "zero_load", 0, [0.0], U_g, u_r, records, 0.0, state.schedule)

    if warm_u_r is not None:
        U_g = np.zeros(part.n_coarse_free)
        _scatter_warm(state, problem, warm_u_r)
    else:
        U_g = _initial_coarse_solve(ctx, state, problem)
        update_micro_dofs(state, problem, U_g)

    reason = "max_iterations"
    it = 0
    resi = None
    best = np.inf
    worse = 0
    iterates = [] if config.record_iterates else None
    while it < config.max_iterations:
        t0 = time.perf_counter()
        it += 1
        micro_scale_resolution(ctx, state)
        enrich, b_enrich = update_macro_prb(state)
        U_g, fields = coarse.solve(ctx, state, enrich, b_enrich, resi, it)
        update_micro_dofs(state, problem, U_g)
        resi = compute_residual(ctx, state)
        resi_history.append(resi)
        patch_flops.append(sum(F.solve_flops for F in state.patches.factors))
        records.append(IterationRecord(it, resi, wall_time=time.perf_counter() - t0,
                                       solve_flops=0, **fields))  # set after the loop
        if iterates is not None:
            iterates.append(gather_u_r(ctx, state, problem, U_g))
        if resi < config.eps:
            reason = "converged"
            break
        if resi < best:
            best = resi
            worse = 0
        elif resi > STAGNATION_FACTOR * best:
            worse += 1
            if worse >= STAGNATION_WINDOW:
                reason = "stagnated"
                break
        else:
            worse = 0

    for rec, flops in zip(records, map(sum, zip(*ctx.allgather(patch_flops)))):
        rec.solve_flops = flops
    u_r = gather_u_r(ctx, state, problem, U_g)
    return TsResult(reason == "converged", reason, it, resi_history, U_g, u_r, records,
                    state.norm_B, state.schedule, iterates)


def _scatter_warm(state, problem, warm_u_r):
    """Set the stack's iterate from a free reference vector."""
    part = problem.partition
    # the extra last entry is the zero read by padding rows (dofs -1)
    full = np.zeros(3 * part.n_nodes + 1)
    full[part.free_ref_dofs] = warm_u_r
    state.stack.u[:] = full[state.stack.dofs]


def solve_case(problem: ProblemSetup, plan: PartitionPlan, config: TsConfig,
               n_ranks=1, warm_u_r=None, seed=None) -> TsResult:
    """Run the solver on simulated ranks and return rank 0's result."""
    results = run_ranks(
        n_ranks, ts_program, args=(problem, plan, config, warm_u_r), seed=seed)
    return results[0]
