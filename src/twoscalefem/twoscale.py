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

from .elasticity import (
    LoadSet,
    Material,
    assemble_element_block,
    assemble_nsp,
    hanging_fold,
    node_dofs,
    traction_face_table,
)
from .mesh import DofPartition, NestedMesh, SpInfo, spf_nodes
from .runtime import PartitionPlan, RankContext, run_ranks
from .scheduler import Schedule, build_schedule
from .sparsela import SingularMatrixError, factorize, pcg, solve
from .transfer import (
    CoarseSystem,
    build_tfk,
    coarse_triplets_constant,
    coarse_triplets_enrichment,
    enriched_corners,
    nsp_triplets,
    update_tfe,
)

__all__ = ["TsConfig", "TsResult", "ProblemSetup", "solve_case", "ts_program"]

# the loop gives up once resi has stayed above STAGNATION_FACTOR times its
# best value for STAGNATION_WINDOW consecutive iterations
STAGNATION_WINDOW = 5
STAGNATION_FACTOR = 10.0


@dataclass
class TsConfig:
    eps: float = 1e-7
    max_iterations: int = 200
    coarse_strategy: str = "tsd"        # tsd | tsi | tsdd
    nbp_max: int = 4
    tsi_switch_factor: float = 10000.0
    tsi_min_iterations: int = 2
    tsi_refresh_cg_iters: int = 13
    pcg_iter_max: int = 400
    schedule_variant: str = "V2"
    record_iterates: bool = False

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.nbp_max < 1:
            raise ValueError("nbp_max must be >= 1")
        if self.coarse_strategy not in ("tsd", "tsi", "tsdd"):
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


@dataclass
class TsResult:
    converged: bool
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
        self.blocks = {}            # element -> ElementBlock
        self.nsp_blocks = {}
        self.const_trips = []       # constant coarse triplets of the owned elements
        self.const_b = []
        self.patch_sys = {}         # patch index -> dict with factor etc.
        self.patch_fields = {}      # element -> {enriched corner -> field array}
        self.norm_B = 0.0
        self.coarse = None          # CoarseSystem on the solving rank
        self.coarse_factor = None
        self.schedule = None
        self.mult = None            # node -> SP replica count
        self.node_ranks = None      # node -> ranks holding incident SP elements
        self.spf_nodes = None       # set of SPF ring nodes
        self.btmp = None            # coarse classical NSP load vector (full)
        self.u_prev_coarse = None


# ---------------------------------------------------------------------------
# initialization


def _node_multiplicity(nested, sp_info, blocks_nodes):
    mult = {}
    for e in sp_info.sp_elements:
        for v in blocks_nodes[int(e)]:
            mult[int(v)] = mult.get(int(v), 0) + 1
    return mult


def _patch_owner_ranks(sp_info, plan):
    owners = []
    for patch in sp_info.patches:
        rs = tuple(sorted({int(plan.element_rank[e]) for e in patch.elements}))
        owners.append(rs)
    return owners


def ts_init(ctx: RankContext, problem: ProblemSetup, plan: PartitionPlan, config: TsConfig):
    nested, sp_info, part = problem.nested, problem.sp_info, problem.partition
    mat, loads = problem.material, problem.loads
    state = _RankState()
    tr_table = traction_face_table(nested, loads)
    mine = set(int(e) for e in plan.elements_of(ctx.rank))

    # element blocks (A_FF, B_F, T_Fk, P_Fk) for owned SP elements
    const_trips, const_b = state.const_trips, state.const_b
    for e in map(int, sp_info.sp_elements):
        if e not in mine:
            continue
        block = assemble_element_block(e, nested, mat, loads, tr_table)
        block.T_Fk = build_tfk(block, nested)
        block.P_Fk = (block.A_FF @ block.T_Fk).tocsr()
        block.u_F = np.zeros(block.ndof)
        block.VR_F = np.zeros(block.ndof)
        state.blocks[e] = block
        t, b = coarse_triplets_constant(block, nested, part)
        const_trips.append(t)
        const_b.append(b)

    btmp_items = []
    for e in map(int, sp_info.nsp_elements):
        if e not in mine:
            continue
        nb = assemble_nsp(e, nested, mat, loads, tr_table)
        state.nsp_blocks[e] = nb
        t, b = nsp_triplets(nb, part)
        const_trips.append(t)
        const_b.append(b)
        btmp_items.append(b)

    # shared metadata: identical on every rank (mesh is global, plan is global)
    block_nodes = {e: hanging_fold(nested, np.unique(nested.micro[e]))[0]
                   for e in map(int, sp_info.sp_elements)}
    state.mult = _node_multiplicity(nested, sp_info, block_nodes)
    state.spf_nodes = set(map(int, spf_nodes(nested, part)))
    node_ranks: dict[int, set] = {}
    for e in map(int, sp_info.sp_elements):
        r = int(plan.element_rank[e])
        for v in block_nodes[e]:
            node_ranks.setdefault(int(v), set()).add(r)
    state.node_ranks = {v: tuple(sorted(rs)) for v, rs in node_ranks.items()}

    # scaling diagonals per owned block
    for e, block in state.blocks.items():
        scal_resi = np.empty(block.ndof)
        scal_bnorm = np.empty(block.ndof)
        for j, v in enumerate(block.nodes):
            m = state.mult[int(v)]
            for c in range(3):
                dof = 3 * int(v) + c
                w = 1.0 / m
                if part.ref_dirichlet[dof]:
                    w = 0.0
                scal_bnorm[3 * j + c] = w
                scal_resi[3 * j + c] = 0.0 if int(v) in state.spf_nodes else w
        block.scaling = scal_resi
        block._scaling_bnorm = scal_bnorm

    # NSP load vector over coarse classical free dofs, summed deterministically
    n_free = part.n_coarse_free
    local_btmp = np.zeros(n_free)
    for eid, idx, vals in btmp_items:
        np.add.at(local_btmp, idx, vals)
    gathered = ctx.gather([(eid, idx, vals) for eid, idx, vals in btmp_items], 0)
    if ctx.rank == 0:
        btmp = np.zeros(n_free)
        flat = sorted((t for lst in gathered for t in lst), key=lambda t: t[0])
        for eid, idx, vals in flat:
            np.add.at(btmp, idx, vals)
    else:
        btmp = None
    state.btmp = ctx.bcast(btmp, 0)

    # patch schedule and patch systems
    owners = _patch_owner_ranks(sp_info, plan)
    D, L = [], []
    for pi, patch in enumerate(sp_info.patches):
        rs = owners[pi]
        if ctx.rank in rs:
            if len(rs) >= 2:
                D.append((pi, patch.weight, rs))
            else:
                L.append((pi, patch.weight))
    state.schedule = build_schedule(ctx, D, L, config.schedule_variant)
    state.patch_owner = owners

    _build_patch_systems(ctx, state, problem, plan)

    # coarse system on rank 0 (gathered through the retained ranks)
    trips = _route_to_root(ctx, config, const_trips)
    bb = _route_to_root(ctx, config, const_b)
    if ctx.rank == 0:
        cs = CoarseSystem(part)
        cs.set_constant(trips, bb)
        state.coarse = cs

    state.norm_B = compute_b_norm(ctx, state, problem)
    return state


def _route_to_root(ctx, config, items):
    """Send per-element contributions to rank 0 via the retained coarse ranks."""
    retained = min(config.nbp_max, ctx.size)
    if ctx.rank >= retained:
        ctx.send(ctx.rank % retained, items, tag=21)
        items = []
    else:
        merged = list(items)
        for r in range(retained + ctx.rank, ctx.size, retained):
            merged.extend(ctx.recv(r, tag=21))
        items = merged
    lists = ctx.gather(items, 0)
    if ctx.rank != 0:
        return None
    return [t for lst in lists for t in lst]


def _patch_members(sp_info, plan, pi):
    return [int(e) for e in sp_info.patches[pi].elements]


def _build_patch_systems(ctx, state, problem, plan):
    """Assemble and factorize A_qq per patch; owner is the lowest participant."""
    sp_info, part = problem.sp_info, problem.partition

    def handle_patch(pi, group):
        sets = part.patch_sets[pi]
        members = _patch_members(sp_info, plan, pi)
        owner_world = state.patch_owner[pi][0]
        my_blocks = [(e, state.blocks[e]) for e in members
                     if int(plan.element_rank[e]) == ctx.rank]
        payload = [(e, b.nodes, b.A_FF, b.B_F) for e, b in sorted(my_blocks)]
        if group is not None:
            pieces = group.gather(payload, root=0)
            is_owner = group.rank == 0
        else:
            pieces = [payload]
            is_owner = True
        if not is_owner:
            return
        merged = sorted((t for lst in pieces for t in lst), key=lambda t: t[0])
        q_dofs = sets["q"]
        d_dofs = sets["d"]
        q_index = {int(d): i for i, d in enumerate(q_dofs)}
        d_index = {int(d): i for i, d in enumerate(d_dofs)}
        nq, nd = len(q_dofs), len(d_dofs)
        rows_q, cols_q, vals_q = [], [], []
        rows_d, cols_d, vals_d = [], [], []
        BI = np.zeros(nq)
        for e, nodes, A_FF, B_F in merged:
            dof_ids = node_dofs(nodes)
            qi = np.array([q_index.get(int(d), -1) for d in dof_ids])
            di = np.array([d_index.get(int(d), -1) for d in dof_ids])
            coo = A_FF.tocoo()
            r_q = qi[coo.row]
            c_q = qi[coo.col]
            c_d = di[coo.col]
            in_qq = (r_q >= 0) & (c_q >= 0)
            rows_q.append(r_q[in_qq])
            cols_q.append(c_q[in_qq])
            vals_q.append(coo.data[in_qq])
            in_qd = (r_q >= 0) & (c_d >= 0)
            rows_d.append(r_q[in_qd])
            cols_d.append(c_d[in_qd])
            vals_d.append(coo.data[in_qd])
            keep = qi >= 0
            np.add.at(BI, qi[keep], B_F[keep])
        A_qq = sp.coo_matrix(
            (np.concatenate(vals_q), (np.concatenate(rows_q), np.concatenate(cols_q))),
            shape=(nq, nq),
        ).tocsc()
        A_qd = sp.coo_matrix(
            (np.concatenate(vals_d), (np.concatenate(rows_d), np.concatenate(cols_d))),
            shape=(nq, nd),
        ).tocsr()
        try:
            factor = factorize(A_qq)
        except SingularMatrixError as exc:
            raise SingularMatrixError(exc.dof, exc.pivot) from RuntimeError(
                f"patch {sp_info.patches[pi].node} has a singular interior matrix")
        state.patch_sys[pi] = {
            "factor": factor,
            "BI": BI,
            "D_qd": -A_qd,
            "q_dofs": np.asarray(q_dofs, dtype=np.int64),
            "d_dofs": np.asarray(d_dofs, dtype=np.int64),
        }

    _iterate_schedule(ctx, state, problem, plan, handle_patch)


def _iterate_schedule(ctx, state, problem, plan, fn):
    """Visit patches sequence by sequence (subgroups for distributed ones).

    fn(patch_index, subgroup_or_None); local patches pass None.  A rank
    joining two patches in one sequence would deadlock the subgroup
    collectives, which the schedule guarantees against (asserted).
    """
    sched = state.schedule
    M = sched.M
    for s in range(sched.n_sequences):
        col = M[:, s]
        my = int(col[ctx.rank])
        color = my if my >= 0 else None
        owners = state.patch_owner
        if my >= 0 and len(owners[my]) >= 2:
            assert list(np.nonzero(col == my)[0]) == list(owners[my]), \
                "schedule violation: participant mismatch"
            group = ctx.split_by_color(int(my))
            fn(my, group)
        else:
            ctx.split_by_color(None)
            if my >= 0:
                fn(my, None)
    done = {int(p) for s in range(sched.n_sequences) for p in M[:, s] if p >= 0}
    for p in sched.L_o[ctx.rank]:
        if p not in done:
            fn(int(p), None)


# ---------------------------------------------------------------------------
# scale-loop procedures


def micro_scale_resolution(ctx, state, problem, plan):
    """Solve every patch with the current boundary data from u_F."""
    sp_info, part = problem.sp_info, problem.partition
    nested = problem.nested
    state.patch_fields = {e: {} for e in state.blocks}

    def handle_patch(pi, group):
        sets = part.patch_sets[pi]
        members = _patch_members(sp_info, plan, pi)
        my_blocks = [(e, state.blocks[e]) for e in members
                     if int(plan.element_rank[e]) == ctx.rank]
        # gather boundary values (dof -> value) from member elements
        local_vals = {}
        for e, b in sorted(my_blocks):
            for j, v in enumerate(b.nodes):
                for c in range(3):
                    dof = 3 * int(v) + c
                    local_vals[dof] = b.u_F[3 * j + c]
        if group is not None:
            pieces = group.gather(local_vals, root=0)
            is_owner = group.rank == 0
        else:
            pieces = [local_vals]
            is_owner = True
        sol_nodes = None
        if is_owner:
            sysd = state.patch_sys[pi]
            dmap = {}
            for d in pieces:
                dmap.update(d)
            u_d = np.array([dmap[int(d)] for d in sysd["d_dofs"]])
            B_q = sysd["BI"] + sysd["D_qd"] @ u_d
            u_q = solve(sysd["factor"], B_q)
            full = dict(zip((int(d) for d in sysd["q_dofs"]), u_q))
            for d, v in zip(sysd["d_dofs"], u_d):
                full[int(d)] = v
            sol_nodes = full
        if group is not None:
            sol_nodes = group.bcast(sol_nodes, root=0)
        # store the per-element field of this patch
        p_node = sp_info.patches[pi].node
        for e, b in my_blocks:
            arr = np.zeros((len(b.nodes), 3))
            for j, v in enumerate(b.nodes):
                for c in range(3):
                    dof = 3 * int(v) + c
                    if part.ref_dirichlet[dof]:
                        arr[j, c] = 0.0
                    else:
                        arr[j, c] = sol_nodes[dof]
            state.patch_fields[e][p_node] = arr

    _iterate_schedule(ctx, state, problem, plan, handle_patch)


def update_macro_prb(ctx, state, problem, plan, config):
    """Rebuild T_Fe per element; returns this rank's enrichment triplets."""
    nested, part = problem.nested, problem.partition
    enrich, b_enrich = [], []
    for e, block in sorted(state.blocks.items()):
        block.T_Fe = update_tfe(block, nested, part, state.patch_fields.get(e, {}))
        out = coarse_triplets_enrichment(block, nested, part)
        if out is not None:
            enrich.append(out[0])
            b_enrich.append(out[1])
    return enrich, b_enrich


def build_coarse_on_root(ctx, state, config, enrich, b_enrich):
    """Route enrichment triplets to rank 0 and assemble A_gg, B_g there."""
    trips = _route_to_root(ctx, config, enrich)
    bb = _route_to_root(ctx, config, b_enrich)
    if ctx.rank == 0:
        return state.coarse.build(trips, bb)
    return None, None


def update_micro_dofs(ctx, state, problem, U_g):
    """u_F per element from the coarse solution (classical + enrichment)."""
    nested, part = problem.nested, problem.partition
    nc = part.n_coarse_nodes
    full = np.zeros(3 * nc + 3 * part.n_enriched)
    full[part.free_coarse_dofs] = U_g
    for e, block in state.blocks.items():
        tet = nested.coarse.tets[e]
        U_c = np.concatenate([full[3 * int(v): 3 * int(v) + 3] for v in tet])
        u = block.T_Fk @ U_c
        if block.T_Fe is not None and block.T_Fe.shape[1]:
            corners = enriched_corners(nested, part, e)
            E = np.concatenate([
                full[3 * nc + 3 * part.enriched_index[p]: 3 * nc + 3 * part.enriched_index[p] + 3]
                for p in corners
            ])
            u = u + block.T_Fe @ E
        block.u_F = u


def _exchange_assembled(ctx, state, contrib):
    """Fold per-(node, element) vectors into fully assembled nodal values.

    contrib: node -> list[(element id, 3-vector)].  Returns node -> value
    with contributions from every rank summed in element-id order.
    """
    out_msgs: dict[int, list] = {}
    for v, lst in contrib.items():
        for r in state.node_ranks[v]:
            if r != ctx.rank:
                out_msgs.setdefault(r, []).append((v, lst))
    neighbours = sorted({r for v in contrib for r in state.node_ranks[v] if r != ctx.rank})
    for r in neighbours:
        ctx.send(r, out_msgs.get(r, []), tag=31)
    merged = {v: list(lst) for v, lst in contrib.items()}
    for r in neighbours:
        for v, lst in ctx.recv(r, tag=31):
            merged.setdefault(v, []).extend(lst)
    values = {}
    for v, lst in merged.items():
        lst.sort(key=lambda t: t[0])
        acc = np.zeros(3)
        for _, vec in lst:
            acc = acc + vec
        values[v] = acc
    return values


def _accumulate_vr(ctx, state, per_element_vec, extra_node_values=None):
    """Assemble VR buffers for every owned element from per-element vectors."""
    contrib: dict[int, list] = {}
    for e, block in state.blocks.items():
        vec = per_element_vec[e]
        for j, v in enumerate(block.nodes):
            contrib.setdefault(int(v), []).append((e, vec[3 * j: 3 * j + 3]))
    values = _exchange_assembled(ctx, state, contrib)
    if extra_node_values:
        for v, vec in extra_node_values.items():
            if v in values:
                values[v] = values[v] + vec
    for e, block in state.blocks.items():
        VR = block.VR_F
        VR[:] = 0.0
        for j, v in enumerate(block.nodes):
            VR[3 * j: 3 * j + 3] = values[int(v)]
    return values


def compute_b_norm(ctx, state, problem):
    """Monolithic-exact ||B_r||: NSP h rows plus assembled f rows once each."""
    part = problem.partition
    per_elem = {e: b.B_F for e, b in state.blocks.items()}
    spf_extra = {}
    for v in state.spf_nodes:
        gi = part.coarse_dof_index[3 * v: 3 * v + 3]
        spf_extra[v] = np.where(gi >= 0, state.btmp[gi], 0.0)
    _accumulate_vr(ctx, state, per_elem, spf_extra)
    items = []
    for e, block in sorted(state.blocks.items()):
        local = float(np.dot(block._scaling_bnorm * block.VR_F, block.VR_F))
        items.append((e, local))
    if ctx.rank == 0:
        h_part = 0.0
        for v in part.coarse_h_nodes:
            for c in range(3):
                gi = part.coarse_dof_index[3 * int(v) + c]
                if gi >= 0:
                    h_part += state.btmp[gi] ** 2
        items.append((-1, h_part))
    total = ctx.all_reduce_ordered_sum(items)
    return float(np.sqrt(total))


def compute_residual(ctx, state, problem):
    """resi = ||A_fr u_r - B_f|| / ||B_r|| with interface rows treated as zero."""
    per_elem = {}
    for e, block in state.blocks.items():
        per_elem[e] = block.A_FF @ block.u_F - block.B_F
    _accumulate_vr(ctx, state, per_elem)
    items = []
    for e, block in sorted(state.blocks.items()):
        local = float(np.dot(block.scaling * block.VR_F, block.VR_F))
        items.append((e, local))
    total = ctx.all_reduce_ordered_sum(items)
    return float(np.sqrt(total)) / state.norm_B


def gather_u_r(ctx, state, problem, U_g):
    """Assemble the global free reference vector from element fields."""
    part = problem.partition
    vals = {}
    for e, block in state.blocks.items():
        for j, v in enumerate(block.nodes):
            for c in range(3):
                dof = 3 * int(v) + c
                idx = part.ref_dof_index[dof]
                if idx >= 0:
                    vals[int(idx)] = block.u_F[3 * j + c]
    lists = ctx.gather(vals, 0)
    u_r = None
    if ctx.rank == 0:
        u_r = np.zeros(part.n_ref_free)
        for d in lists:
            for idx, v in d.items():
                u_r[idx] = v
        nc = part.n_coarse_nodes
        full = np.zeros(3 * nc + 3 * part.n_enriched)
        full[part.free_coarse_dofs] = U_g
        for v in part.h_nodes:
            for c in range(3):
                idx = part.ref_dof_index[3 * int(v) + c]
                if idx >= 0:
                    u_r[idx] = full[3 * int(v) + c]
    return ctx.bcast(u_r, 0)


# ---------------------------------------------------------------------------
# coarse solves


def _initial_coarse_solve(ctx, state, problem, config):
    """Unenriched coarse problem: classical block only, enrichment pinned to zero."""
    part = problem.partition
    if ctx.rank == 0:
        A, B = state.coarse.build()
        n_cl = part.n_coarse_free - 3 * part.n_enriched
        A_cl = A[:n_cl, :n_cl].tocsc()
        F = factorize(A_cl)
        U = np.zeros(part.n_coarse_free)
        U[:n_cl] = solve(F, B[:n_cl])
    else:
        U = None
    return ctx.bcast(U, 0)


def _coarse_solve(ctx, state, problem, config, A, B, resi_prev, it, flops):
    """One dagger solve; returns (U_g, kind, pcg_iters) on every rank."""
    part = problem.partition
    kind, piters = "direct", 0
    if ctx.rank == 0:
        use_pcg = (
            config.coarse_strategy == "tsi"
            and state.coarse_factor is not None
            and not state.coarse_refresh
            and it >= config.tsi_min_iterations
            and resi_prev is not None
            and resi_prev < config.eps * config.tsi_switch_factor
        )
        if use_pcg:
            x0 = state.u_prev_coarse if state.u_prev_coarse is not None else np.zeros(len(B))
            factor = state.coarse_factor
            x, rep = pcg(
                x0, lambda v: A @ v, B, lambda v: solve(factor, v),
                config.eps * 1e-4, iter_max=config.pcg_iter_max,
            )
            if rep.converged:
                U, kind, piters = x, "pcg", rep.iterations
                state.coarse_refresh = rep.iterations > config.tsi_refresh_cg_iters
            else:
                use_pcg = False  # fall back to a direct solve this iteration
        if not use_pcg:
            F = factorize(A, null_pivot="drop")
            flops["factor"] += F.factor_flops
            U = solve(F, B)
            state.coarse_factor = F
            state.coarse_refresh = False
            kind = "direct"
        state.u_prev_coarse = U
    else:
        U = None
    U = ctx.bcast(U, 0)
    kind = ctx.bcast(kind, 0)
    piters = ctx.bcast(piters, 0)
    return U, kind, piters


def _coarse_solve_dd(ctx, state, problem, config, enrich, b_enrich, flops):
    """Coarse solve through the Schur-complement backend, warm boundary start."""
    from .ddsolver import dd_solve_from_triplets

    part = problem.partition
    out = dd_solve_from_triplets(
        ctx,
        n=part.n_coarse_free,
        const_trips=state.const_trips,
        const_b=state.const_b,
        extra_trips=enrich,
        extra_b=b_enrich,
        eps=config.eps * 1e-2,
        warm=state.dd_warm,
        dof_set=state.dd_dofs,
    )
    state.dd_warm = out.warm
    return out.x, out.report.iterations


# ---------------------------------------------------------------------------
# the solver program


def ts_program(ctx: RankContext, problem: ProblemSetup, plan: PartitionPlan,
               config: TsConfig, warm_u_r=None):
    part = problem.partition
    state = ts_init(ctx, problem, plan, config)
    state.coarse_refresh = False
    state.dd_warm = None
    if config.coarse_strategy == "tsdd":
        _prepare_dd_coarse(state, problem)

    flops = {"factor": 0, "solve": 0}
    records: list[IterationRecord] = []
    resi_history: list[float] = []

    if state.norm_B == 0.0:
        U_g = np.zeros(part.n_coarse_free)
        update_micro_dofs(ctx, state, problem, U_g)
        u_r = gather_u_r(ctx, state, problem, U_g)
        return TsResult(True, 0, [0.0], U_g, u_r, records, 0.0, state.schedule)

    if warm_u_r is not None:
        U_g = np.zeros(part.n_coarse_free)
        _scatter_warm(state, problem, warm_u_r)
    else:
        U_g = _initial_coarse_solve(ctx, state, problem, config)
        update_micro_dofs(ctx, state, problem, U_g)

    converged = False
    it = 0
    resi_prev = None
    best = np.inf
    worse = 0
    iterates = [] if config.record_iterates else None
    while it < config.max_iterations:
        t0 = time.perf_counter()
        it += 1
        micro_scale_resolution(ctx, state, problem, plan)
        enrich, b_enrich = update_macro_prb(ctx, state, problem, plan, config)
        if config.coarse_strategy == "tsdd":
            U_g, piters = _coarse_solve_dd(ctx, state, problem, config, enrich, b_enrich, flops)
            kind = "dd"
        else:
            A, B = build_coarse_on_root(ctx, state, config, enrich, b_enrich)
            U_g, kind, piters = _coarse_solve(
                ctx, state, problem, config, A, B, resi_prev, it, flops)
        update_micro_dofs(ctx, state, problem, U_g)
        resi = compute_residual(ctx, state, problem)
        resi_history.append(resi)
        resi_prev = resi
        psolve = ctx.all_reduce_sum(
            sum(s["factor"].solve_flops for s in state.patch_sys.values()))
        records.append(IterationRecord(
            it, resi, kind, piters, time.perf_counter() - t0, flops["factor"], psolve))
        if iterates is not None:
            iterates.append(gather_u_r(ctx, state, problem, U_g))
        if resi < config.eps:
            converged = True
            break
        if resi < best:
            best = resi
            worse = 0
        elif resi > STAGNATION_FACTOR * best:
            worse += 1
            if worse >= STAGNATION_WINDOW:
                break
        else:
            worse = 0

    u_r = gather_u_r(ctx, state, problem, U_g)
    return TsResult(converged, it, resi_history, U_g, u_r, records,
                    state.norm_B, state.schedule, iterates)


def _scatter_warm(state, problem, warm_u_r):
    part = problem.partition
    full = np.zeros(3 * part.n_nodes)
    full[part.free_ref_dofs] = warm_u_r
    for e, block in state.blocks.items():
        for j, v in enumerate(block.nodes):
            block.u_F[3 * j: 3 * j + 3] = full[3 * int(v): 3 * int(v) + 3]


def _prepare_dd_coarse(state, problem):
    """Cache this rank's coarse dof layout for dd.

    The layout holds the classical dofs of every owned element and the
    enriched dofs of the owned SP elements; the constant triplets are the
    ones ts_init kept on the rank state.
    """
    from .transfer import element_classical_dofs, element_enriched_dofs

    part, nested = problem.partition, problem.nested
    dofs = [element_classical_dofs(nested, e) for e in (*state.blocks, *state.nsp_blocks)]
    dofs += [element_enriched_dofs(nested, part, e) for e in state.blocks]
    idx = part.coarse_dof_index[np.concatenate([np.zeros(0, np.int64), *dofs])]
    state.dd_dofs = np.unique(idx[idx >= 0])


def solve_case(problem: ProblemSetup, plan: PartitionPlan, config: TsConfig,
               n_ranks=1, warm_u_r=None, seed=None) -> TsResult:
    """Run the solver on simulated ranks and return rank 0's result."""
    results = run_ranks(
        n_ranks, ts_program, args=(problem, plan, config, warm_u_r), seed=seed)
    return results[0]
