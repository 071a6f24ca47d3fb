"""The batched set-up against a per-element reference built here.

A rank assembles its SP blocks with one kernel call and one fold, stacks
them, forms T_Fk and the constant coarse triplets for all its blocks at
once and slices the patch systems from the stack.  Every array must equal,
bitwise, what assembling each element on its own gives.
"""

import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from twoscalefem import elasticity, twoscale
from twoscalefem.bench import CaseSpec, build_cone_box_problem, build_cubic_problem
from twoscalefem.elasticity import (
    assemble_element_block,
    batch_leaf_stiffness,
    consistent_loads,
    leaf_matrix,
    node_dofs,
)
from twoscalefem.reference import assemble_reference
from twoscalefem.runtime import partition_mesh, run_ranks
from twoscalefem.scheduler import PatchGraph
from twoscalefem.sparsela import factorize, solve
from twoscalefem.transfer import barycentric_matrix, build_tfk
from twoscalefem.twoscale import ts_init


@pytest.fixture(scope="module")
def cone():
    return build_cone_box_problem(CaseSpec(kind="cone-damage-box", sp_depth=1))


def face_lookup(nested):
    """Element id -> [(surface face, label)], from the mesh's face arrays."""
    faces, elem, labels = nested.boundary_fine_faces()
    table = {}
    for face, e, label in zip(faces, elem.tolist(), labels.tolist()):
        table.setdefault(e, []).append((face, label))
    return table


def element_loads(nested, loads, table, e, simplices, nodes):
    """Consistent load (3 len(nodes),) of element e on its simplices' nodes."""
    out = np.zeros((len(nodes), 3))
    order = np.argsort(nodes)
    at = lambda s: order[np.searchsorted(nodes, s, sorter=order)]
    if loads.body is not None:
        np.add.at(out, at(simplices), consistent_loads(nested.points, simplices, loads.body))
    for label, traction in loads.tractions.items():
        tris = np.array([f for f, lab in table.get(e, ()) if lab == label], dtype=np.int64)
        if len(tris):
            np.add.at(out, at(tris), consistent_loads(nested.points, tris, traction))
    return out.ravel()


def element_block(nested, material, loads, table, e):
    """Kept nodes, A_FF = W^T K W and B_F = W^T b of one SP element on its own."""
    leaves = nested.micro[e]
    raw = np.unique(leaves)
    hanging = np.isin(raw, nested.hanging)
    kept = raw[~hanging]
    rows, cols, vals = [np.nonzero(~hanging)[0]], [np.arange(len(kept))], [np.ones(len(kept))]
    for i in np.nonzero(hanging)[0]:
        h = np.flatnonzero(nested.hanging == raw[i])[0]
        parents, weights = nested.hanging_parents[h], nested.hanging_weights[h]
        rows.append(np.full(len(parents), i))
        cols.append(np.searchsorted(kept, parents))
        vals.append(np.array(weights))
    W = sp.csr_matrix((np.repeat(np.concatenate(vals), 3),
                       (node_dofs(np.concatenate(rows)), node_dofs(np.concatenate(cols)))),
                      shape=(3 * len(raw), 3 * len(kept)))
    K_all, _ = batch_leaf_stiffness(nested.points, leaves, material)
    A = (W.T @ leaf_matrix(np.searchsorted(raw, leaves), K_all, len(raw)) @ W).tocsr()
    A.sum_duplicates()
    return kept, A, W.T @ element_loads(nested, loads, table, e, leaves, raw)


def dense_triplets(part, e, M, dofs, B):
    idx = part.coarse_dof_index[dofs]
    rr, cc = np.meshgrid(idx, idx, indexing="ij")
    keep = ((rr >= 0) & (cc >= 0)).ravel()
    return ((np.full(keep.sum(), e), rr.ravel()[keep], cc.ravel()[keep], M.ravel()[keep]),
            (np.full((idx >= 0).sum(), e), idx[idx >= 0], B[idx >= 0]))


def reference(problem, plan, rank):
    """Per-element blocks, T_Fk and constant triplets of the rank's elements."""
    nested, sp_info, part = problem.nested, problem.sp_info, problem.partition
    mat, loads = problem.material, problem.loads
    table = face_lookup(nested)
    blocks, tfk, const = {}, {}, []
    for e in map(int, sp_info.sp_elements):
        if plan.element_rank[e] != rank:
            continue
        nodes, A, B = blocks[e] = element_block(nested, mat, loads, table, e)
        N = barycentric_matrix(nested, e, nodes)
        N[np.abs(N) < 1e-14] = 0.0
        T = tfk[e] = sp.csr_matrix(np.kron(N, np.eye(3)))
        const.append(dense_triplets(part, e, T.T @ (A @ T).toarray(),
                                    node_dofs(nested.coarse.tets[e]), T.T @ B))
    for e in map(int, sp_info.nsp_elements):
        if plan.element_rank[e] != rank:
            continue
        tet = nested.coarse.tets[e]
        K, _ = batch_leaf_stiffness(nested.points, tet[None], mat)
        const.append(dense_triplets(part, e, K[0], node_dofs(tet),
                                    element_loads(nested, loads, table, e, tet[None], tet)))
    flat = [tuple(np.concatenate([c[k][a] for c in const]) for a in range(4 - k)) for k in (0, 1)]
    return blocks, tfk, flat


def patch_reference(problem, plan, blocks, pi):
    """A_qq, A_qd, BI and d_src of patch pi from the per-element blocks."""
    part, patch = problem.partition, problem.sp_info.patches[pi]
    q_dofs, d_dofs = part.patch_sets[pi]["q"], part.patch_sets[pi]["d"]
    nq, nd = len(q_dofs), len(d_dofs)
    # arrival order: participant ranks ascending, each rank's members ascending
    arrived = sorted(map(int, patch.elements), key=lambda e: (plan.element_rank[e], e))
    offsets = dict(zip(arrived, np.cumsum([0] + [3 * len(blocks[e][0]) for e in arrived])))
    d_src = np.full(nd, -1, dtype=np.int64)
    rows, cols, vals = [], [], []
    BI = np.zeros(nq)
    for e in map(int, patch.elements):  # ascending element id
        nodes, A, B = blocks[e]
        col = twoscale._patch_positions(q_dofs, d_dofs, node_dofs(nodes))
        row = np.where(col < nq, col, -1)
        d = np.nonzero((col >= nq) & (col < nq + nd))[0]
        d_src[col[d] - nq] = offsets[e] + d
        coo = A.tocoo()
        keep = (row[coo.row] >= 0) & (col[coo.col] < nq + nd)
        rows.append(row[coo.row][keep])
        cols.append(col[coo.col][keep])
        vals.append(coo.data[keep])
        np.add.at(BI, row[row >= 0], B[row >= 0])
    r, c, v = (np.concatenate(a) for a in (rows, cols, vals))
    qq = c < nq
    return (sp.coo_matrix((v[qq], (r[qq], c[qq])), shape=(nq, nq)).tocsc(),
            sp.coo_matrix((v[~qq], (r[~qq], c[~qq] - nq)), shape=(nq, nd)).tocsr(), BI, d_src)


def same(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("indptr", "indices", "data"))


@pytest.mark.parametrize("n_ranks", [1, 3])
def test_batched_setup_equals_per_element_assembly(cone, n_ranks, monkeypatch):
    problem = cone
    plan = partition_mesh(problem.nested, problem.sp_info, n_ranks)
    if n_ranks > 1:
        assert any(len(p) >= 2 for p in PatchGraph.of(problem.sp_info, plan).participants.values())
    # ts_init factorizes the patches it owns, in the order it stores them
    local, factored = threading.local(), {}
    orig = twoscale.factorize
    monkeypatch.setattr(twoscale, "factorize", lambda A: (
        factored.setdefault(local.rank, []).append(A.copy()), orig(A))[1])

    def prog(ctx):
        local.rank = ctx.rank
        return ts_init(ctx, problem, plan)

    states = run_ranks(n_ranks, prog)
    all_blocks = {}
    for rank, state in enumerate(states):
        blocks, tfk, (const, const_b) = reference(problem, plan, rank)
        all_blocks.update(blocks)
        stack = state.stack
        assert list(stack.elements) == sorted(blocks)
        for i, e in enumerate(stack.elements):
            rows = slice(stack.width * i, stack.width * i + stack.ndof[i])
            nodes, A, B = blocks[e]
            assert np.array_equal(stack.dofs[rows], node_dofs(nodes))
            assert same(stack.A[rows, rows], A)
            assert np.array_equal(stack.B[rows], B)
            assert same(stack.T_Fk[rows, 12 * i:12 * i + 12], tfk[e])
        for got, expect in zip(state.const + state.const_b, const + const_b):
            assert np.array_equal(got, expect)
    assert sum(len(s.patches.factors) for s in states) == len(problem.sp_info.patches)
    for rank, state in enumerate(states):
        pp, stack = state.patches, state.stack
        assert len(factored.get(rank, [])) == len(pp.factors) == len(pp.patches)
        recv = len(stack.u)  # the received pieces follow the stack's u
        for k, (A_qq, pi) in enumerate(zip(factored.get(rank, []), pp.patches)):
            expect_qq, expect_qd, BI, d_src = patch_reference(problem, plan, all_blocks, pi)
            q, d = slice(*pp.q_ptr[k:k + 2]), slice(*pp.d_ptr[k:k + 2])
            assert same(A_qq, expect_qq)
            assert same(-pp.D_qd[q, d], expect_qd)
            assert pp.D_qd[q].nnz == expect_qd.nnz  # block-diagonal
            assert np.array_equal(pp.BI[q], BI)
            # d values: the owner's member rows from its stack, the others' as received
            members = problem.sp_info.patches[pi].elements
            own = np.concatenate([stack.rows_of(e) for e in members
                                  if plan.element_rank[e] == rank])
            assert np.array_equal(pp.d_gather[d], np.where(
                d_src < len(own), own[np.minimum(d_src, len(own) - 1)], recv + d_src - len(own)))
            if k in pp.distributed:
                recv += sum(3 * len(all_blocks[e][0]) for e in members) - len(own)


@pytest.mark.parametrize("n_ranks", [1, 3])
def test_patch_pass_equals_per_patch_solves(cone, n_ranks):
    # one micro_scale_resolution sets every patch field bitwise to the solve of
    # the patch system assembled element by element, whichever rank owns it
    problem = cone
    part, sp_info = problem.partition, problem.sp_info
    plan = partition_mesh(problem.nested, sp_info, n_ranks)
    U_g = np.random.default_rng(5).normal(size=part.n_coarse_free)

    def prog(ctx):
        state = ts_init(ctx, problem, plan)
        twoscale.update_micro_dofs(state, problem, U_g)
        twoscale.micro_scale_resolution(ctx, state)
        return state

    states = run_ranks(n_ranks, prog)
    blocks = {}
    for rank in range(n_ranks):
        blocks.update(reference(problem, plan, rank)[0])
    for pi, patch in enumerate(sp_info.patches):
        q_dofs, d_dofs = part.patch_sets[pi]["q"], part.patch_sets[pi]["d"]
        A_qq, A_qd, BI, d_src = patch_reference(problem, plan, blocks, pi)
        arrived = sorted(map(int, patch.elements), key=lambda e: (plan.element_rank[e], e))
        stack_of = lambda e: states[plan.element_rank[e]].stack
        u_d = np.concatenate([stack_of(e).u[stack_of(e).rows_of(e)] for e in arrived])[d_src]
        sol = np.concatenate([solve(factorize(A_qq), BI + (-A_qd) @ u_d), u_d, [0.0]])
        for e in map(int, patch.elements):
            stack = stack_of(e)
            dofs = stack.dofs[stack.rows_of(e)]
            pos = twoscale._patch_positions(q_dofs, d_dofs, dofs)
            pos[part.ref_dirichlet[dofs]] = len(sol) - 1
            got = stack.fields.reshape(-1)[stack.field_slots(e, patch.node)]
            assert np.array_equal(got, sol[pos])


def test_kept_nodes_equal_each_elements_own_nodes(cone):
    nested, elements = cone.nested, cone.sp_info.sp_elements
    hanging = set(nested.hanging.tolist())
    expect = [(e, v) for e in elements.tolist() for v in np.unique(nested.micro[e]).tolist()
              if v not in hanging]
    row_elem, row_node = twoscale._kept_nodes(nested, elements)
    assert list(zip(row_elem.tolist(), row_node.tolist())) == expect


DEPTH2 = {
    "cone": lambda: build_cone_box_problem(CaseSpec(kind="cone-damage-box", sp_depth=2)),
    "cubic": lambda: build_cubic_problem(CaseSpec(sp_depth=2))[0],
}


def rank_elements(problem, n_ranks=2):
    sp_elements = problem.sp_info.sp_elements
    plan = partition_mesh(problem.nested, problem.sp_info, n_ranks)
    return [sp_elements[plan.element_rank[sp_elements] == r] for r in range(n_ranks)]


@pytest.mark.parametrize("case", sorted(DEPTH2))
def test_pass_size_moves_no_block_and_a_rr_by_round_off_only(case, monkeypatch):
    # one element per pass and one pass over everything against the default
    # passes: every entry of an element block is summed within one element, so
    # the blocks and T_Fk are bitwise equal; B_r is summed as before, and A_rr
    # adds the passes' shared entries in another order
    problem = DEPTH2[case]()
    nested, mat, loads = problem.nested, problem.material, problem.loads

    def assemble():
        blocks = [assemble_element_block(e, nested, mat, loads) for e in rank_elements(problem)]
        return (blocks, [build_tfk(b, nested) for b in blocks],
                assemble_reference(nested, problem.partition, mat, loads))

    blocks, tfk, system = assemble()
    n_leaves = sum(len(nested.micro[e]) for e in range(nested.coarse.n_elements))
    assert n_leaves > elasticity.KERNEL_CHUNK  # the default cuts the reference into passes
    for chunk in (1, 10**9):
        monkeypatch.setattr(elasticity, "KERNEL_CHUNK", chunk)
        got_blocks, got_tfk, got = assemble()
        for a, b, ta, tb in zip(blocks, got_blocks, tfk, got_tfk):
            assert same(a.A_FF, b.A_FF) and same(ta, tb)
            assert np.array_equal(a.B_F, b.B_F) and np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(got.B_r, system.B_r)
        assert abs(got.A_rr - system.A_rr).max() <= 1e-14 * abs(system.A_rr).max()


def test_assembly_transients_stay_within_one_pass():
    # the transient of an assembly (traced peak minus what it returns) is set
    # by one pass, not by the mesh: the kernel blocks, the (leaf, slot) COO and
    # its CSR sum of one pass take 144 * 28 bytes per leaf; one batch over the
    # cone's leaves read 41.5 MB (reference) and 21.1 MB (a rank's blocks)
    problem = DEPTH2["cone"]()
    nested, mat, loads = problem.nested, problem.material, problem.loads
    one_pass = elasticity.KERNEL_CHUNK * 144 * 28
    mine = rank_elements(problem)[0]
    for assemble in (lambda: assemble_reference(nested, problem.partition, mat, loads),
                     lambda: assemble_element_block(mine, nested, mat, loads)):
        assemble()  # lazy mesh tables are built outside the measurement
        tracemalloc.start()
        try:
            result = assemble()  # held, so that live counts it and peak - live does not
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - live < 2 * one_pass, f"{(peak - live) / 1e6:.1f} MB"
