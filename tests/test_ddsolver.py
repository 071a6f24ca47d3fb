import numpy as np
import pytest
import scipy.sparse as sp

from twoscalefem import ddsolver, sparsela
from twoscalefem.bench import CaseSpec, build_cone_box_problem, build_cubic_problem, reference_oracle
from twoscalefem.ddsolver import (CG_ITER_MAX, boundary_exchange, condense, dd_layout,
                                  dd_solve_from_triplets, reference_rank_triplets)
from twoscalefem.runtime import RankContext, partition_mesh, run_ranks
from twoscalefem.sparsela import SHIFT, factorize, solve
from twoscalefem.twoscale import TsConfig, solve_case


def covering_cliques(n_dofs, n_extra, rng):
    """Random FE-like SPD assembly whose cliques cover every dof."""
    trips, bv = [], []
    eid = 0
    for i in range(n_dofs - 2):
        idx = np.array([i, i + 1, i + 2])
        Me = rng.normal(size=(3, 3))
        Me = Me @ Me.T + 3 * np.eye(3)
        trips.append((eid, np.repeat(idx, 3), np.tile(idx, 3), Me.ravel()))
        bv.append((eid, idx, rng.normal(size=3)))
        eid += 1
    for _ in range(n_extra):
        k = int(rng.integers(3, 7))
        idx = rng.choice(n_dofs, size=k, replace=False)
        Me = rng.normal(size=(k, k))
        Me = Me @ Me.T + k * np.eye(k)
        trips.append((eid, np.repeat(idx, k), np.tile(idx, k), Me.ravel()))
        bv.append((eid, idx, rng.normal(size=k)))
        eid += 1
    return trips, bv


def dense_of(trips, bv, n):
    A = sp.coo_matrix(
        (np.concatenate([t[3] for t in trips]),
         (np.concatenate([t[1] for t in trips]), np.concatenate([t[2] for t in trips]))),
        shape=(n, n),
    ).toarray()
    b = np.zeros(n)
    for _, idx, v in bv:
        np.add.at(b, idx, v)
    return A, b


def rank_items(ctx, trips, bv, contiguous=False):
    """This rank's triplet and load items, keys stripped: round-robin or contiguous element
    blocks."""
    n_el = len(trips)

    def owner(eid):
        return min(eid * ctx.size // n_el, ctx.size - 1) if contiguous else eid % ctx.size

    return ([t[1:] for t in trips if owner(t[0]) == ctx.rank],
            [t[1:] for t in bv if owner(t[0]) == ctx.rank])


def run_dd(trips, bv, n, n_ranks, eps=1e-10, warm_cycle=False, contiguous=False):
    def prog(ctx):
        my_t, my_b = rank_items(ctx, trips, bv, contiguous)
        out = dd_solve_from_triplets(ctx, n, my_t, my_b, eps=eps)
        if warm_cycle:
            out2 = dd_solve_from_triplets(ctx, n, my_t, my_b, eps=eps, warm=out.warm)
            return out.x, out2.report
        return out.x, out.report

    return run_ranks(n_ranks, prog)


@pytest.mark.parametrize("seed,n_ranks", [(0, 2), (1, 3), (2, 4), (3, 2), (4, 3),
                                          (5, 4), (6, 2), (7, 3), (8, 4), (9, 2)])
def test_random_spd_partitions_match_direct(seed, n_ranks):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, 90))
    trips, bv = covering_cliques(n, 20, rng)
    A, b = dense_of(trips, bv, n)
    x_ref = np.linalg.solve(A, b)
    eps = 1e-9
    out = run_dd(trips, bv, n, n_ranks, eps=eps)
    x, rep = out[0]
    # energy-norm distance to the direct solve within 10*eps
    d = x - x_ref
    err = np.sqrt(d @ A @ d) / np.sqrt(x_ref @ A @ x_ref)
    assert rep.converged
    assert err <= 10 * eps


def test_boundary_cg_stops_at_the_cap():
    # a floating graph Laplacian with a load of nonzero mean has no solution,
    # so with two ranks (where block Jacobi is exact) the boundary CG cannot
    # converge and must stop after CG_ITER_MAX steps instead of running on
    rng = np.random.default_rng(11)
    n = 60
    trips, bv = [], []
    for i in range(n - 2):
        idx = np.array([i, i + 1, i + 2])
        w = rng.uniform(1.0, 2.0, size=3)
        L = np.array([[w[0] + w[2], -w[0], -w[2]], [-w[0], w[0] + w[1], -w[1]],
                      [-w[2], -w[1], w[1] + w[2]]])
        trips.append((i, np.repeat(idx, 3), np.tile(idx, 3), L.ravel()))
        bv.append((i, idx, rng.normal(size=3)))
    for x, rep in run_dd(trips, bv, n, 2, eps=1e-30):
        assert not rep.converged
        assert rep.iterations == CG_ITER_MAX + 1
        assert np.all(np.isfinite(x))


def test_singular_preconditioner_block_shifted_row_by_row():
    # rows: unit diagonal, a tiny but consistent diagonal, an empty row, a
    # round-off row coupled to row 0 beyond sqrt(M_00 M_33), a negative diagonal
    M = np.diag([1.0, 1e-30, 0.0, 1e-45, -1e-40])
    M[0, 3] = M[3, 0] = 1e-20
    F, shifted = ddsolver._factorize(sp.csc_matrix(M), ddsolver._preconditioner_shifted)
    s = [ddsolver.PRECOND_SHIFT, ddsolver.PRECOND_SHIFT * 1e-30, 1.0, SHIFT, SHIFT]
    assert shifted and (F.d > 0).all()
    assert np.allclose(F.solve(np.eye(5)), np.linalg.inv(M + np.diag(s)), rtol=1e-12, atol=0)
    F, shifted = ddsolver._factorize(sp.csc_matrix(np.diag([2.0, 1e-30])),
                                    ddsolver._preconditioner_shifted)
    assert not shifted and np.allclose(F.solve(np.ones(2)), [0.5, 1e30], rtol=1e-12, atol=0)


def test_single_domain_rejected():
    rng = np.random.default_rng(0)
    trips, bv = covering_cliques(20, 4, rng)
    with pytest.raises(ValueError, match="single domain"):
        run_dd(trips, bv, 20, 1)


def test_dd_result_sums_every_rank_factorization(monkeypatch):
    # DdResult.factor_flops: every rank's F_II and F_M, the same on every rank
    rng = np.random.default_rng(5)
    trips, bv = covering_cliques(50, 10, rng)
    counted = []

    def spy(A):
        F = factorize(A)
        counted.append(F.factor_flops)
        return F

    monkeypatch.setattr(ddsolver, "factorize", spy)

    def prog(ctx):
        my_t, my_b = rank_items(ctx, trips, bv)
        return dd_solve_from_triplets(ctx, 50, my_t, my_b, eps=1e-10).factor_flops

    out = run_ranks(3, prog)
    assert len(counted) >= 4 and out == [sum(counted)] * 3


def test_warm_restart_single_loop_body():
    rng = np.random.default_rng(11)
    trips, bv = covering_cliques(50, 15, rng)
    out = run_dd(trips, bv, 50, 3, warm_cycle=True)
    for _, rep in out:
        pass
    x, rep2 = out[0]
    assert rep2.loop_bodies == 1
    assert rep2.converged


def assemble(lay, trips):
    return lay.pattern.assemble(np.concatenate([t[2] for t in trips]))


def superlu_factor(A):
    """SuperLU's factor of A whatever its size (the dense kernel switched off)."""
    saved, sparsela.DENSE_MAX = sparsela.DENSE_MAX, 0
    try:
        return factorize(A)
    finally:
        sparsela.DENSE_MAX = saved


def check_condensation(ctx, trips, lay):
    """This rank's sparse S and owned M_jj are bitwise the dense formulas (collective).

    The layout's blocks of A against slicing A.  S against A_bb - A_bI
    A_II^-1 A_Ib, the coupled columns lay.cpl solved by the factor of A_II
    (W^T W with W = L^-1 A_Ib for a dense Cholesky factor, A_bI (F^-1 A_Ib)
    for SuperLU) and the others left at A_bb; and within 1e-12 of the
    SuperLU formula with every boundary column solved.
    M_jj against the owned block of the dense S plus, in ascending rank
    order, each co-rank's dense block of the dofs this rank owns.
    """
    A, nI, cpl = assemble(lay, trips), lay.nI, lay.cpl
    I, B, C = slice(0, nI), slice(nI, A.shape[0]), nI + cpl
    for name, (i, j) in dict(II=(I, I), bI=(C, I), Ib=(I, C), BI=(B, I), IB=(I, B)).items():
        got, ref = lay.block(A, name), A[i, j]
        assert all(np.array_equal(getattr(got, f), getattr(ref, f))
                   for f in ("data", "indices", "indptr"))
    S, _, shift, _ = condense(A, lay)
    assert not shift
    F, A_bI, A_Ib = factorize(A[:nI, :nI]), A[nI:, :nI], A[:nI, nI:]
    B = A_Ib[:, cpl].toarray()
    W = solve(F, B, half=True) if F.kind == "dense" else None
    S_dense = A[nI:, nI:].toarray()
    S_dense[np.ix_(cpl, cpl)] -= W.T @ W if W is not None else A_bI[cpl] @ solve(F, B)
    assert np.array_equal(S.toarray(), S_dense)
    S_lu = A[nI:, nI:].toarray() - A_bI @ solve(superlu_factor(A[:nI, :nI]), A_Ib.toarray())
    assert np.abs(S_dense - S_lu).max() <= 1e-12 * np.abs(S_lu).max()
    b_dofs = lay.dofs[nI:]
    own = lay.owner == ctx.rank
    M_dense = S_dense[np.ix_(own, own)]
    for q, (q_dofs, S_q) in enumerate(ctx.allgather((b_dofs, S_dense))):
        if q != ctx.rank:
            mine = np.isin(q_dofs, b_dofs[own])
            sel = np.searchsorted(b_dofs[own], q_dofs[mine])
            M_dense[np.ix_(sel, sel)] += S_q[np.ix_(mine, mine)]
    _, M = boundary_exchange(ctx, lay, S, np.zeros(len(b_dofs)))
    assert np.array_equal(M.toarray(), M_dense)
    return len(lay.cpl), len(b_dofs)


def test_condensation_symmetric_positive():
    # the library's Schur complements, summed over the shared boundary, are
    # symmetric and positive on random vectors
    rng = np.random.default_rng(7)
    trips, bv = covering_cliques(40, 10, rng)

    def prog(ctx):
        my_t, my_b = rank_items(ctx, trips, bv)
        lay = dd_layout(ctx, my_t, my_b)
        S, _, _, _ = condense(assemble(lay, my_t), lay)
        return lay.dofs[lay.nI:], S.toarray()

    parts = run_ranks(2, prog)
    shared = np.unique(np.concatenate([dofs for dofs, _ in parts]))
    S = np.zeros((len(shared), len(shared)))
    for dofs, S_r in parts:
        pos = np.searchsorted(shared, dofs)
        S[np.ix_(pos, pos)] += S_r
    assert np.abs(S - S.T).max() <= 1e-12 * np.abs(S).max()
    for k in range(5):
        v = np.random.default_rng(k).normal(size=len(shared))
        assert v @ S @ v > 0


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
def test_sparse_condensation_equals_dense_formula(n_ranks):
    rng = np.random.default_rng(30 + n_ranks)
    trips, bv = covering_cliques(80, 20, rng)

    def prog(ctx):
        my_t, my_b = rank_items(ctx, trips, bv, contiguous=True)
        return check_condensation(ctx, my_t, dd_layout(ctx, my_t, my_b))

    sizes = run_ranks(n_ranks, prog)
    # some rank has interior-coupled and uncoupled boundary columns
    assert any(0 < k < nb for k, nb in sizes)


def test_sparse_condensation_with_superlu_interior(monkeypatch):
    # interior blocks above sparsela.DENSE_MAX take the SuperLU formula
    monkeypatch.setattr(sparsela, "DENSE_MAX", 0)
    rng = np.random.default_rng(33)
    trips, bv = covering_cliques(80, 20, rng)

    def prog(ctx):
        my_t, my_b = rank_items(ctx, trips, bv, contiguous=True)
        lay = dd_layout(ctx, my_t, my_b)
        assert factorize(assemble(lay, my_t)[:lay.nI, :lay.nI]).kind == "superlu"
        return check_condensation(ctx, my_t, lay)

    assert any(0 < k < nb for k, nb in run_ranks(3, prog))


def test_sparse_condensation_on_tsdd_coarse_systems(monkeypatch):
    problem = build_cone_box_problem(CaseSpec(kind="cone-damage-box", sp_depth=1))
    # on 3 ranks some rank has boundary columns both coupled and not coupled to its interior
    plan = partition_mesh(problem.nested, problem.sp_info, 3)
    dd_solve, seen = ddsolver.dd_solve_from_triplets, []

    def checked(ctx, n, trips, bvecs, eps, warm=None, layout=None):
        seen.append(check_condensation(ctx, trips, layout))
        return dd_solve(ctx, n, trips, bvecs, eps, warm, layout)

    monkeypatch.setattr(ddsolver, "dd_solve_from_triplets", checked)
    solve_case(problem, plan, TsConfig(max_iterations=2, coarse_strategy="tsdd"), n_ranks=3)
    assert len(seen) == 6 and any(0 < k < nb for k, nb in seen)


def test_dd_solve_messages_and_preconditioner_payload(monkeypatch):
    # per solve on 2 ranks: one load + preconditioner message each way, one
    # exchange per S product and per preconditioner apply, one swap per dot
    # and one swap for x (block Jacobi is exact on 2 ranks: one CG body); the
    # preconditioner part is S's values on its pattern slots
    rng = np.random.default_rng(21)
    trips, bv, n = grid_cliques(10, rng)
    send, solving, sent = RankContext.send, set(), []

    def spy(ctx, dst, obj, tag=0):
        if ctx.rank in solving:
            sent.append((ctx.rank, tag, obj))
        send(ctx, dst, obj, tag)

    def prog(ctx):
        my_t, my_b = rank_items(ctx, trips, bv, contiguous=True)
        lay = dd_layout(ctx, my_t, my_b)
        solving.add(ctx.rank)
        out = dd_solve_from_triplets(ctx, n, my_t, my_b, 1e-10, layout=lay)
        return out.report, {q: len(lay.m_send[q]) for q in lay.co_ranks}

    monkeypatch.setattr(RankContext, "send", spy)
    (rep, slots0), (_, slots1) = run_ranks(2, prog)
    assert rep.converged and rep.loop_bodies >= 1
    assert len(sent) == 2 * (7 + 3 * rep.loop_bodies + 2 * rep.iterations)
    payloads = {rank: obj[1] for rank, tag, obj in sent if isinstance(obj, tuple) and tag == 41}
    assert {r: (p.ndim, p.dtype, len(p)) for r, p in payloads.items()} == {
        0: (1, np.float64, slots0[1]), 1: (1, np.float64, slots1[0])}
    assert slots0[1] == 0 and slots1[0] > 0  # rank 0 owns every dof it shares
    # a dot sends the owned values only (the layout fixes their order); x goes with its dofs
    swaps = [obj for _, tag, obj in sent if tag == -4]
    assert sum(isinstance(o, tuple) for o in swaps) == 2
    assert all(o.ndim == 1 and o.dtype == np.float64 for o in swaps if not isinstance(o, tuple))


def grid_cliques(m, rng):
    """2D grid of unit-square cliques: contiguous row blocks give real interfaces."""
    trips, bv = [], []
    eid = 0
    for i in range(m - 1):
        for j in range(m - 1):
            idx = np.array([i * m + j, i * m + j + 1, (i + 1) * m + j, (i + 1) * m + j + 1])
            Me = rng.normal(size=(4, 4))
            Me = Me @ Me.T + 4 * np.eye(4)
            trips.append((eid, np.repeat(idx, 4), np.tile(idx, 4), Me.ravel()))
            bv.append((eid, idx, rng.normal(size=4)))
            eid += 1
    return trips, bv, m * m


def test_eps_controllability():
    # contiguous row-block domains: real interfaces make the CG iterate
    rng = np.random.default_rng(21)
    trips, bv, n = grid_cliques(12, rng)
    A, b = dense_of(trips, bv, n)
    x_ref = np.linalg.solve(A, b)

    def gap(eps):
        out = run_dd(trips, bv, n, 4, eps=eps, contiguous=True)
        x, rep = out[0]
        d = x - x_ref
        return np.sqrt(d @ A @ d) / np.sqrt(x_ref @ A @ x_ref), rep

    g1, rep1 = gap(1e-1)
    g2, rep2 = gap(1e-3)
    assert g1 > 1e-12  # tolerance actually limits the first solve
    assert g2 <= g1 / 10


def test_dd_on_reference_system():
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    u_R, system, _ = reference_oracle(problem)
    n = problem.partition.n_ref_free
    plan = partition_mesh(problem.nested, problem.sp_info, 3)

    def prog(ctx):
        trips, bv = reference_rank_triplets(problem.nested, problem.partition,
                                            problem.material, problem.loads, plan, ctx.rank)
        out = dd_solve_from_triplets(ctx, n, trips, bv, eps=1e-11)
        return out.x

    x = run_ranks(3, prog)[0]
    d = x - u_R
    err = np.sqrt(d @ system.A_rr @ d) / np.sqrt(u_R @ system.A_rr @ u_R)
    assert err <= 1e-9
