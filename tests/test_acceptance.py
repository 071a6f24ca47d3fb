"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from twoscalefem import costmodel as cm
from twoscalefem.bench import (
    CaseSpec,
    build_affine_problem,
    build_cone_box_problem,
    build_cubic_problem,
    build_microstructure_problem,
    error_reports,
    reference_oracle,
)
from twoscalefem.runtime import partition_mesh, run_ranks
from twoscalefem.scheduler import PatchGraph, schedule_on_ranks, schedule_stats, validate
from twoscalefem.twoscale import TsConfig, solve_case


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


@pytest.fixture(scope="module")
def cubic_case():
    """Cubic plate, ~2.3k reference dofs, solved once with recorded iterates."""
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=2), base=(4, 2, 1))
    u_R, system, _ = reference_oracle(problem)
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    cfg = TsConfig(eps=1e-7, max_iterations=120, record_iterates=True)
    res = solve_case(problem, plan, cfg, n_ranks=1)
    assert res.converged
    return problem, exact, u_R, system, res


def test_criterion_01_residual_oracle_equivalence(cubic_case):
    t0 = time.perf_counter()
    problem, exact, u_R, system, res = cubic_case
    assert problem.partition.n_ref_free <= 5000
    from twoscalefem.twoscale import _scatter_warm, compute_residual, ts_init

    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    rng = np.random.default_rng(0)
    scale = np.abs(u_R).max()
    states = [rng.normal(size=problem.partition.n_ref_free) * scale for _ in range(20)]

    def fn(ctx):
        state = ts_init(ctx, problem, plan)
        out = []
        for u in states:
            _scatter_warm(state, problem, u)
            out.append(compute_residual(ctx, state))
        return out

    (resis,) = run_ranks(1, fn)
    worst = 0.0
    for u, r in zip(states, resis):
        mono = system.residual(u)
        worst = max(worst, abs(r - mono) / mono)
    assert worst <= 1e-10
    # solver iterates: both evaluation routes carry ~1e-16*||A||*||u|| absolute
    # round-off, so the 1e-10 relative tolerance applies above that floor
    abs_A = abs(system.A_rr)
    norm_B = np.linalg.norm(system.B_r)
    worst_it = 0.0
    for u_it, r_it in zip(res.iterates, res.resi_history):
        mono = system.residual(u_it)
        floor = 1e-14 * np.linalg.norm(abs_A @ np.abs(u_it)) / norm_B
        worst_it = max(worst_it, (abs(r_it - mono) - floor) / mono)
    assert worst_it <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(1, f"20 random states worst rel diff {worst:.2e}, "
              f"iterates within 1e-10 above the round-off floor, {dt:.1f}s < 30s")


def test_criterion_02_pythagorean_identity(cubic_case):
    t0 = time.perf_counter()
    problem, exact, u_R, system, res = cubic_case
    worst = 0.0
    for rep in error_reports(problem, res.iterates, u_R, system, exact):
        worst = max(worst, rep.identity_defect)
    assert worst <= 1e-8
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(2, f"identity defect ≤ {worst:.2e} over {len(res.iterates)} iterations, "
              f"{dt:.1f}s < 60s")


def test_criterion_03_convergence_conservative(cubic_case):
    problem, exact, u_R, system, res = cubic_case
    assert res.resi_history[-1] < 1e-7
    (rep,) = error_reports(problem, [res.u_r], u_R, system, exact)
    assert rep.E_ts_R <= 1e-7
    assert abs(rep.E_ts_C - rep.E_R_C) <= 0.01 * rep.E_R_C
    report(3, f"resi {res.resi_history[-1]:.2e} < 1e-7, E(ts,R) {rep.E_ts_R:.2e} ≤ 1e-7, "
              f"plateau gap {abs(rep.E_ts_C - rep.E_R_C) / rep.E_R_C:.2e}")


def test_criterion_04_eps_bound(cubic_case):
    problem, exact, u_R, system, res = cubic_case
    (rep0,) = error_reports(problem, [res.u_r], u_R, system, exact)
    eps = rep0.E_R_C / 10.0
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    r = solve_case(problem, plan, TsConfig(eps=eps, max_iterations=120), n_ranks=1)
    assert r.converged
    (rep,) = error_reports(problem, [r.u_r], u_R, system, exact)
    rho = rep.norm_R**2 / rep.norm_C**2
    bound = np.sqrt(1.0 + rho / 100.0) - 1.0
    gap = (rep.E_ts_C - rep.E_R_C) / rep.E_R_C
    assert gap <= bound
    assert bound <= 0.005 * 1.2 or rho > 1.2  # with rho ~ 1 this is the 0.5% bound
    report(4, f"eps = E(R,C)/10: gap {gap:.3e} ≤ bound {bound:.3e} (rho={rho:.3f})")


def test_criterion_05_affine_exactness():
    worst, worst_u = 0.0, 0.0
    for base in [(2, 1, 1), (3, 2, 1)]:
        problem, exact = build_affine_problem(CaseSpec(sp_depth=1), base=base)
        u_exact = exact["u"](problem.nested.points).ravel()[problem.partition.free_ref_dofs]
        for strategy, ranks in (("tsd", (1, 2, 4)), ("tsdd", (2, 4))):
            for n in ranks:
                plan = partition_mesh(problem.nested, problem.sp_info, n)
                cfg = TsConfig(eps=1e-10, max_iterations=4, coarse_strategy=strategy)
                r = solve_case(problem, plan, cfg, n_ranks=n)
                worst = max(worst, r.resi_history[0])
                worst_u = max(worst_u, np.abs(r.u_r - u_exact).max() / np.abs(u_exact).max())
    assert worst <= 1e-10
    assert worst_u <= 1e-10
    report(5, f"resi at iteration 1 ≤ {worst:.2e}, u_r off G x by ≤ {worst_u:.2e}, "
              "ts on {1,2,4} and tsdd on {2,4} ranks × 2 meshes")


def test_criterion_06_patch_restriction(cubic_case):
    problem, exact, u_R, system, res = cubic_case
    from twoscalefem.twoscale import _scatter_warm, micro_scale_resolution, ts_init

    part = problem.partition
    plan = partition_mesh(problem.nested, problem.sp_info, 1)

    def fn(ctx):
        state = ts_init(ctx, problem, plan)
        _scatter_warm(state, problem, u_R)
        micro_scale_resolution(ctx, state)
        full = np.zeros(3 * part.n_nodes)
        full[part.free_ref_dofs] = u_R
        worst, checked = 0.0, 0
        for patch in problem.sp_info.patches:
            for e in patch.elements:
                arr = state.stack.fields.reshape(-1)[state.stack.field_slots(e, patch.node)].reshape(-1, 3)
                nodes = state.stack.dofs[state.stack.rows_of(e)][::3] // 3
                for j, v in enumerate(nodes):
                    worst = max(worst, np.abs(arr[j] - full[3 * int(v): 3 * int(v) + 3]).max())
                checked += 1
        return worst, checked

    ((worst, checked),) = run_ranks(1, fn)
    assert checked == sum(len(p.elements) for p in problem.sp_info.patches) > 0
    rel = worst / np.abs(u_R).max()
    assert rel <= 1e-10
    report(6, f"patch solves reproduce the u_R restriction to {rel:.2e} on {checked} fields")


def test_criterion_07_rank_count_invariance():
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    cfg = TsConfig(eps=1e-7, max_iterations=60)
    hist = {}
    for n in (1, 2, 4):
        plan = partition_mesh(problem.nested, problem.sp_info, n)
        hist[n] = solve_case(problem, plan, cfg, n_ranks=n).resi_history
    assert hist[1] == hist[2] == hist[4]  # bitwise identical
    report(7, f"resi sequences for 1/2/4 ranks bitwise identical over {len(hist[1])} iterations")


def test_criterion_08_scheduler_validity():
    rng = np.random.default_rng(2024)
    checked = 0
    spread_wins = 0
    weighted = 0
    det_checked = False
    for trial in range(200):
        n_ranks = int(rng.integers(2, 9))
        n_patches = int(rng.integers(1, 65))
        weights, participants = {}, {}
        for p in range(n_patches):
            k = int(rng.integers(1, min(4, n_ranks) + 1))
            participants[p] = tuple(sorted(rng.choice(n_ranks, size=k, replace=False).tolist()))
            weights[p] = int(rng.integers(1, 101))
        graph = PatchGraph(n_ranks, weights, participants)
        sched = schedule_on_ranks(graph, "V2")
        assert validate(sched, graph) == []
        # brute-force independence
        for s in range(sched.n_sequences):
            col = sched.M[:, s]
            pat = sorted({int(p) for p in col if p >= 0})
            for i in range(len(pat)):
                for j in range(i + 1, len(pat)):
                    assert not (set(graph.participants[pat[i]]) & set(graph.participants[pat[j]]))
        max_d = max(
            (sum(1 for p, parts in participants.items() if r in parts and len(parts) >= 2)
             for r in range(n_ranks)), default=0)
        assert sched.n_sequences >= max_d
        if trial % 40 == 0:
            again = schedule_on_ranks(graph, "V2")
            assert np.array_equal(sched.M, again.M)
            det_checked = True
        if n_patches >= 6:
            s1 = schedule_on_ranks(graph, "V1")

            def avg_spread(s):
                rows = schedule_stats(s, graph)
                vals = [r["weight_spread"] for r in rows if r["active_patches"] > 1]
                return float(np.mean(vals)) if vals else 0.0

            weighted += 1
            if avg_spread(sched) <= avg_spread(s1) + 1e-12:
                spread_wins += 1
        checked += 1
    assert checked == 200 and det_checked
    assert spread_wins / weighted >= 0.70
    report(8, f"200 graphs valid; V2 spread ≤ V1 on {100 * spread_wins / weighted:.0f}% "
              f"of {weighted} weighted instances")


def test_criterion_09_dd_solver():
    from twoscalefem.ddsolver import dd_solve_from_triplets

    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(10):
        n_ranks = int(rng.integers(2, 5))
        n = int(rng.integers(40, 80))
        trips, bv = [], []
        eid = 0
        for i in range(n - 2):
            idx = np.array([i, i + 1, i + 2])
            Me = rng.normal(size=(3, 3))
            Me = Me @ Me.T + 3 * np.eye(3)
            trips.append((eid, np.repeat(idx, 3), np.tile(idx, 3), Me.ravel()))
            bv.append((eid, idx, rng.normal(size=3)))
            eid += 1
        import scipy.sparse as sp

        A = sp.coo_matrix(
            (np.concatenate([t[3] for t in trips]),
             (np.concatenate([t[1] for t in trips]), np.concatenate([t[2] for t in trips]))),
            shape=(n, n)).toarray()
        b = np.zeros(n)
        for _, idx, v in bv:
            np.add.at(b, idx, v)
        x_ref = np.linalg.solve(A, b)
        eps = 1e-9

        def prog(ctx):
            my_t = [t[1:] for t in trips if t[0] % ctx.size == ctx.rank]
            my_b = [t[1:] for t in bv if t[0] % ctx.size == ctx.rank]
            out = dd_solve_from_triplets(ctx, n, my_t, my_b, eps=eps)
            out2 = dd_solve_from_triplets(ctx, n, my_t, my_b, eps=eps, warm=out.warm)
            return out.x, out2.report

        x, rep2 = run_ranks(n_ranks, prog)[0]
        d = x - x_ref
        err = np.sqrt(d @ A @ d) / np.sqrt(x_ref @ A @ x_ref)
        worst = max(worst, err / (10 * eps))
        assert err <= 10 * eps
        assert rep2.loop_bodies == 1  # warm restart: single CG loop body
    report(9, f"10 partitions within 10·eps (worst {worst:.2f}×); warm restart = 1 loop body")


def test_criterion_10_warm_restart_iterations():
    cfg = TsConfig(eps=1e-7, max_iterations=400)
    plan = None
    spec = CaseSpec(kind="micro-structure", sp_depth=2, n_planes=16)
    problem = build_microstructure_problem(spec)
    plan = partition_mesh(problem.nested, problem.sp_info, 2)
    cold = solve_case(problem, plan, cfg, n_ranks=2)
    spec_p = CaseSpec(kind="micro-structure", sp_depth=2, n_planes=16, perturb_percent=1.0)
    problem_p = build_microstructure_problem(spec_p)
    warm = solve_case(problem_p, plan, cfg, n_ranks=2, warm_u_r=cold.u_r)
    cold_p = solve_case(problem_p, plan, cfg, n_ranks=2)
    assert warm.converged and cold.converged and cold_p.converged
    assert warm.iterations < cold_p.iterations
    spec_h = CaseSpec(kind="micro-structure", sp_depth=2, n_planes=16,
                      e_range=(36.5e9, 36500.0e9))
    problem_h = build_microstructure_problem(spec_h)
    hard = solve_case(problem_h, plan, cfg, n_ranks=2)
    assert hard.converged
    assert hard.iterations > cold.iterations
    report(10, f"warm {warm.iterations} < cold {cold_p.iterations} iterations; "
               f"1000× range {hard.iterations} > 100× range {cold.iterations}")


def test_criterion_11_cost_model():
    t0 = time.perf_counter()
    # enumerator match (exact) for L_c <= 3, L <= 5
    from test_costmodel import count_coarse_node_kinds, enumerate_patch

    for L_c in range(4):
        assert cm.patch_counts(L_c) == count_coarse_node_kinds(L_c)
        for L in range(L_c, 6):
            dofs = cm.patch_dofs(L_c, L)
            for kind, cnt in cm.patch_counts(L_c).items():
                if cnt:
                    assert dofs[kind] == enumerate_patch(L_c, L, kind)
    for L in range(6):
        assert cm.nb_dof(L) == 3 * (2**L + 1) ** 3
    ratios = {L_c: cm.ts_ratio(L_c, 2, 30, 0.017, 0.017) for L_c in range(3)}
    best = max(ratios, key=ratios.get)
    assert best == 1
    assert abs(ratios[1] - 1.76) <= 0.05
    costs = [cm.cost_ts(L_c, 8, 30, 0.017, 0.017) for L_c in range(9)]
    interior = int(np.argmin(costs))
    assert 0 < interior < 8
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(11, f"formulas exact vs enumerator; ratio(L=2, Lc=1) = {ratios[1]:.3f} "
               f"(max at Lc=1); iso-L=8 min at Lc={interior}; {dt:.1f}s < 5s")


def test_criterion_12_hanging_continuity():
    problem = build_cone_box_problem(CaseSpec(sp_depth=2, cone_h=-400.0))
    nested, sp_info = problem.nested, problem.sp_info
    assert len(nested.hanging) > 0 and len(sp_info.nsp_elements) > 0
    u_R, system, _ = reference_oracle(problem)
    full = system.expand(u_R)
    from twoscalefem.mesh import _p1_weights

    scale = np.abs(full).max()
    worst = 0.0
    checked = 0
    unrefined = [e for e in range(nested.coarse.n_elements) if nested.levels[e] == 0]
    for hnode, parents, weights in zip(nested.hanging, nested.hanging_parents,
                                       nested.hanging_weights):
        refined_side = sum(w * full[p] for p, w in zip(parents, weights))
        for e in unrefined:
            tet = nested.coarse.tets[e]
            lam = _p1_weights(nested.points[tet], nested.points[hnode])
            if np.all(lam > -1e-9) and np.all(lam < 1 + 1e-9):
                coarse_side = sum(lam[i] * full[int(tet[i])] for i in range(4))
                worst = max(worst, np.abs(refined_side - coarse_side).max() / scale)
                checked += 1
                break
    assert checked == len(nested.hanging)
    assert worst <= 1e-12
    report(12, f"both-sides field agreement {worst:.2e} at {checked} hanging nodes")
