import numpy as np
import pytest

from twoscalefem.bench import (
    CaseSpec,
    build_affine_problem,
    build_cone_box_problem,
    build_cubic_problem,
    build_microstructure_problem,
    reference_oracle,
)
from twoscalefem import ddsolver, twoscale
from twoscalefem.runtime import partition_mesh, run_ranks
from twoscalefem.transfer import CoarseSystem
from twoscalefem.twoscale import (
    TSI_REFRESH_CG_ITERS,
    ProblemSetup,
    TsConfig,
    _initial_coarse_solve,
    _scatter_warm,
    compute_residual,
    micro_scale_resolution,
    solve_case,
    ts_init,
    update_micro_dofs,
)

from test_mesh import _tet_faces


@pytest.fixture(scope="module")
def cubic_small():
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    u_R, system, _ = reference_oracle(problem)
    return problem, exact, u_R, system


@pytest.fixture(scope="module")
def cubic_solved(cubic_small):
    problem, exact, u_R, system = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    res = solve_case(problem, plan, TsConfig(eps=1e-7, max_iterations=80), n_ranks=1)
    return res


def run_state_program(problem, plan, fn, n_ranks=1):
    def prog(ctx):
        state = ts_init(ctx, problem, plan)
        return fn(ctx, state)

    return run_ranks(n_ranks, prog)


def test_b_norm_matches_monolithic(cubic_small):
    problem, exact, u_R, system = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 1)

    def fn(ctx, state):
        return state.norm_B

    (norm_ts,) = run_state_program(problem, plan, fn)
    assert abs(norm_ts - system.norm_B()) <= 1e-12 * system.norm_B()


def test_b_norm_matches_monolithic_with_nsp():
    problem = build_cone_box_problem(CaseSpec(sp_depth=1, cone_h=-400.0))
    assert len(problem.sp_info.nsp_elements) > 0
    system = __import__("twoscalefem.reference", fromlist=["assemble_reference"]).assemble_reference(
        problem.nested, problem.partition, problem.material, problem.loads)
    plan = partition_mesh(problem.nested, problem.sp_info, 2)

    def fn(ctx, state):
        return state.norm_B

    out = run_state_program(problem, plan, fn, n_ranks=2)
    assert abs(out[0] - system.norm_B()) <= 1e-12 * system.norm_B()


def test_patch_interior_dimension_counting_oracle(cubic_small):
    problem, *_ = cubic_small
    part, sp_info, nested = problem.partition, problem.sp_info, problem.nested
    # independent count: interior fine nodes of the patch = nodes appearing
    # only in faces shared by two patch leaves (excluding domain surface)
    surface = set(nested.coarse.surface_faces())
    for patch, sets in zip(sp_info.patches, part.patch_sets):
        face_cnt = {}
        for e in patch.elements:
            for f in _tet_faces(nested.coarse.tets[e]):
                face_cnt[f] = face_cnt.get(f, 0) + 1
        cut = {f for f, c in face_cnt.items() if c == 1 and f not in surface}
        interior = []
        on_cut = nested.on_faces(sorted(cut))
        for v in np.unique(np.concatenate([nested.micro[e] for e in patch.elements])):
            if not on_cut[v] and v not in nested.hanging:
                interior.append(int(v))
        n_pinned = sum(
            1 for v in interior for c in range(3) if part.ref_dirichlet[3 * v + c])
        assert len(sets["q"]) == 3 * len(interior) - n_pinned


def test_zero_loads_trivial_solution():
    problem, exact = build_affine_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    from twoscalefem.elasticity import LoadSet

    problem = ProblemSetup(problem.nested, problem.sp_info, problem.partition,
                           problem.material, LoadSet())
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    res = solve_case(problem, plan, TsConfig(eps=1e-7), n_ranks=1)
    assert res.converged and res.iterations == 0 and res.reason == "zero_load"
    assert res.norm_B == 0.0
    assert np.abs(res.u_r).max() == 0.0


def test_patch_restriction_property(cubic_small):
    problem, exact, u_R, system = cubic_small
    part = problem.partition
    plan = partition_mesh(problem.nested, problem.sp_info, 1)

    def fn(ctx, state):
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

    ((worst, checked),) = run_state_program(problem, plan, fn)
    assert checked == sum(len(p.elements) for p in problem.sp_info.patches) > 0
    assert worst <= 1e-10 * max(np.abs(u_R).max(), 1e-300)


def test_affine_boundary_gives_affine_patch_solutions():
    problem, exact = build_affine_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    part = problem.partition
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    G = np.array([[3e-4, 1e-4, -2e-4], [0.0, -1e-4, 5e-5], [0.0, 0.0, 2e-4]])
    u_aff = (problem.nested.points @ G.T).reshape(-1)[part.free_ref_dofs]

    def fn(ctx, state):
        _scatter_warm(state, problem, u_aff)
        micro_scale_resolution(ctx, state)
        worst, checked = 0.0, 0
        for patch in problem.sp_info.patches:
            for e in patch.elements:
                arr = state.stack.fields.reshape(-1)[state.stack.field_slots(e, patch.node)].reshape(-1, 3)
                nodes = state.stack.dofs[state.stack.rows_of(e)][::3] // 3
                expect = problem.nested.points[nodes] @ G.T
                for j, v in enumerate(nodes):
                    for c in range(3):
                        if part.ref_dirichlet[3 * int(v) + c]:
                            expect[j, c] = 0.0
                worst = max(worst, np.abs(arr - expect).max())
                checked += 1
        return worst, checked

    ((worst, checked),) = run_state_program(problem, plan, fn)
    assert checked == sum(len(p.elements) for p in problem.sp_info.patches) > 0
    assert worst <= 1e-10 * np.abs(u_aff).max()


def test_damaged_patch_displacement_jump():
    problem = build_cone_box_problem(CaseSpec(sp_depth=2, cone_h=-400.0))
    u_R, system, _ = reference_oracle(problem)
    full = system.expand(u_R)
    part, sp_info, nested = problem.partition, problem.sp_info, problem.nested
    # patch containing fully damaged material: pulled side moves much more
    # than the patch rim (the band disconnects the interior)
    best = None
    for pi, patch in enumerate(sp_info.patches):
        sets = part.patch_sets[pi]
        nodes = np.unique(np.concatenate([nested.micro[e] for e in patch.elements]))
        dmg = problem.material.damage(nested.points[nodes])
        if max(dmg) >= 0.99:
            q_nodes = {int(d) // 3 for d in sets["q"]}
            d_nodes = {int(d) // 3 for d in sets["d"]}
            if q_nodes and d_nodes:
                int_max = max(np.abs(full[list(q_nodes)]).max() for _ in (0,))
                bnd_max = max(np.abs(full[list(d_nodes)]).max() for _ in (0,))
                if best is None or int_max / max(bnd_max, 1e-300) > best[0]:
                    best = (int_max / max(bnd_max, 1e-300), int_max, bnd_max)
    assert best is not None
    assert best[0] > 1.0, best


def test_update_micro_idempotent(cubic_small):
    problem, *_ = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 1)

    def fn(ctx, state):
        U = _initial_coarse_solve(ctx, state, problem)
        update_micro_dofs(state, problem, U)
        snap = state.stack.u.copy()
        update_micro_dofs(state, problem, U)
        return np.array_equal(snap, state.stack.u)

    (ok,) = run_state_program(problem, plan, fn)
    assert ok


def test_residual_matches_monolithic_random_states(cubic_small):
    problem, exact, u_R, system = cubic_small
    part = problem.partition
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    rng = np.random.default_rng(3)
    states = [rng.normal(size=part.n_ref_free) * np.abs(u_R).max() for _ in range(5)]
    states.append(u_R)

    def fn(ctx, state):
        out = []
        for u in states:
            _scatter_warm(state, problem, u)
            out.append(compute_residual(ctx, state))
        return out

    (resis,) = run_state_program(problem, plan, fn)
    for u, r in zip(states[:-1], resis[:-1]):
        mono = system.residual(u)
        assert abs(r - mono) <= 1e-10 * mono
    assert resis[-1] <= 1e-10  # exact solution residual


def test_residual_homogeneity(cubic_small):
    problem, exact, u_R, system = cubic_small
    from twoscalefem.elasticity import LoadSet

    alpha = 3.7
    loads2 = LoadSet(
        body=(lambda x: alpha * problem.loads.body(x)) if problem.loads.body else None,
        tractions={k: (lambda x, _f=f: alpha * _f(x)) for k, f in problem.loads.tractions.items()},
    )
    scaled = ProblemSetup(problem.nested, problem.sp_info, problem.partition,
                          problem.material, loads2)
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    rng = np.random.default_rng(1)
    u = rng.normal(size=problem.partition.n_ref_free) * 1e-10

    def fn_for(prob, uvec):
        def fn(ctx, state):
            _scatter_warm(state, prob, uvec)
            return compute_residual(ctx, state)
        return fn

    (r1,) = run_state_program(problem, plan, fn_for(problem, u))
    (r2,) = run_state_program(scaled, plan, fn_for(scaled, alpha * u))
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_energy_round_trip(cubic_solved, cubic_small):
    problem, exact, u_R, system = cubic_small
    res = cubic_solved
    # u_F^T (monolithic A) u_F must equal the energy of the expanded field
    e_mono = float(res.u_r @ (system.A_rr @ res.u_r))
    from twoscalefem.bench import energy_norm_fields

    full = system.expand(res.u_r)
    e_quad = energy_norm_fields(problem, (full, np.zeros_like(full)))
    assert e_quad == pytest.approx(e_mono, rel=1e-11)


def test_cubic_convergence_and_conservativeness(cubic_solved, cubic_small):
    problem, exact, u_R, system = cubic_small
    res = cubic_solved
    assert res.converged and res.reason == "converged"
    assert res.resi_history[-1] < 1e-7
    from twoscalefem.bench import error_reports

    (rep,) = error_reports(problem, [res.u_r], u_R, system, exact)
    assert rep.E_ts_R <= 1e-7  # conservative criterion
    assert rep.E_ts_C == pytest.approx(rep.E_R_C, rel=0.01)  # plateau
    assert rep.identity_defect <= 1e-8


def test_rank_count_invariance(cubic_small):
    problem, *_ = cubic_small
    cfg = TsConfig(eps=1e-6, max_iterations=30)
    hist = {}
    for n in (1, 2, 4):
        plan = partition_mesh(problem.nested, problem.sp_info, n)
        hist[n] = solve_case(problem, plan, cfg, n_ranks=n).resi_history
    assert hist[1] == hist[2] == hist[4]  # bitwise identical


def test_rank_count_invariance_with_shared_boundary_values():
    # neighbouring elements hold their shared dofs' u_F with ulp-level
    # differences; the patch boundary data must not depend on which rank
    # holds which element
    cases = [
        (build_affine_problem(CaseSpec(sp_depth=1), base=(3, 2, 1))[0],
         TsConfig(eps=1e-20, max_iterations=5)),
        (build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))[0],
         TsConfig(eps=1e-7, max_iterations=10)),
    ]
    for problem, cfg in cases:
        hist = {}
        for n in (1, 2, 4, 5, 9):
            plan = partition_mesh(problem.nested, problem.sp_info, n)
            hist[n] = solve_case(problem, plan, cfg, n_ranks=n).resi_history
        assert hist[1] == hist[2] == hist[4] == hist[5] == hist[9]  # bitwise identical


def test_tsi_records_pcg_fallback(cubic_small, monkeypatch):
    problem, *_ = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    monkeypatch.setattr(twoscale, "PCG_ITER_MAX", 1)
    cfg = TsConfig(eps=1e-7, coarse_strategy="tsi", max_iterations=80)
    res = solve_case(problem, plan, cfg, n_ranks=1)
    assert any(r.pcg_fallback for r in res.records)
    for r in res.records:
        assert not (r.pcg_fallback and r.coarse_kind != "direct")
        assert isinstance(r.shifted, bool) and isinstance(r.refinement_steps, int)
        assert r.refinement_steps >= 0 and (r.shifted or r.refinement_steps == 0)


def test_tsi_switches_and_converges(cubic_small):
    problem, *_ = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 2)
    cfg = TsConfig(eps=1e-7, coarse_strategy="tsi", max_iterations=80)
    res = solve_case(problem, plan, cfg, n_ranks=2)
    assert res.converged
    kinds = [r.coarse_kind for r in res.records]
    assert kinds[0] == "direct"
    assert "pcg" in kinds
    # direct resumes only when a refresh is requested; none expected here
    first_pcg = kinds.index("pcg")
    assert all(k == "pcg" for k in kinds[first_pcg:]) or any(
        r.pcg_iterations > TSI_REFRESH_CG_ITERS for r in res.records)


def test_tsdd_matches_tsd_trajectory(cubic_small):
    problem, *_ = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 3)
    r1 = solve_case(problem, plan, TsConfig(eps=1e-7, max_iterations=60), n_ranks=3)
    r2 = solve_case(problem, plan, TsConfig(eps=1e-7, coarse_strategy="tsdd",
                                            max_iterations=60), n_ranks=3)
    assert r2.converged
    assert abs(r2.iterations - r1.iterations) <= 3
    assert r2.resi_history[-1] < 1e-7


def test_tsdd_builds_its_dd_layout_once_per_rank(cubic_small, monkeypatch):
    problem, *_ = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 2)
    built = []
    dd_layout = ddsolver.dd_layout

    def counted(ctx, *args):
        built.append(ctx.rank)
        return dd_layout(ctx, *args)

    monkeypatch.setattr(ddsolver, "dd_layout", counted)
    res = solve_case(problem, plan, TsConfig(eps=1e-7, coarse_strategy="tsdd"), n_ranks=2)
    assert res.converged and res.iterations > 1
    assert sorted(built) == [0, 1]


def test_only_the_root_strategies_build_a_coarse_system(cubic_small, monkeypatch):
    # tsdd solves over the ranks: rank 0 assembles no enriched root system
    problem, *_ = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 2)
    built = []
    init = CoarseSystem.__init__
    monkeypatch.setattr(CoarseSystem, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    for strategy, expected in (("tsdd", 0), ("tsd", 1)):
        built.clear()
        res = solve_case(problem, plan, TsConfig(eps=1e-7, coarse_strategy=strategy,
                                                 max_iterations=3), n_ranks=2)
        assert res.iterations == 3 and len(built) == expected, strategy


def test_tsdd_records_report_the_dd_factorizations(cubic_small):
    # every iteration factorizes each rank's A_II and M_jj; the records sum them
    problem, *_ = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 2)
    res = solve_case(problem, plan, TsConfig(eps=1e-7, coarse_strategy="tsdd"), n_ranks=2)
    flops = [r.factor_flops for r in res.records]
    assert res.iterations > 1 and flops[0] > 0
    assert all(isinstance(f, int) for f in flops)
    assert all(a < b for a, b in zip(flops, flops[1:]))


def test_patch_solve_flops_equal_on_any_rank_count_and_seed(cubic_small):
    # the records' patch solve flops sum every rank's running total once the loop ends
    problem, *_ = cubic_small
    cfg = TsConfig(eps=1e-7, max_iterations=40)
    runs = {}
    for n, seed in ((1, None), (2, None), (2, 1), (2, 2)):
        plan = partition_mesh(problem.nested, problem.sp_info, n)
        runs[n, seed] = [r.solve_flops for r in solve_case(problem, plan, cfg, n_ranks=n,
                                                           seed=seed).records]
    flops = runs[1, None]
    assert all(f == flops for f in runs.values())
    assert flops[0] > 0 and all(isinstance(f, int) for f in flops)
    assert all(a <= b for a, b in zip(flops, flops[1:]))


def test_warm_restart_fewer_iterations():
    cfg = TsConfig(eps=1e-6, max_iterations=300)
    spec = CaseSpec(kind="micro-structure", sp_depth=1, n_planes=8)
    problem = build_microstructure_problem(spec)
    plan = partition_mesh(problem.nested, problem.sp_info, 2)
    cold = solve_case(problem, plan, cfg, n_ranks=2)
    spec2 = CaseSpec(kind="micro-structure", sp_depth=1, n_planes=8, perturb_percent=1.0)
    problem2 = build_microstructure_problem(spec2)
    warm = solve_case(problem2, plan, cfg, n_ranks=2, warm_u_r=cold.u_r)
    cold2 = solve_case(problem2, plan, cfg, n_ranks=2)
    assert warm.converged and cold.converged
    assert warm.iterations < cold2.iterations


def test_nonconvergence_reported():
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    res = solve_case(problem, plan, TsConfig(eps=1e-13, max_iterations=3), n_ranks=1)
    assert not res.converged and res.reason == "max_iterations"
    assert res.iterations == 3
    assert len(res.resi_history) == 3


def test_stagnation_reported(cubic_small, monkeypatch):
    problem, *_ = cubic_small
    plan = partition_mesh(problem.nested, problem.sp_info, 1)
    resi = iter([1.0] + [100.0] * 50)  # far above the best from iteration 2 on
    monkeypatch.setattr(twoscale, "compute_residual", lambda *args: next(resi))
    res = solve_case(problem, plan, TsConfig(eps=1e-7, max_iterations=50), n_ranks=1)
    assert not res.converged and res.reason == "stagnated"
    assert res.iterations == 1 + twoscale.STAGNATION_WINDOW


@pytest.mark.parametrize("base, selector, strategy, n, rtol", [
    ((2, 1, 1), [3], "tsd", 1, 1e-12),
    ((2, 1, 1), [3], "tsd", 2, 1e-12),
    ((2, 1, 1), [3], "tsi", 1, 1e-12),
    ((2, 1, 1), [3], "tsdd", 2, 1e-12),
    ((3, 2, 1), [4, 21, 26, 30], "tsdd", 2, 1e-8),      # singular interior blocks: refined solves
    # singular preconditioner blocks whose condensation round-off outgrows a shift
    # of sparsela.SHIFT times each diagonal entry: so shifted, they raised
    # SingularMatrixError, stagnated, diverged or spent CG_ITER_MAX steps per
    # solve, under the greedy growth partitioner or the coordinate bisection
    ((3, 2, 1), [12, 13, 25, 28, 33], "tsdd", 3, 1e-8),
    ((3, 2, 1), [0, 2, 5, 18, 28, 35], "tsdd", 3, 1e-8),
    ((3, 2, 1), [4, 10, 26, 35], "tsdd", 4, 1e-8),
    ((3, 2, 1), [6, 9, 12, 19, 26, 27], "tsdd", 3, 1e-8),
    ((3, 2, 1), [13, 20], "tsdd", 4, 1e-8),
    ((3, 2, 1), [8, 9, 32], "tsdd", 4, 1e-8),
])
def test_semidefinite_coarse_matrix_solved_shifted(base, selector, strategy, n, rtol,
                                                   build=build_affine_problem):
    # depth-1 partial refinement: a refined block carries its enrichment
    # only on the centroid's rows, so the coarse matrix is singular
    problem, _ = build(CaseSpec(sp_depth=1), base=base, selector=selector)
    u_R, _, _ = reference_oracle(problem)
    plan = partition_mesh(problem.nested, problem.sp_info, n)
    cfg = TsConfig(eps=1e-10, max_iterations=20, coarse_strategy=strategy)
    res = solve_case(problem, plan, cfg, n_ranks=n)
    assert res.converged
    assert np.abs(res.u_r - u_R).max() <= rtol * np.abs(u_R).max()
    assert all(r.shifted for r in res.records)
    for r in res.records:
        assert r.refinement_steps >= (1 if r.coarse_kind == "direct" else 0)
    if strategy == "tsdd":
        assert max(r.pcg_iterations for r in res.records) < ddsolver.CG_ITER_MAX


@pytest.mark.parametrize("selector, n", [
    ([6, 10, 11, 17, 29], 4),  # as above
    # shifting the whole block by SHIFT times its largest diagonal entry hides
    # the enrichment dofs of tiny diagonal from the CG stop rule: these stalled
    ([0, 9, 14, 19, 30, 31, 32], 2),
    ([6, 8, 9, 33, 34], 3),
])
def test_semidefinite_cubic_coarse_matrix_solved_shifted(selector, n):
    test_semidefinite_coarse_matrix_solved_shifted((3, 2, 1), selector, "tsdd", n, 1e-8,
                                                   build=build_cubic_problem)


def test_config_validation():
    with pytest.raises(ValueError):
        TsConfig(eps=0.0)
    with pytest.raises(ValueError):
        TsConfig(coarse_strategy="nope")
    with pytest.raises(ValueError):
        TsConfig(max_iterations=0)
