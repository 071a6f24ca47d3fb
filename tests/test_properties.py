"""Property tests for the invariants that hold on arbitrary inputs."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from twoscalefem import costmodel as cm
from twoscalefem.bench import CaseSpec, build_affine_problem, build_cubic_problem, reference_oracle
from twoscalefem.mesh import (
    BoundaryConditions,
    NestedMesh,
    UnsupportedConfigurationError,
    box_mesh,
    build_partition,
    classify_sp,
    refine,
)
from twoscalefem.runtime import partition_mesh
from twoscalefem.sparsela import factorize, pcg, solve
from twoscalefem.twoscale import TsConfig, solve_case


@settings(max_examples=20, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=23), min_size=1, max_size=8),
       st.integers(min_value=1, max_value=2))
def test_dof_set_identities_hold(selected, levels):
    mesh = box_mesh(2, 2, 1, face_labels={"x1": "clamp"})
    nested = refine(NestedMesh.from_coarse(mesh), sorted(selected), levels)
    sp_info = classify_sp(nested)
    bc = BoundaryConditions(dirichlet_labels={"clamp": (True, True, True)})
    try:
        part = build_partition(nested, sp_info, bc)
    except UnsupportedConfigurationError:
        return
    # g = c u e disjointly
    card_c = int((~part.coarse_dirichlet).sum())
    assert part.n_coarse_free == card_c + 3 * part.n_enriched
    # r = h u f disjointly, L excluded
    assert not (set(part.h_nodes) & set(part.f_nodes))
    free_nodes = set(int(v) for v in part.h_nodes) | set(int(v) for v in part.f_nodes)
    assert not (free_nodes & set(int(v) for v in part.hanging_nodes))
    n_free = sum(int((~part.ref_dirichlet[3 * v: 3 * v + 3]).sum()) for v in free_nodes)
    assert part.n_ref_free == n_free
    # every free reference dof belongs to exactly one of h/f
    for patch_sets in part.patch_sets:
        dofset = set(patch_sets["q"]) | set(patch_sets["d"])
        assert len(dofset) == len(patch_sets["q"]) + len(patch_sets["d"])


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10_000))
def test_factor_solve_random_spd(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    A = sp.csc_matrix(M @ M.T + n * np.eye(n))
    b = rng.normal(size=n)
    x = solve(factorize(A), b)
    assert np.linalg.norm(A @ x - b) <= 1e-9 * max(np.linalg.norm(b), 1e-30)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
def test_pcg_exact_preconditioner_two_iterations(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    A = sp.csc_matrix(M @ M.T + n * np.eye(n))
    F = factorize(A)
    b = rng.normal(size=n)
    x, rep = pcg(np.zeros(n), lambda v: A @ v, b, lambda v: solve(F, v), 1e-10)
    assert rep.converged and rep.iterations <= 2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=6))
def test_patch_counts_cover_all_lattice_nodes(L_c):
    counts = cm.patch_counts(L_c)
    assert sum(counts.values()) == (2**L_c + 1) ** 3


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_cost_ts_positive(L_c, extra):
    L = L_c + extra
    assert cm.cost_ts(L_c, L, 30, 0.017, 0.017) > 0


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=0, max_value=35), min_size=1, max_size=5, unique=True),
       st.sampled_from([1, 2]), st.booleans(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**16))
def test_partial_refinement_converges_to_the_oracle(selector, depth, cubic, n_ranks, seed):
    # a depth-1 refined block carries its enrichment only on the centroid's
    # rows, so the coarse matrix of such a selector is singular
    build = build_cubic_problem if cubic else build_affine_problem
    try:
        problem, _ = build(CaseSpec(sp_depth=depth), base=(3, 2, 1), selector=sorted(selector))
    except UnsupportedConfigurationError:
        return
    u_R, _, _ = reference_oracle(problem)
    cfg = TsConfig(eps=1e-10, max_iterations=150)
    one = solve_case(problem, partition_mesh(problem.nested, problem.sp_info, 1), cfg)
    many = solve_case(problem, partition_mesh(problem.nested, problem.sp_info, n_ranks), cfg,
                      n_ranks=n_ranks, seed=seed)
    assert one.converged
    assert np.abs(one.u_r - u_R).max() <= 1e-8 * np.abs(u_R).max()
    assert many.resi_history == one.resi_history
