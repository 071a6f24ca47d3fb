import hashlib
from dataclasses import replace

import numpy as np
import pytest

from twoscalefem.bench import (
    CUBIC_E,
    CUBIC_NU,
    CaseSpec,
    _perturbed_problem,
    analytic_strains,
    build_cone_box_problem,
    build_cubic_problem,
    build_microstructure_problem,
    cone_damage,
    cubic_body_force,
    cubic_exact,
    energy_norm_fields,
    error_reports,
    build_problem,
    microstructure_E,
    reference_oracle,
)
from twoscalefem.microplanes import PLANES_64

from twoscalefem.elasticity import (
    TET4_QUAD,
    Material,
    hooke_matrix,
    leaf_moduli,
    p1_gradients,
    strain_operator,
)

E0, NU0, F0, K0 = 36.5e9, 0.2, 1.0, 4.0


def region_code(points, planes):
    """Sign-code integers of an array of points (voxel oracle helper)."""
    planes = np.asarray(planes)
    signs = (np.asarray(points) @ planes[:, :3].T - planes[:, 3]) >= 0
    return signs @ (1 << np.arange(signs.shape[1], dtype=np.int64))


def cone_envelope_membership(p, theta_deg=35.0, o1=-545.08, o2=-531.31,
                             h=-400.0, y_floor=-469.0):
    """Direct evaluation of the four envelope inequalities."""
    x, y, z = p
    theta = np.deg2rad(theta_deg)
    rho2 = x * x + z * z
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    return (rho2 * c2 < (y - o1) ** 2 * s2 and rho2 * c2 > (y - o2) ** 2 * s2
            and y_floor < y and y < h)


def pointwise_cone_damage(p, h=-400.0, y_floor=-469.0, theta_deg=35.0, o1=-545.08, o2=-531.31):
    """Damage at one point, scalar arithmetic throughout."""
    if not cone_envelope_membership(p, theta_deg, o1, o2, h, y_floor):
        return 0.0
    x, y, z = p
    t = np.tan(np.deg2rad(theta_deg))
    r1, r2 = (y - o1) * t, (y - o2) * t
    s = abs(np.sqrt(x * x + z * z) - 0.5 * (r1 + r2)) / (0.5 * (r1 - r2))
    return float(np.clip(2.0 * (1.0 - s), 0.0, 1.0))


def pointwise_modulus(p, planes, E_min, E_max, jitter, seed):
    """Micro-structure modulus at one point: its own hash and its own draw."""
    planes = np.asarray(planes)
    signs = (planes[:, 0] * p[0] + planes[:, 1] * p[1] + planes[:, 2] * p[2] - planes[:, 3]) >= 0
    h = hashlib.blake2b(np.packbits(signs).tobytes(), digest_size=8).digest()
    E = E_min * (E_max / E_min) ** (int.from_bytes(h, "big") / float(2**64))
    if jitter:
        code = int(region_code(p[None, :], planes)[0])
        E = E * (1.0 + jitter * np.random.default_rng(seed * 1_000_003 + code).uniform(-1, 1))
    return E


def test_cubic_zero_at_origin():
    assert np.allclose(cubic_exact(0.0, 0.0, 0.0, E0, NU0, F0, K0), 0.0)


def test_cubic_nu_zero_components_vanish():
    for p in np.random.default_rng(0).uniform(0, 2, size=(10, 3)):
        u = cubic_exact(*p, E0, 0.0, F0, K0)
        assert u[1] == 0.0 and u[2] == 0.0


def test_cubic_equilibrium_finite_differences():
    """div sigma(u_C) + f = 0, sigma built by finite differences of u_C only."""
    lam = E0 * NU0 / ((1 + NU0) * (1 - 2 * NU0))
    mu = E0 / (2 * (1 + NU0))
    h = 1e-4
    f = cubic_body_force(E0, NU0, F0, K0)

    def sigma_fd(p):
        G = np.zeros((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            G[:, j] = (cubic_exact(*(p + dp), E0, NU0, F0, K0)
                       - cubic_exact(*(p - dp), E0, NU0, F0, K0)) / (2 * h)
        eps = 0.5 * (G + G.T)
        return lam * np.trace(eps) * np.eye(3) + 2 * mu * eps

    rng = np.random.default_rng(1)
    pts = rng.uniform(0.3, 1.7, size=(100, 3))
    scale = abs(F0) * (1 - NU0) * K0
    for p in pts:
        div = np.zeros(3)
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            div += (sigma_fd(p + dp)[:, j] - sigma_fd(p - dp)[:, j]) / (2 * h)
        assert np.abs(div + f(p)).max() <= 1e-6 * scale


def test_microstructure_zero_planes_uniform():
    assert microstructure_E(0.3, 1.1, 0.7, planes=[]) == 36.5e9


def test_microstructure_one_plane_two_regions():
    planes = PLANES_64[:1]
    rng = np.random.default_rng(2)
    vals = {microstructure_E(*p, planes) for p in rng.uniform(0, 2, size=(200, 3))}
    assert len(vals) == 2


def _voxel_codes(planes, m=64):
    axis = (np.arange(m) + 0.5) * (2.0 / m)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    return region_code(pts, planes).reshape(m, m, m)


def test_microstructure_region_count_flood_fill_oracle():
    # convex cells: one flood-fill component per sign code.  The 64^3 voxel
    # oracle resolves this exactly for the 4-plane set; thinner cells of
    # larger sets fragment below voxel resolution (structural checks below).
    from scipy import ndimage

    st = np.ones((3, 3, 3))
    codes4 = _voxel_codes(PLANES_64[:4])
    uniq4 = np.unique(codes4)
    comp4 = sum(ndimage.label(codes4 == c, structure=st)[1] for c in uniq4)
    assert comp4 == len(uniq4)


def test_microstructure_components_code_pure_16_planes():
    from scipy import ndimage

    st = np.ones((3, 3, 3))
    codes = _voxel_codes(PLANES_64[:16])
    uniq = np.unique(codes)
    total = 0
    for c in uniq:
        lab, k = ndimage.label(codes == c, structure=st)
        assert k >= 1  # every code present is reachable
        total += k
    assert total >= len(uniq)  # fragmentation only ever splits cells


def test_microstructure_deterministic():
    planes = PLANES_64[:16]
    a = microstructure_E(0.3, 0.4, 0.5, planes)
    b = microstructure_E(0.3, 0.4, 0.5, planes)
    assert a == b
    assert 36.5e9 <= a <= 3650.0e9


def test_cone_damage_outside_conditions():
    # fourth condition: y above the stage height
    assert cone_damage(50.0, -390.0, 0.0, h=-400.0) == 0.0
    # first inequality violated: far outside the outer cone
    assert cone_damage(500.0, -430.0, 0.0, h=-400.0) == 0.0


def test_cone_membership_matches_inequalities():
    rng = np.random.default_rng(3)
    pts = np.column_stack([
        rng.uniform(-200, 200, 10_000),
        rng.uniform(-480, -380, 10_000),
        rng.uniform(-200, 200, 10_000),
    ])
    for p in pts:
        inside = cone_envelope_membership(p, h=-400.0)
        d = cone_damage(*p, h=-400.0)
        if inside:
            assert d >= 0.0
        else:
            assert d == 0.0


def test_material_fields_match_pointwise_evaluation_bitwise():
    # one call per field over all leaf centroids equals a call per centroid
    spec = CaseSpec(kind="micro-structure", sp_depth=1, perturb_percent=1.0, seed=4)
    micro = build_microstructure_problem(spec)
    cone = build_cone_box_problem(CaseSpec(kind="cone-damage-box", sp_depth=1))
    for problem, pointwise in (
        (micro, lambda p: pointwise_modulus(p, PLANES_64[:16], *spec.e_range, 0.01, 4)),
        (cone, lambda p: 26.4e9 * (1.0 - pointwise_cone_damage(p))),
    ):
        nested = problem.nested
        leaves = np.concatenate(nested.micro)
        got = leaf_moduli(nested.points, leaves, problem.material)
        expect = np.array([pointwise(c) for c in nested.points[leaves].mean(axis=1)])
        assert np.array_equal(got, expect)
    assert np.count_nonzero(got < 26.4e9) > 0  # the cone case samples the band


def test_damage_outside_unit_interval_raises():
    leaves = np.array([[0, 1, 2, 3]])
    points = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert leaf_moduli(points, leaves, Material(damage=lambda x: 1.0 + 1e-13))[0] == 0.0
    for d in (1.0 + 1e-9, -1e-9, np.nan):
        with pytest.raises(ValueError, match="outside"):
            leaf_moduli(points, leaves, Material(damage=lambda x, d=d: np.full(len(x), d)))


def test_cone_mid_band_fully_damaged():
    theta = np.deg2rad(35.0)
    o_mid = 0.5 * (-545.08 - 531.31)
    y = -430.0
    rho = (y - o_mid) * np.tan(theta)
    assert cone_damage(rho, y, 0.0, h=-400.0) == 1.0


def test_reference_oracle_residual_and_affine():
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    u_R, system, _ = reference_oracle(problem)
    assert system.residual(u_R) <= 1e-10
    # zero loads: trivial (affine-zero) solution
    from twoscalefem.elasticity import LoadSet
    from twoscalefem.twoscale import ProblemSetup

    p0 = ProblemSetup(problem.nested, problem.sp_info, problem.partition,
                      problem.material, LoadSet())
    u0, s0, _ = reference_oracle(p0)
    assert np.abs(u0).max() == 0.0


def test_reference_h_convergence():
    reps = {}
    for depth in (1, 2):
        problem, exact = build_cubic_problem(CaseSpec(sp_depth=depth), base=(2, 1, 1))
        u_R, system, _ = reference_oracle(problem)
        (rep,) = error_reports(problem, [u_R], u_R, system, exact)
        reps[depth] = rep.E_R_C
    assert reps[2] < reps[1]


def test_error_report_identity_and_nodal_defect_recorded():
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    u_R, system, _ = reference_oracle(problem)
    rng = np.random.default_rng(5)
    u_ts = u_R * (1.0 + 0.05 * rng.normal(size=len(u_R)))
    (rep,) = error_reports(problem, [u_ts], u_R, system, exact)
    assert rep.identity_defect <= 1e-12
    assert rep.identity_defect_nodal > 0.0  # recorded, not dropped
    assert rep.E_ts_R > 0 and rep.E_R_C > 0


def test_energy_matches_discrete_quadratic_form():
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    u_R, system, _ = reference_oracle(problem)
    full = system.expand(u_R)
    e_quad = energy_norm_fields(problem, (full, np.zeros_like(full)))
    e_disc = float(u_R @ (system.A_rr @ u_R))
    assert e_quad == pytest.approx(e_disc, rel=1e-11)


def test_energy_against_a_leaf_by_leaf_quadrature():
    # the batched energy of (FE field - analytic strain) against a loop over
    # leaves and quadrature points; only the summation order differs
    problem, exact = build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))
    u_R, system, _ = reference_oracle(problem)
    full = system.expand(u_R)
    pts, nu = problem.nested.points, problem.material.poisson_ratio
    C1 = hooke_matrix(1.0, nu)
    expect = 0.0
    for leaf in np.concatenate(problem.nested.micro):
        grads, vol = p1_gradients(pts, leaf[None])
        eps_h = strain_operator(grads)[0] @ full[leaf].ravel()
        E = leaf_moduli(pts, leaf[None], problem.material)[0]
        for bary, w in zip(*TET4_QUAD):
            e = exact["strain"]((bary @ pts[leaf])[None])[0]
            voigt = [e[0, 0], e[1, 1], e[2, 2], 2 * e[1, 2], 2 * e[0, 2], 2 * e[0, 1]]
            diff = np.array(voigt) - eps_h
            expect += w * vol[0] * E * (diff @ C1 @ diff)
    strain = analytic_strains(problem, exact["strain"])
    got = energy_norm_fields(problem, (None, full), strain)
    assert got == pytest.approx(expect, rel=1e-13)


def test_cone_box_has_mixed_structure():
    problem = build_cone_box_problem(CaseSpec(sp_depth=2, cone_h=-400.0))
    nested, sp_info = problem.nested, problem.sp_info
    assert len(sp_info.nsp_elements) > 0
    assert len(nested.hanging) > 0
    transition = [e for e in sp_info.sp_elements if nested.levels[e] == 0]
    assert transition
    # hanging-node continuity of the reference field across the interface
    u_R, system, _ = reference_oracle(problem)
    full = system.expand(u_R)
    from twoscalefem.mesh import _p1_weights

    for hnode, parents, weights in zip(nested.hanging, nested.hanging_parents,
                                       nested.hanging_weights):
        via_parents = sum(w * full[p] for p, w in zip(parents, weights))
        # independent route: interpolate the unrefined side's P1 field
        for e in map(int, sp_info.nsp_elements):
            tet = nested.coarse.tets[e]
            lam = _p1_weights(nested.points[tet], nested.points[hnode])
            if np.all(lam > -1e-9) and np.all(lam < 1 + 1e-9):
                via_coarse = sum(lam[i] * full[int(tet[i])] for i in range(4))
                assert np.abs(via_parents - via_coarse).max() <= 1e-12 * max(
                    np.abs(full).max(), 1e-300)
                break


def test_case_spec_validation():
    with pytest.raises(ValueError):
        CaseSpec(sp_depth=0)
    with pytest.raises(ValueError):
        CaseSpec(solver="dd", ranks=1)
    with pytest.raises(ValueError):
        CaseSpec(ranks=0)
    with pytest.raises(ValueError):
        CaseSpec(solver="tsdd", ranks=1)
    with pytest.raises(ValueError):
        CaseSpec(eps=-1.0)
    with pytest.raises(ValueError, match="unknown solver"):
        CaseSpec(solver="bogus")
    with pytest.raises(ValueError, match="unknown case kind"):
        CaseSpec(kind="nope")


def _rebuilt_twin_moduli(spec, problem):
    """Leaf moduli of a twin rebuilt from scratch: the micro-structure case built anew
    with the jitter and the next seed, the others with E scaled by 1 + p."""
    p = (spec.perturb_percent or 1.0) / 100.0
    if spec.kind == "micro-structure":
        twin = build_microstructure_problem(replace(spec, perturb_percent=spec.perturb_percent
                                                    or 1.0, seed=spec.seed + 1))
        nested, mat = twin.nested, twin.material
    elif spec.kind == "cubic-plate":
        nested, mat = problem.nested, Material(CUBIC_E * (1 + p), CUBIC_NU)
    else:
        nested = problem.nested
        mat = Material(26.4e9 * (1 + p), 0.193, damage=problem.material.damage)
    return leaf_moduli(nested.points, np.concatenate(nested.micro), mat)


@pytest.mark.parametrize("spec", [
    CaseSpec(kind="micro-structure", sp_depth=1, n_planes=8, perturb_percent=1.0),
    CaseSpec(kind="micro-structure", sp_depth=1, n_planes=8, seed=3),
    CaseSpec(kind="cubic-plate", sp_depth=1),
    CaseSpec(kind="cone-damage-box", sp_depth=1, perturb_percent=2.0),
], ids=["micro", "micro-p0", "cubic", "cone"])
def test_perturbed_twin_swaps_only_the_material(spec):
    problem, _ = build_problem(spec)
    twin = _perturbed_problem(spec, problem)
    for name in ("nested", "sp_info", "partition", "loads"):
        assert getattr(twin, name) is getattr(problem, name)
    leaves = np.concatenate(problem.nested.micro)
    got = leaf_moduli(problem.nested.points, leaves, twin.material)
    assert np.array_equal(got, _rebuilt_twin_moduli(spec, problem))
    main = leaf_moduli(problem.nested.points, leaves, problem.material)
    assert not np.array_equal(got, main)
