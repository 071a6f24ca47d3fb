"""Test-case definitions, the monolithic oracle wrapper and error metrics.

Three case families: a plate with a known cubic displacement field, a cube
cut by random planes into regions of different stiffness, and a box with
an imposed conical damage band (the pull-out analog).  Energy errors are
evaluated by element quadrature with the analytic field sampled at the
quadrature points, which keeps the energy split identity exact; the
nodal-interpolant variant is reported alongside with its defect.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .elasticity import (
    TET4_QUAD,
    LoadSet,
    Material,
    expand,
    hooke_matrix,
    leaf_moduli,
    p1_gradients,
    strain_operator,
)
from .mesh import (
    BoundaryConditions,
    CoarseMesh,
    NestedMesh,
    box_mesh,
    build_partition,
    classify_sp,
    refine,
)
from .microplanes import PLANES_64
from .reference import ReferenceSystem, assemble_reference, solve_reference
from .twoscale import ProblemSetup

__all__ = [
    "CaseSpec",
    "ErrorReport",
    "cubic_exact",
    "cubic_strain",
    "cubic_body_force",
    "cubic_traction",
    "microstructure_E",
    "cone_damage",
    "reference_oracle",
    "build_cubic_problem",
    "build_microstructure_problem",
    "build_cone_box_problem",
    "flatten_to_coarse",
    "energy_geometry",
    "energy_norm_fields",
    "error_reports",
]

CUBIC_E = 36.5e9
CUBIC_NU = 0.2

# box cells (6 tetrahedra each) of each case's coarse mesh before flattening
BASES = {"cubic-plate": (4, 2, 1), "micro-structure": (2, 2, 2), "cone-damage-box": (6, 2, 6)}

SIDES = ("x0", "x1", "y0", "y1", "z0", "z1")
SIDE_NORMAL = {"x0": (-1, 0), "x1": (1, 0), "y0": (-1, 1), "y1": (1, 1),
               "z0": (-1, 2), "z1": (1, 2)}   # side -> (sign, axis) of the outer normal


@dataclass
class CaseSpec:
    """Configuration of one benchmark run (see cli.run for the mapping)."""

    kind: str = "cubic-plate"          # cubic-plate | micro-structure | cone-damage-box
    coarse_level: int = 0
    sp_depth: int = 2
    eps: float = 1e-7
    solver: str = "ts"                 # ts | tsi | tsdd | dd | fr
    ranks: int = 1
    warm_start: bool = False
    perturb_percent: float = 0.0
    n_planes: int = 16
    e_range: tuple = (36.5e9, 3650.0e9)
    cone_h: float = -400.0
    seed: int = 0

    def __post_init__(self):
        if self.coarse_level < 0:
            raise ValueError("coarse level must be >= 0")
        if self.sp_depth < 1:
            raise ValueError("SP depth must be >= 1")
        if not -100.0 < self.perturb_percent < 100.0:
            raise ValueError("perturb percent must lie in (-100, 100)")
        if self.ranks < 1:
            raise ValueError("ranks must be >= 1")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if not 0 <= self.n_planes <= len(PLANES_64):
            raise ValueError(f"n_planes must lie in 0..{len(PLANES_64)}")
        if self.solver in ("dd", "tsdd") and self.ranks < 2:
            raise ValueError(f"{self.solver} needs at least 2 ranks")
        if self.kind in BASES and self.ranks > self.macro_elements():
            raise ValueError(f"{self.ranks} ranks exceed the {self.macro_elements()} macro "
                             f"elements of the {self.kind} mesh")

    def macro_elements(self) -> int:
        """Macro-element count of the case's default mesh (BASES), the one build_problem
        and the CLI build: 8 per flattened level.  Every rank needs a macro element of
        its own; a builder called with another base is checked by partition_elements."""
        return 6 * int(np.prod(BASES[self.kind])) * 8 ** self.coarse_level


# ---------------------------------------------------------------------------
# cubic plate (analytic field)


def cubic_exact(x, y, z, E=CUBIC_E, nu=CUBIC_NU, F=1.0, K=4.0):
    """Cubic displacement field over the plate, (3, ...) at coordinates (...); zero at the
    origin."""
    a = (nu + 1.0) * (1.0 - 2.0 * nu) * F / E
    return np.array([
        a * (x * x * (K / 2.0 - x / 3.0) + 2.0 * nu * (y * y - z * z)),
        -4.0 * a * nu * x * y,
        4.0 * a * nu * x * z,
    ])


def cubic_strain(x, y, z, E=CUBIC_E, nu=CUBIC_NU, F=1.0, K=4.0):
    """Strain tensors (..., 3, 3) of the cubic field at coordinates (...), diagonal."""
    a = (nu + 1.0) * (1.0 - 2.0 * nu) * F / E
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape + (3, 3))
    out[..., 0, 0], out[..., 1, 1] = a * (K * x - x * x), -4.0 * a * nu * x
    out[..., 2, 2] = 4.0 * a * nu * x
    return out


def _cubic_stress_diag(x, E, nu, F, K):
    s11 = F * (1.0 - nu) * (K * x - x * x)
    s22 = F * nu * (K * x - x * x) - 4.0 * F * (1.0 - 2.0 * nu) * nu * x
    s33 = F * nu * (K * x - x * x) + 4.0 * F * (1.0 - 2.0 * nu) * nu * x
    return s11, s22, s33


def cubic_body_force(E=CUBIC_E, nu=CUBIC_NU, F=1.0, K=4.0):
    """f = -div sigma of the cubic field (equilibrium residual is zero), (..., 3) at
    points (..., 3)."""

    def f(p):
        out = np.zeros(np.shape(p))
        out[..., 0] = -F * (1.0 - nu) * (K - 2.0 * p[..., 0])
        return out

    return f


def cubic_traction(side, E=CUBIC_E, nu=CUBIC_NU, F=1.0, K=4.0):
    """sigma . n on one box side (x faces carry zero traction), (..., 3) at points (..., 3)."""
    sign, axis = SIDE_NORMAL[side]

    def t(p):
        out = np.zeros(np.shape(p))
        out[..., axis] = sign * _cubic_stress_diag(p[..., 0], E, nu, F, K)[axis]
        return out

    return t


def flatten_to_coarse(nested: NestedMesh) -> CoarseMesh:
    """Turn a (conforming) nested mesh into a standalone coarse mesh."""
    if len(nested.hanging):
        raise ValueError("cannot flatten a mesh with hanging nodes")
    tets = np.concatenate([nested.micro[e] for e in range(nested.coarse.n_elements)])
    used = np.unique(tets)
    remap = -np.ones(nested.n_nodes, dtype=np.int64)
    remap[used] = np.arange(len(used))
    faces, _, labels = nested.boundary_fine_faces()
    faces = map(tuple, np.sort(remap[faces], axis=1).tolist())
    return CoarseMesh(nested.points[used], remap[tets], dict(zip(faces, labels.tolist())))


def _corner_node(mesh: CoarseMesh, point):
    d = np.linalg.norm(mesh.vertices - np.asarray(point), axis=1)
    i = int(np.argmin(d))
    if d[i] > 1e-9:
        raise ValueError(f"no vertex at {point}")
    return i


def _box_problem(spec: CaseSpec, base, dims, material, loads, origin=(0.0, 0.0, 0.0),
                 third_axis=1, select=None) -> ProblemSetup:
    """Case skeleton: labelled box, optional flatten, refine, classify_sp, 3-2-1 pins.

    The six box sides carry their names as labels.  The box is flattened
    spec.coarse_level times, then refined spec.sp_depth times on the
    elements select(mesh) returns (all of them by default).  The pins fix
    the origin corner, the y and z components of the corner along x, and
    the component normal to the x/third_axis plane of the corner along
    third_axis.
    """
    mesh = box_mesh(*base, lengths=dims, origin=origin, face_labels={s: s for s in SIDES})
    if spec.coarse_level > 0:
        mesh = flatten_to_coarse(
            refine(NestedMesh.from_coarse(mesh), lambda e: True, spec.coarse_level))
    selector = select(mesh) if select is not None else (lambda e: True)
    nested = refine(NestedMesh.from_coarse(mesh), selector, spec.sp_depth)
    sp_info = classify_sp(nested)
    o, axes = np.asarray(origin, dtype=np.float64), np.eye(3)
    A = _corner_node(mesh, o)
    Bp = _corner_node(mesh, o + dims[0] * axes[0])
    C = _corner_node(mesh, o + dims[third_axis] * axes[third_axis])
    bc = BoundaryConditions(point_constraints=[
        (A, 0), (A, 1), (A, 2), (Bp, 1), (Bp, 2), (C, 3 - third_axis),
    ])
    return ProblemSetup(nested, sp_info, build_partition(nested, sp_info, bc), material, loads)


def build_cubic_problem(spec: CaseSpec, base=BASES["cubic-plate"], dims=(4.0, 2.0, 1.0),
                        F=1.0, material=None, selector=None):
    """Plate problem with the cubic exact field, refined on selector (default: all elements)."""
    K = dims[0]
    mat = material or Material(young_modulus=CUBIC_E, poisson_ratio=CUBIC_NU)
    E, nu = mat.young_modulus, mat.poisson_ratio
    loads = LoadSet(
        body=cubic_body_force(E, nu, F, K),
        tractions={s: cubic_traction(s, E, nu, F, K) for s in ("y0", "y1", "z0", "z1")},
    )
    exact = {
        "u": lambda p: cubic_exact(p[:, 0], p[:, 1], p[:, 2], E, nu, F, K).T,
        "strain": lambda p: cubic_strain(p[:, 0], p[:, 1], p[:, 2], E, nu, F, K),
    }
    select = None if selector is None else (lambda mesh: selector)
    return _box_problem(spec, base, dims, mat, loads, select=select), exact


def build_affine_problem(spec: CaseSpec, base=(2, 1, 1), dims=(4.0, 2.0, 1.0),
                         G=None, selector=None):
    """Manufactured affine field u = G x: reproduced exactly by the spaces.

    G must vanish below the diagonal so the corner pins are compatible with
    zero prescribed displacements.
    """
    if G is None:
        G = np.array([[3e-4, 1e-4, -2e-4], [0.0, -1e-4, 5e-5], [0.0, 0.0, 2e-4]])
    if np.abs(np.tril(G, -1)).max() > 0:
        raise ValueError("G must be upper-triangular for the corner pins")
    mat = Material(young_modulus=CUBIC_E, poisson_ratio=CUBIC_NU)
    eps_t = 0.5 * (G + G.T)
    voigt = np.array([eps_t[0, 0], eps_t[1, 1], eps_t[2, 2],
                      2 * eps_t[1, 2], 2 * eps_t[0, 2], 2 * eps_t[0, 1]])
    sv = hooke_matrix(mat.young_modulus, mat.poisson_ratio) @ voigt
    sigma = np.array([[sv[0], sv[5], sv[4]], [sv[5], sv[1], sv[3]], [sv[4], sv[3], sv[2]]])

    def traction(side):
        sign, axis = SIDE_NORMAL[side]
        t = sign * sigma[:, axis]
        return lambda p: t

    loads = LoadSet(tractions={s: traction(s) for s in SIDES})
    problem = _box_problem(spec, base, dims, mat, loads,
                           select=None if selector is None else (lambda mesh: selector))
    exact = {
        "u": lambda p: p @ G.T,
        "strain": lambda p: np.broadcast_to(eps_t, (len(p), 3, 3)),
    }
    return problem, exact


# ---------------------------------------------------------------------------
# micro-structure cube


def microstructure_E(x, y, z, planes=None, E_min=36.5e9, E_max=3650.0e9):
    """Young's modulus from the sign code of the point against the planes.

    The region code is hashed (blake2b) to a log-uniform modulus in
    [E_min, E_max]; deterministic across runs and platforms.
    """
    return float(_region_moduli(np.array([[x, y, z]], dtype=np.float64), planes, E_min, E_max)[0])


def _region_moduli(points, planes, E_min, E_max, jitter=0.0, seed=0):
    """Moduli (n,) of points (n, 3), hashed once per region code; with jitter
    scaled by 1 + jitter * u, u in [-1, 1] drawn once per region code."""
    if planes is None or len(planes) == 0:
        return np.full(len(points), E_min)
    planes = np.asarray(planes)
    x, y, z = (points[:, i, None] for i in range(3))
    signs = (planes[:, 0] * x + planes[:, 1] * y + planes[:, 2] * z - planes[:, 3]) >= 0
    codes, region = np.unique(np.packbits(signs, axis=1), axis=0, return_inverse=True)
    region = region.reshape(-1)
    E = np.array([_code_to_modulus(code.tobytes(), E_min, E_max) for code in codes])
    if jitter:
        ints = signs @ (1 << np.arange(signs.shape[1], dtype=np.int64))
        first = np.unique(region, return_index=True)[1]
        E = E * (1.0 + jitter * np.array([np.random.default_rng(
            seed * 1_000_003 + int(ints[i])).uniform(-1, 1) for i in first]))
    return E[region]


def _code_to_modulus(code: bytes, E_min, E_max):
    h = hashlib.blake2b(code, digest_size=8).digest()
    u = int.from_bytes(h, "big") / float(2**64)
    return E_min * (E_max / E_min) ** u


def build_microstructure_problem(spec: CaseSpec, base=BASES["micro-structure"]):
    """Pressurized cube with plane-wise random moduli; all nodes enriched."""
    planes = PLANES_64[: spec.n_planes]
    E_min, E_max = spec.e_range
    jitter = spec.perturb_percent / 100.0

    def modulus(points):
        return _region_moduli(points, planes, E_min, E_max, jitter, spec.seed)

    mat = Material(young_modulus=modulus, poisson_ratio=0.2)
    press = 4.0e6

    def pressure(side):
        sign, axis = SIDE_NORMAL[side]
        t = np.zeros(3)
        t[axis] = -sign * press  # compression on every face
        return lambda p: t

    loads = LoadSet(tractions={s: pressure(s) for s in SIDES})
    return _box_problem(spec, base, (2.0, 2.0, 2.0), mat, loads)


# ---------------------------------------------------------------------------
# cone-damage box (pull-out analog)


def cone_damage(x, y, z, theta_deg=35.0, o1=-545.08, o2=-531.31, h=-400.0,
                y_floor=-469.0):
    """Imposed damage inside the double-cone envelope, 1 on the mid band.

    Inside the envelope (between the two coaxial cones, above y_floor and
    below h) the damage falls linearly from 1 at the mid-surface band to 0
    at the envelope walls, using the envelope half-thickness as length
    scale; outside it is 0.  x, y, z may be arrays of one shape.
    """
    theta = np.deg2rad(theta_deg)
    rho2 = x * x + z * z
    c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
    inside = ((rho2 * c2 < np.square(y - o1) * s2) & (rho2 * c2 > np.square(y - o2) * s2)
              & (y_floor < y) & (y < h))
    t = np.tan(theta)
    r1 = (y - o1) * t
    r2 = (y - o2) * t
    mid = 0.5 * (r1 + r2)
    half = 0.5 * (r1 - r2)
    s = np.abs(np.sqrt(rho2) - mid) / half
    return np.where(inside, np.clip(2.0 * (1.0 - s), 0.0, 1.0), 0.0)


def build_cone_box_problem(spec: CaseSpec, base=BASES["cone-damage-box"]):
    """Box-with-cone analog of the pull-out test: NSP elements, mixed patches."""
    dims = (600.0, 119.0, 600.0)
    origin = (-300.0, -469.0, -300.0)
    h = spec.cone_h
    y_floor = -469.0

    def dmg(points):
        return cone_damage(points[:, 0], points[:, 1], points[:, 2], h=h, y_floor=y_floor)

    def select(mesh):
        # refine every element within reach of the damage band: the band is
        # thin (radial width ~10), so select by distance to its mid surface
        # from the vertices and the centroid instead of sampling the damage value
        pts = mesh.vertices[mesh.tets]
        i, j = np.triu_indices(4, 1)
        diam = np.linalg.norm(pts[:, i] - pts[:, j], axis=2).max(axis=1)[:, None]
        probe = np.concatenate([pts, pts.mean(axis=1)[:, None]], axis=1)
        y = np.clip(probe[..., 1], y_floor, h)
        mid = (y - 0.5 * (-545.08 - 531.31)) * np.tan(np.deg2rad(35.0))
        near = ((y_floor - 0.25 * diam <= probe[..., 1]) & (probe[..., 1] <= h + 0.25 * diam)
                & (np.abs(np.hypot(probe[..., 0], probe[..., 2]) - mid) <= 6.9 + 0.25 * diam))
        selector = np.nonzero(near.any(axis=1))[0]
        if not len(selector):
            raise ValueError("damage band does not intersect the box")
        return selector

    mat = Material(young_modulus=26.4e9, poisson_ratio=0.193, damage=dmg)
    r_pull, r_in, r_out, P = 75.0, 150.0, 220.0, 2.0e6
    balance = r_pull**2 / (r_out**2 - r_in**2)

    def pull(p):
        rho2 = p[..., 0] ** 2 + p[..., 2] ** 2
        out = np.zeros(np.shape(p))
        out[..., 1] = np.where(rho2 <= r_pull**2, P,
                               np.where((r_in**2 <= rho2) & (rho2 <= r_out**2), -P * balance, 0.0))
        return out

    # self-equilibrated loading (anchor pull + support-ring reaction) with
    # 3-2-1 corner pins: no Dirichlet faces, so hanging nodes on the SP/NSP
    # interface can never carry a Dirichlet label
    return _box_problem(spec, base, dims, mat, LoadSet(tractions={"y1": pull}),
                        origin=origin, third_axis=2, select=select)


# ---------------------------------------------------------------------------
# oracle and error metrics


def reference_oracle(problem: ProblemSetup):
    """Monolithic reference solve: returns (u_r, ReferenceSystem, Factor)."""
    system = assemble_reference(problem.nested, problem.partition,
                                problem.material, problem.loads)
    u_r, F = solve_reference(system)
    return u_r, system, F


def energy_norm_fields(problem: ProblemSetup, fields, analytic=None, geometry=None):
    """Squared energy of (field_a - field_b) by element quadrature.

    fields: pair of nodal arrays (n_nodes, 3) or None to use, in that slot,
    the analytic strain values ``analytic`` from analytic_strains.  The
    kernel and the per-leaf modulus are the ones of the stiffness assembly,
    so FE-FE energies match x^T A x to round-off.  geometry, from
    energy_geometry, is computed here when not given.
    """
    q = TET4_QUAD[0].shape[0]
    w = TET4_QUAD[1]
    C1 = hooke_matrix(1.0, problem.material.poisson_ratio)
    total = 0.0
    for i, (leaves, B, vols, moduli) in enumerate(geometry or energy_geometry(problem)):
        eps_a, eps_b = (analytic[i] if f is None else _leaf_strains(leaves, B, f, q)
                        for f in fields)
        diff = eps_a - eps_b  # (k, q, 6)
        dens = np.einsum("kqi,ij,kqj->kq", diff, C1, diff)
        total += float(np.sum(dens @ w * vols * moduli))
    return total


def energy_geometry(problem: ProblemSetup):
    """(leaves, strain operator, volumes, moduli) of each macro element, in nested.micro order."""
    pts, micro = problem.nested.points, problem.nested.micro
    grads = [p1_gradients(pts, leaves) for leaves in micro]
    return [(leaves, strain_operator(g), vols, leaf_moduli(pts, leaves, problem.material))
            for leaves, (g, vols) in zip(micro, grads)]


def analytic_strains(problem: ProblemSetup, strain):
    """Voigt strains of an analytic strain field at each leaf's quadrature points.

    strain maps points (n, 3) to tensors (n, 3, 3) and is called once for all
    leaves.  One (k, q, 6) array per macro element, in nested.micro order.
    """
    micro = problem.nested.micro
    xq = np.einsum("qi,kid->kqd", TET4_QUAD[0], problem.nested.points[np.concatenate(micro)])
    e = strain(xq.reshape(-1, 3)).reshape(xq.shape[:2] + (3, 3))
    vals = np.stack([e[..., 0, 0], e[..., 1, 1], e[..., 2, 2],
                     2 * e[..., 1, 2], 2 * e[..., 0, 2], 2 * e[..., 0, 1]], axis=-1)
    return np.split(vals, np.cumsum([len(m) for m in micro])[:-1])


def _leaf_strains(leaves, B, fld, q):
    """Voigt strains of a nodal field at the q quadrature points of each leaf, (k, q, 6)."""
    voigt = np.einsum("kij,kj->ki", B, fld[leaves].reshape(len(leaves), 12))  # constant per leaf
    return np.repeat(voigt[:, None, :], q, axis=1)


def build_problem(spec: CaseSpec):
    """Dispatch a CaseSpec to its builder; returns (problem, exact or None).

    exact["u"] maps points (n, 3) to displacements (n, 3), exact["strain"] to strain
    tensors (n, 3, 3)."""
    if spec.kind == "cubic-plate":
        return build_cubic_problem(spec)
    if spec.kind == "micro-structure":
        return build_microstructure_problem(spec), None
    if spec.kind == "cone-damage-box":
        return build_cone_box_problem(spec), None
    raise ValueError(f"unknown case kind {spec.kind}")


def _perturbed_problem(spec: CaseSpec):
    """The perturbed twin used by warm-start runs: on micro-structure the region
    moduli jittered by perturb_percent (1 if 0) with the next seed, elsewhere a
    uniform stiffness change by perturb_percent (1 if 0)."""
    import dataclasses

    if spec.kind == "micro-structure":
        spec2 = dataclasses.replace(spec, perturb_percent=spec.perturb_percent or 1.0,
                                    seed=spec.seed + 1)
        return build_microstructure_problem(spec2)
    # cubic / cone: uniform stiffness perturbation
    p = (spec.perturb_percent or 1.0) / 100.0
    if spec.kind == "cubic-plate":
        problem, _ = build_cubic_problem(
            spec, material=Material(young_modulus=CUBIC_E * (1 + p), poisson_ratio=CUBIC_NU))
        return problem
    base = build_cone_box_problem(spec)
    mat = base.material
    mat2 = Material(young_modulus=26.4e9 * (1 + p), poisson_ratio=mat.poisson_ratio,
                    damage=mat.damage)
    return ProblemSetup(base.nested, base.sp_info, base.partition, mat2, base.loads)


def run_case(spec: CaseSpec, outdir=None):
    """Run one benchmark case; returns the summary dict (files if outdir given).

    Output files: resi_history.csv (per-iteration records), summary.json,
    field_u.txt (ASCII node-value table), schedule.json for ts runs.
    See the README for the field-by-field schemas.
    """
    import json
    import os
    import time as _time

    from .ddsolver import dd_solve_from_triplets, reference_rank_triplets
    from .runtime import partition_mesh, run_ranks
    from .scheduler import PatchGraph, dump_json
    from .twoscale import TsConfig, solve_case

    t0 = _time.perf_counter()
    out = build_problem(spec)
    problem, exact = out if isinstance(out, tuple) else (out, None)
    plan = partition_mesh(problem.nested, problem.sp_info, spec.ranks)
    summary = {
        "setup_time": _time.perf_counter() - t0,
        "case": spec.kind,
        "solver": spec.solver,
        "ranks": spec.ranks,
        "eps": spec.eps,
        "coarse_level": spec.coarse_level,
        "sp_depth": spec.sp_depth,
        "n_free_dofs": int(problem.partition.n_ref_free),
        "n_nodes": int(problem.nested.n_nodes),
        "n_patches": len(problem.sp_info.patches),
        "n_nsp": len(problem.sp_info.nsp_elements),
        "n_hanging": len(problem.nested.hanging),
    }
    records = []
    schedule = None
    t0 = _time.perf_counter()
    if spec.solver in ("ts", "tsi", "tsdd"):
        strategy = {"ts": "tsd", "tsi": "tsi", "tsdd": "tsdd"}[spec.solver]
        cfg = TsConfig(eps=spec.eps, coarse_strategy=strategy, max_iterations=400)
        res = solve_case(problem, plan, cfg, n_ranks=spec.ranks)
        u_field = expand(problem.nested, problem.partition, res.u_r)
        summary.update(converged=bool(res.converged), reason=res.reason, iterations=res.iterations,
                       final_resi=res.resi_history[-1] if res.resi_history else 0.0,
                       norm_B=res.norm_B)
        records = res.records
        schedule = res.schedule
        if spec.warm_start:
            problem2 = _perturbed_problem(spec)
            cold2 = solve_case(problem2, plan, cfg, n_ranks=spec.ranks)
            warm2 = solve_case(problem2, plan, cfg, n_ranks=spec.ranks, warm_u_r=res.u_r)
            summary["perturbed_cold_iterations"] = cold2.iterations
            summary["perturbed_warm_iterations"] = warm2.iterations
    elif spec.solver == "fr":
        u_R, system, _ = reference_oracle(problem)
        u_field = expand(problem.nested, problem.partition, u_R)
        summary.update(converged=True, iterations=1, final_resi=system.residual(u_R))
    elif spec.solver == "dd":
        n = problem.partition.n_ref_free

        def prog(ctx):
            trips, bv = reference_rank_triplets(problem.nested, problem.partition,
                                                problem.material, problem.loads, plan, ctx.rank)
            return dd_solve_from_triplets(ctx, n, trips, bv, spec.eps)

        res = run_ranks(spec.ranks, prog)[0]
        u_field = expand(problem.nested, problem.partition, res.x)
        summary.update(converged=bool(res.report.converged),
                       iterations=res.report.iterations,
                       final_resi=res.report.crit)
    else:
        raise ValueError(f"unknown solver {spec.solver}")
    summary["wall_time"] = _time.perf_counter() - t0

    if exact is not None and spec.solver in ("ts", "tsi", "tsdd"):
        u_R, system, _ = reference_oracle(problem)
        (rep,) = error_reports(problem, [res.u_r], u_R, system, exact)
        summary.update(E_ts_C=rep.E_ts_C, E_ts_R=rep.E_ts_R, E_R_C=rep.E_R_C,
                       identity_defect=rep.identity_defect)

    if outdir:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
        with open(os.path.join(outdir, "resi_history.csv"), "w") as fh:
            fh.write("iteration,resi,coarse_kind,pcg_iterations,wall_time,"
                     "factor_flops,solve_flops,shifted,refinement_steps,pcg_fallback\n")
            for r in records:
                fh.write(f"{r.iteration},{r.resi:.16e},{r.coarse_kind},"
                         f"{r.pcg_iterations},{r.wall_time:.6f},"
                         f"{r.factor_flops},{r.solve_flops},"
                         f"{int(r.shifted)},{r.refinement_steps},{int(r.pcg_fallback)}\n")
        with open(os.path.join(outdir, "field_u.txt"), "w") as fh:
            fh.write("# node  x  y  z  ux  uy  uz\n")
            for i, (p, u) in enumerate(zip(problem.nested.points, u_field)):
                fh.write(f"{i} {p[0]:.9g} {p[1]:.9g} {p[2]:.9g} "
                         f"{u[0]:.12e} {u[1]:.12e} {u[2]:.12e}\n")
        if schedule is not None:
            with open(os.path.join(outdir, "schedule.json"), "w") as fh:
                fh.write(dump_json(schedule, PatchGraph.of(problem.sp_info, plan)))
    return summary


@dataclass
class ErrorReport:
    """Relative errors of one iterate against the reference and exact fields."""

    E_ts_C: float
    E_ts_R: float
    E_R_C: float
    identity_defect: float
    E_ts_C_nodal: float
    E_ts_R_nodal: float
    E_R_C_nodal: float
    identity_defect_nodal: float
    norm_R: float
    norm_C: float


def error_reports(problem, iterates, u_R_r, system: ReferenceSystem, exact) -> list[ErrorReport]:
    """Energy errors of Eq.-46 form plus the split-identity defects, one report per iterate.

    The terms of the reference and exact fields are computed once for all iterates.
    """
    part = problem.partition
    f_R = system.expand(u_R_r)
    strain = analytic_strains(problem, exact["strain"])
    geom = energy_geometry(problem)
    energy = lambda fields, analytic=None: energy_norm_fields(problem, fields, analytic, geom)
    e2_R_C = energy((f_R, None), strain)
    zero = np.zeros((part.n_nodes, 3))
    n2_R = energy((f_R, zero))
    n2_C = energy((None, zero), strain)

    # nodal-interpolant variant in the discrete A-norm
    uC_nodes = exact["u"](problem.nested.points)
    uC_r = uC_nodes.reshape(-1)[part.free_ref_dofs]
    dA = lambda a, b: float((a - b) @ (system.A_rr @ (a - b)))
    e2_R_C_n = dA(u_R_r, uC_r)

    reports = []
    for u_ts_r in iterates:
        f_ts = system.expand(u_ts_r)
        e2_ts_R = energy((f_ts, f_R))
        e2_ts_C = energy((f_ts, None), strain)
        e2_ts_C_n = dA(u_ts_r, uC_r)
        e2_ts_R_n = dA(u_ts_r, u_R_r)
        reports.append(ErrorReport(
            E_ts_C=np.sqrt(e2_ts_C / n2_C),
            E_ts_R=np.sqrt(e2_ts_R / n2_R),
            E_R_C=np.sqrt(e2_R_C / n2_C),
            identity_defect=abs(e2_ts_C - e2_ts_R - e2_R_C) / max(e2_ts_C, 1e-300),
            E_ts_C_nodal=np.sqrt(e2_ts_C_n / max(n2_C, 1e-300)),
            E_ts_R_nodal=np.sqrt(e2_ts_R_n / max(n2_R, 1e-300)),
            E_R_C_nodal=np.sqrt(e2_R_C_n / max(n2_C, 1e-300)),
            identity_defect_nodal=abs(e2_ts_C_n - e2_ts_R_n - e2_R_C_n) / max(e2_ts_C_n, 1e-300),
            norm_R=np.sqrt(n2_R),
            norm_C=np.sqrt(n2_C),
        ))
    return reports
