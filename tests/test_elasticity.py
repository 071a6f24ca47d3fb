import warnings

import numpy as np
import pytest

from cases import element_stiffness
from twoscalefem.elasticity import (
    LoadSet,
    Material,
    assemble_element_block,
    assemble_nsp,
    batch_leaf_stiffness,
    consistent_loads,
    hooke_matrix,
    leaf_moduli,
    node_dofs,
)
from twoscalefem.bench import CaseSpec, build_cone_box_problem, build_cubic_problem
from twoscalefem.mesh import BoundaryConditions, NestedMesh, box_mesh, build_partition, classify_sp, refine
from twoscalefem.reference import assemble_reference
from twoscalefem.runtime import partition_mesh

TET = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def element_volume_load(coords, body):
    """Consistent nodal loads (12,) of a body force over one tetrahedron."""
    if body is None:
        return np.zeros(12)
    return consistent_loads(np.asarray(coords, dtype=np.float64), np.arange(4)[None], body).ravel()


def face_traction_load(coords3, traction):
    """Consistent nodal loads (9,) of a traction over one surface triangle."""
    return consistent_loads(np.asarray(coords3, dtype=np.float64), np.arange(3)[None], traction).ravel()


def test_rigid_translation_in_kernel():
    K, vol = element_stiffness(TET, Material(young_modulus=10.0, poisson_ratio=0.25))
    for c in range(3):
        u = np.zeros(12)
        u[c::3] = 1.0
        assert np.abs(K @ u).max() <= 1e-12 * np.abs(K).max()


def test_patch_test_uniform_strain():
    # affine displacement -> constant stress sigma = C eps, nodal forces must
    # match the analytic surface tractions of the element
    mat = Material(young_modulus=7.0, poisson_ratio=0.3)
    K, vol = element_stiffness(TET, mat)
    G = np.array([[0.2, 0.05, 0.0], [0.05, -0.1, 0.02], [0.0, 0.02, 0.07]])
    u = (TET @ G.T).ravel()
    eps = 0.5 * (G + G.T)
    voigt = np.array([eps[0, 0], eps[1, 1], eps[2, 2], 2 * eps[1, 2], 2 * eps[0, 2], 2 * eps[0, 1]])
    sigma_v = hooke_matrix(mat.young_modulus, mat.poisson_ratio) @ voigt
    sigma = np.array([
        [sigma_v[0], sigma_v[5], sigma_v[4]],
        [sigma_v[5], sigma_v[1], sigma_v[3]],
        [sigma_v[4], sigma_v[3], sigma_v[2]],
    ])
    # equivalent nodal forces: integral of sigma.n N_i over the surface
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    f_expect = np.zeros(12)
    for fc in faces:
        p = TET[list(fc)]
        nvec = np.cross(p[1] - p[0], p[2] - p[0])
        centroid_in = TET[[i for i in range(4) if i not in fc]][0]
        if np.dot(nvec, centroid_in - p[0]) > 0:
            nvec = -nvec
        area_n = 0.5 * nvec
        t = sigma @ area_n  # integral of traction over the flat face
        for v in fc:
            f_expect[3 * v: 3 * v + 3] += t / 3.0
    assert np.allclose(K @ u, f_expect, atol=1e-12 * np.abs(K).max())


def test_full_damage_zero_stiffness():
    mat = Material(young_modulus=5.0, poisson_ratio=0.2, damage=lambda x: np.ones(len(x)))
    K, _ = element_stiffness(TET, mat)
    assert np.abs(K).max() == 0.0


def test_inverted_element_rejected():
    bad = TET[[1, 0, 2, 3]]
    with pytest.raises(ValueError):
        element_stiffness(bad, Material())


def test_batch_matches_scalar():
    mesh = box_mesh(1, 1, 1)
    nested = refine(NestedMesh.from_coarse(mesh), lambda e: True, 1)
    mat = Material(young_modulus=3.0, poisson_ratio=0.28)
    leaves = nested.micro[0]
    K_all, vol = batch_leaf_stiffness(nested.points, leaves, mat)
    for i, leaf in enumerate(leaves):
        K, _ = element_stiffness(nested.points[leaf], mat)
        assert np.allclose(K_all[i], K, atol=1e-12 * max(1.0, np.abs(K).max()))


def test_unrefined_sp_block_is_coarse_stiffness():
    mesh = box_mesh(2, 1, 1)
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    sp_info = classify_sp(nested)
    mat = Material(young_modulus=2.0, poisson_ratio=0.3)
    transition = [e for e in sp_info.sp_elements if nested.levels[e] == 0]
    assert transition
    e = transition[0]
    block = assemble_element_block(e, nested, mat, LoadSet())
    K, _ = element_stiffness(nested.points[nested.coarse.tets[e]], mat)
    order = np.argsort(nested.coarse.tets[e])
    perm = np.concatenate([[3 * o, 3 * o + 1, 3 * o + 2] for o in order])
    assert np.allclose(block.A_FF.toarray(), K[np.ix_(perm, perm)], atol=1e-12 * np.abs(K).max())


def symbolic_elimination_oracle(nested, mat, loads=None):
    """Dense assembly over all nodes with hanging rows folded by substitution."""
    loads = loads or LoadSet()
    nn = nested.n_nodes
    K = np.zeros((3 * nn, 3 * nn))
    B = np.zeros(3 * nn)
    for e in range(nested.coarse.n_elements):
        for leaf in nested.micro[e]:
            Ke, _ = element_stiffness(nested.points[leaf], mat)
            dof = np.concatenate([[3 * v, 3 * v + 1, 3 * v + 2] for v in leaf])
            K[np.ix_(dof, dof)] += Ke
            load = element_volume_load(nested.points[leaf], loads.body)
            B[dof] += load
    W = np.eye(3 * nn)
    for h, parents, weights in zip(nested.hanging, nested.hanging_parents, nested.hanging_weights):
        for c in range(3):
            W[3 * h + c, 3 * h + c] = 0.0
            for p, w in zip(parents, weights):
                W[3 * h + c, 3 * p + c] = w
    return W.T @ K @ W, W.T @ B


def test_hanging_elimination_matches_symbolic_substitution():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    from twoscalefem.mesh import CoarseMesh, tet_volumes

    tets = [[0, 1, 2, 3], [1, 2, 3, 4]]
    if tet_volumes(verts, np.array(tets))[1] < 0:
        tets[1] = [1, 3, 2, 4]
    nested = refine(NestedMesh.from_coarse(CoarseMesh(verts, tets)), [0], 1)
    assert len(nested.hanging) == 3
    mat = Material(young_modulus=4.0, poisson_ratio=0.22)
    body = lambda x: np.array([1.0, -2.0, 0.5])
    loads = LoadSet(body=body)

    K_oracle, B_oracle = symbolic_elimination_oracle(nested, mat, loads)

    block = assemble_element_block(0, nested, mat, loads)
    scat = np.zeros_like(K_oracle)
    bvec = np.zeros_like(B_oracle)
    dof = np.concatenate([[3 * v, 3 * v + 1, 3 * v + 2] for v in block.nodes])
    scat[np.ix_(dof, dof)] += block.A_FF.toarray()
    bvec[dof] += block.B_F
    nsp = assemble_nsp([1], nested, mat, loads)
    dof2 = np.concatenate([[3 * v, 3 * v + 1, 3 * v + 2] for v in nsp.nodes[0]])
    scat[np.ix_(dof2, dof2)] += nsp.K[0]
    bvec[dof2] += nsp.B[0]

    scale = np.abs(K_oracle).max()
    assert np.abs(scat - K_oracle).max() <= 1e-12 * scale
    assert np.abs(bvec - B_oracle).max() <= 1e-12 * max(1.0, np.abs(B_oracle).max())


def _scatter_blocks_to_reference(nested, part, blocks, nsp_blocks):
    n = 3 * nested.n_nodes
    K = np.zeros((n, n))
    for block in blocks:
        dof = np.concatenate([[3 * v, 3 * v + 1, 3 * v + 2] for v in block.nodes])
        K[np.ix_(dof, dof)] += block.A_FF.toarray()
    for nodes, Ke in nsp_blocks:
        dof = np.concatenate([[3 * v, 3 * v + 1, 3 * v + 2] for v in nodes])
        K[np.ix_(dof, dof)] += Ke
    free = part.free_ref_dofs
    return K[np.ix_(free, free)]


def test_monolithic_equivalence_and_spd():
    mesh = box_mesh(2, 1, 1, face_labels={"x0": "clamp", "x1": "pull"})
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    sp_info = classify_sp(nested)
    bc = BoundaryConditions(dirichlet_labels={"clamp": (True, True, True)})
    part = build_partition(nested, sp_info, bc)
    mat = Material(young_modulus=2.0, poisson_ratio=0.3)
    loads = LoadSet(body=lambda x: np.array([0.0, -1.0, 0.0]),
                    tractions={"pull": lambda x: np.array([1.0, 0.0, 0.0])})
    blocks = [assemble_element_block([e], nested, mat, loads) for e in sp_info.sp_elements]
    nsp = assemble_nsp(sp_info.nsp_elements, nested, mat, loads)
    nsp_blocks = [(nodes, K) for nodes, K in zip(nsp.nodes, nsp.K)]
    ref = assemble_reference(nested, part, mat, loads)

    K_blocks = _scatter_blocks_to_reference(nested, part, blocks, nsp_blocks)
    scale = np.abs(ref.A_rr.toarray()).max()
    assert np.abs(K_blocks - ref.A_rr.toarray()).max() <= 1e-12 * scale

    # SPD after Dirichlet elimination
    np.linalg.cholesky(ref.A_rr.toarray())

    # energy equality through blocks vs monolithic
    rng = np.random.default_rng(0)
    x = rng.normal(size=ref.A_rr.shape[0])
    e_blocks = x @ K_blocks @ x
    e_mono = x @ (ref.A_rr @ x)
    assert abs(e_blocks - e_mono) <= 1e-12 * abs(e_mono)


def test_elimination_commutes_with_assembly_order():
    mesh = box_mesh(2, 1, 1)
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    mat = Material(young_modulus=1.0, poisson_ratio=0.3)
    e = 0
    b1 = assemble_element_block(e, nested, mat, LoadSet())
    import copy

    nested2 = copy.copy(nested)
    nested2.micro = list(nested.micro)
    nested2.micro[e] = nested.micro[e][::-1].copy()
    b2 = assemble_element_block(e, nested2, mat, LoadSet())
    assert np.array_equal(b1.nodes, b2.nodes)
    d = (b1.A_FF - b2.A_FF).toarray()
    assert np.abs(d).max() <= 1e-14 * np.abs(b1.A_FF.toarray()).max()


def test_nsp_coupling_sparsity():
    mesh = box_mesh(3, 1, 1)
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    sp_info = classify_sp(nested)
    assert len(sp_info.nsp_elements)
    mat = Material()
    nsp = assemble_nsp(sp_info.nsp_elements, nested, mat, LoadSet())
    for e, nodes, Ke in zip(sp_info.nsp_elements, nsp.nodes, nsp.K):
        assert sorted(nodes) == sorted(nested.coarse.tets[e])
        K, _ = element_stiffness(nested.points[nodes], mat)
        assert np.abs(Ke - K).max() <= 1e-12 * np.abs(K).max()


def test_material_validation():
    with pytest.raises(ValueError):
        Material(young_modulus=-1.0)
    with pytest.raises(ValueError):
        Material(poisson_ratio=0.5)
    m = Material(damage=lambda x: np.full(len(x), 2.0))
    with pytest.raises(ValueError):
        leaf_moduli(TET, np.arange(4)[None], m)


def test_field_modulus_that_samples_non_positive_is_rejected():
    leaves = np.arange(4)[None]
    for E in (0.0, -3.0, np.nan):
        with pytest.raises(ValueError, match="young_modulus .* is not positive"):
            leaf_moduli(TET, leaves, Material(young_modulus=lambda x, E=E: np.full(len(x), E)))
    # the modulus is checked before damage: fully damaged leaves stay legal
    full = Material(young_modulus=lambda x: np.full(len(x), 2.0), damage=lambda x: np.ones(len(x)))
    assert leaf_moduli(TET, leaves, full).tolist() == [0.0]


def test_traction_consistency():
    # constant traction on a unit right triangle: total force = t * area
    tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
    t = np.array([0.0, 0.0, 3.0])
    load = face_traction_load(tri, lambda x: t)
    assert np.allclose(load.reshape(3, 3).sum(axis=0), t * 0.5)
    assert np.allclose(load.reshape(3, 3), np.tile(t * 0.5 / 3.0, (3, 1)))


def rank_block_loads(problem, loads, n_ranks=2):
    """Every rank's stacked B_F and NSP B, summed onto the free reference dofs."""
    nested, sp_info, part = problem.nested, problem.sp_info, problem.partition
    plan = partition_mesh(nested, sp_info, n_ranks)
    out = np.zeros(part.n_ref_free)
    for r in range(n_ranks):
        sp_els, nsp_els = (e[plan.element_rank[e] == r]
                           for e in (sp_info.sp_elements, sp_info.nsp_elements))
        blocks = assemble_element_block(sp_els, nested, problem.material, loads)
        nsp = assemble_nsp(nsp_els, nested, problem.material, loads)
        idx = part.ref_dof_index[np.concatenate([node_dofs(blocks.nodes),
                                                 node_dofs(nsp.nodes).ravel()])]
        vals = np.concatenate([blocks.B_F, nsp.B.ravel()])
        np.add.at(out, idx[idx >= 0], vals[idx >= 0])
    return out


@pytest.mark.parametrize("build", [
    lambda: build_cone_box_problem(CaseSpec(kind="cone-damage-box", sp_depth=1)),  # y1 only
    lambda: build_cubic_problem(CaseSpec(sp_depth=1), base=(2, 1, 1))[0],  # y0, y1, z0, z1
], ids=["cone", "cubic"])
def test_block_loads_carry_the_tractions(build):
    # the blocks find the traction faces on the mesh themselves: folded onto
    # the reference dofs they give the oracle's B_r, tractions included
    problem = build()
    assert problem.loads.tractions
    B_r = assemble_reference(problem.nested, problem.partition, problem.material,
                             problem.loads).B_r
    body_only = rank_block_loads(problem, LoadSet(body=problem.loads.body))
    got = rank_block_loads(problem, problem.loads)
    scale = np.abs(B_r).max()
    assert np.abs(got - B_r).max() <= 1e-12 * scale
    assert np.abs(body_only - B_r).max() > 1e-3 * scale


def test_traction_labels_the_mesh_lacks_add_no_load():
    # a label the mesh does not carry, and a mesh with no labelled faces at all
    body = lambda x: np.array([0.0, -1.0, 0.0])
    pull = lambda x: np.array([1.0, 0.0, 0.0])
    for labels, tractions in (({"x1": "pull"}, {"push": pull}), (None, {"pull": pull})):
        mesh = box_mesh(2, 1, 1, face_labels=labels)
        nested = refine(NestedMesh.from_coarse(mesh), [0, 1, 2], 1)
        sp_info = classify_sp(nested)
        part = build_partition(nested, sp_info, BoundaryConditions())
        mat = Material()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = [(assemble_element_block(sp_info.sp_elements, nested, mat, loads).B_F,
                    assemble_nsp(sp_info.nsp_elements, nested, mat, loads).B,
                    assemble_reference(nested, part, mat, loads).B_r)
                   for loads in (LoadSet(body=body, tractions=tractions), LoadSet(body=body))]
        for with_t, without in zip(*out):
            assert np.array_equal(with_t, without)
