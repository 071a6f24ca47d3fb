import numpy as np
import pytest
import scipy.sparse as sp

from twoscalefem.elasticity import (
    LoadSet,
    Material,
    assemble_element_block,
    assemble_nsp,
    node_dofs,
)
from twoscalefem.mesh import (
    BoundaryConditions,
    NestedMesh,
    box_mesh,
    build_partition,
    classify_sp,
    refine,
)
from twoscalefem.reference import assemble_reference
from twoscalefem.transfer import (
    CoarseSystem,
    barycentric_matrix,
    build_tfk,
    coarse_constant_system,
    coarse_triplets_constant,
    coarse_triplets_enrichment,
    nsp_triplets,
    stack_blocks,
    update_tfe,
)


def enriched_corners(nested, partition, e):
    """Enriched coarse vertices of element e, ascending node id."""
    return sorted(int(v) for v in nested.coarse.tets[e] if v in partition.enriched_nodes)


def element_classical_dofs(nested, e):
    return node_dofs(nested.coarse.tets[e])


def element_enriched_dofs(nested, partition, e):
    idx = np.searchsorted(partition.enriched_nodes, enriched_corners(nested, partition, e))
    return 3 * partition.n_coarse_nodes + node_dofs(idx)


def bary_volume_ratio(coords, x):
    """Independent barycentric evaluation via signed volume ratios."""
    from twoscalefem.mesh import tet_volumes

    tet_volume = lambda *p: tet_volumes(np.array(p), np.arange(4)[None])[0]
    vtot = tet_volume(*coords)
    lam = []
    for i in range(4):
        pts = [x if j == i else coords[j] for j in range(4)]
        lam.append(tet_volume(*pts) / vtot)
    return np.array(lam)


def setup_case(refined=range(6), boxdims=(2, 1, 1), dirichlet=None, levels=1):
    labels = {"x0": "clamp"} if dirichlet else {}
    mesh = box_mesh(*boxdims, face_labels=labels)
    nested = refine(NestedMesh.from_coarse(mesh), refined, levels)
    sp_info = classify_sp(nested)
    bc = BoundaryConditions(dirichlet_labels={"clamp": (True, True, True)} if dirichlet else {})
    part = build_partition(nested, sp_info, bc)
    return nested, sp_info, part


def test_tfk_rows():
    nested, sp_info, part = setup_case()
    mat = Material()
    e = int(sp_info.sp_elements[0])
    block = assemble_element_block(e, nested, mat, LoadSet())
    T = build_tfk(block, nested).toarray()
    tet = [int(v) for v in nested.coarse.tets[e]]
    for j, v in enumerate(block.nodes):
        row = T[3 * j]
        if int(v) in tet:
            # fine node at a coarse vertex: unit row
            assert np.isclose(row.sum(), 1.0)
            assert np.count_nonzero(row) == 1
            assert row[3 * tet.index(int(v))] == pytest.approx(1.0)
        # partition of unity for every row
        assert row[0::3].sum() == pytest.approx(1.0)
        # independent volume-ratio barycentric oracle
        lam = bary_volume_ratio(nested.points[nested.coarse.tets[e]], nested.points[int(v)])
        assert np.allclose(row[0::3], lam, atol=1e-10)
        # midpoints of coarse edges: two entries of 1/2
        nz = row[np.abs(row) > 1e-12]
        if len(nz) == 2:
            assert np.allclose(sorted(nz), [0.5, 0.5])


def test_hat_matrix_matches_p1_weights():
    from twoscalefem.mesh import _p1_weights

    nested, sp_info, part = setup_case(refined=range(6), boxdims=(3, 1, 1), dirichlet=True)
    for e in map(int, sp_info.sp_elements):
        nodes = np.unique(nested.micro[e])
        N = barycentric_matrix(nested, e, nodes)
        coords = nested.points[nested.coarse.tets[e]]
        for j, v in enumerate(nodes):
            assert np.abs(N[j] - _p1_weights(coords, nested.points[v])).max() <= 1e-15
        assert np.abs(N.sum(axis=1) - 1.0).max() <= 1e-15


def test_enrichment_triplets_match_dense_products():
    nested, sp_info, part = setup_case(refined=range(6), boxdims=(3, 1, 1), dirichlet=True)
    mat = Material(young_modulus=3.0, poisson_ratio=0.3)
    loads = LoadSet(body=lambda x: np.array([1.0, 0.5, -0.25]))
    fields = random_patch_fields(nested, sp_info, part, seed=5)
    e = 0
    block = assemble_element_block(e, nested, mat, loads)
    # the block folds hanging nodes away and carries Dirichlet rows and columns
    assert np.isin(np.unique(nested.micro[e]), nested.hanging).any()
    assert part.ref_dirichlet[node_dofs(block.nodes)].any()
    g_c = part.coarse_dof_index[element_classical_dofs(nested, e)]
    g_e = part.coarse_dof_index[element_enriched_dofs(nested, part, e)]
    assert (g_c < 0).any() and len(g_e) == 12
    corners = enriched_corners(nested, part, e)
    efields = {e: element_patch_fields(block.nodes, fields, corners, part)}
    stack = stacked_tfe(block, nested, part, efields)
    T = block_tfe(stack, 0)
    assert np.count_nonzero(T[part.ref_dirichlet[node_dofs(block.nodes)]]) == 0
    vals, be = coarse_triplets_enrichment(stack)
    rows, cols, idx = stack.e_rows, stack.e_cols, stack.b_idx
    assert set(stack.e_keys) == set(stack.b_keys) == {e}

    A, Tk = block.A_FF.toarray(), build_tfk(block, nested).toarray()
    A_ee, A_ek, B_e = T.T @ A @ T, T.T @ A @ Tk, T.T @ block.B_F
    n = part.n_coarse_free
    expect, expect_b = np.zeros((n, n)), np.zeros(n)
    for a, ga in enumerate(g_e):
        if ga < 0:
            continue
        expect_b[ga] += B_e[a]
        for b, gb in enumerate(g_e):
            if gb >= 0:
                expect[ga, gb] += A_ee[a, b]
        for b, gc in enumerate(g_c):
            if gc >= 0:
                expect[ga, gc] += A_ek[a, b]
                expect[gc, ga] += A_ek[a, b]
    got = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).toarray()
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()
    got_b = np.zeros(n)
    np.add.at(got_b, idx, be)
    assert np.abs(got_b - expect_b).max() <= 1e-13 * np.abs(expect_b).max()


def random_patch_fields(nested, sp_info, part, seed=0):
    """Synthetic per-patch nodal fields over patch nodes (boundary included)."""
    rng = np.random.default_rng(seed)
    fields = {}
    for patch in sp_info.patches:
        nodes = np.unique(np.concatenate([nested.micro[e] for e in patch.elements]))
        vals = rng.normal(size=(len(nodes), 3))
        fields[patch.node] = dict(zip((int(v) for v in nodes), vals))
    return fields


def stacked_tfe(blocks, nested, part, efields):
    """Stack the blocks, load their patch fields and build T_Fe.

    efields: element -> {enriched corner -> (n, 3) field}; corners without
    a field keep a zero field.
    """
    stack = stack_blocks(blocks, build_tfk(blocks, nested), nested, part, max(blocks.ndof))
    flat = stack.fields.reshape(-1)
    for e, flds in efields.items():
        for p, arr in flds.items():
            flat[stack.field_slots(e, p)] = arr.ravel()
    update_tfe(stack)
    return stack


def block_tfe(stack, i):
    """T_Fe (3n, 3k) of the i-th stacked block."""
    return stack.T[i, :stack.ndof[i], :3 * len(stack.corners[i])]


def element_patch_fields(nodes, fields, corners, part):
    """Restrict global per-patch dicts to the element's nodes, zero on Dirichlet."""
    out = {}
    for p in corners:
        f = fields.get(p)
        if f is None:
            continue
        arr = np.array([f[int(v)] for v in nodes])
        for j, v in enumerate(nodes):
            for c in range(3):
                if part.ref_dirichlet[3 * int(v) + c]:
                    arr[j, c] = 0.0
        out[p] = arr
    return out


def test_tfe_constant_field_vanishes():
    nested, sp_info, part = setup_case()
    mat = Material()
    e = int(sp_info.sp_elements[0])
    block = assemble_element_block(e, nested, mat, LoadSet())
    corners = enriched_corners(nested, part, e)
    assert corners
    const = {p: np.tile([1.0, 2.0, 3.0], (len(block.nodes), 1)) for p in corners}
    stack = stacked_tfe(block, nested, part, {e: const})
    assert np.count_nonzero(stack.fields) > 0
    assert np.count_nonzero(stack.T) == 0


def test_tfe_transition_element_zero():
    nested, sp_info, part = setup_case(refined=range(6), boxdims=(2, 1, 1))
    transition = [e for e in sp_info.sp_elements if nested.levels[e] == 0]
    assert transition
    e = int(transition[0])
    block = assemble_element_block(e, nested, Material(), LoadSet())
    # transition elements get no patch field: columns stay identically zero
    stack = stacked_tfe(block, nested, part, {})
    assert np.count_nonzero(stack.T) == 0


def test_tfe_interior_patch_boundary_rows_zero():
    nested, sp_info, part = setup_case()
    fields = random_patch_fields(nested, sp_info, part)
    blocks = assemble_element_block(sp_info.sp_elements, nested, Material(), LoadSet())
    efields = {}
    for i, e in enumerate(blocks.elements):
        corners = enriched_corners(nested, part, e)
        efields[e] = element_patch_fields(blocks.nodes_of(i), fields, corners, part)
    stack = stacked_tfe(blocks, nested, part, efields)
    assert np.count_nonzero(stack.T) > 0
    on_surface = nested.on_faces(nested.coarse.surface_faces())
    for i, e in enumerate(blocks.elements):
        T_Fe = block_tfe(stack, i)
        corners = enriched_corners(nested, part, e)
        for ci, p in enumerate(corners):
            patch = next(pa for pa in sp_info.patches if pa.node == p)
            sets = part.patch_sets[sp_info.patches.index(patch)]
            boundary_dofs = set(sets["d"])
            for j, v in enumerate(blocks.nodes_of(i)):
                for c in range(3):
                    dof = 3 * int(v) + c
                    if dof in boundary_dofs and not on_surface[v]:
                        assert T_Fe[3 * j + c, 3 * ci + c] == 0.0


def test_stacked_tfe_matches_per_block_formula():
    # blocks of different sizes share one padded stack; each block's T_Fe is
    # N^p(x_j) (field_p[j] - field_p[p]) per component, zero on Dirichlet rows
    nested, sp_info, part = setup_case(refined=range(6), boxdims=(3, 1, 1), dirichlet=True)
    fields = random_patch_fields(nested, sp_info, part, seed=7)
    blocks = assemble_element_block(sp_info.sp_elements, nested, Material(), LoadSet())
    efields = {e: element_patch_fields(blocks.nodes_of(i), fields,
                                       enriched_corners(nested, part, e), part)
               for i, e in enumerate(blocks.elements)}
    assert len(set(blocks.ndof)) > 1
    stack = stacked_tfe(blocks, nested, part, efields)
    checked = 0
    for i, e in enumerate(blocks.elements):
        nodes = [int(v) for v in blocks.nodes_of(i)]
        tet = [int(v) for v in nested.coarse.tets[e]]
        N = barycentric_matrix(nested, e, nodes)
        dirichlet = part.ref_dirichlet[node_dofs(nodes)].reshape(-1, 3)
        for ci, p in enumerate(enriched_corners(nested, part, e)):
            fld = efields[e][p]
            expect = N[:, [tet.index(p)]] * (fld - fld[nodes.index(p)])
            expect[dirichlet] = 0.0
            got = block_tfe(stack, i)[:, 3 * ci:3 * ci + 3].reshape(-1, 3, 3)
            assert np.abs(np.einsum("jcc->jc", got) - expect).max() <= 1e-13
            assert np.count_nonzero(got * (1 - np.eye(3))) == 0
            checked += 1
    assert checked > 0


def build_full_system(nested, sp_info, part, mat, loads, fields=None):
    blocks = assemble_element_block(sp_info.sp_elements, nested, mat, loads)
    efields = {}
    if fields is not None:
        for i, e in enumerate(blocks.elements):
            corners = enriched_corners(nested, part, e)
            efields[e] = element_patch_fields(blocks.nodes_of(i), fields, corners, part)
    stack = stacked_tfe(blocks, nested, part, efields)
    const = coarse_triplets_constant(blocks, build_tfk(blocks, nested), nested, part)
    nsp = nsp_triplets(assemble_nsp(sp_info.nsp_elements, nested, mat, loads), part)
    K, b = coarse_constant_system(part.n_coarse_free, *(tuple(map(np.concatenate, zip(a, b)))
                                                        for a, b in zip(const, nsp)))
    cs = CoarseSystem.of(K, b, (stack.e_keys, stack.e_rows, stack.e_cols),
                         (stack.b_keys, stack.b_idx))
    A, B = cs.build(*coarse_triplets_enrichment(stack))
    return A, B, stack, cs


def monolithic_transfer(nested, sp_info, partition, stack):
    """Oracle: full T operator from free coarse dofs to free reference dofs.

    The solver never assembles this matrix.  stack is the BlockStack of
    every SP element, T_Fe current.
    """
    n_r = partition.n_ref_free
    n_g = partition.n_coarse_free
    # h rows: identity against the matching coarse dofs
    h = node_dofs(partition.h_nodes)
    rows, cols = [partition.ref_dof_index[h]], [partition.coarse_dof_index[h]]
    vals = [np.ones(len(h))]
    for i, e in enumerate(map(int, stack.elements)):
        block_rows = stack.rows_of(e)
        T = np.hstack([stack.T_Fk[block_rows, 12 * i:12 * i + 12].toarray(), block_tfe(stack, i)])
        col_dofs = np.concatenate([element_classical_dofs(nested, e),
                                   element_enriched_dofs(nested, partition, e)])
        r, c = np.nonzero(T)
        rows.append(partition.ref_dof_index[stack.dofs[block_rows]][r])
        cols.append(partition.coarse_dof_index[col_dofs][c])
        vals.append(T[r, c])
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    keep = (rows >= 0) & (cols >= 0)
    # an entry shared by several blocks keeps the value of the highest element id
    rows, cols, vals = rows[keep][::-1], cols[keep][::-1], vals[keep][::-1]
    _, last = np.unique(rows * n_g + cols, return_index=True)
    return sp.csr_matrix((vals[last], (rows[last], cols[last])), shape=(n_r, n_g))


def test_zero_enrichment_reduces_to_coarse_fem():
    # all T_Fe = 0: solving with e-dofs pinned equals the plain coarse solve
    nested, sp_info, part = setup_case(dirichlet=True)
    mat = Material(young_modulus=10.0, poisson_ratio=0.25)
    loads = LoadSet(body=lambda x: np.array([0.0, -1.0, 0.0]))
    A, B, _, _ = build_full_system(nested, sp_info, part, mat, loads)

    n_cl = part.n_coarse_free - 3 * part.n_enriched
    A_ee = A[n_cl:, n_cl:].toarray()
    A_ek = A[n_cl:, :n_cl].toarray()
    assert np.abs(A_ee).max() == 0.0
    assert np.abs(A_ek).max() == 0.0

    # plain coarse FEM on the same mesh (homogeneous material: the reduced
    # stiffness of nested refinement equals the coarse element stiffness)
    from cases import element_stiffness
    from twoscalefem.elasticity import consistent_loads

    mesh = nested.coarse
    K = np.zeros((3 * mesh.n_vertices, 3 * mesh.n_vertices))
    F = np.zeros(3 * mesh.n_vertices)
    for tet in mesh.tets:
        Ke, _ = element_stiffness(mesh.vertices[tet], mat)
        dof = np.concatenate([[3 * v, 3 * v + 1, 3 * v + 2] for v in tet])
        K[np.ix_(dof, dof)] += Ke
        F[dof] += consistent_loads(mesh.vertices[tet], np.arange(4)[None], loads.body).ravel()
    free = np.array([d for d in range(3 * mesh.n_vertices) if not part.coarse_dirichlet[d]])
    u_coarse = np.linalg.solve(K[np.ix_(free, free)], F[free])

    A_cl = A[:n_cl, :n_cl].toarray()
    u_cl = np.linalg.solve(A_cl, B[:n_cl])
    # fine-level consistent load differs from the coarse quadrature load, but
    # for a body force that is constant both integrate exactly: compare solves
    assert np.allclose(u_cl, u_coarse, rtol=1e-10, atol=1e-12)


def test_agg_matches_monolithic_operator_oracle():
    nested, sp_info, part = setup_case(refined=range(6), boxdims=(3, 1, 1), dirichlet=True)
    mat = Material(young_modulus=3.0, poisson_ratio=0.3)
    loads = LoadSet(body=lambda x: np.array([1.0, 0.5, -0.25]))
    fields = random_patch_fields(nested, sp_info, part, seed=3)
    A, B, stack, _ = build_full_system(nested, sp_info, part, mat, loads, fields)

    ref = assemble_reference(nested, part, mat, loads)
    T = monolithic_transfer(nested, sp_info, part, stack)
    A_oracle = (T.T @ ref.A_rr @ T).toarray()
    B_oracle = T.T @ ref.B_r

    scale = np.abs(A_oracle).max()
    assert np.abs(A.toarray() - A_oracle).max() <= 1e-12 * scale
    assert np.abs(B - B_oracle).max() <= 1e-12 * max(np.abs(B_oracle).max(), 1.0)

    # symmetry and the structural zero of the h x e block
    assert abs(A - A.T).max() <= 1e-12 * scale
    h_dofs = [part.coarse_dof_index[3 * int(v) + c] for v in part.coarse_h_nodes for c in range(3)]
    h_dofs = [d for d in h_dofs if d >= 0]
    n_cl = part.n_coarse_free - 3 * part.n_enriched
    He = A[h_dofs, n_cl:]
    assert He.nnz == 0 or np.abs(He.toarray()).max() == 0.0


def test_affine_reproduction_through_transfer():
    # T maps a coarse vector with zero enrichment to its piecewise-linear
    # interpolation at fine nodes, exact for affine fields
    nested, sp_info, part = setup_case()
    mat = Material()
    A, B, stack, _ = build_full_system(nested, sp_info, part, mat, LoadSet())
    T = monolithic_transfer(nested, sp_info, part, stack)
    G = np.array([[0.3, 0.1, 0.0], [0.0, -0.2, 0.05], [0.1, 0.0, 0.4]])
    u_aff = lambda x: G @ x
    U = np.zeros(part.n_coarse_free)
    for v in range(part.n_coarse_nodes):
        for c in range(3):
            gi = part.coarse_dof_index[3 * v + c]
            if gi >= 0:
                U[gi] = u_aff(nested.coarse.vertices[v])[c]
    u_fine = T @ U
    for i, dof in enumerate(part.free_ref_dofs):
        v, c = dof // 3, dof % 3
        assert u_fine[i] == pytest.approx(u_aff(nested.points[v])[c], abs=1e-13)
