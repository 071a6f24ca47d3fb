import itertools

import numpy as np
import pytest

from twoscalefem.mesh import (
    BoundaryConditions,
    CoarseMesh,
    MeshError,
    NestedMesh,
    UnsupportedConfigurationError,
    box_mesh,
    build_partition,
    classify_sp,
    read_mesh,
    refine,
    tet_volumes,
    write_mesh,
)


def _tet_faces(tet):
    """The four faces of a tet as sorted vertex triples, in slot order."""
    a, b, c, d = (int(v) for v in tet)
    return tuple(tuple(sorted(f)) for f in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)))


def _tet_edges(tet):
    """The six edges of a tet as sorted vertex pairs, in slot order."""
    a, b, c, d = (int(v) for v in tet)
    return tuple(tuple(sorted(e)) for e in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)))


def single_tet():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    return CoarseMesh(verts, [[0, 1, 2, 3]])


def two_tets():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    t2 = [1, 2, 3, 4]
    verts_arr = verts
    tets = [[0, 1, 2, 3], t2]
    vols = tet_volumes(verts_arr, np.array(tets))
    if vols[1] < 0:
        tets[1] = [1, 3, 2, 4]
    return CoarseMesh(verts, tets)


def union_leaves(nested):
    out = []
    for e in range(nested.coarse.n_elements):
        out.extend(map(tuple, nested.micro[e]))
    return out


def hanging_rule_scan(nested):
    """Independent scan: the most hanging nodes interior to any one union edge."""
    pts = nested.points
    edges = np.array(sorted({e for tet in union_leaves(nested) for e in _tet_edges(tet)}))
    pa, d = pts[edges[:, 0]], pts[edges[:, 1]] - pts[edges[:, 0]]
    count = np.zeros(len(edges), dtype=np.int64)
    for h in nested.hanging:
        t = np.einsum("ij,ij->i", pts[h] - pa, d) / np.einsum("ij,ij->i", d, d)
        off = np.linalg.norm(pts[h] - (pa + t[:, None] * d), axis=1)
        count += (1e-9 < t) & (t < 1 - 1e-9) & (off < 1e-9)
    return int(count.max(initial=0))


def test_single_tet_uniform_one_level():
    nested = refine(NestedMesh.from_coarse(single_tet()), lambda e: True, 1)
    assert len(nested.micro[0]) == 8
    assert len(nested.hanging) == 0
    vols = tet_volumes(nested.points, nested.micro[0])
    assert np.all(vols > 0)
    assert vols.sum() == pytest.approx(1.0 / 6.0)


def test_force_split_propagation():
    nested = refine(NestedMesh.from_coarse(two_tets()), [0], 2)
    assert nested.levels[0] == 2
    assert nested.levels[1] == 1  # forced once by the one-hanging-node rule
    # both elements refined: interior closure leaves no hanging nodes
    assert len(nested.hanging) == 0
    # union mesh is conforming: every face shared by <= 2 leaves, interface matches
    counts = {}
    for tet in union_leaves(nested):
        for f in _tet_faces(tet):
            counts[f] = counts.get(f, 0) + 1
    assert max(counts.values()) == 2


def test_hanging_nodes_against_unrefined():
    nested = refine(NestedMesh.from_coarse(two_tets()), [0], 1)
    assert list(nested.levels) == [1, 0]
    # the shared face has 3 edges, each mid-split once by element 0
    assert len(nested.hanging) == 3
    assert nested.hanging_parents.shape == nested.hanging_weights.shape == (3, 2)
    assert nested.hanging_weights.sum(axis=1) == pytest.approx(np.ones(3))
    assert nested.hanging_weights == pytest.approx(np.full((3, 2), 0.5))
    ends = nested.points[nested.hanging_parents]
    assert nested.points[nested.hanging] == pytest.approx(ends.mean(axis=1))
    assert hanging_rule_scan(nested) <= 1


def test_box_subdivision_lattice_count():
    mesh = box_mesh(1, 1, 1)
    assert mesh.n_elements == 6
    for L in (1, 2, 3):
        nested = refine(NestedMesh.from_coarse(mesh), lambda e: True, L)
        # independent enumeration: dyadic barycentric lattice per coarse tet
        s = 2**L
        lattice = set()
        for tet in mesh.tets:
            vv = mesh.vertices[tet].astype(np.int64)  # unit-cube corners
            for i, j, k in itertools.product(range(s + 1), repeat=3):
                if i + j + k > s:
                    continue
                l = s - i - j - k
                pt = l * vv[0] + i * vv[1] + j * vv[2] + k * vv[3]  # s * point
                lattice.add(tuple(pt))
        used = np.unique(np.concatenate([m.ravel() for m in nested.micro]))
        got = {tuple(np.rint(nested.points[v] * s).astype(int)) for v in used}
        assert got == lattice
        assert len(nested.hanging) == 0


def test_box_surface_is_on_boundary():
    mesh = box_mesh(2, 2, 1)
    for face in mesh.surface_faces():
        pts = mesh.vertices[list(face)]
        on_box = False
        for axis in range(3):
            for val in (pts[:, axis].min(), pts[:, axis].max()):
                if np.allclose(pts[:, axis], val) and (
                    np.isclose(val, 0.0) or np.isclose(val, 1.0)
                ):
                    on_box = True
        assert on_box, f"interior face {face} exposed: non-conforming subdivision"


def test_refine_errors():
    base = NestedMesh.from_coarse(single_tet())
    with pytest.raises(MeshError):
        refine(base, lambda e: False, 1)
    with pytest.raises(MeshError):
        refine(base, lambda e: True, 0)


def test_classify_fully_refined():
    mesh = box_mesh(1, 1, 1)
    nested = refine(NestedMesh.from_coarse(mesh), lambda e: True, 1)
    sp = classify_sp(nested)
    assert len(sp.nsp_elements) == 0
    assert set(sp.enriched_nodes) == set(range(mesh.n_vertices))
    assert len(sp.patches) == mesh.n_vertices


def test_classify_unrefined():
    nested = NestedMesh.from_coarse(box_mesh(1, 1, 1))
    sp = classify_sp(nested)
    assert len(sp.enriched_nodes) == 0
    assert len(sp.sp_elements) == 0
    assert len(sp.patches) == 0


def test_classify_local_zone_manual_enumeration():
    # 12-element mesh, refine the 6 tets of the first cell only
    mesh = box_mesh(2, 1, 1)
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    sp = classify_sp(nested)
    # independent incidence scan
    support = {}
    for e, tet in enumerate(mesh.tets):
        for v in tet:
            support.setdefault(int(v), set()).add(e)
    refined = set(np.nonzero(nested.levels > 0)[0])
    expect_enriched = sorted(v for v, sup in support.items() if sup & refined)
    assert list(sp.enriched_nodes) == expect_enriched
    expect_sp = sorted(set().union(*(support[v] for v in expect_enriched)))
    assert list(sp.sp_elements) == expect_sp
    # split of enriched nodes into fully-refined vs transition patches
    fully = [p.node for p in sp.patches if all(e in refined for e in p.elements)]
    mixed = [p.node for p in sp.patches if any(e not in refined for e in p.elements)]
    assert set(fully) | set(mixed) == set(sp.enriched_nodes)
    assert mixed, "local refinement zone must create transition patches"
    for p in sp.patches:
        assert set(p.elements) == support[p.node]
        assert p.weight == sum(len(nested.micro[e]) for e in p.elements)


def test_classify_idempotent():
    mesh = box_mesh(2, 1, 1)
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    a = classify_sp(nested)
    b = classify_sp(nested)
    assert np.array_equal(a.enriched_nodes, b.enriched_nodes)
    assert np.array_equal(a.sp_elements, b.sp_elements)
    assert [p.elements for p in a.patches] == [p.elements for p in b.patches]


def test_partition_uniform_no_dirichlet():
    nested = refine(NestedMesh.from_coarse(box_mesh(1, 1, 1)), lambda e: True, 1)
    sp = classify_sp(nested)
    part = build_partition(nested, sp, BoundaryConditions())
    assert not part.coarse_dirichlet.any()
    assert len(part.hanging_nodes) == 0
    assert part.n_ref_free == 3 * nested.n_nodes  # r = R


def test_partition_interface_h_sets_match():
    mesh = box_mesh(3, 1, 1)
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    sp = classify_sp(nested)
    part = build_partition(nested, sp, BoundaryConditions())
    assert len(sp.nsp_elements) > 0
    # h-set of the coarse level identical (as node ids) to the reference h-set
    assert np.array_equal(part.coarse_h_nodes, part.h_nodes)
    assert len(part.h_nodes) > 0


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_partition_set_identities_random(seed):
    rng = np.random.default_rng(seed)
    mesh = box_mesh(2, 2, 1, face_labels={"x0": "clamp"})
    ne = mesh.n_elements
    sel = rng.choice(ne, size=rng.integers(1, ne), replace=False)
    nested = refine(NestedMesh.from_coarse(mesh), sel, 1)
    sp = classify_sp(nested)
    bc = BoundaryConditions(dirichlet_labels={"clamp": (True, True, True)})
    try:
        part = build_partition(nested, sp, bc)
    except UnsupportedConfigurationError:
        return  # random zone put a hanging node on the clamp: valid rejection
    nc, nn = part.n_coarse_nodes, part.n_nodes
    # card(g) = card(c) + card(e)
    card_c = int((~part.coarse_dirichlet).sum())
    assert part.n_coarse_free == card_c + 3 * part.n_enriched
    # card(r) = card(h) + card(f), at dof granularity
    free_dofs = set(part.free_ref_dofs)
    hf_dofs = set()
    for v in np.concatenate([part.h_nodes, part.f_nodes]):
        for c in range(3):
            if not part.ref_dirichlet[3 * v + c]:
                hf_dofs.add(3 * v + c)
    assert free_dofs == hf_dofs
    # h and f disjoint; L disjoint from everything free
    assert not (set(part.h_nodes) & set(part.f_nodes))
    for h in part.hanging_nodes:
        for c in range(3):
            assert part.ref_dof_index[3 * h + c] == -1
    assert hanging_rule_scan(nested) <= 1


def test_patch_sets_cover_and_disjoint():
    mesh = box_mesh(2, 1, 1, face_labels={"x0": "clamp"})
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    sp = classify_sp(nested)
    part = build_partition(
        nested, sp, BoundaryConditions(dirichlet_labels={"clamp": (True, True, True)})
    )
    for patch, sets in zip(sp.patches, part.patch_sets):
        all_dofs = {3 * int(v) + c for v in sets["Q"] for c in range(3)}
        l_dofs = {3 * int(v) + c for v in sets["L"] for c in range(3)}
        got = set(sets["q"]) | set(sets["d"]) | set(sets["DR"]) | l_dofs
        assert got == all_dofs
        assert not (set(sets["q"]) & set(sets["d"]))
        # the enriched node itself is never hanging and never on the cut boundary
        p_dofs = {3 * patch.node + c for c in range(3)}
        assert not (p_dofs & set(sets["d"])) or patch.node in nested.coarse.tets[
            sp.nsp_elements
        ] if len(sp.nsp_elements) else True


def test_dirichlet_on_hanging_node_rejected():
    mesh = box_mesh(2, 1, 1, face_labels={"y0": "clamp"})
    nested = refine(NestedMesh.from_coarse(mesh), range(6), 1)
    assert len(nested.hanging)
    bc = BoundaryConditions(dirichlet_labels={"clamp": (True, True, True)})
    sp = classify_sp(nested)
    with pytest.raises(UnsupportedConfigurationError):
        build_partition(nested, sp, bc)


def test_mesh_io_roundtrip(tmp_path):
    mesh = box_mesh(2, 1, 1, face_labels={"x0": "clamp", "x1": "pull"})
    path = tmp_path / "m.msh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.tets, mesh.tets)
    assert back.boundary_faces == mesh.boundary_faces


# whole-file edits for the rows that are not one bad element line
FILE_EDITS = {
    "9 vertices": lambda lines: ["9"] + lines[1:],  # one more than the 8 vertex lines
    "truncated": lambda lines: lines[:15],          # ends after element 4
}


@pytest.mark.parametrize("tet_line,label,named", [
    ("0 1 4 -1", " clamp", "element 5 has vertex id -1"),
    ("0 1 2 99", " clamp", "element 5 has vertex id 99"),
    ("0 1 2", " clamp", "element 5 has 3 fields"),
    (None, "", "boundary face 0 has 3 fields"),
    ("0 1 2 x", " clamp", "line 16: element 5 field 'x' is not an integer"),
    ("0 1 2 3.5", " clamp", "line 16: element 5 field '3.5' is not an integer"),
    ("9 vertices", " clamp", "line 10: vertex 8 has 1 fields, expected 3"),
    ("truncated", " clamp", "file ends after line 15, before element 5 of 6"),
])
def test_read_mesh_rejects_bad_ids_in_one_line(tmp_path, tet_line, label, named):
    mesh = box_mesh(1, 1, 1)
    lines = [str(mesh.n_vertices)] + [" ".join(map(str, v)) for v in mesh.vertices]
    tets = [" ".join(map(str, t)) for t in mesh.tets]
    face = " ".join(map(str, mesh.surface_faces()[0])) + label
    edit = FILE_EDITS.get(tet_line)
    lines += [str(len(tets))] + tets[:5] + [tet_line if tet_line and not edit else tets[5],
                                            "1", face]
    path = tmp_path / "bad.msh"
    path.write_text("\n".join(edit(lines) if edit else lines) + "\n")
    with pytest.raises(MeshError) as err:
        read_mesh(path)
    assert named in str(err.value) and "\n" not in str(err.value)


def test_coarse_mesh_rejects_rows_that_are_not_four_ids():
    with pytest.raises(MeshError, match=r"rows of 4 vertex ids, got shape \(1, 3\)"):
        CoarseMesh(box_mesh(1, 1, 1).vertices, [[0, 1, 2]])


def test_tagged_face_must_be_on_surface():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(MeshError):
        CoarseMesh(verts, [[0, 1, 2, 3]], {(0, 1, 99): "bad"})
