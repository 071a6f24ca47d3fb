"""Refinement pinned bit for bit, its invariants on random selectors, selector checks.

The frozen digests pin the numbering rule of the element-by-element
refinement: each new midpoint is numbered at its first request under (macro
element, level, leaf position, edge slot) and diagonal ties break toward the
lowest node ids; any change of numbering, orientation or closure moves them.
They leave out the partition plan, which is a rank-assignment policy.
"""

import hashlib
import itertools

import numpy as np
import pytest

from twoscalefem.bench import CaseSpec, build_problem
from twoscalefem.mesh import MeshError, NestedMesh, box_mesh, refine, tet_volumes

from test_mesh import _tet_faces, hanging_rule_scan

FROZEN = {
    ("cubic-plate", 0, 1):
        "ad400ceb7a850b2bb6e210a271998dc0d45bbca55ff6b4d28d1aa0947b462996",
    ("cubic-plate", 0, 2):
        "d1f04588a42657657d70fcfdb91dc1b4eb457f55d47cb499e2186a4f7dcee314",
    ("cubic-plate", 0, 3):
        "94b79d2d37f2023fd9ae74ca217dfa2a453e4aea9a3cdc8485d641f24e296f2f",
    ("cubic-plate", 1, 1):
        "08538aa1770f1120385443aafec8b259c35a9f8ba63b686405eb12bf2a4e2215",
    ("micro-structure", 0, 1):
        "abe78fd09b618ae23abdc86991279af5821e1be03903ebbc884771abbad55f7d",
    ("micro-structure", 0, 2):
        "32df6b3ae41a3664daba413c2ca7fb531f7433995428171b0216c11725ec98ab",
    ("cone-damage-box", 0, 1):
        "7c21d7ab798cbfd6eae6661c90798f623cc6c5f43229c33933551918518c6a44",
    ("cone-damage-box", 0, 2):
        "34bdf195fae42257ffa0f204b9c343e7cbaa09ab38ab813c81d1ae70ad8aeade",
}


def faces_on_nodes(nested):
    """Per node, the coarse faces (sorted triples, ascending) that contain its carrier."""
    faces, by_simplex = sorted({f for t in nested.coarse.tets for f in _tet_faces(t)}), {}
    for f in faces:
        for k in (1, 2, 3):
            for s in itertools.combinations(f, k):
                by_simplex.setdefault(s, []).append(f)
    return [by_simplex.get(tuple(int(c) for c in row if c >= 0), []) for row in nested.carrier]


def set_up_digest(problem):
    """sha256 over the coarse mesh, every NestedMesh and DofPartition field and the
    boundary fine faces, dict and list orders included."""
    nested, part = problem.nested, problem.partition
    h = hashlib.sha256()

    def arr(a):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode() + a.tobytes())

    def obj(o):
        h.update(repr(o).encode())

    ints = lambda seq: tuple(int(v) for v in seq)
    mesh = nested.coarse
    arr(mesh.vertices), arr(mesh.tets)
    obj([(ints(f), lab) for f, lab in mesh.boundary_faces.items()])
    arr(nested.points), arr(nested.levels)
    for leaves in nested.micro:
        arr(leaves)
    obj([(int(n), [(int(p), float(w).hex()) for p, w in zip(ps, ws)])
         for n, ps, ws in zip(nested.hanging, nested.hanging_parents, nested.hanging_weights)])
    obj(sorted(enumerate(faces_on_nodes(nested))))
    faces, elem, labels = nested.boundary_fine_faces()
    obj([(lab, [(ints(f), int(e)) for f, e in zip(faces[labels == lab], elem[labels == lab])])
         for lab in dict.fromkeys(mesh.boundary_faces.values())])
    enriched_index = {int(p): i for i, p in enumerate(part.enriched_nodes)}
    obj((part.n_coarse_nodes, part.n_nodes, part.n_enriched, sorted(enriched_index.items())))
    for name in ("enriched_nodes", "coarse_dirichlet", "coarse_h_nodes", "ref_dirichlet",
                 "hanging_nodes", "f_nodes", "h_nodes", "free_coarse_dofs", "coarse_dof_index",
                 "free_ref_dofs", "ref_dof_index"):
        arr(getattr(part, name))
    for sets in part.patch_sets:
        obj(list(sets))
        for a in sets.values():
            arr(a)
    return h.hexdigest()


@pytest.mark.parametrize("kind,coarse_level,sp_depth", list(FROZEN))
def test_set_up_matches_frozen_digest(kind, coarse_level, sp_depth):
    spec = CaseSpec(kind=kind, coarse_level=coarse_level, sp_depth=sp_depth, ranks=2)
    problem, _ = build_problem(spec)
    assert set_up_digest(problem) == FROZEN[(kind, coarse_level, sp_depth)]


@pytest.mark.parametrize("dims,levels,seed", [((2, 2, 1), 1, 0), ((3, 2, 1), 1, 1),
                                               ((2, 2, 1), 2, 2), ((3, 2, 1), 2, 3),
                                               ((2, 2, 1), 3, 4), ((3, 2, 1), 3, 5)])
def test_random_selectors_keep_the_refinement_invariants(dims, levels, seed):
    rng = np.random.default_rng(seed)
    mesh = box_mesh(*dims, lengths=tuple(rng.uniform(0.5, 2.0, 3)))
    sel = rng.choice(mesh.n_elements, size=rng.integers(1, mesh.n_elements // 2),
                     replace=False)
    nested = refine(NestedMesh.from_coarse(mesh), sel, levels)
    macro = tet_volumes(mesh.vertices, mesh.tets)
    leaf = np.array([tet_volumes(nested.points, m).sum() for m in nested.micro])
    assert leaf == pytest.approx(macro, rel=1e-12)
    leaves = np.concatenate(nested.micro)
    faces = np.sort(leaves[:, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]], axis=2)
    assert np.all(tet_volumes(nested.points, leaves) > 0)
    faces, counts = np.unique(faces.reshape(-1, 3), axis=0, return_counts=True)
    assert counts.max() <= 2
    # carrier: in every macro element holding a node, the vertices of positive
    # barycentric coordinate
    for e, tet in enumerate(mesh.tets):
        nodes = np.unique(nested.micro[e])
        corners = mesh.vertices[tet]
        lam = np.linalg.solve((corners[1:] - corners[0]).T, (nested.points[nodes] - corners[0]).T).T
        lam = np.column_stack([1.0 - lam.sum(axis=1), lam])
        for v, row in zip(nodes, lam):
            expect = sorted(int(u) for u in tet[row > 1e-9])
            assert nested.carrier[v].tolist() == expect + [-1] * (4 - len(expect))
    # conforming: an unpaired leaf face lies on the surface or on a face of an unrefined element
    open_faces = set(mesh.surface_faces()) | {f for e in np.nonzero(nested.levels == 0)[0]
                                              for f in _tet_faces(mesh.tets[e])}
    for face in faces[counts == 1]:
        assert tuple(sorted(set(nested.carrier[face].ravel().tolist()) - {-1})) in open_faces
    assert hanging_rule_scan(nested) <= 1
    assert nested.hanging_weights == pytest.approx(np.full((len(nested.hanging), 2), 0.5),
                                                   abs=1e-12)


@pytest.mark.parametrize("selector,named", [([-1], "-1"), ([2, 6], "6"), ([0.5], "0.5"),
                                            ([1, 2.5], "2.5"), (np.ones(5, bool), "(5,)"),
                                            (np.ones((6, 1), bool), "(6, 1)")])
def test_refine_rejects_a_bad_selector_in_one_line(selector, named):
    with pytest.raises(MeshError) as err:
        refine(NestedMesh.from_coarse(box_mesh(1, 1, 1)), selector, 1)
    assert named in str(err.value) and "\n" not in str(err.value)
