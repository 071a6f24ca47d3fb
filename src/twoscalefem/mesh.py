"""Coarse tetrahedral meshes, nested refinement and the dof-set taxonomy.

Refinement subdivides selected macro elements by edge midpoints (8 children
per level), propagates forced splits so that no edge of the union mesh ever
carries two hanging nodes, and finally removes hanging nodes interior to the
refined zone by a centroid-fan closure.  Hanging nodes survive only on the
interface between refined elements and untouched coarse elements; their
values are linear combinations of the parent vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoarseMesh",
    "NestedMesh",
    "Patch",
    "SpInfo",
    "BoundaryConditions",
    "DofPartition",
    "MeshError",
    "UnsupportedConfigurationError",
    "box_mesh",
    "read_mesh",
    "write_mesh",
    "refine",
    "classify_sp",
    "build_partition",
    "spf_nodes",
]

GEOM_RTOL = 1e-12


class MeshError(ValueError):
    pass


class UnsupportedConfigurationError(MeshError):
    pass


def tet_volume(p0, p1, p2, p3):
    return float(np.linalg.det(np.stack([p1 - p0, p2 - p0, p3 - p0]))) / 6.0


def tet_volumes(points, tets):
    a = points[tets[:, 1]] - points[tets[:, 0]]
    b = points[tets[:, 2]] - points[tets[:, 0]]
    c = points[tets[:, 3]] - points[tets[:, 0]]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


class CoarseMesh:
    """Conforming tetrahedral mesh with labelled boundary faces.

    boundary_faces maps a sorted vertex triple to a label string.  Face sets
    with different labels are disjoint by construction.
    """

    def __init__(self, vertices, tets, boundary_faces=None):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.tets = np.asarray(tets, dtype=np.int64)
        self.boundary_faces: dict[tuple[int, int, int], str] = dict(boundary_faces or {})
        self.validate()

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.tets)

    def validate(self):
        vols = tet_volumes(self.vertices, self.tets)
        if np.any(vols <= 0):
            bad = int(np.argmin(vols))
            raise MeshError(f"element {bad} is not positively oriented (volume {vols[bad]:.3e})")
        counts = _face_counts(self.tets)
        if any(c > 2 for c in counts.values()):
            raise MeshError("non-manifold face (shared by more than two elements)")
        surface = {f for f, c in counts.items() if c == 1}
        for face in self.boundary_faces:
            if tuple(sorted(face)) not in surface:
                raise MeshError(f"tagged face {face} is not a surface face")

    def surface_faces(self):
        return [f for f, c in _face_counts(self.tets).items() if c == 1]

    def element_adjacency(self):
        """Pairs of elements sharing at least an edge (two common vertices)."""
        incident: dict[int, list[int]] = {}
        for e, tet in enumerate(self.tets):
            for v in tet:
                incident.setdefault(int(v), []).append(e)
        adj = [set() for _ in range(self.n_elements)]
        for e, tet in enumerate(self.tets):
            cand: dict[int, int] = {}
            for v in tet:
                for o in incident[int(v)]:
                    if o != e:
                        cand[o] = cand.get(o, 0) + 1
            for o, shared in cand.items():
                if shared >= 2:
                    adj[e].add(o)
        return adj


def _face_counts(tets):
    """Sorted vertex triple -> number of the given tets having that face."""
    counts: dict[tuple, int] = {}
    for tet in tets:
        for face in _tet_faces(tet):
            counts[face] = counts.get(face, 0) + 1
    return counts


def _tet_faces(tet):
    a, b, c, d = (int(v) for v in tet)
    return (
        tuple(sorted((a, b, c))),
        tuple(sorted((a, b, d))),
        tuple(sorted((a, c, d))),
        tuple(sorted((b, c, d))),
    )


def _tet_edges(tet):
    a, b, c, d = (int(v) for v in tet)
    return (
        tuple(sorted((a, b))),
        tuple(sorted((a, c))),
        tuple(sorted((a, d))),
        tuple(sorted((b, c))),
        tuple(sorted((b, d))),
        tuple(sorted((c, d))),
    )


def box_mesh(nx, ny, nz, lengths=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0), face_labels=None):
    """Structured box split into 6 tetrahedra per cell (Kuhn subdivision).

    face_labels maps side names (x0, x1, y0, y1, z0, z1) to boundary labels;
    unlisted sides stay untagged (free).
    """
    lx, ly, lz = lengths
    ox, oy, oz = origin
    xs = np.linspace(ox, ox + lx, nx + 1)
    ys = np.linspace(oy, oy + ly, ny + 1)
    zs = np.linspace(oz, oz + lz, nz + 1)

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    verts = np.array([[xs[i], ys[j], zs[k]]
                      for i in range(nx + 1) for j in range(ny + 1) for k in range(nz + 1)])
    # Kuhn: 6 tets along monotone corner chains 0 -> a -> b -> 7, conforming
    # across cells because every cell is triangulated identically
    chains = [(1, 3), (1, 5), (2, 3), (2, 6), (4, 5), (4, 6)]
    corner_off = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    tets = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                c = [vid(i + di, j + dj, k + dk) for (di, dj, dk) in corner_off]
                for a, b in chains:
                    tet = [c[0], c[a], c[b], c[7]]
                    if tet_volume(*(verts[t] for t in tet)) < 0:
                        tet[1], tet[2] = tet[2], tet[1]
                    tets.append(tet)
    tets = np.array(tets, dtype=np.int64)

    mesh = CoarseMesh(verts, tets)
    labels = {}
    if face_labels:
        side_test = {
            "x0": lambda p: np.isclose(p[:, 0], ox).all(),
            "x1": lambda p: np.isclose(p[:, 0], ox + lx).all(),
            "y0": lambda p: np.isclose(p[:, 1], oy).all(),
            "y1": lambda p: np.isclose(p[:, 1], oy + ly).all(),
            "z0": lambda p: np.isclose(p[:, 2], oz).all(),
            "z1": lambda p: np.isclose(p[:, 2], oz + lz).all(),
        }
        for face in mesh.surface_faces():
            pts = verts[list(face)]
            for side, label in face_labels.items():
                if side_test[side](pts):
                    labels[face] = label
                    break
    mesh.boundary_faces = labels
    mesh.validate()
    return mesh


def read_mesh(path) -> CoarseMesh:
    """Read the in-repo ASCII format (see README: mesh file format)."""
    with open(path) as fh:
        tokens = [ln.split("#")[0].strip() for ln in fh]
        tokens = [ln for ln in tokens if ln]
    it = iter(tokens)
    nv = int(next(it))
    verts = np.array([[float(x) for x in next(it).split()] for _ in range(nv)])
    nt = int(next(it))
    tets = np.array([[int(x) for x in next(it).split()] for _ in range(nt)], dtype=np.int64)
    nf = int(next(it))
    faces = {}
    for _ in range(nf):
        parts = next(it).split()
        faces[tuple(sorted(int(x) for x in parts[:3]))] = parts[3]
    return CoarseMesh(verts, tets, faces)


def write_mesh(mesh: CoarseMesh, path):
    with open(path, "w") as fh:
        fh.write(f"{mesh.n_vertices}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        fh.write(f"{mesh.n_elements}\n")
        for t in mesh.tets:
            fh.write(" ".join(str(int(x)) for x in t) + "\n")
        fh.write(f"{len(mesh.boundary_faces)}\n")
        for face, label in sorted(mesh.boundary_faces.items()):
            fh.write(f"{face[0]} {face[1]} {face[2]} {label}\n")


@dataclass
class NestedMesh:
    """Coarse mesh plus the per-macro-element nested fine discretization."""

    coarse: CoarseMesh
    points: np.ndarray                      # all node coordinates, coarse first
    levels: np.ndarray                      # refinement level per macro element
    micro: list[np.ndarray]                 # leaf tets per macro element
    hanging: dict[int, list[tuple[int, float]]]   # node -> [(parent, weight)]
    node_faces: dict[int, frozenset]        # node -> coarse faces it lies on
    _fine_faces: dict | None = field(default=None, repr=False)  # boundary_fine_faces, once

    @classmethod
    def from_coarse(cls, mesh: CoarseMesh) -> "NestedMesh":
        micro = [mesh.tets[e:e + 1].copy() for e in range(mesh.n_elements)]
        node_faces = _coarse_node_faces(mesh)
        return cls(mesh, mesh.vertices.copy(), np.zeros(mesh.n_elements, dtype=np.int64),
                   micro, {}, node_faces)

    @property
    def n_nodes(self):
        return len(self.points)

    def boundary_fine_faces(self) -> dict[tuple, list[tuple]]:
        """Label -> list of (fine face triple, macro element id), computed on first use;
        only elements with a labelled face are visited (others meet it in an edge at most)."""
        if self._fine_faces is not None:
            return self._fine_faces
        out: dict[str, list[tuple]] = {}
        for face, label in self.coarse.boundary_faces.items():
            out.setdefault(label, [])
        labelled = set(self.coarse.boundary_faces)
        for e, tet in enumerate(self.coarse.tets):
            if labelled.isdisjoint(_tet_faces(tet)):
                continue
            for leaf in self.micro[e]:
                for f in _tet_faces(leaf):
                    carriers = (self.node_faces.get(f[0], frozenset())
                                & self.node_faces.get(f[1], frozenset())
                                & self.node_faces.get(f[2], frozenset()))
                    for cf in carriers:
                        label = self.coarse.boundary_faces.get(cf)
                        if label is not None:
                            out.setdefault(label, []).append((f, e))
        self._fine_faces = out
        return out


def _coarse_node_faces(mesh: CoarseMesh):
    """Coarse vertex -> set of ALL coarse faces (as vertex triples) containing it."""
    node_faces: dict[int, set] = {v: set() for v in range(mesh.n_vertices)}
    for tet in mesh.tets:
        for face in _tet_faces(tet):
            for v in face:
                node_faces[v].add(face)
    return {v: frozenset(s) for v, s in node_faces.items()}


def refine(nested: NestedMesh, selector, levels: int = 1) -> NestedMesh:
    """Refine selected macro elements ``levels`` times with forced propagation.

    ``selector`` is a predicate over macro element ids (or an iterable /
    boolean mask of ids).  The one-hanging-node-per-edge rule forces splits
    of edge-neighbouring elements until levels differ by at most one; a final
    centroid-fan pass removes hanging nodes interior to the refined zone.
    Hanging nodes remain only against untouched (level 0) elements.
    """
    mesh = nested.coarse
    ne = mesh.n_elements
    if callable(selector):
        selected = np.array([bool(selector(e)) for e in range(ne)])
    else:
        sel = np.asarray(selector)
        if sel.dtype == bool:
            selected = sel.copy()
        else:
            selected = np.zeros(ne, dtype=bool)
            selected[sel] = True
    if not selected.any():
        raise MeshError("selector marks no elements")
    if levels < 1:
        raise MeshError("levels must be >= 1")

    target = nested.levels.copy()
    target[selected] += levels

    # one-hanging-node-per-edge rule: neighbouring levels differ by <= 1
    adj = mesh.element_adjacency()
    changed = True
    while changed:
        changed = False
        for e in range(ne):
            for o in adj[e]:
                if target[o] < target[e] - 1:
                    target[o] = target[e] - 1
                    changed = True

    return _build_nested(mesh, target)


def _build_nested(mesh: CoarseMesh, levels: np.ndarray) -> NestedMesh:
    points = [p for p in mesh.vertices]
    node_faces = {v: set(fs) for v, fs in _coarse_node_faces(mesh).items()}
    midpoint: dict[tuple[int, int], int] = {}

    def get_mid(a, b):
        key = (a, b) if a < b else (b, a)
        nid = midpoint.get(key)
        if nid is None:
            nid = len(points)
            points.append(0.5 * (points[a] + points[b]))
            midpoint[key] = nid
            node_faces[nid] = node_faces.get(a, set()) & node_faces.get(b, set())
        return nid

    def split8(tet):
        v0, v1, v2, v3 = (int(v) for v in tet)
        m = {}
        for a, b in ((v0, v1), (v0, v2), (v0, v3), (v1, v2), (v1, v3), (v2, v3)):
            m[(min(a, b), max(a, b))] = get_mid(a, b)

        def mid(a, b):
            return m[(min(a, b), max(a, b))]

        children = [
            (v0, mid(v0, v1), mid(v0, v2), mid(v0, v3)),
            (v1, mid(v0, v1), mid(v1, v2), mid(v1, v3)),
            (v2, mid(v0, v2), mid(v1, v2), mid(v2, v3)),
            (v3, mid(v0, v3), mid(v1, v3), mid(v2, v3)),
        ]
        # inner octahedron: choose the shortest of the three diagonals,
        # ties broken toward the lowest node id
        pairs = (((v0, v1), (v2, v3)), ((v0, v2), (v1, v3)), ((v0, v3), (v1, v2)))
        best = None
        for e1, e2 in pairs:
            d1, d2 = mid(*e1), mid(*e2)
            length = float(np.linalg.norm(points[d1] - points[d2]))
            key = (length, min(d1, d2), max(d1, d2))
            if best is None or key < best[0]:
                best = (key, e1, e2, d1, d2)
        _, (a, b), (c, d), d1, d2 = best
        ring = (mid(a, c), mid(a, d), mid(b, d), mid(b, c))
        for i in range(4):
            children.append((d1, d2, ring[i], ring[(i + 1) % 4]))
        fixed = []
        for ch in children:
            if tet_volume(*(points[v] for v in ch)) < 0:
                ch = (ch[0], ch[2], ch[1], ch[3])
            fixed.append(ch)
        return fixed

    micro: list[list[tuple]] = []
    for e, tet in enumerate(mesh.tets):
        leaves = [tuple(int(v) for v in tet)]
        for _ in range(int(levels[e])):
            nxt = []
            for leaf in leaves:
                nxt.extend(split8(leaf))
            leaves = nxt
        micro.append(leaves)

    # centroid-fan closure of hanging nodes interior to the refined zone
    def face_triangles(face_nodes):
        i, j, k = face_nodes
        mids = {}
        for (a, b) in ((i, j), (j, k), (i, k)):
            key = (min(a, b), max(a, b))
            if key in midpoint:
                mids[(a, b)] = midpoint[key]
        if not mids:
            return [(i, j, k)]
        if len(mids) == 3:
            mij, mjk, mik = mids[(i, j)], mids[(j, k)], mids[(i, k)]
            return [(i, mij, mik), (j, mjk, mij), (k, mik, mjk), (mij, mjk, mik)]
        if len(mids) == 1:
            ((a, b), m), = mids.items()
            c = ({i, j, k} - {a, b}).pop()
            return [(m, c, a), (m, b, c)]
        # two midpoints: triangle at the shared vertex plus a quad split
        # along the diagonal through the smallest global id (label-invariant,
        # so both elements sharing the face triangulate it identically)
        (e1, m1), (e2, m2) = sorted(mids.items())
        shared = (set(e1) & set(e2)).pop()
        a = (set(e1) - {shared}).pop()
        c = (set(e2) - {shared}).pop()
        tris = [(shared, m1, m2)]
        # quad cycle: a -> m1 -> m2 -> c; diagonals are (a, m2) and (m1, c)
        if min(a, m1, m2, c) in (a, m2):
            tris += [(a, m1, m2), (a, m2, c)]
        else:
            tris += [(a, m1, c), (m1, m2, c)]
        return tris

    for e in range(mesh.n_elements):
        if levels[e] == 0:
            continue
        new_leaves = []
        for leaf in micro[e]:
            hang = [edge for edge in _tet_edges(leaf) if edge in midpoint]
            if not hang:
                new_leaves.append(leaf)
                continue
            gid = len(points)
            points.append(np.mean([points[v] for v in leaf], axis=0))
            node_faces[gid] = set()
            v0, v1, v2, v3 = leaf
            for fn in ((v0, v1, v2), (v0, v1, v3), (v0, v2, v3), (v1, v2, v3)):
                for tri in face_triangles(fn):
                    tet = (tri[0], tri[1], tri[2], gid)
                    if tet_volume(*(points[v] for v in tet)) < 0:
                        tet = (tet[0], tet[2], tet[1], tet[3])
                    new_leaves.append(tet)
        micro[e] = new_leaves

    points_arr = np.array(points)
    micro_arr = [np.array(lv, dtype=np.int64) for lv in micro]

    for e, leaves in enumerate(micro_arr):
        vols = tet_volumes(points_arr, leaves)
        if np.any(vols <= 0):
            raise MeshError(f"degenerate child element in macro element {e}: rejected input mesh")

    # hanging nodes: midpoints lying on edges of untouched elements
    hanging: dict[int, list[tuple[int, float]]] = {}
    for e in range(mesh.n_elements):
        if levels[e] != 0:
            continue
        tet = mesh.tets[e]
        coords = mesh.vertices[tet]
        for (a, b) in _tet_edges(tet):
            nid = midpoint.get((a, b))
            if nid is None or nid in hanging:
                continue
            weights = _p1_weights(coords, points_arr[nid])
            parents = [(int(tet[i]), float(weights[i]))
                       for i in range(4) if abs(weights[i]) > GEOM_RTOL]
            total = sum(w for _, w in parents)
            assert abs(total - 1.0) < 1e-9
            hanging[nid] = parents

    nf = {v: frozenset(s) for v, s in node_faces.items()}
    return NestedMesh(mesh, points_arr, levels.copy(), micro_arr, hanging, nf)


def _p1_weights(coords, x):
    """Barycentric coordinates of x in the tetrahedron given by coords (4,3)."""
    T = np.column_stack([coords[1] - coords[0], coords[2] - coords[0], coords[3] - coords[0]])
    lam = np.linalg.solve(T, x - coords[0])
    return np.array([1.0 - lam.sum(), lam[0], lam[1], lam[2]])


@dataclass
class Patch:
    """Fine-scale problem domain: the macro elements sharing an enriched node."""

    node: int                    # enriched coarse node id
    elements: tuple[int, ...]    # J^p, sorted macro element ids
    weight: int                  # embedded micro-element count

    def fine_nodes(self, nested: NestedMesh) -> np.ndarray:
        return np.unique(np.concatenate([nested.micro[e].ravel() for e in self.elements]))


@dataclass
class SpInfo:
    refined: np.ndarray          # bool per macro element
    enriched_nodes: np.ndarray   # sorted coarse node ids (I_e^g)
    sp_elements: np.ndarray      # sorted macro element ids
    nsp_elements: np.ndarray
    patches: list[Patch]


def classify_sp(nested: NestedMesh) -> SpInfo:
    """Enriched nodes, solution-patchwork split and the patch list.

    A coarse node is enriched when at least one element of its support is
    refined; the SP is the union of all enriched patches.  Pure function of
    the mesh, hence idempotent.
    """
    mesh = nested.coarse
    refined = nested.levels > 0
    enriched = np.unique(mesh.tets[refined]).astype(np.int64)
    in_sp = np.isin(mesh.tets, enriched).any(axis=1)
    patches = []
    for p in enriched:
        elems = tuple(int(e) for e in np.nonzero((mesh.tets == p).any(axis=1))[0])
        patches.append(Patch(int(p), elems, sum(len(nested.micro[e]) for e in elems)))
    assert all(pa.weight > 0 for pa in patches)
    return SpInfo(refined, enriched, np.nonzero(in_sp)[0], np.nonzero(~in_sp)[0], patches)


@dataclass
class BoundaryConditions:
    """Dirichlet side of the boundary data (loads live in elasticity.LoadSet).

    dirichlet_labels maps a face label to a component mask; point_constraints
    pins single components at coarse vertices.  Prescribed values are zero.
    """

    dirichlet_labels: dict[str, tuple[bool, bool, bool]] = field(default_factory=dict)
    point_constraints: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class DofPartition:
    """Index maps for the value-set taxonomy at all three levels.

    Node-id sets are stored for the coarse and reference levels plus per-dof
    boolean masks; patch-level sets live in ``patch_sets`` (one entry per
    patch, same order as SpInfo.patches).
    """

    n_coarse_nodes: int
    n_nodes: int
    n_enriched: int
    enriched_nodes: np.ndarray
    enriched_index: dict[int, int]

    coarse_dirichlet: np.ndarray    # bool mask over 3*n_coarse_nodes (D)
    coarse_h_nodes: np.ndarray

    ref_dirichlet: np.ndarray       # bool mask over 3*n_nodes (DR)
    hanging_nodes: np.ndarray       # L-set node ids
    f_nodes: np.ndarray             # free SP-related reference nodes
    h_nodes: np.ndarray             # free non-SP reference nodes

    free_coarse_dofs: np.ndarray    # global coarse dof ids of g, canonical order
    coarse_dof_index: np.ndarray    # coarse dof id -> position in g (or -1)

    free_ref_dofs: np.ndarray       # reference dof ids of r, canonical order
    ref_dof_index: np.ndarray       # reference dof id -> position in r (or -1)

    patch_sets: list[dict]

    @property
    def n_coarse_free(self):
        return len(self.free_coarse_dofs)

    @property
    def n_ref_free(self):
        return len(self.free_ref_dofs)


def spf_nodes(nested: NestedMesh, partition: DofPartition) -> np.ndarray:
    """f-set nodes that also touch an NSP element (the SPF ring), ascending."""
    tets = nested.coarse.tets
    ring = np.unique(tets[~np.isin(tets, partition.enriched_nodes).any(axis=1)])
    return ring[np.isin(ring, partition.f_nodes)]


def _dirichlet_dof_mask(nested: NestedMesh, bc: BoundaryConditions, n_nodes: int):
    mask = np.zeros((n_nodes, 3), dtype=bool)
    comps = {f: bc.dirichlet_labels[lab] for f, lab in nested.coarse.boundary_faces.items()
             if lab in bc.dirichlet_labels}
    for node, faces in nested.node_faces.items():
        for cf in comps.keys() & faces:
            mask[node] |= comps[cf]
    for node, comp in bc.point_constraints:
        mask[node, comp] = True
    return mask.ravel()


def build_partition(nested: NestedMesh, sp: SpInfo, bc: BoundaryConditions) -> DofPartition:
    """Populate every Table-B.1 value set as index maps (3 dofs per node)."""
    mesh = nested.coarse
    nc = mesh.n_vertices
    nn = nested.n_nodes

    ref_dir = _dirichlet_dof_mask(nested, bc, nn)
    coarse_dir = ref_dir[: 3 * nc].copy()

    hang_ids = np.array(sorted(nested.hanging), dtype=np.int64)
    for h in hang_ids:
        if ref_dir[3 * h: 3 * h + 3].any():
            raise UnsupportedConfigurationError(
                f"Dirichlet label on hanging node {int(h)} is unsupported")

    hang_mask = np.zeros(nn, dtype=bool)
    hang_mask[hang_ids] = True

    sp_node_mask = np.zeros(nn, dtype=bool)
    for e in sp.sp_elements:
        sp_node_mask[np.unique(nested.micro[e])] = True

    enriched = sp.enriched_nodes
    en_index = {int(p): i for i, p in enumerate(enriched)}

    # coarse-level classical split: free nodes outside the SP elements
    coarse_free = ~coarse_dir
    h_nodes_c = np.nonzero(coarse_free.reshape(-1, 3).any(axis=1) & ~sp_node_mask[:nc])[0]

    # reference level: free non-hanging nodes, split by SP membership
    free_node = ~hang_mask & ~ref_dir.reshape(-1, 3).all(axis=1)
    f_nodes = np.nonzero(free_node & sp_node_mask)[0]
    h_nodes_r = np.nonzero(free_node & ~sp_node_mask)[0]

    # canonical free orderings
    n_coarse_dofs = 3 * nc + 3 * len(enriched)
    classical_free = np.nonzero(coarse_free)[0]
    enr_free = np.arange(3 * nc, n_coarse_dofs, dtype=np.int64)
    free_coarse = np.concatenate([classical_free, enr_free])
    coarse_index = np.full(n_coarse_dofs, -1, dtype=np.int64)
    coarse_index[free_coarse] = np.arange(len(free_coarse))

    free_ref = np.nonzero(~ref_dir & ~np.repeat(hang_mask, 3))[0]
    ref_index = np.full(3 * nn, -1, dtype=np.int64)
    ref_index[free_ref] = np.arange(len(free_ref))

    surface = set(mesh.surface_faces())
    patch_sets = [_patch_sets(nested, patch, hang_mask, ref_dir, surface) for patch in sp.patches]

    return DofPartition(
        n_coarse_nodes=nc, n_nodes=nn, n_enriched=len(enriched),
        enriched_nodes=enriched, enriched_index=en_index,
        coarse_dirichlet=coarse_dir, coarse_h_nodes=h_nodes_c,
        ref_dirichlet=ref_dir, hanging_nodes=hang_ids,
        f_nodes=f_nodes, h_nodes=h_nodes_r,
        free_coarse_dofs=free_coarse, coarse_dof_index=coarse_index,
        free_ref_dofs=free_ref, ref_dof_index=ref_index,
        patch_sets=patch_sets,
    )


def _patch_sets(nested: NestedMesh, patch: Patch, hang_mask, ref_dir, surface):
    """Q/L/DP/d/q classification for one patch, at dof granularity.

    The d-set is the artificial cut: member coarse faces not shared between
    two members and not on the domain surface; free non-hanging dofs there
    carry Dirichlet data from the fine-scale field.  Domain-boundary faces
    keep their physical conditions (tractions or free), so their dofs stay
    in q; interior free dofs form q as well.  surface is the set of the
    coarse mesh's surface faces.
    """
    face_count = _face_counts(nested.coarse.tets[list(patch.elements)])
    boundary_faces = {f for f, c in face_count.items() if c == 1 and f not in surface}

    nodes = patch.fine_nodes(nested)
    hang = hang_mask[nodes]
    boundary = np.repeat([bool(nested.node_faces.get(int(v), frozenset()) & boundary_faces)
                          for v in nodes], 3)
    dofs = (3 * nodes[:, None] + np.arange(3)).ravel()  # node-major, in nodes order
    kept, fixed = np.repeat(~hang, 3), ref_dir[dofs]
    return {"Q": nodes, "L": nodes[hang], "DR": dofs[kept & fixed],
            "d": dofs[kept & ~fixed & boundary], "q": dofs[kept & ~fixed & ~boundary]}
