"""Coarse tetrahedral meshes, nested refinement and the dof-set taxonomy.

Refinement subdivides selected macro elements by edge midpoints (8 children
per level), propagates forced splits so that no edge of the union mesh ever
carries two hanging nodes, and finally removes hanging nodes interior to the
refined zone by a centroid-fan closure.  Hanging nodes survive only on the
interface between refined elements and untouched coarse elements; their
values are linear combinations of the parent vertices.

Refinement is level-synchronous: one pass splits the leaves due at that
level in every macro element.  Node ids follow the element-by-element
order all the same: a midpoint is numbered at its first request under
(macro element, level, leaf position, edge slot), and the closure
centroids follow all midpoints in (macro element, leaf) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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

# a tet's edges and faces as local vertex tuples, in slot order, and the
# edge slots of each face's (ij, jk, ik) edges
EDGES = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
FACES = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
FACE_EDGES = np.array([[0, 3, 1], [0, 4, 2], [1, 5, 2], [3, 5, 4]])
# on a face (i, j, k) with midpoints (mij, mjk, mik), as columns 0..5: each
# edge's end points and opposite vertex, the fan of one midpoint per edge, and
# the three triangles of two midpoints, over columns (shared, m1, a, m2, c),
# when the quad is cut along (a, m2) or along (m1, c)
EDGE_ENDS, OPPOSITE = np.array([[0, 1], [1, 2], [0, 2]]), np.array([2, 0, 1])
ONE_MIDPOINT = np.array([[[3, 2, 0], [3, 1, 2]], [[4, 0, 1], [4, 2, 0]], [[5, 1, 0], [5, 2, 1]]])
TWO_MIDPOINTS = np.array([[[0, 1, 3], [2, 1, 3], [2, 3, 4]], [[0, 1, 3], [2, 1, 4], [1, 3, 4]]])
# the 8 children of a split, as columns of (v0..v3, midpoints of edge slots
# 0..5): 4 corners, then the octahedron cut along the diagonal (m01, m23),
# (m02, m13) or (m03, m12), its ring of 4 midpoints in cyclic order
SPLIT8 = np.array([[[0, 4, 5, 6], [1, 4, 7, 8], [2, 5, 7, 9], [3, 6, 8, 9]]
                   + [[d1, d2, ring[i], ring[(i + 1) % 4]] for i in range(4)]
                   for d1, d2, ring in ((4, 9, (5, 6, 8, 7)), (5, 8, (4, 6, 9, 7)),
                                        (6, 7, (4, 5, 9, 8)))])
# a face's sub-simplices as columns of (a, b, c, -1): its 3 vertices, 3 edges and itself
SUBSIMPLICES = np.array([[0, 3, 3, 3], [1, 3, 3, 3], [2, 3, 3, 3], [0, 1, 3, 3], [1, 2, 3, 3],
                         [0, 2, 3, 3], [0, 1, 2, 3]])


class MeshError(ValueError):
    pass


class UnsupportedConfigurationError(MeshError):
    pass


def tet_volumes(points, tets):
    a = points[tets[:, 1]] - points[tets[:, 0]]
    b = points[tets[:, 2]] - points[tets[:, 0]]
    c = points[tets[:, 3]] - points[tets[:, 0]]
    return np.einsum("ij,ij->i", a, np.cross(b, c)) / 6.0


def _oriented(points, tets):
    """tets (k, 4), vertices 1 and 2 swapped in place where the volume is negative."""
    flip = tet_volumes(points, tets) < 0
    tets[flip] = tets[flip][:, [0, 2, 1, 3]]
    return tets


def _sorted_faces(tets):
    """(k, 4, 3): the faces of each tet as sorted vertex triples, in slot order."""
    return np.sort(tets[:, FACES], axis=2)


def _face_table(tets):
    """The distinct faces of tets in first-occurrence order, how many tets have each, and
    the face of each (tet, face slot)."""
    faces = _sorted_faces(tets).reshape(-1, 3)
    n = faces.max(initial=0) + 1
    _, first, face, counts = np.unique((faces[:, 0] * n + faces[:, 1]) * n + faces[:, 2],
                                       return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    return faces[first[order]], counts[order], np.argsort(order)[face].reshape(-1, 4)


def _edge_keys(pairs):
    """One int64 key per unordered node pair (last axis of pairs)."""
    lo, hi = np.minimum(pairs[..., 0], pairs[..., 1]), np.maximum(pairs[..., 0], pairs[..., 1])
    return lo << 32 | hi


def _lookup(keys, ids, query):
    """ids of the query keys in the sorted keys, -1 where absent."""
    if not len(keys):
        return np.full(np.shape(query), -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[pos] == query, ids[pos], -1)


class CoarseMesh:
    """Conforming tetrahedral mesh with labelled boundary faces.

    boundary_faces maps a sorted vertex triple to a label string.  Face sets
    with different labels are disjoint by construction.
    """

    def __init__(self, vertices, tets, boundary_faces=None):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        self.tets = np.asarray(tets)
        self.boundary_faces: dict[tuple[int, int, int], str] = dict(boundary_faces or {})
        self.validate()

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.tets)

    def validate(self):
        """Raise a one-line MeshError on an invalid mesh."""
        tets, nv = self.tets, self.n_vertices
        if tets.ndim != 2 or tets.shape[1] != 4:
            raise MeshError(f"elements must be rows of 4 vertex ids, got shape {tets.shape}")
        bad = np.argwhere((tets < 0) | (tets >= nv) | (np.round(tets) != tets))
        if len(bad):
            raise MeshError(f"element {bad[0, 0]} has vertex id {tets[tuple(bad[0])]}, "
                            f"not one of 0..{nv - 1}")
        self.tets = tets.astype(np.int64, copy=False)
        vols = tet_volumes(self.vertices, self.tets)
        if np.any(vols <= 0):
            bad = int(np.argmin(vols))
            raise MeshError(f"element {bad} is not positively oriented (volume {vols[bad]:.3e})")
        faces, counts, _ = _face_table(self.tets)
        if np.any(counts > 2):
            raise MeshError("non-manifold face (shared by more than two elements)")
        surface = set(map(tuple, faces[counts == 1].tolist()))
        for face in self.boundary_faces:
            if tuple(sorted(face)) not in surface:
                raise MeshError(f"tagged face {face} is not a surface face")

    def surface_faces(self):
        faces, counts, _ = _face_table(self.tets)
        return list(map(tuple, faces[counts == 1].tolist()))


def box_mesh(nx, ny, nz, lengths=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0), face_labels=None):
    """Structured box split into 6 tetrahedra per cell (Kuhn subdivision).

    face_labels maps side names (x0, x1, y0, y1, z0, z1) to boundary labels;
    unlisted sides stay untagged (free).
    """
    axes = [np.linspace(o, o + ln, n + 1) for o, ln, n in zip(origin, lengths, (nx, ny, nz))]
    verts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    # Kuhn: 6 tets along monotone corner chains 0 -> a -> b -> 7, conforming
    # across cells because every cell is triangulated identically; corner c
    # of a cell sits at offset (c & 1, c >> 1 & 1, c >> 2)
    chains = [(1, 3), (1, 5), (2, 3), (2, 6), (4, 5), (4, 6)]
    corner = np.array([vid(c & 1, c >> 1 & 1, c >> 2) for c in range(8)])
    cells = vid(*np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")).ravel()
    tets = (cells[:, None, None] + corner[[[0, a, b, 7] for a, b in chains]]).reshape(-1, 4)

    mesh = CoarseMesh(verts, _oriented(verts, tets))
    labels = {}
    if face_labels:
        faces = np.array(mesh.surface_faces(), dtype=np.int64).reshape(-1, 3)
        side = np.full(len(faces), -1)
        names = list(face_labels)
        for s, name in enumerate(names):  # a face on two sides takes the first listed
            axis = "xyz".index(name[0])
            val = (origin[axis], origin[axis] + lengths[axis])[int(name[1])]
            side[np.isclose(verts[faces][:, :, axis], val).all(axis=1) & (side < 0)] = s
        labels = {f: face_labels[names[s]] for f, s in zip(map(tuple, faces.tolist()), side)
                  if s >= 0}
    mesh.boundary_faces = labels
    mesh.validate()
    return mesh


def read_mesh(path) -> CoarseMesh:
    """Read the in-repo ASCII format (see README: mesh file format).

    A malformed line (a wrong field count, a token that is not a number of
    the expected kind) or a file that ends early raises a one-line MeshError
    naming the line.
    """
    with open(path) as fh:
        lines = iter([(i, f) for i, f in ((i, ln.split("#")[0].split())
                                           for i, ln in enumerate(fh, 1)) if f])
    last = 0

    def line(what):
        nonlocal last
        item = next(lines, None)
        if item is None:
            raise MeshError(f"file ends after line {last}, before {what}")
        last = item[0]
        return item

    def numbers(fields, kind, at):
        out = []
        for x in fields:
            try:
                out.append(kind(x))
            except ValueError:
                name = "an integer" if kind is int else "a number"
                raise MeshError(f"line {last}: {at} field {x!r} is not {name}") from None
        return out

    def section(what, n_fields, n_numbers, kind):
        _, (count, *extra) = line(f"the {what} count")
        if extra:
            raise MeshError(f"line {last}: {what} count has {1 + len(extra)} fields, expected 1")
        (count,) = numbers([count], int, f"{what} count")
        rows = []
        for k in range(count):
            _, fields = line(f"{what} {k} of {count}")
            if len(fields) != n_fields:
                raise MeshError(f"line {last}: {what} {k} has {len(fields)} fields, "
                                f"expected {n_fields}")
            rows.append(numbers(fields[:n_numbers], kind, f"{what} {k}") + fields[n_numbers:])
        return rows

    verts = section("vertex", 3, 3, float)
    tets = section("element", 4, 4, int)
    faces = section("boundary face", 4, 3, int)  # 3 vertex ids and a label
    return CoarseMesh(np.array(verts, dtype=np.float64).reshape(-1, 3),
                      np.array(tets, dtype=np.int64).reshape(-1, 4),
                      {tuple(sorted(f[:3])): f[3] for f in faces})


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
    """Coarse mesh plus the per-macro-element nested fine discretization.

    carrier holds, per node, the vertices of the smallest coarse simplex that contains
    it, ascending and padded with -1: the node lies on a coarse face exactly when its
    carrier is a subset of the face.  The hanging nodes, midpoints of edges of untouched
    elements in (element, edge slot) order of first sight, take the values
    hanging_weights @ u[hanging_parents].
    """

    coarse: CoarseMesh
    points: np.ndarray                      # all node coordinates, coarse first
    levels: np.ndarray                      # refinement level per macro element
    micro: list[np.ndarray]                 # leaf tets per macro element
    carrier: np.ndarray                     # (n_nodes, 4) smallest coarse simplex per node
    hanging: np.ndarray                     # (h,) hanging node ids
    hanging_parents: np.ndarray             # (h, 2) their coarse edge's ends, in tet-slot order
    hanging_weights: np.ndarray             # (h, 2) and the ends' interpolation weights
    _fine_faces: tuple | None = field(default=None, repr=False)  # boundary_fine_faces, once

    @classmethod
    def from_coarse(cls, mesh: CoarseMesh) -> "NestedMesh":
        return _build_nested(mesh, np.zeros(mesh.n_elements, dtype=np.int64))

    @property
    def n_nodes(self):
        return len(self.points)

    def on_faces(self, faces) -> np.ndarray:
        """Bool per node: the node lies on one of the coarse faces (m, 3)."""
        n, faces = self.coarse.n_vertices, np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        return np.isin(_simplex_keys(self.carrier, n), _face_keys(np.sort(faces, axis=1), n))

    def boundary_fine_faces(self):
        """(faces (m, 3), element (m,), label (m,)) of the labelled surface leaf faces,
        computed on first use.  Faces are grouped by label, labels in first-use order of
        coarse.boundary_faces, each label's faces in (element, leaf, face slot) order.  A
        leaf face lies on the coarse face that the union of its nodes' carriers spans."""
        if self._fine_faces is not None:
            return self._fine_faces
        labelled, n = self.coarse.boundary_faces, self.coarse.n_vertices
        tagged = np.sort(np.array(list(labelled), dtype=np.int64).reshape(-1, 3), axis=1)
        labels = np.array(list(labelled.values()), dtype=str)
        # each tagged face's label, as the position of the label's first use in labels
        _, first, use = np.unique(labels, return_index=True, return_inverse=True)
        keys = _face_keys(tagged, n)[:, 6]
        faces = _sorted_faces(np.concatenate(self.micro)).reshape(-1, 3)
        near = np.nonzero(self.on_faces(tagged)[faces].all(axis=1))[0]
        span = _simplex_keys(_carrier_union(self.carrier[faces[near]].reshape(-1, 12)), n)
        tag = _lookup(np.sort(keys), np.argsort(keys), span)
        hit, use = near[tag >= 0], first[use[tag[tag >= 0]]]
        by_label = np.argsort(use, kind="stable")
        elem = np.repeat(np.arange(len(self.micro)), [4 * len(m) for m in self.micro])
        self._fine_faces = faces[hit[by_label]], elem[hit[by_label]], labels[use[by_label]]
        return self._fine_faces


def _carrier_union(rows):
    """Row-wise union (k, 4) of vertex rows (k, m) padded with -1: ascending, padded with -1."""
    rows = np.sort(rows.astype(np.uint64), axis=1)  # the -1 pads sort last
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.iinfo(np.uint64).max
    return np.sort(rows, axis=1)[:, :4].astype(np.int64)


def _simplex_keys(rows, n):
    """One int64 key per coarse simplex (..., 4), ascending and padded with -1, of a mesh
    with n vertices; -1 for a macro element, which lies on no face."""
    r = rows[..., :3] + 1
    return np.where(rows[..., 3] < 0, (r[..., 0] * (n + 1) + r[..., 1]) * (n + 1) + r[..., 2], -1)


def _face_keys(faces, n):
    """(m, 7) keys of the 3 vertices, 3 edges and the face itself of sorted faces (m, 3)."""
    return _simplex_keys(np.column_stack([faces, np.full(len(faces), -1)])[:, SUBSIMPLICES], n)


def _incidence(rows, cols, shape):
    """Sparse (rows, cols) incidence counts."""
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=shape)


def _selection(selector, ne):
    """Boolean mask over the ne macro elements of a refine selector."""
    if callable(selector):
        return np.array([bool(selector(e)) for e in range(ne)], dtype=bool)
    sel = np.asarray(selector)
    if sel.dtype == bool:
        if sel.shape == (ne,):
            return sel.copy()
        raise MeshError(f"selector mask has shape {sel.shape}, expected ({ne},)")
    ids = sel.ravel().tolist()
    if ids and not np.issubdtype(sel.dtype, np.integer):
        bad = next((v for v in ids if not (isinstance(v, float) and v.is_integer())), ids[0])
        raise MeshError(f"selector id {bad!r} is not an integer")
    bad = [v for v in ids if not 0 <= v < ne]
    if bad:
        raise MeshError(f"selector id {bad[0]} is outside the elements 0..{ne - 1}")
    return np.isin(np.arange(ne), sel)


def refine(nested: NestedMesh, selector, levels: int = 1) -> NestedMesh:
    """Refine selected macro elements ``levels`` times with forced propagation.

    ``selector`` is a predicate over macro element ids (or an iterable /
    boolean mask of ids); an id outside the mesh, a non-integer id or a mask
    of the wrong length raises MeshError.  The one-hanging-node-per-edge
    rule forces splits of edge-neighbouring elements until levels differ by
    at most one; a final centroid-fan pass removes hanging nodes interior to
    the refined zone.  Hanging nodes remain only against untouched (level 0)
    elements.
    """
    mesh = nested.coarse
    selected = _selection(selector, mesh.n_elements)
    if not selected.any():
        raise MeshError("selector marks no elements")
    if levels < 1:
        raise MeshError("levels must be >= 1")

    target = nested.levels.copy()
    target[selected] += levels

    # one-hanging-node-per-edge rule: neighbouring levels differ by <= 1; an
    # edge takes the highest level among its elements, and every element
    # rises to at least that level minus one
    edge = np.unique(_edge_keys(mesh.tets[:, EDGES]), return_inverse=True)[1].reshape(-1, 6)
    while True:
        top = np.zeros(edge.max() + 1, dtype=target.dtype)
        np.maximum.at(top, edge, target[:, None])
        lifted = np.maximum(target, top[edge].max(axis=1) - 1)
        if np.array_equal(lifted, target):
            break
        target = lifted

    return _build_nested(mesh, target)


def _replace_rows(leaves, elem, rows, new, sizes):
    """(leaves, elem) with leaf rows[i] replaced by the next sizes[i] tets of new."""
    kept = np.ones(len(leaves), dtype=bool)
    kept[rows] = False
    parent = np.concatenate([np.nonzero(kept)[0], np.repeat(rows, sizes)])
    order = np.argsort(parent, kind="stable")
    return np.concatenate([leaves[kept], new])[order], elem[parent[order]]


def _split8(points, tets, mids):
    """Children (k, 8, 4) of tets (k, 4) whose edge slots have midpoints mids (k, 6): the
    corners, then the octahedron cut along its shortest diagonal, ties broken toward the
    lowest node ids."""
    ends = mids[:, [[0, 5], [1, 4], [2, 3]]]
    length = np.linalg.norm(points[ends[..., 0]] - points[ends[..., 1]], axis=2)
    row = np.repeat(np.arange(len(tets)), 3)
    best = np.lexsort((ends.max(axis=2).ravel(), ends.min(axis=2).ravel(), length.ravel(), row))
    nodes = np.concatenate([tets, mids], axis=1)
    return nodes[np.arange(len(tets))[:, None, None], SPLIT8[best[::3] % 3]]


def _build_nested(mesh: CoarseMesh, levels: np.ndarray) -> NestedMesh:
    nv, ne = mesh.n_vertices, mesh.n_elements
    elem, leaves, points = np.arange(ne), mesh.tets.copy(), mesh.vertices
    carrier = np.column_stack([np.arange(nv), np.full((nv, 3), -1)])
    first, parents = [np.zeros(0, dtype=np.int64)], [np.zeros((0, 2), dtype=np.int64)]
    for lvl in range(int(levels.max(initial=0))):
        split = np.nonzero(levels[elem] > lvl)[0]
        tets = leaves[split]
        # every edge of a leaf due at this level is new, since both sides of a
        # face split it alike: number the midpoints in first-request order,
        # which within one level is also their final relative order
        req = tets[:, EDGES].reshape(-1, 2)  # (element, leaf, edge slot) order
        _, at, inv = np.unique(_edge_keys(req), return_index=True, return_inverse=True)
        rank = np.empty(len(at), dtype=np.int64)
        rank[np.argsort(at)] = len(points) + np.arange(len(at))
        first.append(np.repeat(elem[split], 6)[np.sort(at)])
        pair = req[np.sort(at)]
        parents.append(pair)
        points = np.concatenate([points, 0.5 * (points[pair[:, 0]] + points[pair[:, 1]])])
        carrier = np.concatenate([carrier, _carrier_union(carrier[pair].reshape(-1, 8))])
        children = _oriented(points, _split8(points, tets, rank[inv].reshape(-1, 6)).reshape(-1, 4))
        leaves, elem = _replace_rows(leaves, elem, split, children, np.full(len(split), 8))

    # element-major numbering: first requests under (element, level, leaf, slot)
    order = np.argsort(np.concatenate(first), kind="stable")
    remap = np.arange(len(points))
    remap[nv + order] = np.arange(nv, len(points))
    leaves, points = remap[leaves], np.concatenate([points[:nv], points[nv + order]])
    carrier = np.concatenate([carrier[:nv], carrier[nv + order]])
    parents = remap[np.concatenate(parents)[order]]
    keys = _edge_keys(parents)
    ids = nv + np.argsort(keys)
    keys = keys[ids - nv]

    # centroid-fan closure of the leaves of refined elements that have a hanging edge
    mids = _lookup(keys, ids, _edge_keys(leaves[:, EDGES]))
    close = np.nonzero((levels[elem] > 0) & (mids >= 0).any(axis=1))[0]
    tris, ok = _face_triangles(leaves[close][:, FACES].reshape(-1, 3),
                               mids[close][:, FACE_EDGES].reshape(-1, 3))
    sizes = ok.reshape(len(close), 16).sum(axis=1)
    fan = np.column_stack([tris[ok], np.repeat(len(points) + np.arange(len(close)), sizes)])
    points = np.concatenate([points, points[leaves[close]].mean(axis=1)])
    carrier = np.concatenate([carrier, np.sort(mesh.tets[elem[close]], axis=1)])
    leaves, elem = _replace_rows(leaves, elem, close, _oriented(points, fan), sizes)

    bad = tet_volumes(points, leaves) <= 0
    if bad.any():
        raise MeshError(f"degenerate child element in macro element {elem[bad][0]}: "
                        "rejected input mesh")
    micro = np.split(leaves, np.cumsum(np.bincount(elem, minlength=ne))[:-1])

    # hanging nodes: midpoints on edges of untouched elements, first seen in (element, edge slot)
    zero = np.nonzero(levels == 0)[0]
    found = _lookup(keys, ids, _edge_keys(mesh.tets[zero][:, EDGES])).ravel()
    nid, at = np.unique(found, return_index=True)
    at = np.sort(at[nid >= 0])
    nid, tet = found[at], mesh.tets[zero[at // 6]]
    weights = _p1_weights(mesh.vertices[tet], points[nid])
    keep = (tet[:, :, None] == carrier[nid][:, None, :2]).any(axis=2)  # the edge's ends
    assert np.all(np.abs(np.where(keep, weights, 0.0).sum(axis=1) - 1.0) < 1e-9)
    return NestedMesh(mesh, points, levels.copy(), micro, carrier, nid,
                      tet[keep].reshape(-1, 2), weights[keep].reshape(-1, 2))


def _face_triangles(F, M):
    """Closing triangles (m, 4, 3) of faces F (m, 3) = (i, j, k) and which of the 4 exist.

    M (m, 3) holds the midpoints of the (ij, jk, ik) edges, -1 where none.  One
    midpoint bisects the face, three split it in four; two cut off the corner
    their edges share and split the remaining quad along the diagonal through
    its smallest global id (label-invariant, so both elements sharing the face
    triangulate it identically).
    """
    N = np.concatenate([F, M], axis=1)  # columns i, j, k, mij, mjk, mik
    has = M >= 0
    count = has.sum(axis=1)
    T = np.zeros((len(F), 4, 3), dtype=np.int64)
    r = np.nonzero(count == 0)[0]
    T[r, :1] = N[r][:, [[0, 1, 2]]]
    r = np.nonzero(count == 3)[0]
    T[r] = N[r][:, [[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]]]
    r = np.nonzero(count == 1)[0]  # edge (a, b), midpoint m, vertex c: (m, c, a), (m, b, c)
    T[r, :2] = N[r[:, None, None], ONE_MIDPOINT[np.argmax(has[r], axis=1)]]
    r = np.nonzero(count == 2)[0]
    s = np.argsort(~has[r], axis=1, kind="stable")[:, :2]  # the two edge slots
    ab = N[r[:, None, None], EDGE_ENDS[s]]
    swap = (ab[:, 1, 0] < ab[:, 0, 0]) | ((ab[:, 1, 0] == ab[:, 0, 0]) & (ab[:, 1, 1] < ab[:, 0, 1]))
    s = np.where(swap[:, None], s[:, ::-1], s)  # in ascending (a, b) order
    shared = OPPOSITE[3 - s.sum(axis=1)]
    # columns (shared, m1, a, m2, c): quad cycle a -> m1 -> m2 -> c, diagonals (a, m2), (m1, c)
    V = N[r[:, None], np.stack([shared, 3 + s[:, 0], 3 - OPPOSITE[s[:, 0]] - shared,
                                3 + s[:, 1], 3 - OPPOSITE[s[:, 1]] - shared], axis=1)]
    low = V[:, 1:].min(axis=1)
    via_a = (low == V[:, 2]) | (low == V[:, 3])
    T[r, :3] = V[np.arange(len(r))[:, None, None], TWO_MIDPOINTS[(~via_a).astype(np.int64)]]
    return T, np.arange(4) < np.array([1, 2, 3, 4])[count][:, None]


def _p1_weights(coords, x):
    """Barycentric coordinates (..., 4) of points x (..., 3) in tetrahedra coords (..., 4, 3)."""
    T = np.swapaxes(coords[..., 1:, :] - coords[..., :1, :], -1, -2)
    lam = np.linalg.solve(T, (x - coords[..., 0, :])[..., None])[..., 0]
    return np.concatenate([1.0 - lam.sum(axis=-1, keepdims=True), lam], axis=-1)


@dataclass
class Patch:
    """Fine-scale problem domain: the macro elements sharing an enriched node."""

    node: int                    # enriched coarse node id
    elements: tuple[int, ...]    # J^p, sorted macro element ids
    weight: int                  # embedded micro-element count


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
    for label, comps in bc.dirichlet_labels.items():
        faces = [f for f, lab in nested.coarse.boundary_faces.items() if lab == label]
        mask[nested.on_faces(faces)] |= comps
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

    hang_ids = np.sort(nested.hanging)
    pinned = hang_ids[ref_dir.reshape(-1, 3)[hang_ids].any(axis=1)]
    if len(pinned):
        raise UnsupportedConfigurationError(
            f"Dirichlet label on hanging node {int(pinned[0])} is unsupported")

    hang_mask = np.zeros(nn, dtype=bool)
    hang_mask[hang_ids] = True

    # every SP element belongs to a patch
    patch_of, node, on_cut = _patch_nodes(nested, sp.patches)
    sp_node_mask = np.zeros(nn, dtype=bool)
    sp_node_mask[node] = True

    enriched = sp.enriched_nodes

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

    # Q/L/DR/d/q of every patch, node-major: the free non-hanging dofs on the cut form
    # d and take Dirichlet data from the fine-scale field; those on the domain surface
    # keep its conditions (tractions or free) and stay in q with the interior ones
    hang = hang_mask[node]
    dofs, dof_patch = (3 * node[:, None] + np.arange(3)).ravel(), np.repeat(patch_of, 3)
    kept, fixed, cut = np.repeat(~hang, 3), ref_dir[dofs], np.repeat(on_cut, 3)
    n_p = len(sp.patches)
    split = lambda values, owner: np.split(values, np.searchsorted(owner, np.arange(1, n_p)))[:n_p]
    sets = {"Q": split(node, patch_of), "L": split(node[hang], patch_of[hang])}
    for name, m in (("DR", kept & fixed), ("d", kept & ~fixed & cut), ("q", kept & ~fixed & ~cut)):
        sets[name] = split(dofs[m], dof_patch[m])
    patch_sets = [dict(zip(sets, values)) for values in zip(*sets.values())]

    return DofPartition(
        n_coarse_nodes=nc, n_nodes=nn, n_enriched=len(enriched),
        enriched_nodes=enriched,
        coarse_dirichlet=coarse_dir, coarse_h_nodes=h_nodes_c,
        ref_dirichlet=ref_dir, hanging_nodes=hang_ids,
        f_nodes=f_nodes, h_nodes=h_nodes_r,
        free_coarse_dofs=free_coarse, coarse_dof_index=coarse_index,
        free_ref_dofs=free_ref, ref_dof_index=ref_index,
        patch_sets=patch_sets,
    )


def _patch_nodes(nested: NestedMesh, patches):
    """(patch, node) pairs of every patch's fine nodes, ascending, and whether the node lies
    on the patch's cut: a member face neither shared by two members nor on the domain
    surface.  A node lies on a face when its carrier is one of the face's sub-simplices."""
    mesh, nv, ne = nested.coarse, nested.coarse.n_vertices, nested.coarse.n_elements
    member = _incidence([i for i, p in enumerate(patches) for _ in p.elements],
                        [e for p in patches for e in p.elements], (len(patches), ne))
    leaf_elem = np.repeat(np.arange(ne), [4 * len(m) for m in nested.micro])
    pn = member @ _incidence(leaf_elem, np.concatenate(nested.micro).ravel(), (ne, nested.n_nodes))
    pn.sort_indices()
    patch_of, node = np.repeat(np.arange(len(patches)), np.diff(pn.indptr)), pn.indices

    # cut faces: once in the patch, twice in the mesh
    faces, twice, face = _face_table(mesh.tets)
    pf = (member @ _incidence(np.repeat(np.arange(ne), 4), face.ravel(), (ne, len(faces)))).tocoo()
    cut = (pf.data == 1) & (twice[pf.col] == 2)
    # (patch, simplex id) pairs of the nodes' carriers and of the cut faces' sub-simplices
    keys, sid = np.unique(np.concatenate([_simplex_keys(nested.carrier[node], nv),
                                          _face_keys(faces[pf.col[cut]], nv).ravel()]),
                          return_inverse=True)
    on_cut = np.isin(patch_of * len(keys) + sid[:len(node)],
                     np.repeat(pf.row[cut], 7) * len(keys) + sid[len(node):])
    return patch_of, node.astype(np.int64), on_cut
