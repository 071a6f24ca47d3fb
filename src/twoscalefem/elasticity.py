"""Linear-elastic element kernels and per-macro-element block assembly.

This module owns the discrete operator that the two-scale blocks, the
monolithic oracle and the error metrics share: one batched P1 kernel
(gradients, volumes, strain operator and the modulus E(1-d) sampled once
per leaf centroid), one hanging-node fold (u_raw = W u_kept) and one
consistent-load integrator.  Constant-strain tetrahedra get exact
single-point stiffness integration; volume loads use the 4-point degree-2
rule and tractions the 6-point degree-4 triangle rule, which keeps the
discrete load consistent with the energy quadrature used by the error
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .mesh import DofPartition, NestedMesh

__all__ = [
    "Material",
    "LoadSet",
    "ElementBlock",
    "NspBlock",
    "p1_gradients",
    "strain_operator",
    "leaf_moduli",
    "batch_leaf_stiffness",
    "element_stiffness",
    "consistent_loads",
    "nodal_loads",
    "hanging_fold",
    "reference_fold",
    "expand",
    "assemble_element_block",
    "assemble_nsp",
    "elastic_moduli",
    "TET4_QUAD",
    "TRI6_QUAD",
]


def elastic_moduli(E, nu):
    lam = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = E / (2.0 * (1.0 + nu))
    return lam, mu


def hooke_matrix(E, nu):
    """6x6 Voigt elasticity matrix (order xx, yy, zz, yz, xz, xy)."""
    lam, mu = elastic_moduli(E, nu)
    C = np.zeros((6, 6))
    C[:3, :3] = lam
    C[np.diag_indices(3)] += 2.0 * mu
    C[3, 3] = C[4, 4] = C[5, 5] = mu
    return C


@dataclass
class Material:
    """Isotropic elasticity with optional spatial modulus and damage fields.

    young_modulus may be a constant or a callable of position; damage is a
    callable of position returning d in [0, 1] (or None).  Both are sampled
    at micro-element centroids.
    """

    young_modulus: float | Callable = 1.0
    poisson_ratio: float = 0.3
    damage: Callable | None = None

    def __post_init__(self):
        if not callable(self.young_modulus) and self.young_modulus <= 0:
            raise ValueError("young_modulus must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("poisson_ratio must lie in [0, 0.5)")

    def modulus_at(self, x):
        return self.young_modulus(x) if callable(self.young_modulus) else self.young_modulus

    def damage_at(self, x):
        if self.damage is None:
            return 0.0
        d = float(self.damage(x))
        if not -1e-12 <= d <= 1.0 + 1e-12:
            raise ValueError(f"damage {d} outside [0, 1]")
        return min(max(d, 0.0), 1.0)


@dataclass
class LoadSet:
    """Volume force plus labelled tractions; prescribed displacements are zero.

    body(x) -> 3-vector in N/m^3; tractions maps a Neumann face label to
    t(x) -> 3-vector in N/m^2.  Nonzero prescribed displacements are not
    supported and must be rejected by callers that accept user data.
    """

    body: Callable | None = None
    tractions: dict[str, Callable] = field(default_factory=dict)


# 4-point tetrahedron rule, degree 2 (barycentric weights 1/4 each)
_TA = (5.0 - np.sqrt(5.0)) / 20.0
_TB = (5.0 + 3.0 * np.sqrt(5.0)) / 20.0
TET4_QUAD = (
    np.array([
        [_TB, _TA, _TA, _TA],
        [_TA, _TB, _TA, _TA],
        [_TA, _TA, _TB, _TA],
        [_TA, _TA, _TA, _TB],
    ]),
    np.full(4, 0.25),
)

# 6-point triangle rule, degree 4
_W1, _W2 = 0.109951743655322, 0.223381589678011
_A1, _B1 = 0.816847572980459, 0.091576213509771
_A2, _B2 = 0.108103018168070, 0.445948490915965
TRI6_QUAD = (
    np.array([
        [_A1, _B1, _B1],
        [_B1, _A1, _B1],
        [_B1, _B1, _A1],
        [_A2, _B2, _B2],
        [_B2, _A2, _B2],
        [_B2, _B2, _A2],
    ]),
    np.array([_W1, _W1, _W1, _W2, _W2, _W2]),
)


def node_dofs(nodes):
    """Dof ids 3v+c of node ids, component fastest; the last axis grows threefold."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return (3 * nodes[..., None] + np.arange(3)).reshape(*nodes.shape[:-1], -1)


# ---------------------------------------------------------------------------
# the batched P1 kernel


def p1_gradients(points, leaves):
    """Shape-function gradients (k,4,3) and volumes (k,) of a batch of tetrahedra.

    Raises on a non-positive volume (inverted or degenerate element).
    """
    p = points[leaves]
    T = p[:, 1:] - p[:, :1]  # rows: edge vectors from vertex 0
    det = np.linalg.det(T)
    if np.any(det <= 0):
        raise ValueError("inverted element (non-positive volume)")
    grads = np.empty((len(p), 4, 3))
    grads[:, 1:] = np.transpose(np.linalg.inv(T), (0, 2, 1))
    grads[:, 0] = -grads[:, 1:].sum(axis=1)
    return grads, det / 6.0


# (Voigt row, displacement component, gradient axis) of the nonzero B entries
_B_PATTERN = ((0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 1, 2), (3, 2, 1),
              (4, 0, 2), (4, 2, 0), (5, 0, 1), (5, 1, 0))


def strain_operator(grads):
    """Voigt strain operators (k,6,12) of P1 gradients (k,4,3); column 3*i+c."""
    B = np.zeros((len(grads), 6, 4, 3))
    for row, comp, axis in _B_PATTERN:
        B[:, row, :, comp] = grads[:, :, axis]
    return B.reshape(len(grads), 6, 12)


def leaf_moduli(points, leaves, material: Material):
    """Effective Young's modulus E(1-d) of each leaf, sampled once at its centroid."""
    centroids = points[leaves].mean(axis=1)
    if callable(material.young_modulus):
        E = np.array([material.modulus_at(c) for c in centroids])
    else:
        E = np.full(len(centroids), material.young_modulus)
    if material.damage is not None:
        E = E * np.array([1.0 - material.damage_at(c) for c in centroids])
    return E


def batch_leaf_stiffness(points, leaves, material: Material):
    """Stiffness blocks (k,12,12) and volumes of a batch of tetrahedra."""
    grads, vol = p1_gradients(points, leaves)
    B = strain_operator(grads)
    K = np.einsum("kia,ij,kjb->kab", B, hooke_matrix(1.0, material.poisson_ratio), B)
    return K * (leaf_moduli(points, leaves, material) * vol)[:, None, None], vol


def element_stiffness(coords, material: Material):
    """12x12 stiffness and volume of one tetrahedron (raises on inverted ones)."""
    K, vol = batch_leaf_stiffness(np.asarray(coords, dtype=np.float64), np.arange(4)[None], material)
    return K[0], vol[0]


def leaf_matrix(leaves, K_all, n_nodes):
    """Sparse (3n,3n) sum of leaf blocks K_all (k,12,12) placed at node ids leaves (k,4)."""
    dof = node_dofs(leaves)
    rows = np.repeat(dof, 12, axis=1).ravel()
    cols = np.tile(dof, (1, 12)).ravel()
    A = sp.coo_matrix((K_all.ravel(), (rows, cols)), shape=(3 * n_nodes, 3 * n_nodes)).tocsr()
    A.sum_duplicates()
    return A


# ---------------------------------------------------------------------------
# the consistent-load integrator


def consistent_loads(points, simplices, f):
    """Nodal loads (k,m,3): the integral of f N_i over tetrahedra (m=4) or triangles (m=3).

    Tetrahedra use the 4-point degree-2 rule, triangles the 6-point degree-4
    rule; f maps one point to a 3-vector.
    """
    p = points[simplices]
    if simplices.shape[1] == 4:
        bary, w = TET4_QUAD
        measure = p1_gradients(points, simplices)[1]
    else:
        bary, w = TRI6_QUAD
        measure = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    xq = np.einsum("qi,kid->kqd", bary, p)
    fq = np.array([f(x) for x in xq.reshape(-1, 3)], dtype=np.float64).reshape(xq.shape)
    return np.einsum("q,qi,kqd->kid", w, bary, fq) * measure[:, None, None]


def nodal_loads(points, leaves, faces, loads: LoadSet, nodes):
    """Load vector over the dofs of nodes: body force on leaves, tractions on faces.

    faces holds (surface face, label) pairs; every node of leaves and faces
    must be one of nodes, whose order sets the dof order.
    """
    nodes = np.asarray(nodes)
    order = np.argsort(nodes)
    out = np.zeros((len(nodes), 3))

    def add(simplices, f):
        np.add.at(out, order[np.searchsorted(nodes, simplices, sorter=order)],
                  consistent_loads(points, simplices, f))

    if loads.body is not None:
        add(leaves, loads.body)
    for label, traction in loads.tractions.items():
        tris = np.array([face for face, lab in faces if lab == label], dtype=np.int64)
        if len(tris):
            add(tris, traction)
    return out.ravel()


def element_volume_load(coords, body):
    """Consistent nodal loads (12,) of a body force over one tetrahedron."""
    if body is None:
        return np.zeros(12)
    return consistent_loads(np.asarray(coords, dtype=np.float64), np.arange(4)[None], body).ravel()


def face_traction_load(coords3, traction):
    """Consistent nodal loads (9,) of a traction over one surface triangle."""
    return consistent_loads(np.asarray(coords3, dtype=np.float64), np.arange(3)[None], traction).ravel()


# ---------------------------------------------------------------------------
# the hanging-node fold


def hanging_fold(nested: NestedMesh, raw_nodes):
    """Kept nodes and the substitution u_raw = W u_kept of a set of raw node ids.

    The kept nodes are the non-hanging ones, ascending.  W is sparse,
    (3 len(raw_nodes), 3 len(kept)): a hanging node's rows hold its parents'
    interpolation weights, every other row is a unit vector.
    """
    raw = np.asarray(raw_nodes, dtype=np.int64)
    is_hanging = np.isin(raw, np.fromiter(nested.hanging, np.int64, len(nested.hanging)))
    kept_rows = np.nonzero(~is_hanging)[0]
    kept = np.unique(raw[kept_rows])
    rows, parents, weights = [kept_rows], [raw[kept_rows]], [np.ones(len(kept_rows))]
    for i in np.nonzero(is_hanging)[0]:
        p, w = zip(*nested.hanging[int(raw[i])])
        rows.append(np.full(len(p), i))
        parents.append(np.array(p, dtype=np.int64))
        weights.append(np.array(w))
    cols = np.searchsorted(kept, np.concatenate(parents))
    W = sp.csr_matrix((np.repeat(np.concatenate(weights), 3),
                       (node_dofs(np.concatenate(rows)), node_dofs(cols))),
                      shape=(3 * len(raw), 3 * len(kept)))
    return kept, W


def reference_fold(nested: NestedMesh, partition: DofPartition):
    """Substitution u_R = W u_r from the free reference dofs to every node dof.

    Hanging values are interpolated from their parents and Dirichlet values
    are zero.
    """
    kept, W = hanging_fold(nested, np.arange(nested.n_nodes))
    free = partition.free_ref_dofs
    return W[:, 3 * np.searchsorted(kept, free // 3) + free % 3]


def expand(nested: NestedMesh, partition: DofPartition, u_r):
    """Nodal field (n_nodes, 3) of a free reference vector."""
    return (reference_fold(nested, partition) @ u_r).reshape(-1, 3)


# ---------------------------------------------------------------------------
# per-macro-element blocks


@dataclass
class ElementBlock:
    """Per-macro-element matrices of the fine problem, hanging nodes eliminated.

    nodes lists the element's F-level node ids (ascending); local dof i of
    node j is 3*j_local + i.  Dirichlet rows are kept.  The solver stacks
    the blocks with their transfers and iterate in a transfer.BlockStack.
    """

    element: int
    nodes: np.ndarray
    A_FF: sp.csr_matrix
    B_F: np.ndarray

    @property
    def ndof(self):
        return 3 * len(self.nodes)


@dataclass
class NspBlock:
    """Coarse stiffness of an untouched element, split h/interface for assembly."""

    element: int
    nodes: np.ndarray          # the 4 coarse vertices
    K: np.ndarray              # 12x12
    B: np.ndarray              # 12


def assemble_element_block(
    e: int,
    nested: NestedMesh,
    material: Material,
    loads: LoadSet,
    traction_faces: dict[int, list] | None = None,
) -> ElementBlock:
    """Assemble A_FF = W^T K W and B_F = W^T b of one SP macro element.

    K and b are summed over the element's leaves on its raw nodes; W is the
    hanging-node fold onto the kept nodes.  Dirichlet rows are retained.
    traction_faces maps this element id to (face, label) pairs of its
    surface triangles (precomputed from the nested mesh).
    """
    leaves = nested.micro[e]
    raw = np.unique(leaves)
    nodes, W = hanging_fold(nested, raw)
    K_all, _ = batch_leaf_stiffness(nested.points, leaves, material)
    A = (W.T @ leaf_matrix(np.searchsorted(raw, leaves), K_all, len(raw)) @ W).tocsr()
    A.sum_duplicates()
    faces = (traction_faces or {}).get(e, ())
    B = W.T @ nodal_loads(nested.points, leaves, faces, loads, raw)
    return ElementBlock(e, nodes, A, B)


def assemble_nsp(
    e: int,
    nested: NestedMesh,
    material: Material,
    loads: LoadSet,
    traction_faces: dict[int, list] | None = None,
) -> NspBlock:
    """Coarse-element stiffness and load of an NSP element.

    The h-h block, the h-interface coupling through the identity transfer
    and the interface-interface part are all carried by the single coarse
    matrix; the caller assembles it at classical coarse dof positions.
    """
    tet = np.asarray(nested.coarse.tets[e], dtype=np.int64)
    K, _ = element_stiffness(nested.points[tet], material)
    faces = (traction_faces or {}).get(e, ())
    return NspBlock(e, tet, K, nodal_loads(nested.points, tet[None], faces, loads, tet))


def traction_face_table(nested: NestedMesh, loads: LoadSet):
    """Element id -> [(surface fine face, label)] for labels carrying tractions."""
    table: dict[int, list] = {}
    by_label = nested.boundary_fine_faces()
    for label in loads.tractions:
        for face, e in by_label.get(label, ()):
            table.setdefault(e, []).append((face, label))
    return table
