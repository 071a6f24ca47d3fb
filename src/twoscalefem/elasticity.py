"""Linear-elastic element kernels and per-macro-element block assembly.

This module owns the discrete operator that the two-scale blocks, the
monolithic oracle and the error metrics share: one batched P1 kernel
(gradients, volumes, strain operator and the modulus E(1-d) sampled once
per leaf centroid), one hanging-node fold (u_raw = W u_kept) and one
consistent-load integrator.  A set of macro elements is assembled in
passes of at most KERNEL_CHUNK leaves cut at element boundaries (one kernel
call each) and one fold over their (element, node) slots.  Constant-strain
tetrahedra get exact single-point stiffness integration; volume loads use
the 4-point degree-2 rule and tractions the 6-point degree-4 triangle rule,
which keeps the discrete load consistent with the energy quadrature used by
the error metrics.
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
    "ElementBlocks",
    "NspBlocks",
    "p1_gradients",
    "strain_operator",
    "leaf_moduli",
    "batch_leaf_stiffness",
    "consistent_loads",
    "nodal_loads",
    "label_faces",
    "hanging_fold",
    "leaf_passes",
    "fold_stiffness",
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

    young_modulus is a positive constant or a field; damage is a field
    returning d in [0, 1], or None.  A field maps an (n, 3) array of points
    to n values (a scalar result is broadcast to all n).  Both are sampled
    once per micro element, at its centroid, in one call per batch.
    """

    young_modulus: float | Callable = 1.0
    poisson_ratio: float = 0.3
    damage: Callable | None = None

    def __post_init__(self):
        if not callable(self.young_modulus) and self.young_modulus <= 0:
            raise ValueError("young_modulus must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("poisson_ratio must lie in [0, 0.5)")


@dataclass
class LoadSet:
    """Volume force plus labelled tractions; prescribed displacements are zero.

    body(x) -> loads in N/m^3; tractions maps a Neumann face label to
    t(x) -> loads in N/m^2.  A load takes points (n, 3) and returns (n, 3)
    values, or one 3-vector when it is constant.  Nonzero prescribed
    displacements are not supported and must be rejected by callers that
    accept user data.
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
    return (3 * nodes[..., None] + np.arange(3)).reshape(*nodes.shape[:-1], 3 * nodes.shape[-1])


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


def _sample(field, points):
    """Values (n,) of a material field at points (n, 3); a scalar result is broadcast."""
    return np.broadcast_to(np.asarray(field(points), dtype=np.float64), len(points))


def leaf_moduli(points, leaves, material: Material):
    """Effective Young's modulus E(1-d) of each leaf, sampled once at its centroid.

    Raises on a sampled modulus <= 0 and when the damage leaves [0, 1] by
    more than round-off.
    """
    centroids = points[leaves].mean(axis=1)
    E = material.young_modulus
    E = _sample(E, centroids) if callable(E) else np.full(len(centroids), E)
    bad = ~(E > 0)
    if bad.any():
        raise ValueError(f"young_modulus {E[bad][0]} is not positive")
    if material.damage is not None:
        d = _sample(material.damage, centroids)
        bad = ~((d >= -1e-12) & (d <= 1.0 + 1e-12))
        if bad.any():
            raise ValueError(f"damage {d[bad][0]} outside [0, 1]")
        E = E * (1.0 - np.clip(d, 0.0, 1.0))
    return E


KERNEL_CHUNK = 2048  # leaves per pass: the temporaries scale with a pass, not the batch


def batch_leaf_stiffness(points, leaves, material: Material):
    """Stiffness blocks (k,12,12) and volumes of a batch of tetrahedra; the assemblies
    call it once per pass (leaf_passes), so its temporaries scale with a pass."""
    grads, vol = p1_gradients(points, leaves)
    B = strain_operator(grads)
    K = B.transpose(0, 2, 1) @ (hooke_matrix(1.0, material.poisson_ratio) @ B)
    K *= (leaf_moduli(points, leaves, material) * vol)[:, None, None]
    return K, vol


def leaf_matrix(leaf_slots, K_all, n_slots):
    """Sparse (3n,3n) sum of leaf blocks K_all (k,12,12) placed at the slots leaf_slots (k,4)."""
    dof = node_dofs(leaf_slots).astype(np.int32)  # halves the (144 k) index arrays
    rows = np.repeat(dof, 12, axis=1).ravel()
    cols = np.tile(dof, (1, 12)).ravel()
    A = sp.coo_matrix((K_all.ravel(), (rows, cols)), shape=(3 * n_slots, 3 * n_slots)).tocsr()
    A.sum_duplicates()
    return A


# ---------------------------------------------------------------------------
# the consistent-load integrator


def consistent_loads(points, simplices, f):
    """Nodal loads (k,m,3): the integral of f N_i over tetrahedra (m=4) or triangles (m=3).

    Tetrahedra use the 4-point degree-2 rule, triangles the 6-point degree-4
    rule; f is called once on every quadrature point, (k q, 3), and returns
    (k q, 3) values or one constant 3-vector (see LoadSet).
    """
    p = points[simplices]
    if simplices.shape[1] == 4:
        bary, w = TET4_QUAD
        measure = p1_gradients(points, simplices)[1]
    else:
        bary, w = TRI6_QUAD
        measure = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    xq = np.einsum("qi,kid->kqd", bary, p)
    x = xq.reshape(-1, 3)
    fq = np.broadcast_to(np.asarray(f(x), dtype=np.float64), x.shape).reshape(xq.shape)
    return np.einsum("q,qi,kqd->kid", w, bary, fq) * measure[:, None, None]


def label_faces(nested: NestedMesh, label, elements):
    """Faces (m, 3) labelled label on the macro elements, in boundary_fine_faces order,
    and the position in elements of each face's element."""
    faces, elem, labels = nested.boundary_fine_faces()
    pos = np.full(nested.coarse.n_elements, -1)
    pos[elements] = np.arange(len(elements))
    pick = (labels == label) & (pos[elem] >= 0)
    return faces[pick], pos[elem[pick]]


def nodal_loads(nested: NestedMesh, loads: LoadSet, n_slots, leaves, leaf_slots, elements,
                slot_of):
    """Load vector (3 n_slots,): body force on leaves, tractions on the elements' faces.

    leaf_slots (k,4) and slot_of(positions in elements, faces (m,3)) -> (m,3)
    place the contributions; every slot sums them in that order, the
    tractions label by label in loads.tractions order (a label with no face
    on the elements adds nothing).
    """
    out = np.zeros((n_slots, 3))
    if loads.body is not None:
        np.add.at(out, leaf_slots, consistent_loads(nested.points, leaves, loads.body))
    for label, traction in loads.tractions.items():
        tris, g = label_faces(nested, label, elements)
        if len(tris):
            np.add.at(out, slot_of(g, tris), consistent_loads(nested.points, tris, traction))
    return out.ravel()


# ---------------------------------------------------------------------------
# the hanging-node fold


def hanging_fold(nested: NestedMesh, keys):
    """Kept slots and the substitution u_raw = W u_kept of (group, node) slots.

    keys are ascending slot keys group * n_nodes + node; the kept slots are
    the non-hanging ones.  W is sparse, (3 len(keys), 3 len(kept)): a
    hanging slot's rows hold its parents' interpolation weights at the
    parents' slots of the same group, every other row is a unit vector.
    """
    n, keys = nested.n_nodes, np.asarray(keys, dtype=np.int64)
    slot = np.full(n, -1)
    slot[nested.hanging] = np.arange(len(nested.hanging))
    slot = slot[keys % n]
    kept_rows, hang_rows = np.nonzero(slot < 0)[0], np.nonzero(slot >= 0)[0]
    kept, group = keys[kept_rows], keys[hang_rows] - keys[hang_rows] % n
    parents = group[:, None] + nested.hanging_parents[slot[hang_rows]]
    weights = np.concatenate([np.ones(len(kept)), nested.hanging_weights[slot[hang_rows]].ravel()])
    W = sp.csr_matrix((np.repeat(weights, 3),
                       (node_dofs(np.concatenate([kept_rows, np.repeat(hang_rows, 2)])),
                        node_dofs(np.searchsorted(kept, np.concatenate([kept, parents.ravel()]))))),
                      shape=(3 * len(keys), 3 * len(kept)))
    return kept, W


def leaf_passes(nested: NestedMesh, elements):
    """Leaf slices of the assembly passes over the macro elements' leaves,
    concatenated in element order.

    A pass holds at most KERNEL_CHUNK leaves and is cut at element boundaries
    (an element with more leaves is a pass of its own).  The kernel, the
    (leaf, slot) COO and its CSR sum run on one pass at a time, so no
    temporary of an assembly grows with the mesh, and every entry whose
    leaves lie in one element is summed within one pass.
    """
    ptr = np.cumsum([0] + [len(nested.micro[e]) for e in elements])
    lo = 0
    while lo < len(elements):
        hi = max(lo + 1, int(np.searchsorted(ptr, ptr[lo] + KERNEL_CHUNK, side="right")) - 1)
        yield slice(ptr[lo], ptr[hi])
        lo = hi


def fold_stiffness(W, parts):
    """W^T K W of a hanging_fold W, K the sum of the pass matrices ``parts``
    (an iterable, see leaf_passes), whose summed entries are added once."""
    coo = [p.tocoo() for p in parts]
    K = sp.csr_matrix((np.concatenate([np.zeros(0)] + [c.data for c in coo]),
                       (np.concatenate([np.zeros(0, np.int32)] + [c.row for c in coo]),
                        np.concatenate([np.zeros(0, np.int32)] + [c.col for c in coo]))),
                      shape=(W.shape[0], W.shape[0]))
    del coo  # the passes' entries are not held through the fold
    return W.T @ K @ W


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
# macro-element blocks


@dataclass
class ElementBlocks:
    """Fine problems of SP macro elements, hanging nodes eliminated, Dirichlet rows kept.

    Block i of elements[i] (ascending) covers the kept F-level nodes
    nodes[node_ptr[i]:node_ptr[i + 1]] (ascending), 3 dofs each; A_FF is
    block-diagonal and B_F stacked, block after block.
    """

    elements: np.ndarray
    nodes: np.ndarray
    node_ptr: np.ndarray
    A_FF: sp.csr_matrix
    B_F: np.ndarray

    @property
    def ndof(self) -> np.ndarray:
        return 3 * np.diff(self.node_ptr)

    def nodes_of(self, i) -> np.ndarray:
        return self.nodes[self.node_ptr[i]:self.node_ptr[i + 1]]


@dataclass
class NspBlocks:
    """Coarse stiffness and load of a set of untouched elements (k of them)."""

    elements: np.ndarray       # (k,)
    nodes: np.ndarray          # (k, 4) coarse vertices
    K: np.ndarray              # (k, 12, 12)
    B: np.ndarray              # (k, 12)


def assemble_element_block(
    elements,
    nested: NestedMesh,
    material: Material,
    loads: LoadSet,
) -> ElementBlocks:
    """Assemble A_FF = W^T K W and B_F = W^T b of a set of SP macro elements.

    K and b are summed over the leaves on (element, node) slots, K in passes
    of whole elements (leaf_passes), so that every block is bitwise what one
    batch over all the leaves gives, and one hanging-node fold W serves every
    element.
    """
    elements = np.asarray(elements, dtype=np.int64).reshape(-1)
    n, nb = nested.n_nodes, len(elements)
    leaves = np.concatenate([np.zeros((0, 4), np.int64)] + [nested.micro[e] for e in elements])
    group = np.repeat(np.arange(nb), [len(nested.micro[e]) for e in elements])
    keys, leaf_slots = np.unique(group[:, None] * n + leaves, return_inverse=True)
    leaf_slots = leaf_slots.reshape(leaves.shape)
    kept, W = hanging_fold(nested, keys)
    A = fold_stiffness(W, (
        leaf_matrix(leaf_slots[s], batch_leaf_stiffness(nested.points, leaves[s], material)[0],
                    len(keys)) for s in leaf_passes(nested, elements))).tocsr()
    A.sum_duplicates()
    B = W.T @ nodal_loads(nested, loads, len(keys), leaves, leaf_slots, elements,
                          lambda g, tris: np.searchsorted(keys, g[:, None] * n + tris))
    return ElementBlocks(elements, kept % n, np.searchsorted(kept // n, np.arange(nb + 1)), A, B)


def assemble_nsp(
    elements,
    nested: NestedMesh,
    material: Material,
    loads: LoadSet,
) -> NspBlocks:
    """Coarse-element stiffness and load of a set of NSP elements.

    The h-h block, the h-interface coupling through the identity transfer
    and the interface-interface part are all carried by the single coarse
    matrix; the caller assembles it at classical coarse dof positions.
    """
    elements = np.asarray(elements, dtype=np.int64).reshape(-1)
    tets = nested.coarse.tets[elements].reshape(-1, 4)
    K, _ = batch_leaf_stiffness(nested.points, tets, material)

    def slot_of(g, tris):  # position of each face node in its element's tet
        return 4 * g[:, None] + np.argmax(tets[g][:, None, :] == tris[:, :, None], axis=2)

    slots = np.arange(4 * len(tets)).reshape(-1, 4)
    B = nodal_loads(nested, loads, 4 * len(tets), tets, slots, elements, slot_of)
    return NspBlocks(elements, tets, K, B.reshape(-1, 12))
