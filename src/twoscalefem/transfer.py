"""Interpolation operators between scales and the coarse-system assembly.

T_Fk carries the classical hat values of the coarse element at fine node
locations; T_Fe carries the shifted local solutions multiplied by the
enriched node's hat and re-interpolated on the fine mesh.  The coarse
matrix keeps a constant part assembled once and enrichment-dependent
blocks rebuilt every iteration from dense per-element products; what a
block's transfer does not change between iterations (BlockTransfer) is
built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .elasticity import ElementBlock, NspBlock, node_dofs
from .mesh import DofPartition, NestedMesh, SpInfo

__all__ = [
    "build_tfk",
    "block_transfer",
    "update_tfe",
    "enriched_corners",
    "CoarseSystem",
    "coarse_triplets_constant",
    "coarse_triplets_enrichment",
    "monolithic_transfer",
]


def barycentric_matrix(nested: NestedMesh, e: int, nodes) -> np.ndarray:
    """Hat values N^i(x_j) of coarse element e at the given fine nodes (n,4)."""
    coords = nested.points[nested.coarse.tets[e]]
    edges = (coords[1:] - coords[0]).T
    lam = np.linalg.solve(edges, (nested.points[np.asarray(nodes, dtype=np.int64)] - coords[0]).T).T
    return np.column_stack([1.0 - lam.sum(axis=1), lam])


def _hat_matrix(nested: NestedMesh, e: int, nodes) -> np.ndarray:
    """barycentric_matrix with round-off zeros made exact."""
    N = barycentric_matrix(nested, e, nodes)
    N[np.abs(N) < 1e-14] = 0.0
    return N


def build_tfk(block: ElementBlock, nested: NestedMesh) -> sp.csr_matrix:
    """Classical transfer of one SP element: rows F-dofs, columns C-dofs (12).

    Row (node j, comp c) holds N^i(x_j) at column (vertex i, comp c); rows of
    fine nodes sitting on coarse vertices are unit vectors.
    """
    return sp.csr_matrix(np.kron(_hat_matrix(nested, block.element, block.nodes), np.eye(3)))


def enriched_corners(nested: NestedMesh, partition: DofPartition, e: int) -> list[int]:
    """Enriched coarse vertices of element e, ascending node id."""
    return sorted(int(v) for v in nested.coarse.tets[e] if int(v) in partition.enriched_index)


@dataclass
class BlockTransfer:
    """Constants of one SP block's transfer, built on first use and kept on the block.

    corner_hat holds the hat columns (n, k) of the k enriched corners and
    corner_row each corner's block-local node; dirichlet masks the 3n rows
    that T_Fe leaves zero.  c_dofs/e_dofs are the coarse dofs of the 12
    classical and 3k enriched columns.  rows/cols/keep scatter the row-major
    concatenation of A_ee, A_ek and A_ek^T into free coarse positions;
    e_free/e_keep do the same for B_e.
    """

    corners: list[int]
    corner_hat: np.ndarray
    corner_row: np.ndarray
    dirichlet: np.ndarray
    c_dofs: np.ndarray
    e_dofs: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    keep: np.ndarray
    e_free: np.ndarray
    e_keep: np.ndarray


def block_transfer(block: ElementBlock, nested: NestedMesh, partition: DofPartition) -> BlockTransfer:
    """The block's BlockTransfer, built once."""
    if block.transfer is None:
        e = block.element
        tet = [int(v) for v in nested.coarse.tets[e]]
        corners = enriched_corners(nested, partition, e)
        hat = _hat_matrix(nested, e, block.nodes)
        c_dofs = element_classical_dofs(nested, e)
        e_dofs = element_enriched_dofs(nested, partition, e)
        blocks = [_free_pairs(partition, r, c) for r, c in
                  ((e_dofs, e_dofs), (e_dofs, c_dofs), (c_dofs, e_dofs))]
        e_free = partition.coarse_dof_index[e_dofs]
        block.transfer = BlockTransfer(
            corners=corners,
            corner_hat=hat[:, [tet.index(p) for p in corners]],
            corner_row=np.searchsorted(block.nodes, corners),
            dirichlet=partition.ref_dirichlet[node_dofs(block.nodes)],
            c_dofs=c_dofs,
            e_dofs=e_dofs,
            rows=np.concatenate([b[0] for b in blocks]),
            cols=np.concatenate([b[1] for b in blocks]),
            keep=np.concatenate([b[2] for b in blocks]),
            e_free=e_free[e_free >= 0],
            e_keep=e_free >= 0,
        )
    return block.transfer


def update_tfe(
    block: ElementBlock,
    nested: NestedMesh,
    partition: DofPartition,
    patch_fields: dict[int, np.ndarray],
) -> np.ndarray:
    """Shifted-enrichment transfer of one SP element, dense (3n, 3k).

    patch_fields maps each enriched corner node p to the full local field of
    patch p evaluated at block.nodes, shape (n, 3): solved interior values,
    imposed boundary values and zeros on Dirichlet dofs.  Each column
    (p, c) holds N^p(x_j) * (field[j, c] - field_at_p[c]) at rows (j, c);
    rows on Dirichlet dofs are zeroed (they belong to the coupling block).
    Unrefined elements in the patch produce identically zero columns only
    through their fields; transition elements are handled by the caller
    passing no field (column block left zero).
    """
    tr = block_transfer(block, nested, partition)
    n, k = len(block.nodes), len(tr.corners)
    T = np.zeros((n, 3, k, 3))
    comp = np.arange(3)
    for ci, p in enumerate(tr.corners):
        fld = patch_fields.get(p)
        if fld is not None:
            T[:, comp, ci, comp] = tr.corner_hat[:, ci, None] * (fld - fld[tr.corner_row[ci]])
    T = T.reshape(3 * n, 3 * k)
    T[tr.dirichlet] = 0.0
    return T


@dataclass
class CoarseSystem:
    """Constant and per-iteration parts of the reduced coarse problem."""

    partition: DofPartition
    ini_rows: np.ndarray = field(default=None)
    ini_cols: np.ndarray = field(default=None)
    ini_vals: np.ndarray = field(default=None)
    B_ini: np.ndarray = field(default=None)

    @property
    def n(self):
        return self.partition.n_coarse_free

    def set_constant(self, contribs, b_contribs):
        """contribs: iterable of (element id, rows, cols, vals) in free coarse indices."""
        contribs = sorted(contribs, key=lambda t: t[0])
        if contribs:
            self.ini_rows = np.concatenate([c[1] for c in contribs])
            self.ini_cols = np.concatenate([c[2] for c in contribs])
            self.ini_vals = np.concatenate([c[3] for c in contribs])
        else:
            self.ini_rows = np.zeros(0, dtype=np.int64)
            self.ini_cols = np.zeros(0, dtype=np.int64)
            self.ini_vals = np.zeros(0)
        self.B_ini = np.zeros(self.n)
        for eid, idx, vals in sorted(b_contribs, key=lambda t: t[0]):
            np.add.at(self.B_ini, idx, vals)

    def build(self, enrich_contribs=(), b_enrich=()):  # per-iteration parts
        """Assemble A_gg and B_g from the stored constants plus enrichment triplets."""
        parts_r = [self.ini_rows]
        parts_c = [self.ini_cols]
        parts_v = [self.ini_vals]
        for eid, rows, cols, vals in sorted(enrich_contribs, key=lambda t: t[0]):
            parts_r.append(rows)
            parts_c.append(cols)
            parts_v.append(vals)
        A = sp.coo_matrix(
            (np.concatenate(parts_v), (np.concatenate(parts_r), np.concatenate(parts_c))),
            shape=(self.n, self.n),
        ).tocsc()
        A.sum_duplicates()
        B = self.B_ini.copy()
        for eid, idx, vals in sorted(b_enrich, key=lambda t: t[0]):
            np.add.at(B, idx, vals)
        return A, B


def element_classical_dofs(nested: NestedMesh, e: int) -> np.ndarray:
    return node_dofs(nested.coarse.tets[e])


def element_enriched_dofs(nested: NestedMesh, partition: DofPartition, e: int) -> np.ndarray:
    idx = [partition.enriched_index[p] for p in enriched_corners(nested, partition, e)]
    return 3 * partition.n_coarse_nodes + node_dofs(np.asarray(idx, dtype=np.int64))


def _free_pairs(partition, row_dofs, col_dofs):
    """Free-index (rows, cols) of a dense block in row-major order, and its keep mask.

    Pairs with a Dirichlet row or column are dropped.
    """
    rr, cc = np.meshgrid(partition.coarse_dof_index[row_dofs],
                         partition.coarse_dof_index[col_dofs], indexing="ij")
    keep = ((rr >= 0) & (cc >= 0)).ravel()
    return rr.ravel()[keep], cc.ravel()[keep], keep


def _dense_triplets(eid, M, dofs, B, partition):
    """Free-index triplets of a square dense block and its load vector."""
    rows, cols, keep = _free_pairs(partition, dofs, dofs)
    idx = partition.coarse_dof_index[dofs]
    return (eid, rows, cols, np.asarray(M).ravel()[keep]), (eid, idx[idx >= 0], B[idx >= 0])


def coarse_triplets_constant(block: ElementBlock, nested, partition):
    """A_kk = T_Fk^T P_Fk and B_k = T_Fk^T B_F of one SP element, free-indexed."""
    return _dense_triplets(block.element, block.T_Fk.T @ block.P_Fk,
                           element_classical_dofs(nested, block.element),
                           block.T_Fk.T @ block.B_F, partition)


def nsp_triplets(nsp: NspBlock, partition):
    """Coarse stiffness of an NSP element at classical free positions."""
    return _dense_triplets(nsp.element, nsp.K, node_dofs(nsp.nodes), nsp.B, partition)


def coarse_triplets_enrichment(block: ElementBlock, nested, partition):
    """(e,e) and (e,k)+(k,e) blocks plus B_e of one SP element, free-indexed.

    A_ee = T_Fe^T (A_FF T_Fe), A_ek = T_Fe^T P_Fk, B_e = T_Fe^T B_F, dense.
    """
    T_Fe = block.T_Fe
    if T_Fe is None or not T_Fe.any():
        return None
    tr = block_transfer(block, nested, partition)
    A_ee = T_Fe.T @ (block.A_FF @ T_Fe)
    A_ek = T_Fe.T @ block.P_Fk
    vals = np.concatenate([A_ee.ravel(), A_ek.ravel(), A_ek.T.ravel()])[tr.keep]
    be = T_Fe.T @ block.B_F
    return (block.element, tr.rows, tr.cols, vals), (block.element, tr.e_free, be[tr.e_keep])


def monolithic_transfer(nested, sp_info: SpInfo, partition: DofPartition, blocks, patch_fields_all):
    """Full T operator from free coarse dofs to free reference dofs.

    Oracle-only: the production path never assembles this matrix.  blocks
    maps SP element id -> ElementBlock with T_Fk/T_Fe current;
    patch_fields_all as in update_tfe, keyed per element.
    """
    n_r = partition.n_ref_free
    n_g = partition.n_coarse_free
    # h rows: identity against the matching coarse dofs
    h = node_dofs(partition.h_nodes)
    rows, cols = [partition.ref_dof_index[h]], [partition.coarse_dof_index[h]]
    vals = [np.ones(len(h))]
    for e, block in sorted(blocks.items()):
        T = block.T_Fk.toarray()
        col_dofs = element_classical_dofs(nested, e)
        if block.T_Fe is not None:
            T = np.hstack([T, block.T_Fe])
            col_dofs = np.concatenate([col_dofs, element_enriched_dofs(nested, partition, e)])
        r, c = np.nonzero(T)
        rows.append(partition.ref_dof_index[node_dofs(block.nodes)][r])
        cols.append(partition.coarse_dof_index[col_dofs][c])
        vals.append(T[r, c])
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    keep = (rows >= 0) & (cols >= 0)
    # an entry shared by several blocks keeps the value of the highest element id
    rows, cols, vals = rows[keep][::-1], cols[keep][::-1], vals[keep][::-1]
    _, last = np.unique(rows * n_g + cols, return_index=True)
    return sp.csr_matrix((vals[last], (rows[last], cols[last])), shape=(n_r, n_g))
