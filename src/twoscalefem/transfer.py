"""Interpolation operators between scales and the coarse-system assembly.

T_Fk carries the classical hat values of the coarse element at fine node
locations; T_Fe carries the shifted local solutions multiplied by the
enriched node's hat and re-interpolated on the fine mesh.  A rank's SP
blocks are stacked once (BlockStack), so that T_Fe and the enrichment
blocks of the coarse matrix are a fixed number of batched array operations
per iteration; the coarse matrix keeps a constant part and is summed onto a
CSC pattern built once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elasticity import ElementBlock, NspBlock, node_dofs
from .mesh import DofPartition, NestedMesh
from .sparsela import CscPattern

__all__ = [
    "build_tfk",
    "BlockStack",
    "stack_blocks",
    "update_tfe",
    "enriched_corners",
    "CoarseSystem",
    "flatten_triplets",
    "coarse_triplets_constant",
    "coarse_triplets_enrichment",
]

KMAX = 4  # enriched corners of a tet, at most: T_Fe has 3 * KMAX columns


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
class BlockStack:
    """One rank's SP blocks in ascending element id, stacked once.

    Every block takes ``width`` rows, 3 x the largest SP block of the mesh
    (not of the rank), so batched per-block arithmetic does not depend on
    which blocks share a rank; rows past a block's 3n dofs are zero.  The
    stack is the only holder of the blocks' iterate ``u`` (u_F) and
    transfer ``T`` (T_Fe).

    ``fields`` holds per row and enriched-corner slot the current patch
    field of that corner (zero where no patch covers the block).  The
    enrichment triplets of all blocks are listed once, in element order
    (``e_keys`` element ids, ``e_rows``/``e_cols`` free coarse indices);
    ``e_src`` picks each value from the batched [A_ee | A_ek^T] products
    and ``b_src`` each B_e entry from T_Fe^T B_F.
    """

    elements: np.ndarray
    width: int
    corners: list                # per block: enriched corner nodes, ascending
    ndof: np.ndarray             # 3n per block
    A: sp.csr_matrix             # block-diagonal A_FF
    T_Fk: sp.csr_matrix          # block-diagonal T_Fk, 12 columns per block
    B: np.ndarray                # (nb width,) B_F
    u: np.ndarray                # (nb width,) fine iterate
    T: np.ndarray                # (nb, width, 3 KMAX) T_Fe
    fields: np.ndarray           # (nb width, KMAX) patch field per enriched corner
    hat: np.ndarray              # (nb, width / 3, KMAX) hat column of each corner
    corner_row: np.ndarray       # (nb, KMAX) block-local node of each corner
    dirichlet: np.ndarray        # (nb, width) rows T_Fe leaves zero
    dofs: np.ndarray             # (nb width,) global dof of each row, -1 on padding
    c_dofs: np.ndarray           # (12 nb) coarse dofs of the T_Fk columns
    e_dofs: np.ndarray           # (3 KMAX nb) coarse dofs of the T_Fe columns, -1 if absent
    e_keys: np.ndarray
    e_rows: np.ndarray
    e_cols: np.ndarray
    e_src: np.ndarray
    b_keys: np.ndarray
    b_idx: np.ndarray
    b_src: np.ndarray

    def rows_of(self, e) -> np.ndarray:
        """Stacked rows of block e's dofs."""
        i = int(np.searchsorted(self.elements, e))
        return self.width * i + np.arange(self.ndof[i])

    def field_slots(self, e, p) -> np.ndarray:
        """Positions of enriched corner p's field on block e in fields.ravel()."""
        i = int(np.searchsorted(self.elements, e))
        return self.rows_of(e) * KMAX + self.corners[i].index(p)


def _block_diag(mats, width, col0, ncols):
    """CSR holding mats[i] (CSR) at rows width*i.. and columns col0[i]..; other rows empty."""
    nnz = np.cumsum([0] + [m.nnz for m in mats])
    indptr = np.repeat(nnz[1:], width)
    for i, m in enumerate(mats):
        indptr[width * i:width * i + m.shape[0]] = nnz[i] + m.indptr[1:]
    return sp.csr_matrix(
        (np.concatenate([np.zeros(0)] + [m.data for m in mats]),
         np.concatenate([np.zeros(0, np.int32)] + [m.indices + int(c) for m, c in zip(mats, col0)]),
         np.concatenate([[0], indptr])), shape=(width * len(mats), ncols))


def stack_blocks(blocks, T_Fk, nested: NestedMesh, partition: DofPartition,
                 width: int) -> BlockStack:
    """Stack SP blocks (ascending element id) and their T_Fk into one BlockStack."""
    nb, W = len(blocks), width
    ndof = np.array([b.ndof for b in blocks], dtype=np.int64)
    base = W * np.arange(nb)
    dofs = np.full(nb * W, -1, dtype=np.int64)
    hat = np.zeros((nb, W // 3, KMAX))
    corner_row = np.zeros((nb, KMAX), dtype=np.int64)
    dirichlet = np.zeros((nb, W), dtype=bool)
    B = np.zeros(nb * W)
    corners, c_dofs, e_dofs, e_parts, b_parts = [], [], [], [], []
    for i, block in enumerate(blocks):
        e, n3 = block.element, ndof[i]
        tet = [int(v) for v in nested.coarse.tets[e]]
        cs = enriched_corners(nested, partition, e)
        k = len(cs)
        corners.append(cs)
        B[base[i]:base[i] + n3] = block.B_F
        dofs[base[i]:base[i] + n3] = node_dofs(block.nodes)
        hat[i, :n3 // 3, :k] = _hat_matrix(nested, e, block.nodes)[:, [tet.index(p) for p in cs]]
        corner_row[i, :k] = np.searchsorted(block.nodes, cs)
        dirichlet[i, :n3] = partition.ref_dirichlet[node_dofs(block.nodes)]
        cd, ed = element_classical_dofs(nested, e), element_enriched_dofs(nested, partition, e)
        c_dofs.append(cd)
        e_dofs.append(np.concatenate([ed, np.full(3 * (KMAX - k), -1)]))
        # (e,e), (e,k) and (k,e) blocks row-major, as positions in the
        # (nb, 2, 12, 12) products [A_ee, A_ek^T]
        a, j = np.arange(3 * k), np.arange(12)
        src = (a[:, None] * 12 + a, 144 + j * 12 + a[:, None], 144 + j[:, None] * 12 + a)
        for (r, c), s in zip(((ed, ed), (ed, cd), (cd, ed)), src):
            rows, cols, keep = _free_pairs(partition, r, c)
            e_parts.append((e, rows, cols, 288 * i + s.ravel()[keep]))
        free = partition.coarse_dof_index[ed]
        b_parts.append((e, free[free >= 0], 12 * i + a[free >= 0]))
    z = np.zeros(0, np.int64)
    return BlockStack(
        np.array([b.element for b in blocks], dtype=np.int64), W, corners, ndof,
        _block_diag([b.A_FF.tocsr() for b in blocks], W, base, nb * W),
        _block_diag(T_Fk, W, 12 * np.arange(nb), 12 * nb),
        B, np.zeros(nb * W), np.zeros((nb, W, 3 * KMAX)), np.zeros((nb * W, KMAX)), hat,
        corner_row, dirichlet, dofs,
        np.concatenate([z] + c_dofs), np.concatenate([z] + e_dofs),
        *flatten_triplets(e_parts, 3), *flatten_triplets(b_parts, 2))


def update_tfe(stack: BlockStack) -> np.ndarray:
    """Shifted-enrichment transfer of every stacked block, (nb, width, 3 KMAX).

    Column (p, c) of a block holds N^p(x_j) * (field_p[j, c] - field_p[p, c])
    at rows (j, c), field_p being the patch field of enriched corner p
    (solved interior values, imposed boundary values, zeros on Dirichlet
    dofs); rows on Dirichlet dofs are zeroed (they belong to the coupling
    block).  A corner whose patch does not cover the block (transition
    elements) has a zero field, hence a zero column block.
    """
    nb, n = len(stack.elements), stack.width // 3
    f = stack.fields.reshape(nb, n, 3, KMAX)               # (block, node, comp, corner)
    at_corner = f[np.arange(nb)[:, None], stack.corner_row, :, np.arange(KMAX)]
    vals = stack.hat[:, :, None, :] * (f - at_corner.transpose(0, 2, 1)[:, None])
    vals[stack.dirichlet.reshape(nb, n, 3)] = 0.0
    comp = np.arange(3)
    stack.T.reshape(nb, n, 3, KMAX, 3)[:, :, comp, :, comp] = vals.transpose(2, 0, 1, 3)
    return stack.T


@dataclass
class CoarseSystem:
    """A_gg and B_g summed onto a CSC pattern built once.

    Built from the constant parts, flat ``(keys, rows, cols, vals)`` and
    ``(keys, idx, vals)``, and the structure of the enrichment parts,
    ``(keys, rows, cols)`` and ``(keys, idx)`` in the order their values
    reach ``build``.  Keys are element ids: every entry sums its
    contributions one by one in element-id order, constants first (they
    are summed once, which is the same sum), whatever order they arrive in.
    """

    pattern: CscPattern
    const_vals: np.ndarray       # summed constant entries, first in the pattern's list
    order: np.ndarray            # arrival -> element order of the enrichment values
    b_slot: np.ndarray
    b_const: np.ndarray
    b_order: np.ndarray

    @classmethod
    def of(cls, partition, const, const_b, enrich, enrich_b):
        n = partition.n_coarse_free
        c, cb = np.argsort(const[0], kind="stable"), np.argsort(const_b[0], kind="stable")
        K = CscPattern.of(const[1][c], const[2][c], (n, n)).assemble(const[3][c]).tocoo()
        order, b_order = np.argsort(enrich[0], kind="stable"), np.argsort(enrich_b[0], kind="stable")
        pattern = CscPattern.of(np.concatenate([K.row, enrich[1][order]]),
                                np.concatenate([K.col, enrich[2][order]]), (n, n))
        return cls(pattern, K.data, order,
                   np.concatenate([np.arange(n), enrich_b[1][b_order]]),
                   np.bincount(const_b[1][cb], weights=const_b[2][cb], minlength=n), b_order)

    def build(self, vals=None, b_vals=None):
        """A_gg, B_g with the enrichment values in arrival order (None: all zero)."""
        ev = np.zeros(len(self.order)) if vals is None else vals[self.order]
        bv = np.zeros(len(self.b_order)) if b_vals is None else b_vals[self.b_order]
        A = self.pattern.assemble(np.concatenate([self.const_vals, ev]))
        B = np.bincount(self.b_slot, weights=np.concatenate([self.b_const, bv]))
        return A, B


def flatten_triplets(items, arity):
    """(element id, a_1, ..., a_arity) items -> (keys, a_1, ..., a_arity).

    The arrays are concatenated in item order and keys repeats each element
    id over its entries; the last array holds values, the others indices.
    """
    items = list(items) or [(0, *[np.zeros(0, np.int64)] * arity)]
    keys = np.concatenate([np.full(len(t[1]), t[0], dtype=np.int64) for t in items])
    return (keys, *(np.concatenate([t[a] for t in items]) for a in range(1, arity + 1)))


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


def coarse_triplets_constant(block: ElementBlock, T_Fk, nested, partition):
    """A_kk = T_Fk^T A_FF T_Fk and B_k = T_Fk^T B_F of one SP element, free-indexed."""
    return _dense_triplets(block.element, T_Fk.T @ (block.A_FF @ T_Fk).toarray(),
                           element_classical_dofs(nested, block.element),
                           T_Fk.T @ block.B_F, partition)


def nsp_triplets(nsp: NspBlock, partition):
    """Coarse stiffness of an NSP element at classical free positions."""
    return _dense_triplets(nsp.element, nsp.K, node_dofs(nsp.nodes), nsp.B, partition)


def coarse_triplets_enrichment(stack: BlockStack):
    """Values of the (e,e), (e,k)+(k,e) blocks and of B_e of every stacked block.

    A_ee = T_Fe^T (A_FF T_Fe), A_ek^T = T_Fk^T (A_FF T_Fe), B_e = T_Fe^T B_F,
    batched over the blocks; the values follow the stack's e_rows/e_cols
    and b_idx.  A block whose T_Fe is zero contributes explicit zeros, so
    the coarse pattern never changes.
    """
    nb, W, m = stack.T.shape
    Tt = stack.T.transpose(0, 2, 1)
    AT = stack.A @ stack.T.reshape(nb * W, m)
    prod = np.stack([Tt @ AT.reshape(nb, W, m), (stack.T_Fk.T @ AT).reshape(nb, 12, m)], axis=1)
    be = Tt @ stack.B.reshape(nb, W, 1)
    return prod.ravel()[stack.e_src], be.ravel()[stack.b_src]
