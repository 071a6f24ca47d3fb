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

from .elasticity import ElementBlocks, NspBlocks, node_dofs
from .mesh import DofPartition, NestedMesh
from .sparsela import CscPattern

__all__ = [
    "build_tfk",
    "BlockStack",
    "stack_blocks",
    "update_tfe",
    "CoarseSystem",
    "coarse_constant_system",
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


def build_tfk(blocks: ElementBlocks, nested: NestedMesh) -> sp.csr_matrix:
    """Classical transfers of SP blocks, block-diagonal: row (node j of block i, comp c)
    holds the hat N^a(x_j) of vertex a of the block's coarse element at column
    12 i + 3 a + c; rows of fine nodes on coarse vertices are unit vectors.  The hat of a
    vertex off the node's carrier is an exact zero."""
    N = np.concatenate([np.zeros((0, 4))] + [barycentric_matrix(nested, e, blocks.nodes_of(i))
                                             for i, e in enumerate(blocks.elements)])
    group = np.repeat(np.arange(len(blocks.elements)), np.diff(blocks.node_ptr))
    corners = nested.coarse.tets[blocks.elements[group]]
    N[~(corners[:, :, None] == nested.carrier[blocks.nodes][:, None, :]).any(axis=2)] = 0.0
    j, c, a = np.meshgrid(np.arange(len(N)), np.arange(3), np.arange(4), indexing="ij")
    keep = N[j, a] != 0.0
    return sp.csr_matrix((N[j, a][keep], ((3 * j + c)[keep], (12 * group[j] + 3 * a + c)[keep])),
                         shape=(3 * len(N), 12 * len(blocks.elements)))


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
    T_Fk_T: sp.csr_matrix        # T_Fk^T, transposed once for the coarse products
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


def _pad_blocks(M, row_ptr, width, col_ptr, col_width):
    """Block-diagonal CSR M (block i: rows row_ptr[i]:row_ptr[i+1], columns from
    col_ptr[i]) with block i moved to rows width*i.. and columns col_width*i.."""
    nb = len(row_ptr) - 1
    group = np.repeat(np.arange(nb), np.diff(row_ptr))
    to = width * group + np.arange(len(group)) - row_ptr[group]
    counts = np.zeros(width * nb, dtype=np.int64)
    counts[to] = np.diff(M.indptr)
    shift = np.repeat(col_width * np.arange(nb) - col_ptr[:-1], np.diff(M.indptr[row_ptr]))
    return sp.csr_matrix((M.data, M.indices + shift, np.concatenate([[0], np.cumsum(counts)])),
                         shape=(width * nb, col_width * nb))


def stack_blocks(blocks: ElementBlocks, T_Fk, nested: NestedMesh, partition: DofPartition,
                 width: int) -> BlockStack:
    """Stack SP blocks and their T_Fk (see build_tfk) into one BlockStack."""
    nb, W, n = len(blocks.elements), width, nested.n_nodes
    node_ptr, dof_ptr = blocks.node_ptr, 3 * blocks.node_ptr
    group = np.repeat(np.arange(nb), np.diff(node_ptr))
    rows = node_dofs(W // 3 * group + np.arange(len(group)) - node_ptr[group])
    dofs = np.full(nb * W, -1, dtype=np.int64)
    dofs[rows] = node_dofs(blocks.nodes)
    B = np.zeros(nb * W)
    B[rows] = blocks.B_F
    # enriched corners in ascending node id, KMAX slots per block, k used
    tets = nested.coarse.tets[blocks.elements].reshape(-1, 4)
    enriched = np.isin(tets, partition.enriched_nodes)
    at = np.argsort(np.where(enriched, tets, n), axis=1, kind="stable")
    corner = np.take_along_axis(tets, at, axis=1)
    used = np.arange(KMAX) < enriched.sum(axis=1)[:, None]
    # the hat columns of the corners, read off T_Fk's first-component rows
    T0 = T_Fk[0::3].tocoo()
    N = np.zeros((len(group), 4))
    N[T0.row, T0.col % 12 // 3] = T0.data
    hat = np.zeros((nb * W // 3, KMAX))
    hat[rows[0::3] // 3] = np.where(used[group], np.take_along_axis(N, at[group], axis=1), 0.0)
    keys = group * n + blocks.nodes
    corner_row = np.where(used, np.searchsorted(keys, np.arange(nb)[:, None] * n + corner)
                          - node_ptr[:-1, None], 0)
    # coarse dofs: 12 classical, 3 KMAX enriched (-1 where absent) per block
    c_dofs = node_dofs(tets)
    e_dofs = np.where(np.repeat(used, 3, axis=1), 3 * partition.n_coarse_nodes + node_dofs(
        np.searchsorted(partition.enriched_nodes, corner)), -1)
    ci = partition.coarse_dof_index[c_dofs]
    ei = np.where(e_dofs >= 0, partition.coarse_dof_index[e_dofs], -1)
    # (e,e), (e,k) and (k,e) blocks row-major, as positions in the
    # (nb, 2, 12, 12) products [A_ee, A_ek^T]
    a, j = np.arange(12)[:, None], np.arange(12)
    parts = ((ei[:, :, None], ei[:, None, :], a * 12 + j),
             (ei[:, :, None], ci[:, None, :], 144 + j * 12 + a),
             (ci[:, :, None], ei[:, None, :], 144 + a * 12 + j))
    r, c, src = (np.stack([np.broadcast_to(p[m], (nb, 12, 12)) for p in parts], axis=1)
                 for m in range(3))
    src = src + 288 * np.arange(nb)[:, None, None, None]
    keep = (r >= 0) & (c >= 0)
    b_keep = ei >= 0
    T_Fk = _pad_blocks(T_Fk, dof_ptr, W, 12 * np.arange(nb + 1), 12)
    return BlockStack(
        blocks.elements, W, [cn[u].tolist() for cn, u in zip(corner, used)], blocks.ndof,
        _pad_blocks(blocks.A_FF, dof_ptr, W, dof_ptr, W), T_Fk, T_Fk.T.tocsr(),
        B, np.zeros(nb * W), np.zeros((nb, W, 3 * KMAX)), np.zeros((nb * W, KMAX)),
        hat.reshape(nb, W // 3, KMAX), corner_row, partition.ref_dirichlet[dofs].reshape(nb, W)
        & (dofs >= 0).reshape(nb, W), dofs, c_dofs.reshape(-1), e_dofs.reshape(-1),
        np.repeat(blocks.elements, keep.sum(axis=(1, 2, 3))), r[keep], c[keep], src[keep],
        np.repeat(blocks.elements, b_keep.sum(axis=1)), ei[b_keep],
        (12 * np.arange(nb)[:, None] + np.arange(12))[b_keep])


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


def coarse_constant_system(n, const, const_b):
    """The constant coarse matrix (n x n CSC) and load (n,) from flat ``(keys, rows,
    cols, vals)`` and ``(keys, idx, vals)`` triplets keyed by element id: every entry
    sums its contributions one by one in element-id order, whatever order they
    arrive in."""
    c, cb = np.argsort(const[0], kind="stable"), np.argsort(const_b[0], kind="stable")
    K = CscPattern.of(const[1][c], const[2][c], (n, n)).assemble(const[3][c])
    return K, np.bincount(const_b[1][cb], weights=const_b[2][cb], minlength=n)


@dataclass
class CoarseSystem:
    """A_gg and B_g summed onto a CSC pattern built once.

    Built from the summed constant system (see coarse_constant_system) and
    the structure of the enrichment parts, ``(keys, rows, cols)`` and
    ``(keys, idx)`` in the order their values reach ``build``.  Keys are
    element ids: every entry adds the enrichment contributions one by one in
    element-id order after its constant part.
    """

    pattern: CscPattern
    const_vals: np.ndarray       # summed constant entries, first in the pattern's list
    order: np.ndarray            # arrival -> element order of the enrichment values
    b_slot: np.ndarray
    b_const: np.ndarray
    b_order: np.ndarray

    @classmethod
    def of(cls, K, b, enrich, enrich_b):
        n = len(b)
        K = K.tocoo()
        order, b_order = np.argsort(enrich[0], kind="stable"), np.argsort(enrich_b[0], kind="stable")
        pattern = CscPattern.of(np.concatenate([K.row, enrich[1][order]]),
                                np.concatenate([K.col, enrich[2][order]]), (n, n))
        return cls(pattern, K.data, order, np.concatenate([np.arange(n), enrich_b[1][b_order]]),
                   b, b_order)

    def build(self, vals, b_vals):
        """A_gg, B_g with the enrichment values in arrival order."""
        A = self.pattern.assemble(np.concatenate([self.const_vals, vals[self.order]]))
        B = np.bincount(self.b_slot, weights=np.concatenate([self.b_const, b_vals[self.b_order]]))
        return A, B


def _dense_triplets(elements, M, dofs, B, partition):
    """Free-index triplets of dense square blocks M (k,m,m) at dofs (k,m), and of loads B (k,m).

    Flat (keys, rows, cols, vals) and (keys, idx, vals), block by block,
    each row-major; pairs with a Dirichlet row or column are dropped.
    """
    idx = partition.coarse_dof_index[dofs]
    rr = np.broadcast_to(idx[:, :, None], M.shape)
    cc = np.broadcast_to(idx[:, None, :], M.shape)
    keep, kb = (rr >= 0) & (cc >= 0), idx >= 0
    return ((np.repeat(elements, keep.sum(axis=(1, 2))), rr[keep], cc[keep], M[keep]),
            (np.repeat(elements, kb.sum(axis=1)), idx[kb], B[kb]))


def coarse_triplets_constant(blocks: ElementBlocks, T_Fk, nested, partition):
    """A_kk = T_Fk^T A_FF T_Fk and B_k = T_Fk^T B_F of SP blocks, free-indexed; per block
    the sparse A_FF T_Fk is made dense and multiplied by the sparse T_Fk^T."""
    nb = len(blocks.elements)
    AT = blocks.A_FF @ T_Fk
    AT = sp.csr_matrix((AT.data, AT.indices % 12, AT.indptr), shape=(AT.shape[0], 12)).toarray()
    return _dense_triplets(blocks.elements, (T_Fk.T @ AT).reshape(nb, 12, 12),
                           node_dofs(nested.coarse.tets[blocks.elements].reshape(-1, 4)),
                           (T_Fk.T @ blocks.B_F).reshape(nb, 12), partition)


def nsp_triplets(nsp: NspBlocks, partition):
    """Coarse stiffness of a set of NSP elements at classical free positions."""
    return _dense_triplets(nsp.elements, nsp.K, node_dofs(nsp.nodes), nsp.B, partition)


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
    prod = np.stack([Tt @ AT.reshape(nb, W, m), (stack.T_Fk_T @ AT).reshape(nb, 12, m)], axis=1)
    be = Tt @ stack.B.reshape(nb, W, 1)
    return prod.ravel()[stack.e_src], be.ravel()[stack.b_src]
