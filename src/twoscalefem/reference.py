"""Monolithic assembly of the reference system and its direct solution.

This is the oracle side of the two-scale solver: the union mesh (refined
SP plus untouched coarse elements) assembled in one piece, hanging
relations eliminated, Dirichlet rows dropped (prescribed values are zero)
and solved by the sparse direct factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elasticity import (
    LoadSet,
    Material,
    batch_leaf_stiffness,
    expand,
    fold_stiffness,
    leaf_matrix,
    leaf_passes,
    nodal_loads,
    reference_fold,
)
from .mesh import DofPartition, NestedMesh
from .sparsela import factorize

__all__ = ["ReferenceSystem", "assemble_reference", "solve_reference"]


@dataclass
class ReferenceSystem:
    """Reduced reference operator A_rr, right-hand side B_r and index maps."""

    A_rr: sp.csc_matrix
    B_r: np.ndarray
    partition: DofPartition
    f_row_mask: np.ndarray   # rows of r belonging to the f-set
    nested: NestedMesh

    def norm_B(self) -> float:
        return float(np.linalg.norm(self.B_r))

    def residual(self, u_r: np.ndarray) -> float:
        """Relative f-row residual of the reference system (Eq. of resi)."""
        res = self.A_rr @ u_r - self.B_r
        return float(np.linalg.norm(res[self.f_row_mask]) / np.linalg.norm(self.B_r))

    def expand(self, u_r: np.ndarray) -> np.ndarray:
        """Full nodal field (n_nodes, 3) with hanging and Dirichlet values filled."""
        return expand(self.nested, self.partition, u_r)


def assemble_reference(
    nested: NestedMesh,
    partition: DofPartition,
    material: Material,
    loads: LoadSet,
    elements=None,
) -> ReferenceSystem:
    """A_rr = W^T A_RR W and B_r = W^T B_R with W the fold onto the free dofs.

    A_RR and B_R sum the leaves of the macro elements (all by default) with
    the element blocks' fold, A_RR in the assembly passes (leaf_passes):
    the passes' shared entries are added once at the end, so the pass size
    moves A_rr by round-off only and B_r not at all.
    """
    elements = np.arange(nested.coarse.n_elements) if elements is None else elements
    leaves = np.concatenate([nested.micro[e] for e in elements])
    B = nodal_loads(nested, loads, nested.n_nodes, leaves, leaves, elements, lambda g, tris: tris)
    W = reference_fold(nested, partition)
    A_rr = fold_stiffness(W, (
        leaf_matrix(leaves[s], batch_leaf_stiffness(nested.points, leaves[s], material)[0],
                    nested.n_nodes) for s in leaf_passes(nested, elements))).tocsc()
    A_rr.sum_duplicates()

    f_mask = np.isin(partition.free_ref_dofs // 3, partition.f_nodes)
    return ReferenceSystem(A_rr, W.T @ B, partition, f_mask, nested)


def solve_reference(system: ReferenceSystem):
    F = factorize(system.A_rr)
    u_r = F.solve(system.B_r)
    return u_r, F
