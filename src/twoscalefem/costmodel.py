"""Analytic flop model for octree-refined cube discretizations.

Counts are expressed through an effective dimension n_f = sqrt(SR * n^2)
that maps dense factorization/solve estimates to sparse ones via the
sparse-ratio parameter SR in (0, 1].  A forward or backward triangular
sweep is counted as 2*n_f^2 flops, so one solve (both sweeps) costs
4*n_f^2.  The full-rank reference re-solves once per iteration, which
keeps it constant along iso-target-level curves.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

__all__ = [
    "CostParams",
    "nb_dof",
    "count_fact",
    "count_bf",
    "count_resolv",
    "cost_coarse",
    "patch_counts",
    "patch_dofs",
    "cost_1_patch",
    "cost_patch",
    "cost_ts",
    "cost_full_rank",
    "ts_ratio",
    "optimal_coarse_level",
    "sweep_csv",
]


@dataclass(frozen=True)
class CostParams:
    """Parameter bundle for a two-scale cost evaluation."""

    L: int
    L_c: int
    N_l: int = 30
    SR_c: float = 0.017
    SR_p: float = 0.017

    def __post_init__(self):
        if not 0 <= self.L_c <= self.L:
            raise ValueError(f"need 0 <= L_c <= L, got L_c={self.L_c}, L={self.L}")
        if self.N_l < 1:
            raise ValueError("N_l must be >= 1")
        for sr in (self.SR_c, self.SR_p):
            if not 0.0 < sr <= 1.0:
                raise ValueError("sparse ratios must lie in (0, 1]")


def nb_dof(L: int) -> int:
    """Classical dof count of the level-L octree cube: 3*(2^L + 1)^3."""
    return 3 * (2**L + 1) ** 3


def _n_f(n: float, SR: float) -> float:
    return math.sqrt(SR * n * n)


def count_fact(n: float, SR: float) -> float:
    """Factorization flops at effective dimension n_f."""
    return _n_f(n, SR) ** 3


def count_bf(n: float, SR: float) -> float:
    """Backward plus forward substitution flops (2*n_f^2 per sweep)."""
    return 4.0 * _n_f(n, SR) ** 2


def count_resolv(n: float, SR: float) -> float:
    """One factorization followed by one backward/forward solve."""
    return count_fact(n, SR) + count_bf(n, SR)


def cost_coarse(L_c: int, N_l: int, SR_c: float) -> float:
    """Coarse enriched problem cost: N_l resolves at doubled dof count.

    Enrichment doubles the coarse dof count and the matrix changes every
    iteration, so each iteration pays a full factorization plus solve.
    """
    return N_l * count_resolv(2 * nb_dof(L_c), SR_c)


def patch_counts(L_c: int) -> dict[str, int]:
    """Number of corner/edge/face/volume patches of the level-L_c cube."""
    t = 2**L_c - 1
    return {"corner": 8, "edge": 12 * t, "face": 6 * t * t, "vol": t * t * t}


def patch_dofs(L_c: int, L: int) -> dict[str, int]:
    """Dof counts of the four patch types for coarse level L_c, target L."""
    s = 2 ** (L - L_c) + 1
    return {
        "corner": 3 * s**3,
        "edge": 3 * (2 * s**3 - s**2),
        "face": 3 * (4 * s**3 - 4 * s**2 + s),
        "vol": 3 * (8 * s**3 - 12 * s**2 + 6 * s - 1),
    }


def cost_1_patch(N_d: int, N_l: int, SR_p: float) -> float:
    """One patch: a single factorization, then one solve per iteration."""
    return count_fact(N_d, SR_p) + N_l * count_bf(N_d, SR_p)


def cost_patch(L_c: int, L: int, N_l: int, SR_p: float) -> float:
    """Total fine-scale patch cost over all four patch types."""
    counts = patch_counts(L_c)
    dofs = patch_dofs(L_c, L)
    return sum(counts[k] * cost_1_patch(dofs[k], N_l, SR_p) for k in counts)


def cost_ts(L_c: int, L: int, N_l: int, SR_c: float, SR_p: float) -> float:
    """Two-scale solver cost: patches plus coarse problem."""
    return cost_patch(L_c, L, N_l, SR_p) + cost_coarse(L_c, N_l, SR_c)


def cost_full_rank(L: int, N_l: int, SR: float) -> float:
    """Full-rank reference: one resolve per iteration at the target size."""
    return N_l * count_resolv(nb_dof(L), SR)


def ts_ratio(L_c: int, L: int, N_l: int, SR_c: float, SR_p: float) -> float:
    """Full-rank over two-scale flop ratio (> 1 favours the TS solver)."""
    return cost_full_rank(L, N_l, SR_c) / cost_ts(L_c, L, N_l, SR_c, SR_p)


def optimal_coarse_level(
    L: int, N_l: int = 30, SR_c: float = 0.017, SR_p: float = 0.017
) -> tuple[int, bool]:
    """argmin over L_c in [0, L] of cost_ts; reports whether L - L_c* == 3."""
    costs = [cost_ts(L_c, L, N_l, SR_c, SR_p) for L_c in range(L + 1)]
    best = min(range(L + 1), key=costs.__getitem__)
    return best, (L - best == 3)


def sweep_csv(
    L_range=range(2, 9), N_l: int = 30, SR_c: float = 0.017, SR_p: float = 0.017
) -> str:
    """CSV grid (L, L_c) -> cost_ts, full-rank cost, ratio, for Figure-4 style plots."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["L", "L_c", "cost_ts", "cost_full_rank", "ratio"])
    for L in L_range:
        fr = cost_full_rank(L, N_l, SR_c)
        for L_c in range(L + 1):
            ts = cost_ts(L_c, L, N_l, SR_c, SR_p)
            w.writerow([L, L_c, f"{ts:.6e}", f"{fr:.6e}", f"{fr / ts:.6f}"])
    return buf.getvalue()
