"""LDL^T factorization, triangular solves and preconditioned CG.

Both kernels factor the diagonally equilibrated matrix.  A matrix of at
most DENSE_MAX dofs is factored by LAPACK Cholesky (dpotrf, solved with
dpotrs) in its own dof order; the factor is kept when every pivot is above
PIVOT_RTOL.  Every other matrix, larger or not positive definite, goes to
SuperLU in symmetric mode with a minimum-degree ordering, whose unit-lower
factor, diagonal and symmetric permutation are extracted so that perm
applied to A reproduces L*D*L^T.  SuperLU's fixed cost per call (ordering,
symbolic set-up, building L and U) outweighs the arithmetic of small
systems: on a 2-vCPU Xeon with one BLAS thread, a 156-dof coarse matrix
takes 0.94 ms against 0.25 ms for dpotrf, 684 dofs 6.2 against 5.9 ms,
804 dofs 6.0 against 9.5 ms and 3285 dofs 109 against 511 ms, hence the
cut at 300.  schur_product forms A_bI A^-1 A_Ib with the kernel that fits
the factor.

Flop counters are integers derived from the factor sparsity, identical
across runs: factor_flops is the sum of the squared nonzero counts of the
factor's columns, SuperLU's sparse factor or the dense Cholesky triangle
(its zeros left out), and a solve counts 2 nnz(L) + n per column.

A singular matrix is refused.  A caller that may meet a positive
semi-definite one (the GFEM coarse matrix: shifted enrichment vanishes at
the coarse vertices) factorizes ``shifted(A) = A + SHIFT diag(A)`` instead
and, where it needs an accurate solution, refines it against A with
``refine`` (Strouboulis, Babuska & Copps, CMAME 181 (2000) 43-69).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

__all__ = ["Factor", "CgReport", "CscPattern", "SingularMatrixError", "factorize", "solve",
           "schur_product", "shifted", "refine", "pcg"]

DENSE_MAX = 300     # largest matrix factored by dense Cholesky
PIVOT_RTOL = 1e-14  # smallest pivot magnitude accepted, in equilibrated units
SHIFT = 1e-10       # relative diagonal shift of a semi-definite matrix (see shifted)
REFINE_RTOL = 1e-15  # refine stops once ||b - A x|| <= REFINE_RTOL ||b||


class SingularMatrixError(RuntimeError):
    """Raised on a zero or tiny pivot; carries the offending dof (-1 if unknown)."""

    def __init__(self, dof: int, pivot: float):
        self.dof = dof
        self.pivot = pivot
        super().__init__(f"singular pivot {pivot:.3e} at dof {dof}")


@dataclass
class Factor:
    """LDL^T factorization with its fill-reducing permutation and flop counters.

    The unscaled unit-lower factor ``L`` is built on first access: solves
    and flop counts only need the equilibrated factor, SuperLU's or the
    dense Cholesky triangle (then perm is the identity).
    """

    n: int
    perm: np.ndarray  # A[perm][:, perm] == L @ diag(d) @ L.T
    d: np.ndarray
    factor_flops: int
    solve_flops: int = 0
    nnz_L: int = 0    # nonzeros of L, unit diagonal included
    _lu: object = field(default=None, repr=False)
    _scale: np.ndarray = field(default=None, repr=False)  # 1/s of A = S A' S
    _s_p: np.ndarray = field(default=None, repr=False)
    _L: sp.csc_matrix = field(default=None, repr=False)
    _chol: np.ndarray = field(default=None, repr=False)  # dense Cholesky triangle of A'

    @property
    def kind(self) -> str:
        return "dense" if self._chol is not None else "superlu"

    @property
    def L(self) -> sp.csc_matrix:
        if self._L is None:
            # A[perm][:, perm] = diag(s_p) L' D' L'^T diag(s_p): L = S_p L' S_p^-1
            Lp = (self._lu.L if self._chol is None
                  else sp.csc_matrix(self._chol / np.diagonal(self._chol)))
            self._L = (sp.diags(self._s_p) @ Lp @ sp.diags(1.0 / self._s_p)).tocsc()
        return self._L

    def solve(self, b: np.ndarray) -> np.ndarray:
        return solve(self, b)


def factorize(A, ordering: str = "mmd") -> Factor:
    """Factorize a symmetric matrix into P A P^T = L D L^T.

    Accepts a scipy sparse matrix or a dense array.  A positive definite
    matrix of at most DENSE_MAX dofs gets a dense Cholesky factor; any
    other goes to SuperLU, whose fill-reducing ordering is minimum degree by
    default; ``ordering="natural"`` keeps the given dof order (useful to
    inspect the raw elimination).  A singular matrix raises
    SingularMatrixError: SuperLU finds no pivot, an exactly zero pivot makes
    it leave the diagonal, or a pivot falls to PIVOT_RTOL or below (in
    diagonally equilibrated units).
    """
    n = A.shape[0]
    if n == 0:
        return Factor(0, np.zeros(0, int), np.zeros(0), 0, _L=sp.csc_matrix((0, 0)))
    if n <= DENSE_MAX:
        M = A.toarray() if sp.issparse(A) else np.array(A)  # a copy, overwritten
        F = _cholesky(M.astype(np.float64, copy=False))
        if F is not None:
            return F
    if not sp.issparse(A):
        A = sp.csc_matrix(np.asarray(A, dtype=np.float64))
    As = sp.csc_matrix(A, dtype=np.float64, copy=True)
    # symmetric diagonal equilibration: dof scales may legitimately span many
    # orders (enrichment dofs live at displacement-squared scale), and the
    # unpivoted elimination needs balanced magnitudes.  The unscaled factors
    # are recovered exactly: L = S L' S^-1, D = s^2 D'.
    As.sum_duplicates()
    s = np.sqrt(np.abs(As.diagonal()))
    s[s == 0.0] = 1.0
    sinv = 1.0 / s
    As.data = (sinv[As.indices] * As.data) * np.repeat(sinv, np.diff(As.indptr))
    As.eliminate_zeros()
    spec = {"mmd": "MMD_AT_PLUS_A", "natural": "NATURAL"}[ordering]
    try:
        lu = _splu(As, spec)
    except RuntimeError as exc:
        raise SingularMatrixError(-1, 0.0) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        row_at, col_at = np.argsort(lu.perm_r), np.argsort(lu.perm_c)
        j = int(col_at[np.argmax(row_at != col_at)])
        raise SingularMatrixError(j, 0.0)  # a zero diagonal pivot made SuperLU leave it
    ds = lu.U.diagonal().copy()
    inv = np.empty(n, dtype=np.int64)
    inv[lu.perm_r] = np.arange(n)
    # scaled diagonals are +-1 (or 0): pivots must stay above rtol of that
    bad = np.nonzero(np.abs(ds) <= PIVOT_RTOL)[0]
    if bad.size:
        k = int(bad[0])
        raise SingularMatrixError(int(lu.perm_r[k]), float(ds[k]))
    s_p = s[inv]
    # column-wise outer-product count: one multiply-add pair per L entry pair;
    # the scaling S_p keeps L's nonzeros where SuperLU's factor has them
    Lsc = lu.L
    col_nnz = np.diff(Lsc.indptr)
    if not Lsc.data.all():
        col_nnz = np.bincount(np.repeat(np.arange(n), col_nnz)[Lsc.data != 0], minlength=n)
    factor_flops = int(np.sum(col_nnz.astype(np.int64) ** 2))
    return Factor(n, inv, ds * s_p * s_p, factor_flops, 0, int(col_nnz.sum()), lu, sinv, s_p)


def _cholesky(M):
    """Dense Cholesky Factor of the equilibrated M (overwritten), None unless every
    pivot is above PIVOT_RTOL."""
    s = np.sqrt(np.abs(np.diagonal(M)))
    s[s == 0.0] = 1.0
    sinv = 1.0 / s
    M *= sinv[:, None]
    M *= sinv
    C, info = lapack.dpotrf(M, lower=1, clean=1, overwrite_a=1)
    piv = np.diagonal(C) ** 2
    if info != 0 or not (piv > PIVOT_RTOL).all():
        return None
    col_nnz = np.count_nonzero(C, axis=0).astype(np.int64)
    return Factor(len(s), np.arange(len(s)), piv * s * s, int(np.sum(col_nnz ** 2)), 0,
                  int(col_nnz.sum()), _scale=sinv, _s_p=s, _chol=C)


def shifted(A) -> sp.csc_matrix:
    """A + SHIFT * diag(A), with 1 on a zero diagonal (an empty row of a semi-definite A)."""
    A = sp.csc_matrix(A, dtype=np.float64)
    d = A.diagonal()
    return (A + sp.diags(np.where(d == 0.0, 1.0, SHIFT * d))).tocsc()


def refine(F: Factor, A, b: np.ndarray, x: np.ndarray):
    """Iterative refinement x <- x + F^-1 (b - A x) against A.

    Steps are taken while they lower the residual and it is above
    REFINE_RTOL * ||b||.  Returns (x, steps).
    """
    stop = REFINE_RTOL * np.linalg.norm(b)
    r, steps = b - A @ x, 0
    while np.linalg.norm(r) > stop:
        x_new = x + solve(F, r)
        r_new = b - A @ x_new
        if np.linalg.norm(r_new) >= np.linalg.norm(r):
            break
        x, r, steps = x_new, r_new, steps + 1
    return x, steps


@dataclass
class CscPattern:
    """CSC structure of a triplet list, built once; triplet i adds to data[slot[i]]."""

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray

    @classmethod
    def of(cls, rows, cols, shape):
        key, slot = np.unique(np.asarray(cols, dtype=np.int64) * shape[0] + rows,
                              return_inverse=True)
        counts = np.bincount(key // shape[0], minlength=shape[1])
        return cls(shape, np.concatenate([[0], np.cumsum(counts)]), key % shape[0], slot)

    def assemble(self, vals) -> sp.csc_matrix:
        """Sum the triplet values onto the pattern, one by one in list order."""
        assert len(vals) == len(self.slot), "triplet structure changed"
        data = np.bincount(self.slot, weights=vals, minlength=len(self.indices))
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


def _splu(As, spec):
    """SuperLU in symmetric mode: diagonal pivots, elimination order = ordering."""
    return splu(As, diag_pivot_thresh=0.0, permc_spec=spec, options=dict(SymmetricMode=True))


def solve(F: Factor, b: np.ndarray, half: bool = False) -> np.ndarray:
    """Forward/backward substitution; counts 2*nnz(L) + n flops per column.

    half (dense factor only) stops after the forward substitution and
    returns W = L'^-1 S^-1 b, so that b^T A^-1 b = W^T W; it counts nnz(L)
    flops per column.
    """
    b = np.asarray(b, dtype=np.float64)
    if F.n == 0:
        return np.zeros_like(b)
    ncols = 1 if b.ndim == 1 else b.shape[1]
    F.solve_flops += (F.nnz_L if half else 2 * F.nnz_L + F.n) * ncols
    sinv = F._scale if b.ndim == 1 else F._scale[:, None]
    if F._chol is None:
        assert not half, "a half solve needs a dense Cholesky factor"
        return sinv * F._lu.solve(sinv * b)
    if half:
        return lapack.dtrtrs(F._chol, sinv * b, lower=1)[0]
    return sinv * lapack.dpotrs(F._chol, sinv * b, lower=1)[0]


def schur_product(F: Factor, A_bI, A_Ib) -> np.ndarray:
    """A_bI A^-1 A_Ib (A_Ib sparse) as a dense array, F the factor of the symmetric A
    (A_bI = A_Ib^T).

    A dense Cholesky factor gives W^T W with W = L'^-1 S^-1 A_Ib from one
    triangular solve, a BLAS-3 product that is symmetric by construction;
    a SuperLU factor gives A_bI (F^-1 A_Ib).
    """
    B = A_Ib.toarray()
    if F._chol is None:
        return A_bI @ solve(F, B)
    W = solve(F, B, half=True)
    return W.T @ W


@dataclass
class CgReport:
    iterations: int
    crit: float
    converged: bool
    loop_bodies: int = 0


def pcg(x0, apply_a, b, apply_m, eps, iter_max=1000, dot=None):
    """Preconditioned conjugate gradient with the literal stop rule.

    The stopping threshold is computed from the assembled right-hand side
    before the initial residual update (stop = (b.b) * eps^2), so a warm
    start measures progress against the full load, not the warm residual.
    ``dot`` may be supplied to evaluate scalar products across ranks; the
    three dots per iteration are the only synchronization points.

    Returns (x, CgReport); report.converged iff crit <= eps.
    """
    if dot is None:
        dot = lambda u, v: float(np.dot(u, v))
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.array(b, dtype=np.float64, copy=True)
    stop = dot(r, r) * eps * eps
    if stop == 0.0:
        return np.zeros_like(x), CgReport(0, 0.0, True, 0)
    r -= apply_a(x)
    z = apply_m(r)
    res_o = dot(r, z)
    p = z.copy()
    iters = 0
    bodies = 0
    crit2 = dot(r, r)
    alt = False
    while True:
        bodies += 1
        res_n = res_o
        sp_vec = apply_a(p)
        den = dot(p, sp_vec)
        if den == 0.0:  # exact-zero search direction: nothing left to correct
            crit2 = dot(r, r)
            alt = True
        else:
            alpha = res_n / den
            x += alpha * p
            r -= alpha * sp_vec
            crit2 = dot(r, r)
            if crit2 >= stop:
                z = apply_m(r)
                res_o = dot(r, z)
                beta = res_o / res_n
                p = z + beta * p
                iters += 1
            else:
                alt = True
        if alt or iters > iter_max:
            break
    crit = eps * np.sqrt(crit2 / stop)
    return x, CgReport(iters, float(crit), bool(crit2 < stop), bodies)
