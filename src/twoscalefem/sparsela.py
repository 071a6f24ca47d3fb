"""Sparse LDL^T factorization, triangular solves and preconditioned CG.

The factorization is delegated to SuperLU in symmetric mode with a
minimum-degree ordering; the unit-lower factor, diagonal and symmetric
permutation are extracted so that perm applied to A reproduces L*D*L^T.
Flop counters are integers derived from the factor sparsity, identical
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

__all__ = ["Factor", "CgReport", "CscPattern", "SingularMatrixError", "factorize", "solve", "pcg"]

PIVOT_RTOL = 1e-14  # smallest pivot magnitude accepted, in equilibrated units


class SingularMatrixError(RuntimeError):
    """Raised when a pivot falls below tolerance; carries the offending dof."""

    def __init__(self, dof: int, pivot: float):
        self.dof = dof
        self.pivot = pivot
        super().__init__(f"singular pivot {pivot:.3e} at dof {dof}")


@dataclass
class Factor:
    """LDL^T factorization with its fill-reducing permutation and flop counters.

    The unscaled unit-lower factor ``L`` is built on first access: solves
    and flop counts only need SuperLU's equilibrated factor.
    """

    n: int
    perm: np.ndarray  # A[perm][:, perm] == L @ diag(d) @ L.T
    d: np.ndarray
    factor_flops: int
    solve_flops: int = 0
    nnz_L: int = 0    # nonzeros of L, unit diagonal included
    _lu: object = field(default=None, repr=False)
    _scale: np.ndarray = field(default=None, repr=False)  # 1/s of A = S A' S
    dropped: np.ndarray = field(default=None, repr=False)  # null-pivot dofs
    _Ls: sp.csc_matrix = field(default=None, repr=False)
    _ds: np.ndarray = field(default=None, repr=False)
    _s_p: np.ndarray = field(default=None, repr=False)
    _L: sp.csc_matrix = field(default=None, repr=False)

    @property
    def L(self) -> sp.csc_matrix:
        if self._L is None:
            # A[perm][:, perm] = diag(s_p) L' D' L'^T diag(s_p): L = S_p L' S_p^-1
            self._L = (sp.diags(self._s_p) @ self._lu.L @ sp.diags(1.0 / self._s_p)).tocsc()
        return self._L

    def solve(self, b: np.ndarray) -> np.ndarray:
        return solve(self, b)


def factorize(A, ordering: str = "mmd", null_pivot: str = "error") -> Factor:
    """Factorize a symmetric matrix into P A P^T = L D L^T.

    Accepts a scipy sparse matrix or a dense array.  The
    fill-reducing ordering is minimum degree by default; ``ordering="natural"``
    keeps the given dof order (useful to inspect the raw elimination).  A
    pivot below PIVOT_RTOL (in diagonally equilibrated units) raises
    SingularMatrixError naming the dof, or, with ``null_pivot="drop"``, gets
    deflated: solves then return the solution with zero component along the
    redundant directions, which is exact for consistent right-hand sides.
    """
    if not sp.issparse(A):
        A = sp.csc_matrix(np.asarray(A, dtype=np.float64))
    As = sp.csc_matrix(A, dtype=np.float64, copy=True)
    n = As.shape[0]
    if n == 0:
        return Factor(0, np.zeros(0, int), np.zeros(0), 0, _L=sp.csc_matrix((0, 0)))
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
    empty = None
    if null_pivot == "drop":
        # structurally empty rows cannot even be factorized: pin them upfront
        nnz_col = np.diff(As.indptr)
        empty = np.nonzero((np.abs(As.diagonal()) == 0.0) & (nnz_col <= 1))[0]
        if empty.size:
            As = As + sp.coo_matrix(
                (np.ones(len(empty)), (empty, empty)), shape=As.shape).tocsc()
    spec = {"mmd": "MMD_AT_PLUS_A", "natural": "NATURAL"}[ordering]
    lifted = set()
    while True:
        # An exactly zero pivot either leaves a column with nothing left to
        # pivot on (SuperLU raises) or, with round-off below it, makes
        # SuperLU leave the diagonal.  Lifting that diagonal keeps the
        # sparsity, hence the ordering, and turns the pivot into a tiny one
        # that is deflated like any other pivot below PIVOT_RTOL.
        try:
            lu = _splu(As, spec)
        except RuntimeError as exc:
            if null_pivot != "drop":
                raise SingularMatrixError(-1, 0.0) from exc
            j = _singular_column(As, spec)
        else:
            if np.array_equal(lu.perm_r, lu.perm_c):
                break
            if null_pivot != "drop":
                raise RuntimeError("symmetric factorization produced asymmetric pivoting")
            row_at, col_at = np.argsort(lu.perm_r), np.argsort(lu.perm_c)
            j = int(col_at[np.argmax(row_at != col_at)])
        if j in lifted:
            raise SingularMatrixError(j, 0.0)
        lifted.add(j)
        As[j, j] += 0.5 * PIVOT_RTOL
    ds = lu.U.diagonal().copy()
    inv = np.empty(n, dtype=np.int64)
    inv[lu.perm_r] = np.arange(n)
    # scaled diagonals are +-1 (or 0): pivots must stay above rtol of that
    bad = np.nonzero(np.abs(ds) <= PIVOT_RTOL)[0]
    dropped = None
    if bad.size and null_pivot == "error":
        k = int(bad[0])
        raise SingularMatrixError(int(lu.perm_r[k]), float(ds[k]))
    if null_pivot == "drop":
        dropped = np.zeros(n, dtype=bool)
        dropped[bad] = True
        if empty is not None and empty.size:
            dropped[inv[empty]] = True
    s_p = s[inv]
    # column-wise outer-product count: one multiply-add pair per L entry pair;
    # the scaling S_p keeps L's nonzeros where SuperLU's factor has them
    Lsc = lu.L
    col_nnz = np.diff(Lsc.indptr)
    if not Lsc.data.all():
        col_nnz = np.bincount(np.repeat(np.arange(n), col_nnz)[Lsc.data != 0], minlength=n)
    factor_flops = int(np.sum(col_nnz.astype(np.int64) ** 2))
    F = Factor(n, inv, ds * s_p * s_p, factor_flops, 0, int(col_nnz.sum()), lu, sinv, dropped,
               _s_p=s_p)
    if dropped is not None and dropped.any():
        F._Ls = Lsc.tocsc()
        F._ds = ds
    return F


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


def _symmetric_pivots(As):
    """True when SuperLU factorizes As on its diagonal, in the given order."""
    try:
        lu = _splu(As, "NATURAL")
    except RuntimeError:
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c))


def _singular_column(As, spec):
    """Column of the first exactly zero pivot that made SuperLU raise.

    The ordering depends on the sparsity only, so a diagonally dominant
    matrix of the same pattern reveals the elimination order; bisection then
    finds the shortest leading block, in that order, that does not
    factorize on its diagonal.
    """
    S = As.copy()
    S.data[:] = -1.0
    S = (S + sp.diags(np.diff(S.indptr) + 1.0)).tocsc()
    order = np.argsort(_splu(S, spec).perm_c)
    lo, hi = 0, len(order)  # the leading block of size lo factorizes, of size hi does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _symmetric_pivots(As[order[:mid]][:, order[:mid]].tocsc()):
            lo = mid
        else:
            hi = mid
    return int(order[hi - 1])


def solve(F: Factor, b: np.ndarray) -> np.ndarray:
    """Forward/backward substitution; counts 2*nnz(L) + n flops per column."""
    b = np.asarray(b, dtype=np.float64)
    if F.n == 0:
        return np.zeros_like(b)
    ncols = 1 if b.ndim == 1 else b.shape[1]
    F.solve_flops += (2 * F.nnz_L + F.n) * ncols
    sinv = F._scale
    if F._Ls is not None:
        return _solve_deflated(F, b)
    if b.ndim == 1:
        return sinv * F._lu.solve(sinv * b)
    return sinv[:, None] * F._lu.solve(sinv[:, None] * b)


def _solve_deflated(F: Factor, b: np.ndarray) -> np.ndarray:
    """Triangular solves with null-pivot components forced to zero."""
    from scipy.sparse.linalg import spsolve_triangular

    one_d = b.ndim == 1
    bb = b[:, None] if one_d else b
    c = (F._scale[:, None] * bb)[F.perm]
    y = spsolve_triangular(F._Ls, c, lower=True, unit_diagonal=True)
    dd = F._ds.copy()
    dd[F.dropped] = 1.0
    y = y / dd[:, None]
    y[F.dropped] = 0.0
    y = spsolve_triangular(F._Ls.T.tocsr(), y, lower=False, unit_diagonal=True)
    xs = np.empty_like(y)
    xs[F.perm] = y
    x = F._scale[:, None] * xs
    return x[:, 0] if one_d else x


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
