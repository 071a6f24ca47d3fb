import numpy as np
import pytest
import scipy.sparse as sp

from twoscalefem import sparsela
from twoscalefem.sparsela import (
    DENSE_MAX,
    SHIFT,
    SingularMatrixError,
    factorize,
    pcg,
    refine,
    schur_product,
    shifted,
    solve,
)

BIG = DENSE_MAX + 20  # a size the dense kernel leaves to SuperLU


def random_spd(n, seed, density=0.08):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=density, random_state=np.random.RandomState(seed))
    A = (A + A.T).tocsr()
    return (A + sp.eye(n) * (abs(A).sum(axis=1).max() + 1.0)).tocsc()


def kind_of(n):
    return "dense" if n <= DENSE_MAX else "superlu"


def test_identity_factor():
    for n in (5, BIG):
        F = factorize(sp.eye(n).tocsc())
        assert F.kind == kind_of(n)
        assert np.allclose(F.d, 1.0)
        assert F.L.nnz == n  # unit diagonal only
        assert np.allclose(solve(F, np.arange(n, dtype=float)), np.arange(n))


def test_hand_2x2():
    # the 2x2 alone, and padded with an identity block past DENSE_MAX
    for pad in (0, BIG - 2):
        A = sp.block_diag([np.array([[4.0, 2.0], [2.0, 3.0]]), sp.eye(pad)]).toarray()
        F = factorize(A, ordering="natural")
        assert F.kind == kind_of(len(A))
        # hand elimination: D = diag(4, 2), L21 = 0.5
        assert np.array_equal(F.perm, np.arange(len(A)))
        assert np.allclose(F.d[:2], [4.0, 2.0])
        assert F.L.toarray()[1, 0] == pytest.approx(0.5)
        # default ordering still reconstructs A
        G = factorize(A)
        P = np.eye(len(A))[G.perm]
        assert np.allclose(P @ A @ P.T, G.L.toarray() @ np.diag(G.d) @ G.L.toarray().T)


def test_reconstruction_spot_check():
    for n, seed in [(20, 0), (80, 1), (200, 2), (BIG, 3)]:
        A = random_spd(n, seed)
        F = factorize(A)
        assert F.kind == kind_of(n)
        rec = A[F.perm, :][:, F.perm] - F.L @ sp.diags(F.d) @ F.L.T
        assert abs(rec).max() <= 1e-10 * abs(A).max()


def test_spd_matrix_gets_the_dense_kernel():
    A = random_spd(50, 4)
    F = factorize(A)
    assert F.kind == "dense" and F._L is None  # L is built on first access
    assert np.array_equal(F.perm, np.arange(50)) and (F.d > 0).all()
    assert np.allclose(F.L.diagonal(), 1.0) and F.L.nnz == F.nnz_L
    # an integer matrix is factored in floating point and left as it was
    A = sp.csc_matrix(np.array([[4, 2], [2, 3]]))
    assert np.allclose(factorize(A).d, [4.0, 2.0]) and A.dtype.kind == "i"


def test_singular_2x2_is_refused():
    with pytest.raises(SingularMatrixError):
        factorize(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_indefinite_matrix_goes_to_superlu():
    F = factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert F.kind == "superlu"
    assert np.array_equal(F.perm, [1, 0]) and np.array_equal(F.d, [1.0, -3.0])


def test_kernels_agree_at_dense_max(monkeypatch):
    A = random_spd(DENSE_MAX, 12, density=0.05)
    rng = np.random.default_rng(12)
    b, B = rng.normal(size=DENSE_MAX), sp.random(DENSE_MAX, 40, density=0.1, random_state=12)
    dense = factorize(A)
    monkeypatch.setattr(sparsela, "DENSE_MAX", 0)
    lu = factorize(A)
    assert (dense.kind, lu.kind) == ("dense", "superlu")
    for got, ref in ((solve(dense, b), solve(lu, b)),
                     (schur_product(dense, B.T, B), schur_product(lu, B.T, B))):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_residual_on_random_spd():
    A = random_spd(50, 3)
    b = np.random.default_rng(3).normal(size=50)
    F = factorize(A)
    x = solve(F, b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_dense_gaussian_elimination_oracle():
    for seed in range(6):
        n = 10 * (seed + 2)
        A = random_spd(n, seed)
        b = np.random.default_rng(seed).normal(size=n)
        x = solve(factorize(A), b)
        x_ref = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)


def test_singularity_reports_dof():
    A = sp.diags([1.0, 1.0, 0.0, 1.0]).tocsc()
    with pytest.raises(SingularMatrixError):
        factorize(A)


@pytest.mark.parametrize("ordering", ["natural", "mmd"])
def test_exact_zero_pivot_is_solved_shifted_and_refined(ordering):
    # eliminating dof 0 leaves an exactly zero pivot on dof 1 with a round-off
    # entry below it: in natural order SuperLU would pivot on it off the
    # diagonal, in minimum-degree order dof 1 comes last with nothing left
    # to pivot on and SuperLU reports a singular factor
    d = 1e-17
    A = sp.csc_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, d], [0.0, d, 1.0]]))
    with pytest.raises(SingularMatrixError) as exc:
        factorize(A, ordering=ordering)
    assert exc.value.dof == {"natural": 1, "mmd": -1}[ordering]  # -1: SuperLU names none
    F = factorize(shifted(A), ordering=ordering)
    for x_true in ([1.0, 0.0, 2.0], [1.0, 2.0, 3.0]):
        b = A @ np.array(x_true)
        x, steps = refine(F, A, b, solve(F, b))
        assert steps >= 1
        assert np.linalg.norm(A @ x - b) <= 1e-15 * np.linalg.norm(b)


def test_shifted_puts_one_on_empty_rows():
    A = sp.csc_matrix(np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(shifted(A).diagonal(), [2.0 * (1.0 + SHIFT), 1.0])


def test_flop_counters_deterministic():
    for n in (60, BIG):
        A = random_spd(n, 7)
        F1 = factorize(A)
        F2 = factorize(A)
        assert F1.kind == kind_of(n)
        assert F1.factor_flops == F2.factor_flops > 0
        b = np.ones(n)
        solve(F1, b)
        solve(F1, b)
        assert F1.solve_flops == 2 * (2 * F1.L.nnz + F1.n)
        assert isinstance(F1.factor_flops, int)


def test_flop_counters_match_explicit_factor():
    # the counters come from the equilibrated factor (SuperLU's or the dense
    # triangle); they must equal the formulas on the unscaled L, which is
    # only built on access
    for n in (70, BIG):
        A = random_spd(n, 11)
        Z = A.tocsc(copy=True)
        Z.data[np.flatnonzero(Z.indices != np.repeat(np.arange(n), np.diff(Z.indptr)))[::3]] = 0.0
        assert (Z.data == 0.0).any()  # explicit stored zeros
        for M in (A, Z):
            F = factorize(M)
            assert F.kind == kind_of(n)
            assert F._L is None
            col_nnz = np.diff(F.L.indptr).astype(np.int64)
            assert F.factor_flops == int(np.sum(col_nnz ** 2))
            solve(F, np.ones(n))
            solve(F, np.ones((n, 3)))
            assert F.solve_flops == 4 * (2 * F.L.nnz + F.n)
            if F.kind == "dense":  # a half solve counts one triangle
                solve(F, np.ones((n, 2)), half=True)
                assert F.solve_flops == 4 * (2 * F.L.nnz + F.n) + 2 * F.L.nnz


def test_pcg_zero_rhs():
    A = sp.eye(4).tocsc()
    x, rep = pcg(np.zeros(4), lambda v: A @ v, np.zeros(4), lambda v: v, 1e-8)
    assert rep.iterations == 0 and rep.converged
    assert np.allclose(x, 0.0)


def test_pcg_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, rep = pcg(np.zeros(3), lambda v: v, b, lambda v: v, 1e-10)
    assert rep.converged
    assert rep.iterations <= 1
    assert np.allclose(x, b)


def test_pcg_warm_start_single_body():
    A = random_spd(40, 11)
    b = np.random.default_rng(11).normal(size=40)
    x_exact = solve(factorize(A), b)
    x, rep = pcg(x_exact, lambda v: A @ v, b, lambda v: v, 1e-7)
    assert rep.loop_bodies == 1
    assert rep.converged
    assert np.allclose(x, x_exact)


def test_pcg_exact_preconditioner_two_iterations():
    for seed in (0, 5, 9):
        A = random_spd(30, seed)
        F = factorize(A)
        b = np.random.default_rng(seed).normal(size=30)
        x, rep = pcg(np.zeros(30), lambda v: A @ v, b, lambda v: solve(F, v), 1e-9)
        assert rep.converged
        assert rep.iterations <= 2
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_pcg_iter_max_reports_nonconverged():
    A = random_spd(60, 13, density=0.2)
    b = np.ones(60)
    x, rep = pcg(np.zeros(60), lambda v: A @ v, b, lambda v: v, 1e-14, iter_max=2)
    assert not rep.converged
    assert rep.crit > 1e-14
