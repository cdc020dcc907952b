import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matsqrt import linalg
from matsqrt.linalg import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SpdMatrix,
    SymmetricMatrix,
    estimate_opnorm_bound,
    frobenius_norm,
    lambda_min,
    sigma_min,
    solve,
    spectral_norm,
    sym_eig,
    symmetrize,
)


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    return (G + G.T) / 2.0


def random_pd(n, seed, shift=0.5):
    A = random_symmetric(n, seed)
    return A @ A.T + shift * np.eye(n)


# ---------------------------------------------------------------- sym_eig


def test_sym_eig_2x2_oracle():
    # [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors (1,1), (1,-1)
    dec = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert dec.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-14)
    v0 = dec.eigenvectors[:, 0]
    assert abs(abs(v0[0]) - 1 / math.sqrt(2)) < 1e-14
    assert np.allclose(dec.reconstruct(), [[2, 1], [1, 2]], atol=1e-14)


def test_sym_eig_identity():
    dec = sym_eig(np.eye(3))
    assert dec.eigenvalues == pytest.approx([1, 1, 1])


def test_sym_eig_huge_entries_still_rotate():
    # ||A||_F^2 overflows; the convergence scale must not become inf, which
    # would return the diagonal 1e200 (1, 1) as the eigenvalues
    A = 1e200 * np.array([[1.0, 0.5], [0.5, 1.0]])
    w = sym_eig(A).eigenvalues
    assert w == pytest.approx([1.5e200, 0.5e200], rel=1e-14)


def test_sym_eig_1x1():
    dec = sym_eig(np.array([[-5.0]]))
    assert dec.eigenvalues[0] == -5.0
    assert dec.eigenvectors[0, 0] == 1.0


@given(st.integers(0, 500), st.integers(1, 12))
def test_sym_eig_reconstructs(seed, n):
    A = random_symmetric(n, seed)
    dec = sym_eig(A)
    scale = max(frobenius_norm(A), 1.0)
    assert frobenius_norm(dec.reconstruct() - A) <= 1e-10 * scale
    # eigenvalues sorted descending
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    # eigenvectors orthonormal
    V = dec.eigenvectors
    assert frobenius_norm(V.T @ V - np.eye(n)) <= 1e-12 * n


@given(st.integers(0, 500), st.integers(1, 10))
def test_sym_eig_matches_reference_eigvalsh(seed, n):
    A = random_symmetric(n, seed)
    w = sym_eig(A).eigenvalues
    ref = np.linalg.eigvalsh(A)[::-1]
    scale = max(np.max(np.abs(ref)), 1.0)
    assert np.max(np.abs(w - ref)) <= 1e-10 * scale


def test_spectral_extremes_agrees_with_jacobi():
    for seed in range(20):
        A = random_symmetric(6, seed)
        lam_min, smin, opnorm = linalg.spectral_extremes(A)
        assert lam_min == pytest.approx(lambda_min(A), abs=1e-11)
        assert smin == pytest.approx(sigma_min(A), abs=1e-11)
        assert opnorm == pytest.approx(spectral_norm(A), abs=1e-11)


@pytest.mark.parametrize("n", [1, 2, 4, 16, 17, 64])
def test_spectral_extremes_of_a_stack_are_the_single_calls_bitwise(n):
    # members 0 and 2 are positive definite, member 1 is indefinite (the
    # min |w| branch of sigma_min), and member 3 is negative definite
    rng = np.random.default_rng(n)
    G = rng.standard_normal((4, n, n))
    A = (G + G.transpose(0, 2, 1)) / 2.0
    A[0] = A[0] @ A[0] + np.eye(n)
    Q = np.linalg.qr(G[1])[0]
    A[1] = (Q * (np.linspace(-1.0, 2.0, n) + 0.05)) @ Q.T if n > 1 else -np.eye(1)
    A[2] = G[2] @ G[2].T + 0.5 * np.eye(n)
    A[3] = -A[0]
    lam, smin, opnorm = linalg.spectral_extremes(A)
    assert lam.shape == smin.shape == opnorm.shape == (4,)
    for i in range(4):
        single = linalg.spectral_extremes(A[i])
        assert all(type(v) is float for v in single)
        stacked = (lam[i], smin[i], opnorm[i])
        assert np.array(stacked).tobytes() == np.array(single).tobytes()
    assert lam[0] > 0.0 and lam[3] < 0.0 and smin[3] > 0.0
    if n > 2:
        assert lam[1] < 0.0 < smin[1] < -lam[1]


def test_norms_on_diagonal():
    A = np.diag([3.0, -4.0, 0.5])
    assert spectral_norm(A) == pytest.approx(4.0)
    assert sigma_min(A) == pytest.approx(0.5)
    assert lambda_min(A) == pytest.approx(-4.0)


# ---------------------------------------------------------------- solve


def test_solve_2x2_oracle():
    # inverse of [[2,1],[1,2]] is (1/3) [[2,-1],[-1,2]]
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    X = solve(A, np.eye(2))
    assert np.allclose(X, np.array([[2, -1], [-1, 2]]) / 3.0, atol=1e-14)


def test_solve_vector():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = solve(A, np.array([3.0, 3.0]))
    assert x == pytest.approx([1.0, 1.0])


@given(st.integers(0, 500), st.integers(1, 10))
def test_solve_residual_small(seed, n):
    A = random_pd(n, seed)
    rng = np.random.default_rng(seed + 10_000)
    b = rng.standard_normal(n)
    x = solve(A, b)
    scale = frobenius_norm(A) * np.linalg.norm(x) + np.linalg.norm(b)
    assert np.linalg.norm(A @ x - b) <= 1e-9 * scale


def test_solve_pivots_small_leading_entry():
    A = np.array([[1e-20, 1.0], [1.0, 1.0]])
    x = solve(A, np.array([1.0, 2.0]))
    assert np.linalg.norm(A @ x - [1, 2]) <= 1e-12


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve(np.eye(2), np.ones(3))


# ---------------------------------------------------------------- types


def test_symmetrize_is_exact_for_symmetric():
    A = random_symmetric(4, 3)
    assert np.array_equal(symmetrize(A), A)


def test_symmetric_matrix_symmetrizes_input():
    S = SymmetricMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.array_equal(S.values, S.values.T)
    assert S.values[0, 1] == 1.0


def test_symmetric_matrix_immutable():
    S = SymmetricMatrix(np.eye(2))
    with pytest.raises((ValueError, AttributeError)):
        S.values[0, 0] = 7.0


def test_spd_accepts_pd():
    M = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert M.n == 2


def test_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, -1.0]))


def test_spd_rejects_singular():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, 0.0]))


def test_frobenius_matches_reference():
    A = random_symmetric(5, 9)
    assert frobenius_norm(A) == pytest.approx(np.linalg.norm(A), rel=1e-15)


# ------------------------------------------------- power iteration bound


def test_opnorm_bound_brackets_norm():
    for seed in range(10):
        M = random_pd(6, seed)
        est = estimate_opnorm_bound(M, seed=seed, validate=True)
        op = spectral_norm(M)
        assert op <= est <= 2.0 * op


def test_opnorm_bound_deterministic():
    M = random_pd(5, 42)
    assert estimate_opnorm_bound(M, seed=1) == estimate_opnorm_bound(M, seed=1)


def test_opnorm_bound_scaled_identity():
    est = estimate_opnorm_bound(np.diag([4.0, 1.0]), seed=0)
    assert 4.0 <= est <= 8.0
