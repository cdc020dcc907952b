import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from matsqrt import linalg
from matsqrt.linalg import (
    DimensionMismatchError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SpdMatrix,
    estimate_opnorm_bound,
    frobenius_norm,
    from_eig,
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
    assert np.allclose(from_eig(dec.eigenvectors, dec.eigenvalues), [[2, 1], [1, 2]], atol=1e-14)


def test_sym_eig_identity():
    dec = sym_eig(np.eye(3))
    assert dec.eigenvalues == pytest.approx([1, 1, 1])


def test_sym_eig_of_huge_entries_whose_norm_overflows():
    # ||A||_F^2 overflows, and the decomposition must not return the
    # diagonal 1e200 (1, 1) as the eigenvalues
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
    assert frobenius_norm(from_eig(dec.eigenvectors, dec.eigenvalues) - A) <= 1e-10 * scale
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


def spd_with_spectrum(w, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((len(w), len(w))))
    return symmetrize((Q * np.asarray(w, dtype=float)) @ Q.T)


ORACLE_SIZES = [1, 2, 3, 5, 16, 17]
ORACLE_INPUTS = {
    "random": lambda n: random_pd(n, 1000 + n),
    "kappa-2": lambda n: spd_with_spectrum(np.geomspace(1.0, 0.5, n), n),
    "kappa-1e6": lambda n: spd_with_spectrum(np.geomspace(1.0, 1e-6, n), n),
}


def exact_eigenvalues(A) -> list:
    """Eigenvalues of the float matrix A to 50 digits, ascending, by mpmath."""
    with mpmath.workdps(50):
        w = mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True)
        return sorted(w[i] for i in range(A.shape[0]))


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150], ids=["1", "1e150", "1e-150"])
@pytest.mark.parametrize("kind", sorted(ORACLE_INPUTS))
@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_spectra_against_a_50_digit_oracle(n, kind, scale):
    # an independent oracle: mpmath's eigenvalues of the same float matrix
    A = ORACLE_INPUTS[kind](n) * scale
    exact = exact_eigenvalues(A)
    lam_min, lam_max = exact[0], exact[-1]
    pad = 4 * n * linalg.EPS * float(lam_max)
    for M in (A, SpdMatrix(A)):
        lo, smin, op = linalg.spectral_bounds(M)
        assert lo == smin == sigma_min(M) == lambda_min(M)
        assert op == spectral_norm(M)
        # outward, and by no more than twice the widening
        assert lam_min - pad <= smin <= lam_min
        assert lam_max <= op <= lam_max + pad
    dec = SpdMatrix(A).eig
    w = dec.eigenvalues
    assert np.all(np.diff(w) <= 0)
    err = max(abs(mpmath.mpf(float(x)) - e) for x, e in zip(w[::-1], exact))
    assert err <= 1e-13 * float(lam_max)
    V = dec.eigenvectors
    assert frobenius_norm(V.T @ V - np.eye(n)) <= 1e-12 * n
    assert frobenius_norm(from_eig(V, w) - A) <= 1e-13 * n * float(lam_max)
    assert not w.flags.writeable and not V.flags.writeable


def test_spd_requires_a_positive_certified_lower_bound(monkeypatch):
    # lambda_min = 1e-17 passes a zero SPD_RTOL, but it is within
    # eigvalsh's error bound of zero, so positive definiteness is not certified
    monkeypatch.setattr(linalg, "SPD_RTOL", 0.0)
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, 1e-17]))
    assert SpdMatrix(np.diag([1.0, 1e-14])).bounds[0] > 0.0


def test_norms_are_python_floats():
    A = random_pd(4, 2)
    for M in (A, SpdMatrix(A)):
        for value in (spectral_norm(M), sigma_min(M), lambda_min(M), *linalg.spectral_bounds(M)):
            assert type(value) is float
    for value in linalg.spectral_extremes(random_symmetric(4, 2)):
        assert type(value) is float


# Two of the tests below keep the ids they had under the Jacobi solver
# that LAPACK's eigh replaced (the round-robin pair); they now check eigh
# against eigvalsh and against mpmath's 50-digit eigenvalues, and the
# widened bounds against the latter.


def assert_matches_oracles(A):
    n = A.shape[0]
    dec = sym_eig(A)
    ref = np.linalg.eigvalsh(A)[::-1]
    bound = 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(dec.eigenvalues - ref)) <= bound
    exact = exact_eigenvalues(A)[::-1]
    assert max(abs(mpmath.mpf(float(x)) - e) for x, e in zip(dec.eigenvalues, exact)) <= bound
    lo, smin, op = linalg.spectral_bounds(A)
    assert lo <= exact[-1]
    assert smin <= min(abs(e) for e in exact)
    assert op >= max(abs(exact[0]), abs(exact[-1]))
    V = dec.eigenvectors
    assert frobenius_norm(V.T @ V - np.eye(n)) <= 1e-12 * n
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    assert not dec.eigenvalues.flags.writeable and not dec.eigenvectors.flags.writeable


@pytest.mark.parametrize("n", ORACLE_SIZES + [33, 64])
def test_round_robin_matches_cyclic_and_lapack_on_random_symmetric(n):
    assert_matches_oracles(random_symmetric(n, 1000 + n))


@pytest.mark.parametrize("n", ORACLE_SIZES + [33, 64])
def test_round_robin_matches_cyclic_and_lapack_on_kappa_2_spd(n):
    assert_matches_oracles(spd_with_spectrum(np.geomspace(1.0, 0.5, n), n))


@pytest.mark.parametrize("n", [3, 16, 17])
def test_eigh_on_repeated_and_clustered_spectra(n):
    # kappa = 1 (a rotated identity), two repeated values, and a cluster
    # whose spread is at round-off level
    assert_matches_oracles(spd_with_spectrum(np.ones(n), n))
    assert_matches_oracles(spd_with_spectrum(np.where(np.arange(n) < n // 2, 2.0, 1.0), n))
    assert_matches_oracles(spd_with_spectrum(1.0 + 1e-14 * np.arange(n), n))


def test_eigh_on_sparse_inputs():
    # exact zeros: 2 + 2 and 8 + 9 block diagonal matrices and a tridiagonal one
    assert_matches_oracles(
        np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, 1.0, 3.0]])
    )
    n = 17
    assert_matches_oracles(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    blocks = np.zeros((n, n))
    blocks[:8, :8] = random_symmetric(8, 3)
    blocks[8:, 8:] = random_symmetric(9, 4)
    assert_matches_oracles(blocks)


@pytest.mark.parametrize("n", ORACLE_SIZES + [33, 64])
def test_eigh_returns_a_diagonal_input_exactly(n):
    # every off-diagonal is zero, so LAPACK's tridiagonal solver splits the
    # problem into n 1 x 1 blocks and returns the input exactly
    d = np.random.default_rng(n).standard_normal(n)
    dec = sym_eig(np.diag(d))
    order = np.argsort(-d, kind="stable")
    assert np.array_equal(dec.eigenvalues, d[order])
    assert np.array_equal(dec.eigenvectors, np.eye(n)[:, order])


def test_spectral_extremes_widened_by_the_pad_are_the_norms():
    # the refresh's raw values, widened by the pad, are the certified norms
    for seed in range(20):
        A = random_symmetric(6, seed)
        lam_min, smin, opnorm = linalg.spectral_extremes(A)
        pad = linalg.eigvalsh_pad(6, opnorm)
        assert (lambda_min(A), sigma_min(A), spectral_norm(A)) == (
            lam_min - pad,
            max(smin - pad, 0.0),
            opnorm + pad,
        )


def test_norms_on_diagonal():
    A = np.diag([3.0, -4.0, 0.5])
    assert 4.0 < spectral_norm(A) == pytest.approx(4.0, rel=1e-14)
    assert 0.5 > sigma_min(A) == pytest.approx(0.5, rel=1e-14)
    assert -4.0 > lambda_min(A) == pytest.approx(-4.0, rel=1e-14)


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


def test_spd_symmetrizes_input():
    # [[1, 2], [0, 1]] would symmetrize to a singular matrix
    S = SpdMatrix(np.array([[3.0, 2.0], [0.0, 3.0]]))
    assert np.array_equal(S.values, S.values.T)
    assert S.values[0, 1] == 1.0


def test_spd_values_immutable():
    S = SpdMatrix(np.eye(2))
    with pytest.raises((ValueError, AttributeError)):
        S.values[0, 0] = 7.0


def test_spd_accepts_pd():
    M = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert M.n == 2


def test_spd_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.diag([1.0, -1.0]))


def test_spd_caches_one_read_only_decomposition(sym_eig_calls):
    A = random_pd(5, 4)
    M = SpdMatrix(A)
    # the norms come from the constructor's eigvalsh, not a decomposition
    assert (lambda_min(M), sigma_min(M), spectral_norm(M)) == M.bounds
    assert M.bounds == linalg.spectral_bounds(A)
    assert sym_eig_calls == []
    dec = M.eig
    assert M.eig is dec and len(sym_eig_calls) == 1
    assert sigma_min(M) < float(dec.eigenvalues[-1])
    assert spectral_norm(M) > float(dec.eigenvalues[0])
    assert len(sym_eig_calls) == 1
    assert np.array_equal(dec.eigenvalues, linalg.sym_eig(A).eigenvalues)
    for arr in (dec.eigenvalues, dec.eigenvectors, M.values):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for name in ("values", "bounds", "_eig", "eig", "other"):
        with pytest.raises(AttributeError):
            setattr(M, name, None)
    assert M.eig is dec


@pytest.mark.parametrize("cls", [SpdMatrix])
def test_array_protocol_copies_exactly_when_asked(cls):
    A = cls(np.array([[2.0, 1.0], [1.0, 3.0]]))
    # np.array asks for a copy: a new, writable array
    copied = np.array(A)
    assert not np.shares_memory(copied, A.values)
    assert copied.flags.writeable
    assert np.array_equal(copied, A.values)
    # no copy asked for and the dtype already matches: the frozen values
    for view in (np.asarray(A), np.asarray(A, dtype=float)):
        assert np.shares_memory(view, A.values)
        assert not view.flags.writeable
    # another dtype needs a copy, which copy=False forbids
    assert np.asarray(A, dtype=np.float32).flags.writeable
    with pytest.raises(ValueError):
        np.array(A, dtype=np.float32, copy=False)


def test_gd_step_on_wrapped_matrices():
    # gd_step updates a copy of U in place, so that copy must be writable
    from matsqrt.gd import gd_step

    U = SpdMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
    M = SpdMatrix(np.array([[4.0, 1.0], [1.0, 2.0]]))
    out = gd_step(U, M, 0.01)
    assert np.array_equal(out, gd_step(np.array(U.values), np.array(M.values), 0.01))
    assert not np.shares_memory(out, U.values)


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
        est = estimate_opnorm_bound(M, seed=seed)
        op = spectral_norm(M)
        assert op <= est <= 2.0 * op


def test_opnorm_bound_deterministic():
    M = random_pd(5, 42)
    assert estimate_opnorm_bound(M, seed=1) == estimate_opnorm_bound(M, seed=1)


def test_opnorm_bound_scaled_identity():
    est = estimate_opnorm_bound(np.diag([4.0, 1.0]), seed=0)
    assert 4.0 <= est <= 8.0
