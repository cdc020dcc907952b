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


def cyclic_sym_eig(A) -> linalg.EigenDecomposition:
    """Reference: the cyclic-order Jacobi solver that round-robin replaced.

    Same rotation formulas, tolerance and stopping rule; one rotation per
    (p, q) in row-by-row order.
    """
    A = symmetrize(A)
    n = A.shape[0]
    with np.errstate(over="ignore"):
        scale = float(np.linalg.norm(A))
    if math.isinf(scale):
        # the squares overflowed, which would make every rotation look
        # converged; take the norm of A scaled by its largest entry
        amax = float(np.max(np.abs(A)))
        scale = amax * float(np.linalg.norm(A / amax))
    tol = linalg.JACOBI_RTOL * scale
    H = A.copy()
    V = np.eye(n)

    def max_offdiag() -> float:
        if n == 1:
            return 0.0
        off = np.abs(H - np.diag(np.diag(H)))
        return float(off.max())

    converged = max_offdiag() <= tol
    for _ in range(linalg.JACOBI_MAX_SWEEPS):
        if converged:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = H[p, q]
                if apq == 0.0:
                    continue
                theta = (H[q, q] - H[p, p]) / (2.0 * apq)
                if abs(theta) > 1e10:
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                hp = H[:, p].copy()
                hq = H[:, q].copy()
                H[:, p] = c * hp - s * hq
                H[:, q] = s * hp + c * hq
                hp = H[p, :].copy()
                hq = H[q, :].copy()
                H[p, :] = c * hp - s * hq
                H[q, :] = s * hp + c * hq
                H[p, q] = 0.0
                H[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
        converged = max_offdiag() <= tol
    if not converged:
        raise linalg.JacobiConvergenceError(
            f"Jacobi did not converge in {linalg.JACOBI_MAX_SWEEPS} sweeps "
            f"(max off-diagonal {max_offdiag():.3e}, tolerance {tol:.3e})"
        )
    w = np.diag(H).copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    w.setflags(write=False)
    V.setflags(write=False)
    return linalg.EigenDecomposition(eigenvalues=w, eigenvectors=V)


def spd_with_spectrum(w, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((len(w), len(w))))
    return symmetrize((Q * np.asarray(w, dtype=float)) @ Q.T)


ORACLE_SIZES = [1, 2, 3, 5, 16, 17, 33, 64]


def assert_matches_oracles(A):
    n = A.shape[0]
    dec = sym_eig(A)
    ref = np.linalg.eigvalsh(A)[::-1]
    bound = 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(dec.eigenvalues - ref)) <= bound
    assert np.max(np.abs(dec.eigenvalues - cyclic_sym_eig(A).eigenvalues)) <= bound
    V = dec.eigenvectors
    assert frobenius_norm(V.T @ V - np.eye(n)) <= 1e-12 * n
    assert np.all(np.diff(dec.eigenvalues) <= 0)
    assert not dec.eigenvalues.flags.writeable and not dec.eigenvectors.flags.writeable


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_round_robin_matches_cyclic_and_lapack_on_random_symmetric(n):
    # odd n leaves one index out of every round
    assert_matches_oracles(random_symmetric(n, 1000 + n))


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_round_robin_matches_cyclic_and_lapack_on_kappa_2_spd(n):
    assert_matches_oracles(spd_with_spectrum(np.geomspace(1.0, 0.5, n), n))


@pytest.mark.parametrize("n", [3, 16, 17])
def test_round_robin_on_repeated_and_clustered_spectra(n):
    # kappa = 1 (a rotated identity), two repeated values, and a cluster
    # whose spread is at round-off level
    assert_matches_oracles(spd_with_spectrum(np.ones(n), n))
    assert_matches_oracles(spd_with_spectrum(np.where(np.arange(n) < n // 2, 2.0, 1.0), n))
    assert_matches_oracles(spd_with_spectrum(1.0 + 1e-14 * np.arange(n), n))


def test_round_robin_on_sparse_inputs():
    # exact zeros leave some pairs of a round unrotated; in the 2 + 2 block
    # diagonal matrix every pair of some rounds is zero, so the round is empty
    assert_matches_oracles(
        np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, 1.0], [0.0, 0.0, 1.0, 3.0]])
    )
    n = 17
    assert_matches_oracles(2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    blocks = np.zeros((n, n))
    blocks[:8, :8] = random_symmetric(8, 3)
    blocks[8:, 8:] = random_symmetric(9, 4)
    assert_matches_oracles(blocks)


@pytest.mark.parametrize("n", ORACLE_SIZES)
def test_diagonal_input_takes_zero_sweeps(n, monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    d = np.random.default_rng(n).standard_normal(n)
    dec = sym_eig(np.diag(d))
    order = np.argsort(-d, kind="stable")
    assert np.array_equal(dec.eigenvalues, d[order])
    assert np.array_equal(dec.eigenvectors, np.eye(n)[:, order])


def test_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(linalg.JacobiConvergenceError, match="did not converge in 1 sweeps"):
        sym_eig(random_symmetric(16, 7))


def test_spectral_extremes_agrees_with_jacobi():
    for seed in range(20):
        A = random_symmetric(6, seed)
        lam_min, smin, opnorm = linalg.spectral_extremes(A)
        assert lam_min == pytest.approx(lambda_min(A), abs=1e-11)
        assert smin == pytest.approx(sigma_min(A), abs=1e-11)
        assert opnorm == pytest.approx(spectral_norm(A), abs=1e-11)


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


def test_spd_caches_one_read_only_decomposition(sym_eig_calls):
    A = random_pd(5, 4)
    M = SpdMatrix(A)
    assert sym_eig_calls == []
    dec = M.eig
    assert M.eig is dec and len(sym_eig_calls) == 1
    assert spectral_norm(M) == float(dec.eigenvalues[0])
    assert sigma_min(M) == lambda_min(M) == float(dec.eigenvalues[-1])
    assert len(sym_eig_calls) == 1
    assert np.array_equal(dec.eigenvalues, linalg.sym_eig(A).eigenvalues)
    for arr in (dec.eigenvalues, dec.eigenvectors, M.values):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for name in ("sym", "_eig", "eig", "other"):
        with pytest.raises(AttributeError):
            setattr(M, name, None)
    assert M.eig is dec


@pytest.mark.parametrize("cls", [SymmetricMatrix, SpdMatrix])
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
