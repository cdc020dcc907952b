import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matsqrt import linalg
from matsqrt.baselines import (
    NewtonConfig,
    NewtonConvergenceError,
    evd_sqrt,
    frobenius_scale,
    newton_sqrt,
    scalar_newton,
)
from matsqrt.experiments import SpdInstanceSpec, random_spd


def test_scalar_newton_first_step_exact():
    # x1 = (3 + 4/3) / 2 = 13/6
    seq = scalar_newton(4.0, 3.0, 1)
    assert seq == [3.0, 13.0 / 6.0]


def test_scalar_newton_quadratic_convergence():
    seq = scalar_newton(2.0, 2.0, 6)
    errs = [abs(x - np.sqrt(2.0)) for x in seq]
    # error roughly squares each step until it hits machine precision
    for a, b in zip(errs, errs[1:]):
        if a > 1e-8:
            assert b <= a * a


@pytest.mark.parametrize("m, u0", [(0.0, 1.0), (1.0, -1.0)])
def test_scalar_newton_refuses_a_non_positive_argument(m, u0):
    with pytest.raises(ValueError, match="requires m > 0 and u0 > 0"):
        scalar_newton(m, u0, 3)


def test_newton_sqrt_diagonal():
    M = np.diag([4.0, 2.0])
    X, iters = newton_sqrt(M)
    assert iters <= 10
    assert np.allclose(np.asarray(X), np.diag([2.0, np.sqrt(2.0)]), rtol=0, atol=1e-10)


def test_newton_sqrt_identity_input_converges_immediately():
    X, iters = newton_sqrt(np.eye(3))
    assert iters == 0
    assert np.array_equal(np.asarray(X), np.eye(3))


@given(st.integers(0, 150))
def test_newton_matches_evd(seed):
    spec = SpdInstanceSpec(n=4, kappa=1.0 + (seed % 10) * 11.0, seed=seed)
    M = random_spd(spec)
    X, _ = newton_sqrt(M)
    Y = evd_sqrt(M)
    scale = np.linalg.norm(np.asarray(Y))
    assert np.linalg.norm(np.asarray(X) - np.asarray(Y)) <= 1e-8 * scale


def test_newton_diagonal_reduces_to_scalar():
    M = np.diag([9.0, 3.0, 0.5])
    X, iters = newton_sqrt(M)
    for i, m in enumerate([9.0, 3.0, 0.5]):
        seq = scalar_newton(m, m, iters)
        assert np.asarray(X)[i, i] == pytest.approx(seq[-1], rel=1e-12)
    off = np.asarray(X) - np.diag(np.diag(np.asarray(X)))
    assert np.max(np.abs(off)) == 0.0


def test_newton_iteration_cap():
    M = np.diag([4.0, 1.0])
    with pytest.raises(NewtonConvergenceError):
        newton_sqrt(M, NewtonConfig(max_iters=1, tol=1e-15))


def test_newton_config_validation():
    for max_iters, message in (
        (0, "at least 1, got 0"),
        (2.5, "an integer, got 2.5"),  # passed, and then failed in newton_sqrt's range()
        (3.0, "an integer, got 3.0"),
    ):
        with pytest.raises(ValueError, match=f"^max_iters must be {message}$"):
            NewtonConfig(max_iters=max_iters)
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol}$"):
            NewtonConfig(tol=tol)
    # relative to ||M||_F, so an absolute tolerance above ||M||_F exceeds 1
    assert NewtonConfig(tol=50.0).tol == 50.0


def test_evd_sqrt_squares_back():
    M = random_spd(SpdInstanceSpec(n=8, kappa=50.0, seed=4))
    X = evd_sqrt(M)
    assert isinstance(X, linalg.SpdMatrix)
    err = np.linalg.norm(np.asarray(X) @ np.asarray(X) - M)
    assert err <= 1e-10 * np.linalg.norm(M)


def test_evd_sqrt_diagonal_exact():
    X = evd_sqrt(np.diag([4.0, 1.0]))
    assert np.asarray(X)[0, 0] == pytest.approx(2.0, abs=1e-14)
    assert np.asarray(X)[1, 1] == pytest.approx(1.0, abs=1e-14)


def test_newton_rejects_non_spd():
    with pytest.raises(linalg.NotPositiveDefiniteError):
        newton_sqrt(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kappa", [1e4, 1e6])
def test_newton_converges_past_the_simplified_iterations_instability(n, kappa):
    # X <- (X + X^{-1} M) / 2 amplified rounding here and raised after 100
    # iterations; the Denman-Beavers product form converges
    M = random_spd(SpdInstanceSpec(n=n, kappa=kappa, seed=3))
    X, iters = newton_sqrt(M)
    Y = np.asarray(evd_sqrt(M))
    assert iters <= 15
    assert np.linalg.norm(np.asarray(X) - Y) <= 1e-9 * np.linalg.norm(Y)


@pytest.mark.parametrize("n", [16, 64])
def test_newton_raises_at_kappa_1e8(n):
    # the residual stalls above NewtonConfig.tol relative to ||M||_F
    M = random_spd(SpdInstanceSpec(n=n, kappa=1e8, seed=3))
    with pytest.raises(NewtonConvergenceError):
        newton_sqrt(M)


def test_newton_refuses_a_matrix_whose_frobenius_norm_overflows():
    # the tolerance is relative to ||M||_F = 2.1e308; no numpy warning on the way
    with pytest.raises(linalg.LinalgError, match="_F = inf overflows"):
        newton_sqrt(np.diag([1.5e308, 1.5e308]))


@pytest.mark.parametrize(
    "m, fro",
    # the doubles nearest the exact norms
    [([1e308, 1e300], 1e308), ([1e-300, 2e-300], 2.2360679774997897e-300)],
    ids=["1e308", "1e-300"],
)
def test_frobenius_scale_is_the_norm_where_the_squares_leave_the_doubles(m, fro):
    # np.linalg.norm reads inf and 0 here
    assert frobenius_scale(np.diag(m)) == fro


def test_newton_residual_may_overflow_on_the_way():
    # the first residual's entries are about 1e200 and their squares pass
    # the doubles, while its norm does not; it fails the test until Y shrinks
    M = 1e100 * np.diag([1.0, 0.1])
    X, iters = newton_sqrt(M, NewtonConfig(max_iters=200))
    assert iters > 100
    assert np.allclose(np.asarray(X), np.asarray(evd_sqrt(M)), rtol=1e-12, atol=0.0)
