"""Reference square-root algorithms used to cross-check the solver.

Two baselines: Newton's method, in the stable product form of the
Denman-Beavers iteration, and the direct eigendecomposition root.  Both
produce SPD results or raise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

class NewtonConvergenceError(linalg.LinalgError):
    """Newton iteration failed to reach tolerance within max_iters."""


@dataclass(frozen=True)
class NewtonConfig:
    max_iters: int = 100
    tol: float = 1e-11  # relative to ||M||_F, and may exceed 1

    def __post_init__(self):
        object.__setattr__(self, "max_iters", linalg.as_int("max_iters", self.max_iters, 1))
        object.__setattr__(self, "tol", linalg.as_positive("tol", self.tol))


def scalar_newton(m: float, u0: float, iters: int) -> list:
    """Newton iterates for the scalar equation u^2 = m, including u0."""
    if m <= 0.0 or u0 <= 0.0:
        raise ValueError("scalar_newton requires m > 0 and u0 > 0")
    out = [float(u0)]
    u = float(u0)
    for _ in range(iters):
        u = (u + m / u) / 2.0
        out.append(u)
    return out


def frobenius_scale(M) -> float:
    """||M||_F, the scale of Newton's tolerance; a :class:`LinalgError` past the largest double."""
    fro = linalg.frobenius_norm(M)
    if fro < np.inf:
        return fro
    raise linalg.LinalgError(f"||M||_F = {fro:.6e} overflows; Newton's tol is relative to it")


def newton_sqrt(M, cfg: NewtonConfig = NewtonConfig()):
    """Matrix square root by Newton's method in Denman-Beavers product form.

    From Y = P = M, each step makes one ``linalg.solve`` for P^{-1} and sets
    Y <- Y (I + P^{-1}) / 2, P <- (I + (P + P^{-1}) / 2) / 2 (Cheng, Higham,
    Kenney and Laub, SIMAX 2001).  Y is Newton's iterate from M in exact
    arithmetic, but unlike X <- (X + X^{-1} M) / 2 it does not amplify
    rounding once kappa(M) > 9.  Returns (root, iterations) once
    ||M - Y^2||_F <= tol ||M||_F; the count is 0 when M already meets it.
    """
    A = linalg.as_spd(M).values
    m_fro = frobenius_scale(A)
    I = np.eye(A.shape[0])
    Y, P = A, A
    # An early Y^2 may overflow, and so may an inverse, putting inf or NaN
    # in Y and P: the residual then fails the test, and the next solve
    # refuses a P that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(cfg.max_iters + 1):
            residual = linalg.frobenius_norm(A - Y @ Y)
            if residual <= cfg.tol * m_fro:
                return linalg.SpdMatrix(Y), k
            if k == cfg.max_iters:
                break
            P_inv = linalg.solve(P, I)
            Y = Y @ (I + P_inv) / 2.0
            P = (I + (P + P_inv) / 2.0) / 2.0
    raise NewtonConvergenceError(
        f"no convergence to {cfg.tol:g} * ||M||_F within {cfg.max_iters} iterations"
    )


def evd_sqrt(M) -> linalg.SpdMatrix:
    """Square root through the eigendecomposition of M."""
    dec = linalg.sym_eig(linalg.as_spd(M))
    return linalg.SpdMatrix(linalg.from_eig(dec.eigenvectors, np.sqrt(dec.eigenvalues)))
