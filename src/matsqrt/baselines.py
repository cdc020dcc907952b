"""Reference square-root algorithms used to cross-check the solver.

Two baselines: Newton's iteration X <- (X + X^{-1} M) / 2, quadratically
convergent from commuting starts, and the direct eigendecomposition root.
Both produce SPD results or raise.
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
    tol: float = 1e-11  # relative to ||M||_F

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not 0.0 < self.tol < 1.0:
            raise ValueError("tol must be in (0, 1)")


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


def newton_sqrt(M, cfg: NewtonConfig = NewtonConfig()):
    """Matrix square root by Newton's iteration.

    Starts from M itself, which commutes with M, so the iteration stays in
    the commutative polynomial algebra of M and converges to the SPD root.
    Returns (root, iterations); the count is 0 when the start already meets
    tolerance.
    """
    M_spd = linalg.as_spd(M)
    A = M_spd.values
    m_fro = linalg.frobenius_norm(A)
    X = A.copy()
    for k in range(cfg.max_iters + 1):
        R = A - X @ X
        if linalg.frobenius_norm(R) <= cfg.tol * m_fro:
            return linalg.SpdMatrix(X), k
        if k == cfg.max_iters:
            break
        # X <- (X + X^{-1} A) / 2, with the inverse applied through a solve
        Y = linalg.solve(X, A)
        X = linalg.symmetrize((X + Y) / 2.0)
    raise NewtonConvergenceError(
        f"no convergence to {cfg.tol:g} * ||M||_F within {cfg.max_iters} iterations"
    )


def evd_sqrt(M) -> linalg.SpdMatrix:
    """Square root through the eigendecomposition of M."""
    dec = linalg.as_spd(M).eig
    return linalg.SpdMatrix(linalg.from_eig(dec.eigenvectors, np.sqrt(dec.eigenvalues)))
