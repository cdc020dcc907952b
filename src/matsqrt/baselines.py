"""Reference square-root algorithms used to cross-check the solver.

Two baselines: Newton's iteration X <- (X + X^{-1} M) / 2, quadratically
convergent from commuting starts, and the direct eigendecomposition root.
Both produce SPD results or raise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

NEWTON_INIT_CHOICES = ("M", "identity")


class NewtonConvergenceError(linalg.LinalgError):
    """Newton iteration failed to reach tolerance within max_iters."""


@dataclass(frozen=True)
class NewtonConfig:
    init: str = "M"
    max_iters: int = 100
    tol: float = 1e-11  # relative to ||M||_F

    def __post_init__(self):
        if self.init not in NEWTON_INIT_CHOICES:
            raise ValueError(f"init must be one of {NEWTON_INIT_CHOICES}")
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

    Starts from M itself or the identity, both of which commute with M, so
    the iteration stays in the commutative polynomial algebra of M and
    converges to the SPD root.  Returns (root, iterations); the count is 0
    when the start already meets tolerance.
    """
    M_spd = M if isinstance(M, linalg.SpdMatrix) else linalg.SpdMatrix(M)
    A = M_spd.values
    n = M_spd.n
    m_fro = linalg.frobenius_norm(A)
    X = A.copy() if cfg.init == "M" else np.eye(n)
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
    M_spd = M if isinstance(M, linalg.SpdMatrix) else linalg.SpdMatrix(M)
    dec = M_spd.eig
    if dec.eigenvalues[-1] <= 0.0:
        raise linalg.NotPositiveDefiniteError(
            "eigendecomposition root requires positive eigenvalues"
        )
    root = (dec.eigenvectors * np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.T
    return linalg.SpdMatrix(linalg.symmetrize(root))
