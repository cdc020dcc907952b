"""Dense symmetric linear algebra primitives.

Everything in this module operates on plain float64 numpy arrays wrapped in
thin validated types.  The eigensolver is a cyclic Jacobi iteration, the
linear solver is Gaussian elimination with partial pivoting, and the operator
norm estimator is a power iteration; each carries explicit convergence
contracts and fails loudly instead of returning silently degraded results.

All functions are pure: inputs are never mutated, wrapped arrays are frozen
at construction, and every random choice takes an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative threshold below which a pivot is treated as exactly singular.
PIVOT_RTOL = 1e-14
# Jacobi stops once the largest off-diagonal entry falls below this times ||A||_F.
JACOBI_RTOL = 1e-12
JACOBI_MAX_SWEEPS = 50
# Power iteration stops once successive Rayleigh quotients agree to this.
POWER_RTOL = 1e-3
POWER_MAX_ITERS = 1000
# An SPD wrapper refuses matrices whose smallest eigenvalue is below this
# times the largest; anything closer to singular is not usefully PD in
# double precision.
SPD_RTOL = 1e-12


class LinalgError(Exception):
    """Base class for all failures raised by this module."""


class DimensionMismatchError(LinalgError):
    pass


class SingularMatrixError(LinalgError):
    pass


class JacobiConvergenceError(LinalgError):
    pass


class PowerIterationError(LinalgError):
    pass


class NotPositiveDefiniteError(LinalgError):
    pass


def _as_square_array(values, name: str = "matrix") -> np.ndarray:
    A = np.array(getattr(values, "values", values), dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must have order >= 1")
    if not np.all(np.isfinite(A)):
        raise LinalgError(f"{name} contains non-finite entries")
    return A


def symmetrize(A) -> np.ndarray:
    """Return (A + A^T) / 2.

    Floating-point addition commutes, so the result is exactly symmetric
    entrywise.  Symmetric inputs are returned unchanged in value.
    """
    A = _as_square_array(A)
    return (A + A.T) / 2.0


class SymmetricMatrix:
    """A square matrix that is exactly symmetric entrywise.

    The constructor symmetrizes its argument, so ``values[i, j] ==
    values[j, i]`` holds bitwise.  The wrapped array is frozen; operations
    return new objects.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        A = symmetrize(values)
        A.setflags(write=False)
        object.__setattr__(self, "values", A)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricMatrix is immutable")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.values.astype(dtype)
        return self.values

    def __repr__(self) -> str:
        return f"SymmetricMatrix(n={self.n})"


class SpdMatrix:
    """A symmetric positive definite matrix.

    Positive definiteness is verified at construction through an
    eigendecomposition: the smallest eigenvalue must exceed
    ``SPD_RTOL`` times the largest.  Construction is the only gate;
    downstream code may rely on the invariant without rechecking.
    """

    __slots__ = ("sym",)

    def __init__(self, values):
        sym = values if isinstance(values, SymmetricMatrix) else SymmetricMatrix(values)
        w = np.linalg.eigvalsh(sym.values)
        lam_min, lam_max = float(w[0]), float(w[-1])
        if lam_min <= SPD_RTOL * abs(lam_max) or lam_min <= 0.0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: lambda_min={lam_min:.6e}, "
                f"lambda_max={lam_max:.6e}"
            )
        object.__setattr__(self, "sym", sym)

    def __setattr__(self, name, value):
        raise AttributeError("SpdMatrix is immutable")

    @property
    def values(self) -> np.ndarray:
        return self.sym.values

    @property
    def n(self) -> int:
        return self.sym.n

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.values.astype(dtype)
        return self.values

    def __repr__(self) -> str:
        return f"SpdMatrix(n={self.n})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.T


def matmul(A, B) -> np.ndarray:
    """Product of two conformable square matrices."""
    A = _as_square_array(A, "left factor")
    B = _as_square_array(B, "right factor")
    if A.shape[1] != B.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {A.shape} by {B.shape}"
        )
    return A @ B


def frobenius_norm(A) -> float:
    A = np.asarray(getattr(A, "values", A), dtype=float)
    return float(np.linalg.norm(A))


def sym_eig(A) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Rotations are applied in cyclic (p, q) order until the largest
    off-diagonal magnitude is at most ``JACOBI_RTOL * ||A||_F`` or
    ``JACOBI_MAX_SWEEPS`` sweeps have run; hitting the sweep cap raises
    instead of returning an unconverged decomposition.  Eigenvalues come
    back sorted descending.
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
    tol = JACOBI_RTOL * scale
    H = A.copy()
    V = np.eye(n)

    def max_offdiag() -> float:
        if n == 1:
            return 0.0
        off = np.abs(H - np.diag(np.diag(H)))
        return float(off.max())

    converged = max_offdiag() <= tol
    for _ in range(JACOBI_MAX_SWEEPS):
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
        raise JacobiConvergenceError(
            f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"(max off-diagonal {max_offdiag():.3e}, tolerance {tol:.3e})"
        )
    w = np.diag(H).copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    w.setflags(write=False)
    V.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=V)


def spectral_norm(A) -> float:
    """Largest singular value of a symmetric matrix, via ``sym_eig``."""
    w = sym_eig(A).eigenvalues
    return float(np.max(np.abs(w)))


def sigma_min(A) -> float:
    """Smallest singular value of a symmetric matrix, via ``sym_eig``."""
    w = sym_eig(A).eigenvalues
    return float(np.min(np.abs(w)))


def lambda_min(A) -> float:
    """Smallest (signed) eigenvalue of a symmetric matrix, via ``sym_eig``.

    Reported separately from :func:`sigma_min`; for indefinite matrices the
    two genuinely differ and callers must pick the one they mean.
    """
    w = sym_eig(A).eigenvalues
    return float(w[-1])


def spectral_extremes(A):
    """(lambda_min, sigma_min, opnorm) of a symmetric matrix via LAPACK.

    Fast path for per-iteration monitoring, where a full Jacobi
    decomposition per step would dominate the runtime.  Agreement with the
    ``sym_eig``-derived norms is covered by tests; use :func:`spectral_norm`
    and friends whenever a certified value is wanted.

    A single matrix gives three floats.  A (k, n, n) stack gives three
    length-k arrays from one ``eigvalsh`` call, which runs the same LAPACK
    routine on each matrix, so entry i is bitwise what ``A[i]`` alone gives.
    """
    A = np.asarray(getattr(A, "values", A), dtype=float)
    w = np.linalg.eigvalsh(A)
    lo, hi = w[..., 0], w[..., -1]
    if lo.min() > 0.0:
        # eigenvalues come back ascending, so a positive lo is min |w| and
        # hi is max |w|; only an indefinite matrix pays for the general form
        smin, opnorm = lo, hi
    else:
        smin = np.where(lo > 0.0, lo, np.min(np.abs(w), axis=-1))
        opnorm = np.maximum(np.abs(lo), np.abs(hi))
    if w.ndim == 1:
        return float(lo), float(smin), float(opnorm)
    return lo, smin, opnorm


def solve(A, B) -> np.ndarray:
    """Solve A X = B by Gaussian elimination with partial pivoting.

    Raises :class:`SingularMatrixError` when the selected pivot falls below
    ``PIVOT_RTOL * ||A||_F``.
    """
    A = _as_square_array(A, "coefficient matrix").copy()
    B = np.array(getattr(B, "values", B), dtype=float)
    squeeze = B.ndim == 1
    if squeeze:
        B = B[:, None]
    n = A.shape[0]
    if B.shape[0] != n:
        raise DimensionMismatchError(
            f"right-hand side has {B.shape[0]} rows, expected {n}"
        )
    if not np.all(np.isfinite(B)):
        raise LinalgError("right-hand side contains non-finite entries")
    threshold = PIVOT_RTOL * float(np.linalg.norm(A))
    for k in range(n):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        if abs(A[piv, k]) <= threshold:
            raise SingularMatrixError(
                f"pivot {abs(A[piv, k]):.3e} at column {k} is below "
                f"threshold {threshold:.3e}"
            )
        if piv != k:
            A[[k, piv], :] = A[[piv, k], :]
            B[[k, piv], :] = B[[piv, k], :]
        factors = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k:] -= np.outer(factors, A[k, k:])
        B[k + 1 :, :] -= np.outer(factors, B[k, :])
    X = np.empty_like(B)
    for k in range(n - 1, -1, -1):
        X[k, :] = (B[k, :] - A[k, k + 1 :] @ X[k + 1 :, :]) / A[k, k]
    return X[:, 0] if squeeze else X


def estimate_opnorm_bound(M, seed: int = 0, validate: bool = False) -> float:
    """Cheap upper-bound estimate of the operator norm of an SPD matrix.

    Runs power iteration from a seeded random unit vector until successive
    Rayleigh quotients agree to ``POWER_RTOL`` relative, then returns 1.5
    times the final quotient.  For SPD input the quotient never exceeds the
    true norm, so the scaled value lands in [||M||_2, 2 ||M||_2] once the
    iteration has converged.  ``validate=True`` rechecks that interval
    against the Jacobi eigensolver and raises on disagreement.
    """
    A = np.asarray(getattr(M, "values", M), dtype=float)
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    ray_prev = None
    for _ in range(POWER_MAX_ITERS):
        w = A @ v
        ray = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            raise PowerIterationError("matrix maps the start vector to zero")
        v = w / norm_w
        if ray_prev is not None and abs(ray - ray_prev) < POWER_RTOL * abs(ray):
            break
        ray_prev = ray
    else:
        raise PowerIterationError(
            f"Rayleigh quotient did not settle in {POWER_MAX_ITERS} iterations"
        )
    lam = 1.5 * ray
    if validate:
        top = spectral_norm(A)
        if not (top <= lam <= 2.0 * top):
            raise PowerIterationError(
                f"estimate {lam:.6e} outside [{top:.6e}, {2.0 * top:.6e}]"
            )
    return lam
