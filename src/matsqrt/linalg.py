"""Dense symmetric linear algebra primitives.

Everything in this module operates on plain float64 numpy arrays wrapped in
thin validated types.  Spectra come from LAPACK: ``eigvalsh`` for the
extreme eigenvalues, ``eigh`` where eigenvectors are needed.  The norms
and lower bounds derived from them are widened outward by twice
``eigvalsh``'s error bound, so they bracket the exact values.  Linear
systems go to LAPACK's LU solver.  The module also holds the scalar
input rules that every other module applies to its arguments: a count or
seed passes :func:`as_int`, a positive real :func:`as_positive`.

All functions are pure: inputs are never mutated, wrapped arrays are frozen
at construction, and every random choice takes an explicit generator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Machine epsilon as a Python float, like every round-off constant derived from it.
EPS = float(np.finfo(float).eps)
# An SPD wrapper refuses matrices whose smallest eigenvalue is below this
# times the largest; anything closer to singular is not usefully PD in
# double precision.
SPD_RTOL = 1e-12
# LAPACK's eigvalsh rescales a matrix whose largest entry lies outside
# [sqrt(safmin / eps), sqrt(eps / safmin)] = [2^-485, 2^485]; inside, the
# spectrum of c I comes back as c exactly, outside, rounded by the rescaling.
UNSCALED_RANGE = (2.0**-485, 2.0**485)
# A norm sqrt(a . a) below this may be off by more than its rounding: each
# entry under 2^-511 squares to a subnormal and loses up to 2^-1075, which
# above it is far below the dot's rounding for fewer than 2^60 entries.
TINY_NORM = 2.0**-480


class LinalgError(Exception):
    """Base class for all failures raised by this module."""


class DimensionMismatchError(LinalgError):
    pass


class SingularMatrixError(LinalgError):
    pass


class NotPositiveDefiniteError(LinalgError):
    pass


def _as_square_array(values, name: str = "matrix") -> np.ndarray:
    """``values`` as a float array, not copied: callers write only new arrays."""
    A = np.asarray(values, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {A.shape}")
    if A.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must have order >= 1")
    if not np.isfinite(A).all():
        raise LinalgError(f"{name} contains non-finite entries")
    return A


def symmetrize(A) -> np.ndarray:
    """Return (A + A^T) / 2, and A / 2 + A^T / 2 where the sum overflows.

    Floating-point addition commutes, so the result is exactly symmetric
    entrywise.  Symmetric inputs are returned unchanged in value.
    """
    A = _as_square_array(A)
    with np.errstate(over="ignore"):
        S = A + A.T
    S *= 0.5  # bitwise / 2.0, in the one buffer
    finite = np.isfinite(S)
    return S if finite.all() else np.where(finite, S, A / 2.0 + A.T / 2.0)


class SpdMatrix:
    """A symmetric positive definite matrix.

    The constructor symmetrizes its argument, so ``values[i, j] ==
    values[j, i]`` holds bitwise, and freezes it; operations return new
    objects.  Positive definiteness is verified at construction by one
    gate on the extreme eigenvalues: the smallest must exceed ``SPD_RTOL``
    times the largest, its widened lower bound must be positive, and the
    widened norm finite.  The constructor takes them from one
    ``eigvalsh``; :meth:`with_spectrum` takes them from a caller that
    already has them, and makes no eigensolve.  Either way the gate is the
    only one; downstream code may rely on the invariant without
    rechecking.

    ``bounds`` keeps that spectrum as (sigma_min, ||A||_2) widened outward
    (see :func:`widened`), so both norms of the matrix are read without
    another decomposition; a caller that wants the eigenvectors pays one
    :func:`sym_eig`.
    """

    __slots__ = ("values", "bounds")

    def __init__(self, values):
        A = symmetrize(values)
        w = np.linalg.eigvalsh(A)
        self._admit(A, w[0], w[-1])

    @classmethod
    def with_spectrum(cls, values: np.ndarray, lam_min: float, lam_max: float) -> SpdMatrix:
        """An SpdMatrix of ``values`` whose extreme eigenvalues are known.

        ``values`` must be an exactly symmetric float64 array that nothing
        else writes, and ``lam_min`` and ``lam_max`` its smallest and
        largest eigenvalue as ``eigvalsh`` gives them, such as c and c for
        c I.  The array is frozen in place, not copied, and passes the
        constructor's gate.
        """
        self = object.__new__(cls)
        self._admit(values, lam_min, lam_max)
        return self

    def _admit(self, A: np.ndarray, lam_min, lam_max) -> None:
        """The gate: freeze A and keep its widened bounds, or refuse it."""
        lam_min, lam_max = float(lam_min), float(lam_max)
        # Past the first test lam_min > 0, so lam_min is sigma_min and
        # lam_max the norm.
        bounds = widened(lam_min, lam_max, A.shape[0])
        # not (x > y): a NaN or infinite spectrum fails too
        if not (lam_min > SPD_RTOL * abs(lam_max) and bounds[0] > 0.0):
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: lambda_min={lam_min:.6e}, "
                f"lambda_max={lam_max:.6e}"
            )
        if not bounds[1] < np.inf:
            raise NotPositiveDefiniteError(
                f"matrix norm overflows: lambda_max={lam_max:.6e} plus eigvalsh's error bound"
            )
        A.setflags(write=False)
        object.__setattr__(self, "values", A)
        object.__setattr__(self, "bounds", bounds)

    def __setattr__(self, name, value):
        raise AttributeError("SpdMatrix is immutable")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def __array__(self, dtype=None, copy=None):
        """numpy 2's protocol: ``values`` itself unless a copy is asked for or needed.

        A copy is a new, writable array; one that ``copy=False`` forbids raises.
        """
        A = self.values
        if copy or (dtype is not None and np.dtype(dtype) != A.dtype):
            if copy is False:
                raise ValueError(f"converting to {dtype} needs a copy")
            return A.astype(A.dtype if dtype is None else dtype)
        return A

    def __repr__(self) -> str:
        return f"SpdMatrix(n={self.n})"


def as_spd(A) -> SpdMatrix:
    """A itself if it is an :class:`SpdMatrix`, else A validated into one."""
    return A if isinstance(A, SpdMatrix) else SpdMatrix(A)


def as_int(name: str, value, least: int) -> int:
    """``operator.index(value)`` if at least ``least``; a float, even 3.0, is a ``ValueError``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def as_positive(name: str, value) -> float:
    """``float(value)``, refused with ``ValueError`` unless in (0, inf): NaN fails too."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return x


def scaled_identity(c: float, n: int) -> SpdMatrix:
    """c I of order n, bitwise ``SpdMatrix(c * np.eye(n))``.

    Where ``eigvalsh`` returns c exactly (``UNSCALED_RANGE``), c is the
    spectrum the gate reads, and no eigensolve is made.
    """
    U = np.zeros((n, n))
    U.reshape(-1)[:: n + 1] = c
    lo, hi = UNSCALED_RANGE
    if lo <= c <= hi:
        return SpdMatrix.with_spectrum(U, c, c)
    return SpdMatrix(U)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def from_eig(V, w) -> np.ndarray:
    """V diag(w) V^T, symmetrized: exactly symmetric entrywise."""
    return symmetrize((V * w) @ V.T)


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Q of the QR factorization of an n x n standard normal draw from ``rng``.

    The signs of diag(R) are fixed to be non-negative, so the same
    generator state gives the same Q bitwise.
    """
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.where(np.diag(R) >= 0.0, 1.0, -1.0)


def frobenius_norm(A) -> float:
    """||A||_F, inf only where it passes the largest double; no numpy warning.

    Where ``np.linalg.norm(A)`` lies in [``TINY_NORM``, inf) it is the
    value, bit for bit.  Elsewhere its squares may have under- or
    overflowed, and the norm is ``math.hypot`` of the entries, which
    scales them before squaring.
    """
    A = np.asarray(A, dtype=float)
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(A))
    if TINY_NORM <= fro < math.inf:
        return fro
    return math.hypot(*A.ravel().tolist())


def sym_eig(A) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Eigenvalues come back sorted descending, with matching orthonormal
    eigenvector columns; both arrays are read-only.
    """
    w, V = np.linalg.eigh(symmetrize(A))
    w = w[::-1].copy()
    V = np.ascontiguousarray(V[:, ::-1])
    w.setflags(write=False)
    V.setflags(write=False)
    return EigenDecomposition(eigenvalues=w, eigenvectors=V)


def widened(lam_min: float, lam_max: float, n: int) -> tuple:
    """(lam_min - pad, lam_max + pad), pad = 2 n eps lam_max.

    For ``eigvalsh``'s extremes of a positive definite matrix of order n,
    the lower bound on sigma_min and the upper bound on the norm: each
    computed eigenvalue is within n eps ||A||_2 of an exact one, and the
    other half of the pad covers the rounding of widening by it.
    """
    pad = 2.0 * n * EPS * lam_max
    return lam_min - pad, lam_max + pad


def spectral_norm(A) -> float:
    """Upper bound on the spectral norm of an SPD matrix (raw arrays are validated)."""
    return as_spd(A).bounds[1]


def spectral_extremes(A):
    """(lambda_min, sigma_min, opnorm) of a symmetric matrix, as ``eigvalsh`` gives them.

    Raw values: :func:`widened` turns those of a positive definite matrix
    into certified bounds.
    """
    w = np.linalg.eigvalsh(np.asarray(A, dtype=float))
    lo, hi = float(w[0]), float(w[-1])
    return lo, float(np.min(np.abs(w))), max(abs(lo), abs(hi))


def solve(A, B) -> np.ndarray:
    """Solve A X = B by LAPACK's LU factorization with partial pivoting.

    Raises :class:`SingularMatrixError` when LAPACK meets an exactly zero pivot.
    """
    A = _as_square_array(A, "coefficient matrix")
    B = np.asarray(B, dtype=float)
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side has {B.shape[0]} rows, expected {A.shape[0]}"
        )
    if not np.all(np.isfinite(B)):
        raise LinalgError("right-hand side contains non-finite entries")
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("coefficient matrix is singular") from None


def estimate_opnorm_bound(M) -> float:
    """1.5 times :func:`spectral_norm`: an upper bound on ||M||_2 of an SPD matrix.

    The widened norm is at least ||M||_2 and above it by a few n eps
    relative, so the value lands in [||M||_2, 2 ||M||_2].  It raises
    LinalgError where the product overflows.
    """
    opnorm = spectral_norm(M)
    bound = 1.5 * opnorm
    if not bound < np.inf:
        raise LinalgError(f"1.5 ||M||_2 overflows for ||M||_2 = {opnorm:.6e}")
    return bound
