"""Rate parameters, residual decay bounds, and runtime certificates.

The certificates re-check, on seeded random samples, the structural facts
the solver's guarantees rest on: a Lipschitz bound on the gradient over an
operator-norm ball, gradient dominance over a sigma_min-bounded region, the
location of non-global stationary points, and the eigenvalue corridor that
iterates of a run must stay inside.  Each check reports its worst margin
and passes only when that margin is above a documented round-off allowance.

Every sample draws from its own generator seeded by (seed, sample index),
so reports are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .gd import (
    C_RATE,
    IterationTrace,
    gradient,
    objective,
    rate_spectra,
    stability_tolerance,
)

# Smoothness constant: ||grad f(U1) - grad f(U2)||_F <= this * max(cap, ||M||_2)
# * ||U1 - U2||_F over the ball ||U||_2^2 <= cap.
SMOOTHNESS_CONSTANT = 8.0
# Gradient norms below this are treated as stationary by the saddle check.
STATIONARY_GRAD_TOL = 1e-6
# Absolute eigenvalue slack allowed when checking corridor bounds.
CORRIDOR_SLACK = 1e-9
# Relative round-off allowance in certificate margins.
MARGIN_RTOL = 1e-9


@dataclass(frozen=True)
class RateParams:
    """Quantities controlling the certified convergence rate.

    ``alpha`` bounds the iteration count scale, ``beta`` the contraction
    strength; iterates of a certified run stay inside
    [corridor_low, corridor_high] in sigma_min and operator norm.
    """

    alpha: float
    beta: float
    corridor_low: float
    corridor_high: float
    kappa: float


def rate_params(U0, M) -> RateParams:
    """Evaluate the rate parameters for a start U0 and target M.

    alpha = (max(||U0||, sqrt(||M||)) / min(sigma_min(U0), sqrt(sigma_min(M))))^3,
    beta = min(sigma_min(U0), sqrt(sigma_min(M))), as computed by
    :func:`matsqrt.gd.rate_spectra`.
    """
    u_op, u_smin, m_op, m_smin, alpha, beta = rate_spectra(U0, M)
    return RateParams(
        alpha=alpha,
        beta=beta,
        corridor_low=min(u_smin, math.sqrt(m_smin) / 10.0),
        corridor_high=max(u_op, math.sqrt(3.0 * m_op)),
        kappa=m_op / m_smin,
    )


def theoretical_residual_bound(
    t: int, eta: float, rate: RateParams, r0: float
) -> float:
    """Certified residual decay: exp(-C_RATE eta beta^2 t) * r0."""
    return math.exp(-C_RATE * eta * rate.beta**2 * t) * r0


def stability_bound(
    t: int,
    eta: float,
    rate: RateParams,
    r0: float,
    err_fro,
    u0_opnorm: float,
    m_opnorm: float,
) -> float:
    """Residual bound under per-step additive errors.

    ``err_fro[s]`` is the Frobenius norm of the error added at step s + 1;
    at least ``t`` entries must be present.  With all errors zero this
    equals :func:`theoretical_residual_bound` bitwise.
    """
    decay = theoretical_residual_bound(t, eta, rate, r0)
    prefactor = 4.0 * max(u0_opnorm, math.sqrt(3.0 * m_opnorm))
    acc = 0.0
    x = C_RATE * eta * rate.beta**2
    for s in range(t):
        acc += math.exp(-x * (t - s - 1)) * float(err_fro[s])
    return decay + prefactor * acc


def stability_bound_series(
    eta: float,
    rate: RateParams,
    r0: float,
    err_fro,
    u0_opnorm: float,
    m_opnorm: float,
) -> np.ndarray:
    """Vector of :func:`stability_bound` values for t = 0 .. len(err_fro).

    Evaluates the error sum by the recurrence S_t = g S_{t-1} + e_{t-1}
    with g = exp(-C_RATE eta beta^2), which agrees with the direct sum up
    to round-off and costs O(T) instead of O(T^2) for a whole trace.
    """
    err_fro = np.asarray(err_fro, dtype=float)
    T = len(err_fro)
    x = C_RATE * eta * rate.beta**2
    g = math.exp(-x)
    prefactor = 4.0 * max(u0_opnorm, math.sqrt(3.0 * m_opnorm))
    out = np.empty(T + 1)
    out[0] = r0
    acc = 0.0
    decay = r0
    for t in range(1, T + 1):
        decay *= g
        acc = g * acc + float(err_fro[t - 1])
        out[t] = decay + prefactor * acc
    return out


def first_error_attenuation_bound(
    t: int,
    eta: float,
    rate: RateParams,
    r0: float,
    e0_fro: float,
    u0_opnorm: float,
    m_opnorm: float,
) -> float:
    """Residual bound when only the first step is perturbed.

    For t >= 1 the single error E_0 is attenuated exponentially:
    exp(-c eta beta^2 t) r0 + 6 max(||U0||^2, ||M||) exp(-c eta beta^2 (t-1))
    ||E_0||_F.
    """
    if t == 0:
        return r0
    decay = theoretical_residual_bound(t, eta, rate, r0)
    prefactor = 6.0 * max(u0_opnorm * u0_opnorm, m_opnorm)
    x = C_RATE * eta * rate.beta**2
    return decay + prefactor * math.exp(-x * (t - 1)) * e0_fro


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate: worst margin over all samples.

    A negative margin is a violation of the certified inequality;
    ``passed`` allows a documented round-off slack below zero.  Witnesses
    hold at most five human-readable counterexample descriptions.
    """

    property_name: str
    samples: int
    worst_margin: float
    passed: bool
    witnesses: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "witnesses", tuple(self.witnesses)[:5])

    def json_line(self) -> str:
        from . import io

        return io.report_json_line(self)


def _rng_for(seed: int, index: int) -> np.random.Generator:
    # independent substream per sample: reproducible and order-independent
    return np.random.default_rng((seed, index))


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * np.where(np.diag(R) >= 0.0, 1.0, -1.0)


def _sample_symmetric_ball(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Symmetric matrix with operator norm uniformly scaled into [0, radius]."""
    G = rng.standard_normal((n, n))
    E = (G + G.T) / 2.0
    w = np.linalg.eigvalsh(E)
    s = max(abs(float(w[0])), abs(float(w[-1])))
    if s == 0.0:
        return E
    return E * (radius * rng.uniform() / s)


def _sample_pd_interval(rng: np.random.Generator, n: int, lo: float, hi: float):
    """PD matrix with eigenvalues drawn uniformly from [lo, hi].

    Returns (matrix, smallest drawn eigenvalue); the construction makes the
    spectrum known exactly, so no eigensolve is needed per sample.
    """
    V = _random_orthogonal(rng, n)
    lam = rng.uniform(lo, hi, size=n)
    U = (V * lam) @ V.T
    return (U + U.T) / 2.0, float(lam.min())


def smoothness_certificate(
    M, cap: float, num_samples: int, seed: int, constant: float = SMOOTHNESS_CONSTANT
) -> CertificateReport:
    """Check the gradient Lipschitz bound over the ball ||U||_2^2 <= cap.

    For sampled symmetric pairs (U1, U2) inside the ball, verifies
    ||grad f(U1) - grad f(U2)||_F <= constant * max(cap, ||M||_2)
    * ||U1 - U2||_F.  Sample 0 is the antipodal boundary pair
    (+sqrt(cap) I, -sqrt(cap) I), which realizes a ratio above
    max(cap, ||M||_2) / 2 and keeps the check non-vacuous.  The pass
    threshold allows -1e-9 times (bound slope times ball radius) for
    round-off.  ``constant`` exists for fault-injection self-tests; the
    certified value is 8.
    """
    M_arr = np.asarray(M, dtype=float)
    n = M_arr.shape[0]
    m_op = linalg.spectral_norm(M)
    slope = constant * max(cap, m_op)
    radius = math.sqrt(cap)
    worst = math.inf
    witnesses = []
    for i in range(num_samples):
        if i == 0:
            U1 = radius * np.eye(n)
            U2 = -radius * np.eye(n)
        else:
            rng = _rng_for(seed, i)
            U1 = _sample_symmetric_ball(rng, n, radius)
            U2 = _sample_symmetric_ball(rng, n, radius)
        dist = float(np.linalg.norm(U1 - U2))
        observed = float(np.linalg.norm(gradient(U1, M_arr) - gradient(U2, M_arr)))
        margin = slope * dist - observed
        if margin < worst:
            worst = margin
        if margin < -MARGIN_RTOL * slope * radius and len(witnesses) < 5:
            witnesses.append(
                f"sample {i}: ratio {observed / dist if dist else math.inf:.6e} "
                f"exceeds slope {slope:.6e}"
            )
    return CertificateReport(
        property_name="smoothness",
        samples=num_samples,
        worst_margin=worst,
        passed=worst >= -MARGIN_RTOL * slope * radius and not witnesses,
        witnesses=tuple(witnesses),
    )


def gradient_dominance_certificate(
    M, floor: float, num_samples: int, seed: int
) -> CertificateReport:
    """Check ||grad f(U)||_F^2 >= 4 floor f(U) over sigma_min(U)^2 >= floor.

    Samples PD matrices with eigenvalues in [sqrt(floor), hi] where hi
    covers the corridor top sqrt(3 ||M||_2).  Sample 0 is
    sqrt(floor) I, where the inequality is tight up to the gap between
    floor and ||M||; margins are compared against -1e-9 ||M||_F^4.
    """
    M_arr = np.asarray(M, dtype=float)
    n = M_arr.shape[0]
    m_op = linalg.spectral_norm(M)
    lo = math.sqrt(floor)
    hi = max(math.sqrt(3.0 * m_op), 2.0 * lo)
    scale = linalg.frobenius_norm(M_arr) ** 4
    worst = math.inf
    witnesses = []
    for i in range(num_samples):
        if i == 0:
            U = lo * np.eye(n)
        else:
            U, _ = _sample_pd_interval(_rng_for(seed, i), n, lo, hi)
        margin = (
            float(np.linalg.norm(gradient(U, M_arr))) ** 2
            - 4.0 * floor * objective(U, M_arr)
        )
        if margin < worst:
            worst = margin
        if margin < -MARGIN_RTOL * scale and len(witnesses) < 5:
            witnesses.append(f"sample {i}: margin {margin:.6e}")
    return CertificateReport(
        property_name="gradient-dominance",
        samples=num_samples,
        worst_margin=worst,
        passed=worst >= -MARGIN_RTOL * scale and not witnesses,
        witnesses=tuple(witnesses),
    )


def saddle_location_check(
    M, num_samples: int, seed: int, sigma_floor: float = 1e-3
) -> CertificateReport:
    """Confirm no spurious stationary points away from singularity.

    Over PD samples with sigma_min(U) >= sigma_floor, checks the pointwise
    dominance inequality ||grad f(U)||_F^2 >= 4 sigma_min(U)^2 f(U) and its
    consequence that any near-stationary sample (gradient norm <= 1e-6)
    must have objective at most (1e-6)^2 / (4 sigma_min(U)^2), i.e. is near
    the global minimum.  Sample 0 is the exact square root of M; sample 1
    pins the smallest eigenvalue at the floor.
    """
    M_arr = np.asarray(M, dtype=float)
    n = M_arr.shape[0]
    dec = linalg.eigendecomposition(M)
    if dec.eigenvalues[-1] <= 0.0:
        raise linalg.NotPositiveDefiniteError("saddle check requires PD M")
    sqrt_m = (dec.eigenvectors * np.sqrt(dec.eigenvalues)) @ dec.eigenvectors.T
    sqrt_m = (sqrt_m + sqrt_m.T) / 2.0
    m_op = float(dec.eigenvalues[0])
    hi = max(math.sqrt(3.0 * m_op), 2.0 * sigma_floor)
    scale = linalg.frobenius_norm(M_arr) ** 4
    worst = math.inf
    witnesses = []
    for i in range(num_samples):
        if i == 0:
            U = sqrt_m
            smin = math.sqrt(float(dec.eigenvalues[-1]))
        elif i == 1:
            lam = np.sqrt(dec.eigenvalues).copy()
            lam[-1] = sigma_floor
            U = (dec.eigenvectors * lam) @ dec.eigenvectors.T
            U = (U + U.T) / 2.0
            smin = float(lam.min())
        else:
            U, smin = _sample_pd_interval(_rng_for(seed, i), n, sigma_floor, hi)
        g = float(np.linalg.norm(gradient(U, M_arr)))
        f = objective(U, M_arr)
        margin = g * g - 4.0 * smin * smin * f
        if margin < worst:
            worst = margin
        violated = margin < -MARGIN_RTOL * scale
        if g <= STATIONARY_GRAD_TOL and f > STATIONARY_GRAD_TOL**2 / (4.0 * smin * smin):
            violated = True
        if violated and len(witnesses) < 5:
            witnesses.append(
                f"sample {i}: margin {margin:.6e}, grad {g:.6e}, objective {f:.6e}"
            )
    return CertificateReport(
        property_name="saddle-location",
        samples=num_samples,
        worst_margin=worst,
        passed=worst >= -MARGIN_RTOL * scale and not witnesses,
        witnesses=tuple(witnesses),
    )


def corridor_check(trace: IterationTrace, rate: RateParams) -> CertificateReport:
    """Verify every trace record stays inside the certified corridor.

    sigma_min(U_t) must reach corridor_low - 1e-9 and the operator norm
    must stay under corridor_high + 1e-9; the slack is absolute, matching
    the eigensolver's certified accuracy.
    """
    low_margin = trace.sigma_min - rate.corridor_low
    high_margin = rate.corridor_high - trace.opnorm
    worst = float(min(low_margin.min(), high_margin.min()))
    witnesses = []
    bad = np.nonzero((low_margin < -CORRIDOR_SLACK) | (high_margin < -CORRIDOR_SLACK))[0]
    for idx in bad[:5]:
        witnesses.append(
            f"step {int(trace.t[idx])}: sigma_min {trace.sigma_min[idx]:.6e}, "
            f"opnorm {trace.opnorm[idx]:.6e}"
        )
    return CertificateReport(
        property_name="eigenvalue-corridor",
        samples=len(trace),
        worst_margin=worst,
        passed=worst >= -CORRIDOR_SLACK and not witnesses,
        witnesses=tuple(witnesses),
    )
