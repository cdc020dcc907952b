"""Gradient descent for the matrix square root.

Minimizes f(U) = ||M - U^2||_F^2 over symmetric positive definite U with the
fixed-step update

    U_{t+1} = U_t - eta (U_t^2 - M) U_t - eta U_t (U_t^2 - M).

For symmetric U and D = U^2 - M the second product is the transpose of the
first, U D = (D U)^T, so the update is computed as U - eta (G + G^T) with
the one product G = D U; G + G^T is exactly symmetric, so every iterate of
a symmetric start is too.  ``gradient`` returns the same G + G^T, which is
half the Euclidean gradient of f; the factor is absorbed into the step
size.  The automatic step size is the smallest of three safeguards, each
keeping the iterates inside the region where the certified eigenvalue
corridor, smoothness, and gradient dominance bounds of
:mod:`matsqrt.analysis` apply.  The trace's ``sigma_min`` and ``opnorm``
are certified Weyl bounds, exact at t = 0, at each refresh of the loop's
spectrum and at the stop.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import linalg
from .linalg import SpdMatrix

INIT_CHOICES = ("scaled-identity", "sqrt-opnorm-identity", "explicit")
SCHEDULE_CHOICES = ("every-step", "first-step-only")

# Residual growth beyond this factor over its initial value aborts the run.
DIVERGENCE_FACTOR = 10.0
# Injected per-step errors should stay below eta * sigma_min(M) * beta
# divided by this for the stability bound to be meaningful.
STABILITY_SLACK = 300.0
# Contraction constant of the residual decay certificates.
C_RATE = 1.0 / 50.0
# The loop recomputes the spectrum of its iterate exactly once the Weyl
# slack accumulated since the last exact value exceeds this fraction of
# lambda_min there.
BRACKET_RTOL = 1.0 / 16.0
# A perturbed run draws its every-step errors in blocks of about this many
# bytes: 32 matrices at n = 16, 2 at n = 64 and one from n = 65 up.
ERROR_BLOCK_BYTES = 64 * 1024


class GdError(Exception):
    """Base class for solver failures."""

    def __init__(self, message: str, step: int | None = None, trace=None):
        super().__init__(message)
        self.step = step
        self.trace = trace


class DivergenceError(GdError):
    pass


class LostPositiveDefinitenessError(GdError):
    pass


@dataclass(frozen=True)
class GdConfig:
    """Solver configuration.

    ``eta`` is either a positive number, stored as a float, or ``"auto"``,
    in which case :func:`step_size_policy` picks the step size.  ``init``
    selects the starting iterate: ``"scaled-identity"`` uses
    sqrt(lambda) I with ``init_lambda`` (estimated by power iteration when
    None), ``"sqrt-opnorm-identity"`` uses sqrt(||M||_2) I, and
    ``"explicit"`` takes ``init_matrix`` as given.  ``c_step`` scales the
    automatic step size; the defaults are pinned by the acceptance tests.
    """

    eta: float | str = "auto"
    max_iters: int = 10_000_000
    tol: float = 1e-8
    init: str = "scaled-identity"
    init_lambda: float | None = None
    init_matrix: object | None = None
    c_step: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ValueError(f"eta must be positive or 'auto', got {self.eta!r}")
        else:
            # an int or numpy scalar step size must not fall through to "auto"
            object.__setattr__(self, "eta", float(self.eta))
            if not (self.eta > 0.0):
                raise ValueError(f"eta must be positive, got {self.eta}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.init not in INIT_CHOICES:
            raise ValueError(f"init must be one of {INIT_CHOICES}, got {self.init!r}")
        if self.init == "explicit" and self.init_matrix is None:
            raise ValueError("init='explicit' requires init_matrix")
        if self.init_lambda is not None and not (self.init_lambda > 0.0):
            raise ValueError("init_lambda must be positive")
        if not (self.c_step > 0.0):
            raise ValueError("c_step must be positive")


@dataclass(frozen=True)
class ErrorModel:
    """Per-step additive perturbations of exact spectral norm ``delta``.

    Each scheduled step adds a symmetric Gaussian matrix drawn from the
    seeded generator and rescaled to ``||E_t||_2 = delta``.  ``schedule`` is
    ``"every-step"`` or ``"first-step-only"``; ``delta = 0`` injects nothing.
    The errors are drawn in blocks of consecutive steps, one stacked draw
    per block; a block's matrices are bitwise those of one draw per step,
    and it leaves the generator in the same state.
    """

    delta: float = 0.0
    schedule: str = "every-step"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.delta < math.inf):
            raise ValueError(f"delta must be finite and non-negative, got {self.delta}")
        if self.schedule not in SCHEDULE_CHOICES:
            raise ValueError(
                f"schedule must be one of {SCHEDULE_CHOICES}, got {self.schedule!r}"
            )

    def active_at(self, t: int) -> bool:
        return self.schedule == "every-step" or t == 1

    def sample(self, rng: np.random.Generator, n: int, k: int) -> np.ndarray:
        """The errors of the next ``k`` scheduled steps, a (k, n, n) stack.

        A slice whose symmetric part is zero stays zero.  With ``delta = 0``
        every slice is zero, and the generator still advances by the draw.
        """
        G = rng.standard_normal((k, n, n))
        if self.delta == 0.0:
            return np.zeros((k, n, n))
        E = (G + G.transpose(0, 2, 1)) / 2.0
        w = np.linalg.eigvalsh(E)
        s = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        s[s == 0.0] = 1.0  # a zero slice stays zero
        E *= (self.delta / s)[:, None, None]
        # round-off can leave the rescaled norm a few ulps above delta;
        # one corrective rescale restores ||E||_2 <= delta
        w = np.linalg.eigvalsh(E)
        s = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        over = s > self.delta
        E[over] *= (self.delta / s[over])[:, None, None]
        return E


class TraceRecord(NamedTuple):
    t: int
    residual_fro: float
    objective: float
    sigma_min: float
    opnorm: float
    eta: float
    err_norm: float
    err_fro: float


class IterationTrace:
    """Column-oriented per-step records, including the t = 0 record.

    ``sigma_min`` and ``opnorm`` are a certified lower bound on the
    smallest and an upper bound on the largest singular value of the
    iterate; they are the exact ``eigvalsh`` values at t = 0, at each row
    where the loop refreshed its spectral bracket, and at the last row.
    ``err_norm`` is the spectral norm of the injected error at each step
    (zero for unperturbed runs); ``err_fro`` additionally stores its
    Frobenius norm, which the stability bound consumes.  Only the seven
    columns of ``io.TRACE_HEADER`` appear in CSV output.
    """

    __slots__ = TraceRecord._fields + ("converged", "stop_reason")

    def __init__(self, columns: dict, converged: bool, stop_reason: str):
        for name in TraceRecord._fields:
            dtype = int if name == "t" else float
            setattr(self, name, np.asarray(columns[name], dtype=dtype))
        self.converged = converged
        self.stop_reason = stop_reason

    def __len__(self) -> int:
        return len(self.t)

    @property
    def steps(self) -> int:
        return int(self.t[-1])

    @property
    def final_residual(self) -> float:
        return float(self.residual_fro[-1])

    def records(self) -> Iterator[TraceRecord]:
        """Rows of Python ``int``/``float``, one at a time."""
        columns = [getattr(self, name) for name in TraceRecord._fields]
        for row in zip(*columns):
            yield TraceRecord._make(x.item() for x in row)


class _TraceBuilder:
    """Trace columns in preallocated numpy arrays that double when full.

    A step costs 64 bytes of trace (eight 8-byte entries) once
    :meth:`finish` has trimmed the columns to their length.  ``sigma_min``
    and ``opnorm`` are a refresh's exact values or the bracket's bounds.
    """

    def __init__(self):
        self.k = 0
        self.columns = {
            name: np.empty(1024, dtype=int if name == "t" else float)
            for name in TraceRecord._fields
        }

    def append(self, t, residual, smin, opnorm, eta, err_norm, err_fro):
        k = self.k
        c = self.columns
        if k == len(c["t"]):
            for name, col in c.items():
                grown = np.empty(2 * k, dtype=col.dtype)
                grown[:k] = col
                c[name] = grown
        c["t"][k] = t
        c["residual_fro"][k] = residual
        c["objective"][k] = residual * residual
        c["sigma_min"][k] = smin
        c["opnorm"][k] = opnorm
        c["eta"][k] = eta
        c["err_norm"][k] = err_norm
        c["err_fro"][k] = err_fro
        self.k = k + 1

    def finish(self, converged: bool, stop_reason: str) -> IterationTrace:
        # trim column by column, so each full-capacity array is released as
        # soon as its copy is made
        c = self.columns
        for name in TraceRecord._fields:
            c[name] = c[name][: self.k].copy()
        return IterationTrace(c, converged, stop_reason)


def objective(U, M) -> float:
    """f(U) = ||M - U^2||_F^2."""
    return residual_fro(U, M) ** 2


def residual_fro(U, M) -> float:
    """||M - U^2||_F."""
    U = np.asarray(U, dtype=float)
    M = np.asarray(M, dtype=float)
    return float(np.linalg.norm(M - U @ U))


def gradient(U, M) -> np.ndarray:
    """G + G^T, G = (U^2 - M) U; half the Euclidean gradient of f at symmetric U."""
    U = np.asarray(U, dtype=float)
    M = np.asarray(M, dtype=float)
    G = (U @ U - M) @ U
    return G + G.T


def _update(U: np.ndarray, D: np.ndarray, eta: float, G, H) -> None:
    """Replace U by U - eta (G + G^T), G = D U, leaving the step in H.

    D is U @ U - M; G and H are C-contiguous n x n scratch arrays.  The
    operations and their order are those of ``U - eta * gradient(U, M)``,
    so the result is bitwise the same.  The sum goes to H, not back into
    G: G and G.T overlap, and numpy would copy one of them on every step.
    ``np.dot`` makes the same BLAS call as ``@`` with less dispatch.
    """
    np.dot(D, U, out=G)
    np.add(G, G.T, out=H)
    np.multiply(eta, H, out=H)
    np.subtract(U, H, out=U)


def gd_step(U, M, eta: float) -> np.ndarray:
    """One update U - eta (U^2 - M) U - eta U (U^2 - M): U - eta gradient(U, M)."""
    U = np.array(U, dtype=float, order="C")
    M = np.asarray(M, dtype=float)
    _update(U, U @ U - M, eta, np.empty_like(U), np.empty_like(U))
    return U


def step_size_policy(U0, M, cfg: GdConfig) -> float:
    """Automatic step size.

    Returns ``c_step`` times the smallest of three bounds: an operator-norm
    safeguard 1 / (10 max(||U0||^2, 3 ||M||)), a corridor safeguard
    beta / max(||U0||, sqrt(3 ||M||))^3, and the rate-parameter safeguard
    1 / (alpha beta^2).  With ``c_step <= 1`` the iterates provably stay in
    the certified corridor.  Norms are taken from the Jacobi eigensolver.

    The value scales like 1 / ||M|| under (M, U0) -> (s^2 M, s U0).
    """
    u_op, _, m_op, _, alpha, beta = rate_spectra(U0, M)
    bound_opnorm = 1.0 / (10.0 * max(u_op * u_op, 3.0 * m_op))
    bound_corridor = beta / rate_cube(max(u_op, math.sqrt(3.0 * m_op)), u_op, m_op)
    bound_rate = 1.0 / (alpha * beta * beta)
    return cfg.c_step * min(bound_opnorm, bound_corridor, bound_rate)


def rate_spectra(U0, M) -> tuple:
    """(||U0||, sigma_min(U0), ||M||, sigma_min(M), alpha, beta) for a start and target.

    alpha = (max(||U0||, sqrt(||M||)) / min(sigma_min(U0), sqrt(sigma_min(M))))^3
    and beta = min(sigma_min(U0), sqrt(sigma_min(M))).  Norms come from the
    Jacobi eigensolver, through the cached decomposition of an
    :class:`SpdMatrix`.
    """
    u_op = linalg.spectral_norm(U0)
    u_smin = linalg.sigma_min(U0)
    m_op = linalg.spectral_norm(M)
    m_smin = linalg.sigma_min(M)
    ratio = max(u_op, math.sqrt(m_op)) / min(u_smin, math.sqrt(m_smin))
    alpha = rate_cube(ratio, u_op, m_op)
    beta = min(u_smin, math.sqrt(m_smin))
    return u_op, u_smin, m_op, m_smin, alpha, beta


def stability_tolerance(eta: float, beta: float, m_sigma_min: float) -> float:
    """Largest per-step error spectral norm the stability bound tolerates."""
    return eta * m_sigma_min * beta / STABILITY_SLACK


def rate_cube(x: float, u_op: float, m_op: float) -> float:
    """x ** 3 for a rate parameter; a :class:`GdError` if it overflows.

    Python's float power raises ``OverflowError`` past the largest double,
    as it does for a start like 1e200 I; the error names the start's and
    the matrix's spectral norms instead.
    """
    try:
        return x**3
    except OverflowError:
        raise GdError(
            f"rate parameters overflow for a start of spectral norm {u_op:.6e} "
            f"and a matrix of spectral norm {m_op:.6e}"
        ) from None


def initial_iterate(M, cfg: GdConfig) -> SpdMatrix:
    """Resolve the starting iterate prescribed by ``cfg``."""
    M_arr = np.asarray(M, dtype=float)
    n = M_arr.shape[0]
    if cfg.init == "scaled-identity":
        lam = cfg.init_lambda
        if lam is None:
            lam = linalg.estimate_opnorm_bound(M_arr, seed=cfg.seed)
        return SpdMatrix(math.sqrt(lam) * np.eye(n))
    if cfg.init == "sqrt-opnorm-identity":
        return SpdMatrix(math.sqrt(linalg.spectral_norm(M)) * np.eye(n))
    U0 = cfg.init_matrix
    return U0 if isinstance(U0, SpdMatrix) else SpdMatrix(U0)


def resolve(M, cfg: GdConfig) -> tuple[SpdMatrix, SpdMatrix, float]:
    """(M, U0, eta) of a run: M validated, the start and the step size resolved.

    A run on ``dataclasses.replace(cfg, eta=eta, init="explicit",
    init_matrix=U0)`` resolves to the same objects without recomputing them.
    """
    M_spd = M if isinstance(M, SpdMatrix) else SpdMatrix(M)
    U0 = initial_iterate(M_spd, cfg)
    if U0.n != M_spd.n:
        raise linalg.DimensionMismatchError(
            f"initial iterate has order {U0.n}, matrix has order {M_spd.n}"
        )
    eta = cfg.eta if isinstance(cfg.eta, float) else step_size_policy(U0, M_spd, cfg)
    return M_spd, U0, float(eta)


def run(M, cfg: GdConfig = GdConfig()) -> tuple[SpdMatrix, IterationTrace]:
    """Iterate gd_step until the residual reaches ``cfg.tol`` or the cap.

    Returns the final iterate and the full per-step trace.  Raises
    :class:`DivergenceError` when the residual is not finite or exceeds ten
    times its initial value and :class:`LostPositiveDefinitenessError` when
    an iterate stops being positive definite; both carry the partial trace
    and step index.
    """
    return _run_loop(M, cfg, err=None)


def run_perturbed(M, cfg: GdConfig, err: ErrorModel) -> tuple[SpdMatrix, IterationTrace]:
    """Like :func:`run` but adds E_t after each update, per ``err``.

    With ``delta = 0`` the trace is bitwise identical to :func:`run`.  When
    ``delta`` exceeds the stability tolerance
    eta sigma_min(M) beta / 300 the run proceeds but emits a warning, since
    the residual floor guarantee no longer applies.
    """
    return _run_loop(M, cfg, err=err)


def _run_loop(M, cfg: GdConfig, err: ErrorModel | None):
    M_spd, U0, eta = resolve(M, cfg)
    M_arr = M_spd.values
    n = M_spd.n

    rng = None
    draw = err is not None and err.delta != 0.0
    block, j = (), 0
    if draw:
        rng = np.random.default_rng(err.seed)
        per_block = 1
        if err.schedule == "every-step":
            per_block = max(1, ERROR_BLOCK_BYTES // (8 * n * n))
        _, _, _, m_smin, _, beta = rate_spectra(U0, M_spd)
        tolerance = stability_tolerance(eta, beta, m_smin)
        if err.delta >= tolerance:
            warnings.warn(
                f"error level delta={err.delta:.3e} is at or above the "
                f"stability tolerance {tolerance:.3e}; the residual floor "
                "bound is not guaranteed",
                stacklevel=3,
            )

    # One iterate U is updated in place; three more n x n buffers carry the
    # loop: D = U^2 - M, the product G = D U and the step H = eta (G + G^T).
    # -D is the residual matrix M - U^2; IEEE subtraction is antisymmetric,
    # so sqrt(d . d) over the raveled D is bitwise np.linalg.norm(M - U @ U).
    # Overflow is not an error here: a non-finite residual is caught
    # explicitly.
    #
    # The spectrum is bracketed, not recomputed every step.  A refresh takes
    # lambda_min and lambda_max of U from one eigvalsh, records them as they
    # are, and widens them by 2 n eps ||U||_2, twice LAPACK's error bound,
    # into [lo, hi].  By Weyl's inequality an eigenvalue then moves by at
    # most ||U_{t+1} - U_t||_2 <= ||H||_F + ||E_t||_2 + ||R||_F a step, R the
    # rounding of U - H and of + E_t: at most ||H||_F + ||E_t||_F, since
    # rounding to nearest moves an entry by at most the operand added to
    # it, and at most eps sqrt(n) (||U_t||_2 + ||H||_F + ||E_t||_2).
    # ``grow`` and ``tiny`` cover the ddot's error gamma_{n^2}, the
    # underflow of its squares and the eigvalsh error in ||E_t||_2 <= delta;
    # each constant is at least twice its bound, which covers the roundings
    # of the sums.  ``slack`` sums the steps since the refresh, rounded up,
    # and a row records lo - slack and hi + slack, rounded outward.
    # The loop refreshes at t = 0, at every stop, and when the slack exceeds
    # BRACKET_RTOL lo or is not finite, so lo - slack >= (15/16) lo > 0
    # certifies definiteness in between and a loss is found at its own step.
    builder = _TraceBuilder()
    U = np.array(U0.values, order="C")
    D = np.empty_like(U)
    d = D.reshape(-1)
    G = np.empty_like(U)
    H = np.empty_like(U)
    h = H.reshape(-1)
    eps = np.finfo(float).eps
    grow = 1.0 + (n * n + 4) * eps
    tiny = n * 2.0**-537
    root_n = math.sqrt(n)
    rounding = 2.0 * eps * root_n
    down, up = 1.0 - eps, 1.0 + 2.0 * eps
    lo, hi, limit, slack = 0.0, 0.0, 0.0, math.inf
    converged = False

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cfg.max_iters + 1):
            err_norm = 0.0
            err_fro = 0.0
            if t:
                _update(U, D, eta, G, H)
                if draw and err.active_at(t):
                    if j == len(block):
                        block = err.sample(rng, n, min(per_block, cfg.max_iters + 1 - t))
                        j = 0
                    E = block[j]
                    j += 1
                    np.add(U, E, out=U)
                    err_norm = err.delta
                    # bitwise np.linalg.norm(E): the dot of the raveled slice
                    f = E.reshape(-1)
                    err_fro = math.sqrt(f.dot(f))
                a = math.sqrt(h.dot(h)) * grow + tiny
                e = err_norm * grow
                rnd = min(a + root_n * e, rounding * (hi + slack + a + e))
                slack = (slack + a + e + rnd) * up
            np.dot(U, U, out=D)
            np.subtract(D, M_arr, out=D)
            r = math.sqrt(d.dot(d))
            if not t:
                r0 = r
            if not math.isfinite(r):
                # A NaN residual fails both the tolerance and the growth
                # test, so it is caught explicitly; its row records NaN for
                # the spectrum.
                builder.append(t, r, math.nan, math.nan, eta, err_norm, err_fro)
                raise DivergenceError(
                    f"residual {r} at step {t} is not finite",
                    step=t,
                    trace=builder.finish(False, "diverged"),
                )
            done = r <= cfg.tol
            diverged = r > DIVERGENCE_FACTOR * r0
            if done or diverged or t == cfg.max_iters or not (slack <= limit):
                lam, smin, opn = linalg.spectral_extremes(U)
                builder.append(t, r, smin, opn, eta, err_norm, err_fro)
                if lam <= 0.0:
                    raise LostPositiveDefinitenessError(
                        f"iterate lost positive definiteness at step {t} "
                        f"(lambda_min={lam:.6e})",
                        step=t,
                        trace=builder.finish(False, "lost-positive-definiteness"),
                    )
                pad = 2.0 * n * eps * opn
                lo, hi, slack = lam - pad, opn + pad, 0.0
                limit = BRACKET_RTOL * lo
            else:
                builder.append(
                    t, r, (lo - slack) * down, (hi + slack) * up, eta, err_norm, err_fro
                )
            if done:
                converged = True
                break
            if diverged:
                raise DivergenceError(
                    f"residual {r:.6e} at step {t} exceeds {DIVERGENCE_FACTOR:g}x "
                    f"its initial value {r0:.6e}",
                    step=t,
                    trace=builder.finish(False, "diverged"),
                )
    trace = builder.finish(converged, "converged" if converged else "max-iters")
    return SpdMatrix(U), trace
