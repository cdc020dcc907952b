"""Gradient descent for the matrix square root.

Minimizes f(U) = ||M - U^2||_F^2 over symmetric positive definite U with the
fixed-step update

    U_{t+1} = U_t - eta (U_t^2 - M) U_t - eta U_t (U_t^2 - M).

The gradient convention matches the update: ``gradient`` returns
(U^2 - M) U + U (U^2 - M), which is half the Euclidean gradient of f; the
factor is absorbed into the step size.  The automatic step size is the
smallest of three safeguards, each keeping the iterates inside the region
where the certified eigenvalue corridor, smoothness, and gradient dominance
bounds of :mod:`matsqrt.analysis` apply.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import linalg
from .linalg import SpdMatrix, SymmetricMatrix

INIT_CHOICES = ("scaled-identity", "sqrt-opnorm-identity", "explicit")
SCHEDULE_CHOICES = ("every-step", "first-step-only", "none")

# Residual growth beyond this factor over its initial value aborts the run.
DIVERGENCE_FACTOR = 10.0
# Injected per-step errors should stay below eta * sigma_min(M) * beta
# divided by this for the stability bound to be meaningful.
STABILITY_SLACK = 300.0
# The loop copies its iterates into a block of at most this many bytes and
# runs the spectral monitor once per block: K = max(1, this // (8 n^2))
# iterates, 512 at n = 4, 32 at n = 16, 2 at n = 64 and 1 from n = 65 up.
MONITOR_BLOCK_BYTES = 64 * 1024


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
    ``"explicit"`` takes ``init_matrix`` as given.  ``c_step`` scales the automatic step
    size and ``c_rate`` is the contraction constant used by the residual
    decay certificates; the defaults are pinned by the acceptance tests.
    """

    eta: float | str = "auto"
    max_iters: int = 10_000_000
    tol: float = 1e-8
    init: str = "scaled-identity"
    init_lambda: float | None = None
    init_matrix: object | None = None
    c_step: float = 0.01
    c_rate: float = 1.0 / 50.0
    resymmetrize: bool = True
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
        if not (self.c_rate > 0.0):
            raise ValueError("c_rate must be positive")


@dataclass(frozen=True)
class ErrorModel:
    """Per-step additive perturbations of exact spectral norm ``delta``.

    Each scheduled step draws a symmetric Gaussian matrix from the seeded
    generator and rescales it to ``||E_t||_2 = delta``.  ``schedule`` is one
    of ``"every-step"``, ``"first-step-only"``, or ``"none"``.
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
        if self.schedule == "none":
            return False
        if self.schedule == "first-step-only":
            return t == 1
        return True

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        G = rng.standard_normal((n, n))
        E = (G + G.T) / 2.0
        if self.delta == 0.0:
            return np.zeros((n, n))
        w = np.linalg.eigvalsh(E)
        s = max(abs(float(w[0])), abs(float(w[-1])))
        if s == 0.0:
            return np.zeros((n, n))
        E = E * (self.delta / s)
        # round-off can leave the rescaled norm a few ulps above delta;
        # one corrective rescale restores ||E||_2 <= delta
        w = np.linalg.eigvalsh(E)
        s2 = max(abs(float(w[0])), abs(float(w[-1])))
        if s2 > self.delta:
            E = E * (self.delta / s2)
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

    ``err_norm`` is the spectral norm of the injected error at each step
    (zero for unperturbed runs); ``err_fro`` additionally stores its
    Frobenius norm, which the stability bound consumes.  Only the seven
    contract columns appear in CSV output.
    """

    __slots__ = (
        "t",
        "residual_fro",
        "objective",
        "sigma_min",
        "opnorm",
        "eta",
        "err_norm",
        "err_fro",
        "converged",
        "stop_reason",
    )

    def __init__(self, columns: dict, converged: bool, stop_reason: str):
        self.t = np.asarray(columns["t"], dtype=int)
        for name in (
            "residual_fro",
            "objective",
            "sigma_min",
            "opnorm",
            "eta",
            "err_norm",
            "err_fro",
        ):
            setattr(self, name, np.asarray(columns[name], dtype=float))
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
        for i in range(len(self.t)):
            yield TraceRecord(
                int(self.t[i]),
                float(self.residual_fro[i]),
                float(self.objective[i]),
                float(self.sigma_min[i]),
                float(self.opnorm[i]),
                float(self.eta[i]),
                float(self.err_norm[i]),
                float(self.err_fro[i]),
            )

    def write_csv(self, path_or_file) -> None:
        from . import io

        io.write_trace_csv(path_or_file, self)


class _TraceBuilder:
    """Trace columns in preallocated numpy arrays that double when full.

    A step costs 64 bytes of trace (eight 8-byte entries) once
    :meth:`finish` has trimmed the columns to their length.  ``append``
    leaves ``sigma_min`` and ``opnorm`` unset; :func:`_monitor` fills them.
    """

    def __init__(self):
        self.k = 0
        self.columns = {
            name: np.empty(1024, dtype=int if name == "t" else float)
            for name in TraceRecord._fields
        }

    def append(self, t, residual, eta, err_norm, err_fro):
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
    U = np.asarray(getattr(U, "values", U), dtype=float)
    M = np.asarray(getattr(M, "values", M), dtype=float)
    return residual_fro(U, M) ** 2


def residual_fro(U, M) -> float:
    """||M - U^2||_F."""
    U = np.asarray(getattr(U, "values", U), dtype=float)
    M = np.asarray(getattr(M, "values", M), dtype=float)
    return float(np.linalg.norm(M - U @ U))


def gradient(U, M) -> np.ndarray:
    """(U^2 - M) U + U (U^2 - M); half the Euclidean gradient of f."""
    U = np.asarray(getattr(U, "values", U), dtype=float)
    M = np.asarray(getattr(M, "values", M), dtype=float)
    D = U @ U - M
    return D @ U + U @ D


def _update(U: np.ndarray, D: np.ndarray, eta: float, resym: bool, G, H, out) -> None:
    """Write U - eta (D U) - eta (U D), resymmetrised if ``resym``, to ``out``.

    D is U @ U - M; G and H are C-contiguous n x n scratch arrays, and
    ``out`` may be U itself.  The operations and their order are those of
    ``U - eta * (D @ U) - eta * (U @ D)`` followed by ``(W + W.T) / 2.0``,
    so the result is bitwise the same.  ``np.dot`` makes the same BLAS call
    as ``@`` with less dispatch.
    """
    np.dot(D, U, out=G)
    np.dot(U, D, out=H)
    np.multiply(eta, G, out=G)
    np.subtract(U, G, out=G)
    np.multiply(eta, H, out=H)
    if resym:
        np.subtract(G, H, out=H)
        np.add(H, H.T, out=out)
        np.divide(out, 2.0, out=out)
    else:
        np.subtract(G, H, out=out)


def gd_step(U, M, eta: float, resymmetrize: bool = True) -> np.ndarray:
    """One update U - eta (U^2 - M) U - eta U (U^2 - M)."""
    U = np.array(getattr(U, "values", U), dtype=float, order="C")
    M = np.asarray(getattr(M, "values", M), dtype=float)
    _update(U, U @ U - M, eta, resymmetrize, np.empty_like(U), np.empty_like(U), U)
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
    u_op = linalg.spectral_norm(U0)
    u_smin = linalg.sigma_min(U0)
    m_op = linalg.spectral_norm(M)
    m_smin = linalg.sigma_min(M)
    ratio = max(u_op, math.sqrt(m_op)) / min(u_smin, math.sqrt(m_smin))
    alpha = rate_cube(ratio, u_op, m_op)
    beta = min(u_smin, math.sqrt(m_smin))
    bound_opnorm = 1.0 / (10.0 * max(u_op * u_op, 3.0 * m_op))
    bound_corridor = beta / rate_cube(max(u_op, math.sqrt(3.0 * m_op)), u_op, m_op)
    bound_rate = 1.0 / (alpha * beta * beta)
    return cfg.c_step * min(bound_opnorm, bound_corridor, bound_rate)


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
    M_arr = np.asarray(getattr(M, "values", M), dtype=float)
    n = M_arr.shape[0]
    if cfg.init == "scaled-identity":
        lam = cfg.init_lambda
        if lam is None:
            lam = linalg.estimate_opnorm_bound(M_arr, seed=cfg.seed)
        return SpdMatrix(math.sqrt(lam) * np.eye(n))
    if cfg.init == "sqrt-opnorm-identity":
        return SpdMatrix(math.sqrt(linalg.spectral_norm(M_arr)) * np.eye(n))
    U0 = cfg.init_matrix
    return U0 if isinstance(U0, SpdMatrix) else SpdMatrix(U0)


def _resolve(M, cfg: GdConfig):
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
    M_spd, U0, eta = _resolve(M, cfg)
    M_arr = M_spd.values
    n = M_spd.n

    rng = None
    if err is not None:
        rng = np.random.default_rng(err.seed)
        lam_min_m, m_smin, _ = linalg.spectral_extremes(M_arr)
        _, u_smin, _ = linalg.spectral_extremes(U0.values)
        beta = min(u_smin, math.sqrt(m_smin))
        tolerance = eta * m_smin * beta / STABILITY_SLACK
        if err.delta >= tolerance and err.schedule != "none" and err.delta > 0.0:
            warnings.warn(
                f"error level delta={err.delta:.3e} is at or above the "
                f"stability tolerance {tolerance:.3e}; the residual floor "
                "bound is not guaranteed",
                stacklevel=3,
            )

    # The iterates live in ``block``: each update reads the iterate in slot
    # j - 1 and writes the next one to slot j, and the monitor runs on the
    # j pending iterates when the block is full and before the run stops,
    # so a loss of definiteness still wins over any later stop.  After a
    # flush j is 0 and slot -1, the last one, holds the iterate; with one
    # slot the update is in place.  Three more n x n buffers carry the
    # loop: D = U^2 - M and the two products of the update.  -D is the
    # residual matrix M - U^2; IEEE subtraction is antisymmetric, so
    # sqrt(d . d) over the raveled D is bitwise np.linalg.norm(M - U @ U).
    # Overflow is not an error here: a non-finite residual is caught
    # explicitly, and steps past a loss of definiteness in the same block
    # are computed and discarded.
    builder = _TraceBuilder()
    block = np.empty((max(1, MONITOR_BLOCK_BYTES // (8 * n * n)), n, n))
    slots = list(block)
    K = len(slots)
    U = slots[0]
    U[...] = U0.values
    G = np.empty_like(U)
    H = np.empty_like(U)
    draw = err is not None and err.delta != 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        D = U @ U
        np.subtract(D, M_arr, out=D)
        d = D.reshape(-1)
        r = math.sqrt(d.dot(d))
        if not math.isfinite(r):
            _raise_non_finite(r, 0, eta, builder, 0.0, 0.0)
        builder.append(0, r, eta, 0.0, 0.0)
        j = 1
        r0 = r
        if r <= cfg.tol or j == K:
            _monitor(builder, block, j)
            j = 0
        if r <= cfg.tol:
            return SpdMatrix(U), builder.finish(True, "converged")

        converged = False
        for t in range(1, cfg.max_iters + 1):
            _update(U, D, eta, cfg.resymmetrize, G, H, slots[j])
            U = slots[j]
            err_norm = 0.0
            err_fro = 0.0
            if draw and err.active_at(t):
                E = err.sample(rng, n)
                np.add(U, E, out=U)
                err_norm = err.delta
                err_fro = float(np.linalg.norm(E))
            np.dot(U, U, out=D)
            np.subtract(D, M_arr, out=D)
            r = math.sqrt(d.dot(d))
            if not math.isfinite(r):
                _monitor(builder, block, j)
                _raise_non_finite(r, t, eta, builder, err_norm, err_fro)
            builder.append(t, r, eta, err_norm, err_fro)
            j += 1
            done = r <= cfg.tol
            diverged = r > DIVERGENCE_FACTOR * r0
            if j == K or done or diverged:
                _monitor(builder, block, j)
                j = 0
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
        _monitor(builder, block, j)
    trace = builder.finish(converged, "converged" if converged else "max-iters")
    return SpdMatrix(U), trace


def _monitor(builder, block, j):
    """Monitor the last ``j`` trace rows, whose iterates are ``block[:j]``.

    One stacked call writes their ``sigma_min`` and ``opnorm``.  The first
    row whose iterate is not positive definite ends the trace and raises
    :class:`LostPositiveDefinitenessError`.  That row is a step t >= 1:
    U0 passed the same ``eigvalsh`` when its :class:`SpdMatrix` was built.
    """
    if j == 0:
        return
    lam, smin, opn = linalg.spectral_extremes(block[:j])
    c = builder.columns
    first = builder.k - j
    c["sigma_min"][first : builder.k] = smin
    c["opnorm"][first : builder.k] = opn
    lost = np.flatnonzero(lam <= 0.0)
    if lost.size:
        i = int(lost[0])
        t = int(c["t"][first + i])
        builder.k = first + i + 1
        raise LostPositiveDefinitenessError(
            f"iterate lost positive definiteness at step {t} "
            f"(lambda_min={float(lam[i]):.6e})",
            step=t,
            trace=builder.finish(False, "lost-positive-definiteness"),
        )


def _raise_non_finite(r, t, eta, builder, err_norm, err_fro):
    # A NaN residual fails both the tolerance and the growth test, so it is
    # caught explicitly.  The iterate is not passed to the monitor; its
    # spectrum is recorded as NaN.
    builder.append(t, r, eta, err_norm, err_fro)
    builder.columns["sigma_min"][t] = math.nan
    builder.columns["opnorm"][t] = math.nan
    raise DivergenceError(
        f"residual {r} at step {t} is not finite",
        step=t,
        trace=builder.finish(False, "diverged"),
    )
