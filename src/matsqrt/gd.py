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
import pickle
import threading
import warnings
from array import array
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
# ErrorModel.sample keeps the slice norms of at most this many drawn error
# slices per process (1 MiB of float64), evicting the oldest block first.
NORM_MEMO_SLICES = 1 << 17
# Each memoized block is also charged this many slices for its key, tuples
# and array header (400 to 550 bytes measured), so that the memo stays near
# 1 MiB whatever its block size.
NORM_MEMO_BLOCK_SLICES = 64


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
    sqrt(lambda) I with lambda the power-iteration estimate
    :func:`linalg.estimate_opnorm_bound` of ||M||_2,
    ``"sqrt-opnorm-identity"`` uses sqrt(||M||_2) I, and
    ``"explicit"`` takes ``init_matrix`` as given.  ``c_step`` scales the
    automatic step size; the defaults are pinned by the acceptance tests.
    """

    eta: float | str = "auto"
    max_iters: int = 10_000_000
    tol: float = 1e-8
    init: str = "scaled-identity"
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
        if (self.init == "explicit") != (self.init_matrix is not None):
            raise ValueError("init='explicit' requires init_matrix, and no other init takes one")
        if not (self.c_step > 0.0):
            raise ValueError("c_step must be positive")


@dataclass(frozen=True)
class ErrorModel:
    """Per-step additive perturbations of spectral norm just under ``delta``.

    Each scheduled step adds a symmetric Gaussian matrix from the seeded
    generator, scaled by one ``eigvalsh`` and a certified margin into
    delta (1 - 8 n eps) <= ||E_t||_2 <= delta (bar a subnormal delta's
    rounding).  ``schedule`` is ``"every-step"`` or ``"first-step-only"``;
    ``delta = 0`` injects nothing.  The errors are drawn in blocks of
    consecutive steps, one stacked draw per block, bitwise those of one
    draw per step; a block leaves the generator in the same state.  A
    process memoizes the block's slice norms, keyed by the bit generator's
    class and state before the draw, ``n`` and ``k``, and keeps at most
    ``NORM_MEMO_SLICES`` slices, oldest block out first (each block is also
    charged ``NORM_MEMO_BLOCK_SLICES`` for its overhead): a run that redraws
    a stream, such as each positive delta of a ladder under one seed, makes
    no eigensolve for it.  A hit also needs the block's first and last
    draws to match, so every block is bitwise the one computed afresh.
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
        if self.delta == 0.0:
            rng.standard_normal((k, n, n))
            return np.zeros((k, n, n))
        # numpy's Generator draws the same block from the same state, so
        # the slice norms are memoized by that state; any other rng skips it
        key = None
        if type(rng) is np.random.Generator:
            bits = rng.bit_generator
            # pickle, not str: str abbreviates long state arrays (MT19937)
            key = (type(bits), pickle.dumps(bits.state), n, k)
        G = rng.standard_normal((k, n, n))
        # a generator that another thread advanced between the state read
        # and the draw drew another block: its first and last draws differ
        ends = (float(G[0, 0, 0]), float(G[-1, -1, -1]))
        E = (G + G.transpose(0, 2, 1)) / 2.0
        s = None if key is None else _NORM_MEMO.get(key, ends)
        if s is None:
            w = np.linalg.eigvalsh(E)
            s = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
            s[s == 0.0] = 1.0  # a zero slice stays zero
            s.flags.writeable = False
            if key is not None:
                _NORM_MEMO.put(key, ends, s)
        # One scaling suffices: s is within n eps ||E||_2 of the norm, the
        # scale rounds twice and each entry's product by sqrt(n) eps / 2 of
        # it, and 4 n eps is at least twice their sum (n = 1: eigvalsh is
        # exact), so ||E||_2 <= delta while no scaled entry underflows.
        E *= (self.delta / (s * (1.0 + 4 * n * linalg.EPS)))[:, None, None]
        return E


class _NormMemo:
    """Read-only slice norms of drawn error blocks, keyed by the draw.

    A hit also needs the block's first and last draws to match.  ``held``
    counts the slices kept plus ``NORM_MEMO_BLOCK_SLICES`` a block; it
    stays at most ``NORM_MEMO_SLICES``, the oldest block evicted first.
    Lookups take no lock; an insertion and its evictions take one, so
    racing callers at worst recompute a block's norms.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._norms = {}
        self.held = 0

    def get(self, key, ends):
        entry = self._norms.get(key)
        return entry[1] if entry is not None and entry[0] == ends else None

    def put(self, key, ends, s: np.ndarray) -> None:
        with self._lock:
            if key in self._norms:
                return
            self._norms[key] = (ends, s)
            self.held += len(s) + NORM_MEMO_BLOCK_SLICES
            while self.held > NORM_MEMO_SLICES:
                _, evicted = self._norms.pop(next(iter(self._norms)))
                self.held -= len(evicted) + NORM_MEMO_BLOCK_SLICES

    def clear(self) -> None:
        with self._lock:
            self._norms.clear()
            self.held = 0


_NORM_MEMO = _NormMemo()


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
    """Per-step records of a run, one row per step including t = 0.

    Only what the loop measured is stored: the ``MEASURED`` columns, the
    Frobenius norms ``drawn_fro`` of the injected errors (the stability
    bound consumes them), and the run's ``step_size`` and error level
    ``delta``.  ``sigma_min`` and ``opnorm`` are a certified lower bound on
    the smallest and an upper bound on the largest singular value of the
    iterate; they are the exact ``eigvalsh`` values at t = 0, at each row
    where the loop refreshed its spectral bracket, and at the last row.
    The other columns of :class:`TraceRecord` are derived on each access,
    not cached: ``t`` is the row index, ``eta`` is ``step_size``,
    ``objective`` is ``residual_fro`` squared, and ``err_norm`` and
    ``err_fro`` are ``delta`` and ``drawn_fro`` on the rows that drew an
    error, always rows 1..len(drawn_fro), and zero elsewhere.  Only the
    seven columns of ``io.TRACE_HEADER`` appear in CSV output.
    """

    MEASURED = ("residual_fro", "sigma_min", "opnorm")
    __slots__ = MEASURED + ("drawn_fro", "step_size", "delta", "converged", "stop_reason")

    def __init__(self, columns, step_size, converged, stop_reason, delta=0.0, drawn_fro=()):
        # an array.array("d") column becomes a view of its buffer, not a copy
        for name, column in zip(self.MEASURED, columns):
            setattr(self, name, np.asarray(column, dtype=float))
        self.drawn_fro = np.asarray(drawn_fro, dtype=float)
        self.step_size, self.delta = step_size, delta
        self.converged, self.stop_reason = converged, stop_reason

    def __len__(self) -> int:
        return len(self.residual_fro)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self))

    @property
    def eta(self) -> np.ndarray:
        return np.full(len(self), self.step_size)

    @property
    def objective(self) -> np.ndarray:
        return self.residual_fro * self.residual_fro

    @property
    def err_norm(self) -> np.ndarray:
        return self._on_drawn_rows(self.delta)

    @property
    def err_fro(self) -> np.ndarray:
        return self._on_drawn_rows(self.drawn_fro)

    def _on_drawn_rows(self, values) -> np.ndarray:
        column = np.zeros(len(self))
        column[1 : 1 + len(self.drawn_fro)] = values
        return column

    @property
    def steps(self) -> int:
        return len(self) - 1

    @property
    def final_residual(self) -> float:
        return float(self.residual_fro[-1])

    def records(self) -> Iterator[TraceRecord]:
        """Rows of Python ``int``/``float``, one at a time."""
        columns = [getattr(self, name) for name in TraceRecord._fields]
        for row in zip(*columns):
            yield TraceRecord._make(x.item() for x in row)


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


def gd_step(U, M, eta: float) -> np.ndarray:
    """One update U - eta (U^2 - M) U - eta U (U^2 - M): U - eta gradient(U, M)."""
    U = np.array(U, dtype=float, order="C")
    return U - eta * gradient(U, M)


@dataclass(frozen=True)
class RateParams:
    """The quantities of a start U0 and target M that the guarantees read.

    ``u_op``, ``u_smin``, ``m_op`` and ``m_smin`` are ||U0||, sigma_min(U0),
    ||M|| and sigma_min(M), the widened ``eigvalsh`` bounds each
    :class:`SpdMatrix` keeps from its construction: the norms are upper
    and the sigma_min lower bounds, and sigma_min > 0 is certified.
    ``alpha`` = (max(||U0||, sqrt(||M||)) / beta)^3 scales the iteration
    count and ``beta`` = min(sigma_min(U0), sqrt(sigma_min(M))) the
    contraction; iterates of a certified run stay inside
    [corridor_low, corridor_high] in sigma_min and operator norm.
    """

    alpha: float
    beta: float
    corridor_low: float
    corridor_high: float
    kappa: float
    u_op: float
    u_smin: float
    m_op: float
    m_smin: float


def rate_params(U0, M) -> RateParams:
    """The :class:`RateParams` of a start and target (raw arrays are validated)."""
    _, u_smin, u_op = linalg.as_spd(U0).bounds
    _, m_smin, m_op = linalg.as_spd(M).bounds
    beta = min(u_smin, math.sqrt(m_smin))
    return RateParams(
        alpha=rate_cube(max(u_op, math.sqrt(m_op)) / beta, u_op, m_op),
        beta=beta,
        corridor_low=min(u_smin, math.sqrt(m_smin) / 10.0),
        corridor_high=corridor_top(u_op, m_op),
        kappa=m_op / m_smin,
        u_op=u_op, u_smin=u_smin, m_op=m_op, m_smin=m_smin,
    )


def corridor_top(u_op: float, m_op: float) -> float:
    """max(||U0||, sqrt(3 ||M||)): the certified bound on the iterates' norm."""
    return max(u_op, math.sqrt(3.0 * m_op))


def step_size_policy(U0, M, cfg: GdConfig) -> float:
    """Automatic step size.

    Returns ``c_step`` times the smallest of three bounds: an operator-norm
    safeguard 1 / (10 max(||U0||^2, 3 ||M||)), a corridor safeguard
    beta / corridor_high^3, and the rate-parameter safeguard
    1 / (alpha beta^2).  With ``c_step <= 1`` the iterates provably stay in
    the certified corridor.  Every quantity comes from :func:`rate_params`.

    The value scales like 1 / ||M|| under (M, U0) -> (s^2 M, s U0).
    """
    rate = rate_params(U0, M)
    u_op, m_op, beta = rate.u_op, rate.m_op, rate.beta
    bound_opnorm = 1.0 / (10.0 * max(u_op * u_op, 3.0 * m_op))
    bound_corridor = beta / rate_cube(rate.corridor_high, u_op, m_op)
    bound_rate = 1.0 / (rate.alpha * beta * beta)
    return cfg.c_step * min(bound_opnorm, bound_corridor, bound_rate)


def stability_tolerance(eta: float, rate: RateParams) -> float:
    """Largest per-step error spectral norm the stability bound tolerates."""
    return eta * rate.m_smin * rate.beta / STABILITY_SLACK


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
        lam = linalg.estimate_opnorm_bound(M_arr, seed=cfg.seed)
        return SpdMatrix(math.sqrt(lam) * np.eye(n))
    if cfg.init == "sqrt-opnorm-identity":
        return SpdMatrix(math.sqrt(linalg.spectral_norm(M)) * np.eye(n))
    return linalg.as_spd(cfg.init_matrix)


def resolve(M, cfg: GdConfig) -> tuple[SpdMatrix, SpdMatrix, float]:
    """(M, U0, eta) of a run: M validated, the start and the step size resolved.

    A run on ``dataclasses.replace(cfg, eta=eta, init="explicit",
    init_matrix=U0)`` resolves to the same objects without recomputing them.
    """
    M_spd = linalg.as_spd(M)
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
    tol, cap = cfg.tol, cfg.max_iters

    rng = None
    draw = err is not None and err.delta != 0.0
    block, j = (), 0
    if draw:
        rng = np.random.default_rng(err.seed)
        per_block = 1
        if err.schedule == "every-step":
            per_block = max(1, ERROR_BLOCK_BYTES // (8 * n * n))
        tolerance = stability_tolerance(eta, rate_params(U0, M_spd))
        if err.delta >= tolerance:
            warnings.warn(
                f"error level delta={err.delta:.3e} is at or above the "
                f"stability tolerance {tolerance:.3e}; the residual floor "
                "bound is not guaranteed",
                stacklevel=3,
            )

    # The trace keeps what the loop measures: a row's residual and spectral
    # bounds, and each drawn error's Frobenius norm (see IterationTrace).
    residuals, smins, opnorms, drawn = (array("d") for _ in range(4))
    delta = err.delta if draw else 0.0

    def trace(converged, stop_reason):
        columns = (residuals, smins, opnorms)
        return IterationTrace(columns, eta, converged, stop_reason, delta, drawn)

    # One iterate U is updated in place; three more n x n buffers carry the
    # loop: D = U^2 - M, the product G = D U and the step H = eta (G + G^T),
    # so that U - H is bitwise U - eta * gradient(U, M).  The sum goes to H,
    # not back into G: G and G.T overlap, and numpy would copy one of them.
    # -D is the residual matrix M - U^2; IEEE subtraction is antisymmetric,
    # so sqrt(d . d) over the raveled D is bitwise np.linalg.norm(M - U @ U).
    # Overflow is not an error here: a non-finite residual is caught
    # explicitly.
    #
    # The spectrum is bracketed, not recomputed every step.  A refresh takes
    # lambda_min and lambda_max of U from one eigvalsh, records them as they
    # are, and widens them by 2 n eps ||U||_2, twice LAPACK's error bound
    # (``linalg.eigvalsh_pad``, as for every SpdMatrix), into [lo, hi].
    # By Weyl's inequality an eigenvalue then moves by at most
    # ||U_{t+1} - U_t||_2 <= ||H||_F + ||E_t||_2 + ||R||_F a step, R the
    # rounding of U - H and of + E_t: at most ||H||_F + ||E_t||_F, since
    # rounding to nearest moves an entry by at most the operand added to
    # it, and at most eps sqrt(n) (||U_t||_2 + ||H||_F + ||E_t||_2).
    # ``grow`` and ``tiny`` cover the ddot's error gamma_{n^2} and the
    # underflow of its squares; ``tiny`` also covers the rounding by which
    # an error of subnormal delta exceeds delta.  Each constant is at least
    # twice its bound, which covers the roundings of the sums.  ``slack``
    # sums the steps since the refresh, rounded up, and a row records
    # lo - slack and hi + slack, rounded outward.
    # The loop refreshes at t = 0, at every stop, and when the slack exceeds
    # BRACKET_RTOL lo or is not finite, so lo - slack >= (15/16) lo > 0
    # certifies definiteness in between and a loss is found at its own step.
    #
    # Each pass of the loop records row t, then steps to t + 1.  A row is
    # common when tol < r <= r_div = 10 r0, t is not the cap and the slack
    # is within its limit: it appends its bracket and nothing else.  NaN
    # fails every comparison, and r_div is finite, since a finite r0 is the
    # root of a ddot that did not overflow, so r0^2 and 10 r0 are finite: a
    # non-finite residual fails the chain too.  Every other row takes
    # the rare branch, which tests in the order of the guards: a non-finite
    # residual, then a refresh, a loss of definiteness, convergence,
    # divergence and the cap.  t = 0 always takes it: its slack is infinite.
    # At n <= 16 the interpreter's bookkeeping costs as much as the BLAS
    # calls, so the callables and ``G.T`` are bound once, ``np.dot`` makes
    # the BLAS call of ``@`` with less dispatch, and eta is held in a 0-d
    # array, which ``multiply`` takes without converting a Python float:
    # the product is the same IEEE product.
    U = np.array(U0.values, order="C")
    D = np.empty_like(U)
    d = D.reshape(-1)
    G = np.empty_like(U)
    GT = G.T
    H = np.empty_like(U)
    h = H.reshape(-1)
    eta_h = np.array(eta)
    eps = linalg.EPS
    grow = 1.0 + (n * n + 4) * eps
    tiny = n * 2.0**-537
    root_n = math.sqrt(n)
    rounding = 2.0 * eps * root_n
    down, up = 1.0 - eps, 1.0 + 2.0 * eps
    lo, hi, limit, slack = 0.0, 0.0, 0.0, math.inf
    converged = False
    dot, add, multiply, subtract, sqrt = np.dot, np.add, np.multiply, np.subtract, math.sqrt
    hdot, ddot = h.dot, d.dot
    add_r, add_smin, add_opn = residuals.append, smins.append, opnorms.append

    with np.errstate(over="ignore", invalid="ignore"):
        dot(U, U, D)
        subtract(D, M_arr, D)
        r = r0 = sqrt(ddot(d))
        r_div = DIVERGENCE_FACTOR * r0
        for t in range(cap + 1):
            if tol < r <= r_div and t != cap and slack <= limit:
                add_r(r)
                add_smin((lo - slack) * down)
                add_opn((hi + slack) * up)
            else:
                add_r(r)
                if not math.isfinite(r):
                    add_smin(math.nan)
                    add_opn(math.nan)
                    raise DivergenceError(
                        f"residual {r} at step {t} is not finite",
                        step=t,
                        trace=trace(False, "diverged"),
                    )
                lam, smin, opn = linalg.spectral_extremes(U)
                add_smin(smin)
                add_opn(opn)
                if lam <= 0.0:
                    raise LostPositiveDefinitenessError(
                        f"iterate lost positive definiteness at step {t} "
                        f"(lambda_min={lam:.6e})",
                        step=t,
                        trace=trace(False, "lost-positive-definiteness"),
                    )
                pad = linalg.eigvalsh_pad(n, opn)
                lo, hi, slack = lam - pad, opn + pad, 0.0
                limit = BRACKET_RTOL * lo
                if r <= tol:
                    converged = True
                    break
                if r > r_div:
                    raise DivergenceError(
                        f"residual {r:.6e} at step {t} exceeds {DIVERGENCE_FACTOR:g}x "
                        f"its initial value {r0:.6e}",
                        step=t,
                        trace=trace(False, "diverged"),
                    )
                if t == cap:
                    break
            dot(D, U, G)
            add(G, GT, H)
            multiply(eta_h, H, H)
            subtract(U, H, U)
            e = 0.0
            if draw and err.active_at(t + 1):
                if j == len(block):
                    block = err.sample(rng, n, min(per_block, cap - t))
                    j = 0
                E = block[j]
                j += 1
                add(U, E, U)
                # bitwise np.linalg.norm(E): the dot of the raveled slice
                f = E.reshape(-1)
                drawn.append(sqrt(f.dot(f)))
                e = delta * grow
            a = sqrt(hdot(h)) * grow + tiny
            rnd = min(a + root_n * e, rounding * (hi + slack + a + e))
            slack = (slack + a + e + rnd) * up
            dot(U, U, D)
            subtract(D, M_arr, D)
            r = sqrt(ddot(d))
    return SpdMatrix(U), trace(converged, "converged" if converged else "max-iters")
