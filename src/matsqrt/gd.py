"""Gradient descent for the matrix square root.

Minimizes f(U) = ||M - U^2||_F^2 over symmetric positive definite U with the
fixed-step update

    U_{t+1} = U_t - eta (U_t^2 - M) U_t - eta U_t (U_t^2 - M).

For symmetric U and D = U^2 - M the second product is the transpose of the
first, U D = (D U)^T, so the update is computed as U - eta (G + G^T) with
the one product G = D U; G + G^T is exactly symmetric, so every iterate of
a symmetric start is too.  ``gradient`` returns the same G + G^T, which is
half the Euclidean gradient of f; the factor is absorbed into the step
size.  The automatic step size is the smaller of two safeguards, each
keeping the iterates inside the region where the certified eigenvalue
corridor, smoothness, and gradient dominance bounds of
:mod:`matsqrt.analysis` apply.  The trace's ``sigma_min`` and ``opnorm``
are certified Weyl bounds, exact at t = 0, at each refresh of the loop's
spectrum and at the stop.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from . import linalg
from .linalg import SpdMatrix

INIT_CHOICES = ("scaled-identity", "sqrt-opnorm-identity")
SCHEDULE_CHOICES = ("every-step", "first-step-only")
# The root methods and random spectra of the experiments, kept here so that
# the command line offers them without loading :mod:`matsqrt.experiments`.
METHODS = ("gd", "newton", "evd")
SPECTRUM_CHOICES = ("geometric", "linear", "two-point")

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
    """Base class for solver failures; a failed run carries its trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace

    @property
    def step(self) -> int | None:
        """The step at which the run stopped, the trace's last row; None without one."""
        return None if self.trace is None else self.trace.steps


class DivergenceError(GdError):
    pass


class LostPositiveDefinitenessError(GdError):
    pass


class LowerBoundError(RuntimeError):
    """The hard-instance run contradicted its certified bound."""


@dataclass(frozen=True)
class GdConfig:
    """Solver configuration.

    ``eta`` is either a positive finite number, stored as a float, or
    ``"auto"``, in which case :func:`step_size_policy` picks the step size.
    ``init`` is the start: ``"scaled-identity"`` uses sqrt(lambda) I with
    lambda = 1.5 ||M||_2 (:func:`linalg.estimate_opnorm_bound`),
    ``"sqrt-opnorm-identity"`` uses sqrt(||M||_2) I, both from the norm
    the matrix keeps, and a matrix (an array, a nested list or an
    :class:`SpdMatrix`) is the start itself.  ``c_step``, positive and
    finite, scales the automatic step size; the defaults are pinned by the
    acceptance tests.
    Nothing in a run is random but an :class:`ErrorModel`'s errors.
    """

    eta: float | str = "auto"
    max_iters: int = 10_000_000
    tol: float = 1e-8
    init: object = "scaled-identity"
    c_step: float = 0.01

    def __post_init__(self):
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ValueError(f"eta must be positive or 'auto', got {self.eta!r}")
        else:
            # an int or numpy scalar step size must not fall through to "auto"
            object.__setattr__(self, "eta", linalg.as_positive("eta", self.eta))
        object.__setattr__(self, "max_iters", linalg.as_int("max_iters", self.max_iters, 1))
        object.__setattr__(self, "tol", linalg.as_positive("tol", self.tol))
        # a start matrix cannot be compared with ``in``
        if self.init is None or (isinstance(self.init, str) and self.init not in INIT_CHOICES):
            raise ValueError(f"init must be one of {INIT_CHOICES} or a matrix, got {self.init!r}")
        object.__setattr__(self, "c_step", linalg.as_positive("c_step", self.c_step))


@dataclass(frozen=True)
class ErrorModel:
    """Per-step additive perturbations of Frobenius norm just under ``delta``.

    Each scheduled step adds a symmetric Gaussian matrix from the generator
    ``default_rng(seed)``, scaled by its Frobenius norm and a certified
    margin into delta (1 - 2 (n^2 + 4) eps) <= ||E_t||_F <= delta (bar a
    subnormal delta's rounding), so that ||E_t||_2 <= delta too.
    ``schedule`` is ``"every-step"`` or ``"first-step-only"``;
    ``delta = 0`` injects nothing; ``seed`` is a non-negative integer.  The
    errors are drawn in blocks of consecutive steps, one stacked draw per
    block, bitwise those of one draw per step, so the slice of step t
    depends only on the seed, n and t.
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
        # default_rng returns a Generator seed as it is, and a run would then
        # draw from, and advance, the caller's generator: its errors would
        # depend on what drew from it before, not on (seed, n, t) alone
        object.__setattr__(self, "seed", linalg.as_int("seed", self.seed, 0))

    def errors(self, n: int, cap: int) -> Iterator[np.ndarray]:
        """E_1, E_2, ... of a run of order ``n``: ``cap`` errors every step, or E_1 alone."""
        return (E for E, _ in self._stream(n, cap))

    def _stream(self, n: int, cap: int) -> Iterator[tuple[np.ndarray, float]]:
        """(E_t, ||E_t||_F) for the steps of :meth:`errors`.

        Each block is one :meth:`sample`, drawn when its first error is
        taken, and its slices' norms are one :func:`_fro_norms`.
        """
        rng = np.random.default_rng(self.seed)
        steps = cap if self.schedule == "every-step" else 1
        k = max(1, ERROR_BLOCK_BYTES // (8 * n * n))
        for at in range(1, steps + 1, k):
            E = self.sample(rng, n, min(k, steps + 1 - at))
            yield from zip(E, _fro_norms(E).tolist())

    def sample(self, rng, n: int, k: int) -> np.ndarray:
        """The errors of the next ``k`` scheduled steps, a (k, n, n) stack.

        A slice whose symmetric part is zero stays zero.  With ``delta = 0``
        every slice is zero, and the generator still advances by the draw.
        """
        if self.delta == 0.0:
            rng.standard_normal((k, n, n))
            return np.zeros((k, n, n))
        G = rng.standard_normal((k, n, n))
        E = G + G.transpose(0, 2, 1)
        E *= 0.5  # bitwise / 2.0, in the one buffer
        s = _fro_norms(E)
        s[s == 0.0] = 1.0  # a zero slice stays zero
        # One scaling suffices: the ddot's error gamma_{n^2} puts s within
        # (n^2 / 4 + 1 / 2) eps ||E||_F of the norm, the scale rounds twice
        # and each entry's product once, by eps / 2 each, and (n^2 + 4) eps
        # is at least twice their sum, so ||E||_F <= delta.
        E *= (self.delta / (s * (1.0 + (n * n + 4) * linalg.EPS)))[:, None, None]
        return E


def _fro_norms(E: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each slice of a (k, n, n) stack, one batched dot.

    numpy's matmul of a 1 x n^2 by an n^2 x 1 core is the BLAS ddot of
    ``ndarray.dot``, so each is bitwise ``np.linalg.norm`` of its slice.
    A norm outside [``linalg.TINY_NORM``, inf), whose squares may have
    under- or overflowed, is taken again by :func:`linalg.frobenius_norm`.
    """
    f = E.reshape(len(E), 1, -1)
    with np.errstate(over="ignore"):
        s = np.sqrt(np.matmul(f, f.transpose(0, 2, 1))).reshape(-1)
    for j in np.flatnonzero((s < linalg.TINY_NORM) | (s == math.inf)):
        s[j] = linalg.frobenius_norm(E[j])
    return s


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
    __slots__ = MEASURED + ("drawn_fro", "step_size", "delta", "stop_reason")

    def __init__(self, columns, step_size, stop_reason, delta=0.0, drawn_fro=()):
        # an array.array("d") column becomes a view of its buffer, not a copy
        for name, column in zip(self.MEASURED, columns):
            setattr(self, name, np.asarray(column, dtype=float))
        self.drawn_fro = np.asarray(drawn_fro, dtype=float)
        self.step_size, self.delta, self.stop_reason = step_size, delta, stop_reason

    def __len__(self) -> int:
        return len(self.residual_fro)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

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
    """f(U) = ||M - U^2||_F^2; inf where that passes the largest double."""
    try:
        return residual_fro(U, M) ** 2
    except OverflowError:
        return math.inf


def residual_fro(U, M) -> float:
    """||M - U^2||_F, by :func:`linalg.frobenius_norm`."""
    U = np.asarray(U, dtype=float)
    M = np.asarray(M, dtype=float)
    return linalg.frobenius_norm(M - U @ U)


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
    u_smin, u_op = linalg.as_spd(U0).bounds
    m_smin, m_op = linalg.as_spd(M).bounds
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

    Returns ``c_step`` times the smaller of an operator-norm safeguard
    1 / (10 max(||U0||^2, 3 ||M||)) and a corridor safeguard
    beta / corridor_high^3, which is at most 1 / (alpha beta^2).  With
    ``c_step <= 1`` the iterates provably stay in the certified corridor.
    Every quantity comes from :func:`rate_params`.

    The value scales like 1 / ||M|| under (M, U0) -> (s^2 M, s U0).
    """
    rate = rate_params(U0, M)
    u_op, m_op, beta = rate.u_op, rate.m_op, rate.beta
    bound_opnorm = 1.0 / (10.0 * max(u_op * u_op, 3.0 * m_op))
    bound_corridor = beta / rate_cube(rate.corridor_high, u_op, m_op)
    return cfg.c_step * min(bound_opnorm, bound_corridor)


def stability_tolerance(eta: float, rate: RateParams) -> float:
    """Largest per-step error spectral norm the stability bound tolerates.

    An :class:`ErrorModel`'s delta bounds ||E_t||_F, and so also ||E_t||_2.
    """
    return eta * rate.m_smin * rate.beta / STABILITY_SLACK


def rate_cube(x: float, u_op: float, m_op: float) -> float:
    """x ** 3 for a rate parameter; a :class:`GdError` if it is not a normal double.

    Python's float power raises ``OverflowError`` past the largest double,
    as for a start like 1e200 I, but cubes an infinite x to inf, and a
    tiny one, as for ||M|| = 1e-300, to a subnormal or 0 without a word;
    either way the error names the start's and the matrix's spectral norms.
    """
    try:
        cube = x**3
    except OverflowError:
        cube = math.inf
    if 2.0**-1022 <= cube < math.inf:
        return cube
    raise GdError(
        f"rate parameters {'overflow' if cube > 1.0 else 'underflow'} for a start "
        f"of spectral norm {u_op:.6e} and a matrix of spectral norm {m_op:.6e}"
    )


def initial_iterate(M, cfg: GdConfig) -> SpdMatrix:
    """Resolve the starting iterate prescribed by ``cfg`` (a raw M is validated)."""
    if not isinstance(cfg.init, str):
        return linalg.as_spd(cfg.init)
    M = linalg.as_spd(M)
    if cfg.init == "scaled-identity":
        lam = linalg.estimate_opnorm_bound(M)
    else:
        lam = linalg.spectral_norm(M)
    return linalg.scaled_identity(math.sqrt(lam), M.n)


def resolve(M, cfg: GdConfig) -> tuple[SpdMatrix, GdConfig]:
    """(M, cfg) of a run: M validated, and the config a run reads.

    Its ``init`` is the start as an :class:`SpdMatrix` and its ``eta`` the
    step size, a float; resolving it again recomputes neither.
    """
    M_spd = linalg.as_spd(M)
    U0 = initial_iterate(M_spd, cfg)
    if U0.n != M_spd.n:
        raise linalg.DimensionMismatchError(
            f"initial iterate has order {U0.n}, matrix has order {M_spd.n}"
        )
    eta = cfg.eta if isinstance(cfg.eta, float) else step_size_policy(U0, M_spd, cfg)
    return M_spd, replace(cfg, eta=eta, init=U0)


def run(M, cfg: GdConfig = GdConfig()) -> tuple[SpdMatrix, IterationTrace]:
    """Iterate gd_step until the residual reaches ``cfg.tol`` or the cap.

    Returns the final iterate and the full per-step trace.  Raises
    :class:`DivergenceError` when the residual is not finite or exceeds ten
    times its initial value and :class:`LostPositiveDefinitenessError` when
    an iterate, or the last one as an :class:`SpdMatrix`, is not positive
    definite; both carry the trace, which names the stop and its step.
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
    M_spd, cfg = resolve(M, cfg)
    M_arr = M_spd.values
    n = M_spd.n
    U0, eta, tol, cap = cfg.init, cfg.eta, cfg.tol, cfg.max_iters

    draw = err is not None and err.delta != 0.0
    if draw:
        errors = err._stream(n, cap)
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

    def trace(stop_reason):
        return IterationTrace((residuals, smins, opnorms), eta, stop_reason, delta, drawn)

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
    # (``linalg.widened``, as for every SpdMatrix), into [lo, hi].
    # By Weyl's inequality an eigenvalue then moves by at most
    # ||U_{t+1} - U_t||_2 <= ||H||_F + ||E_t||_2 + ||R||_F a step, R the
    # rounding of U - H and of + E_t: at most ||H||_F + ||E_t||_F, since
    # rounding to nearest moves an entry by at most the operand added to
    # it, and at most eps sqrt(n) (||U_t||_2 + ||H||_F + ||E_t||_2).  An
    # error's Frobenius norm is at most delta (see ErrorModel), so e = delta
    # bounds both of its norms.  ``slack`` sums the steps since the refresh,
    # rounded up, and a row records lo - slack and hi + slack, rounded
    # outward.  Every eigenvalue of U lies in [lo - slack, top], top =
    # hi + slack, and lo + hi > 0, so ||U||_2 <= top.
    #
    # ||H||_F is bounded, not taken: as in the paper,
    # ||eta (D U + U D)||_F <= 2 eta ||D||_F ||U||_2, and the loop already
    # has r for ||D||_F and top for ||U||_2, so a = c r top + tiny.  With
    # u = eps / 2 and nu = n 2^-537, in the order of the computation:
    # - ||D||_F <= (r / (1 - u) + nu) / sqrt(1 - gamma_{n^2}): the ddot errs
    #   by gamma_{n^2} ||D||_F^2 and by at most n^2 2^-1074 = nu^2 where its
    #   squares underflow, and the sqrt rounds once (a residual that the
    #   rare branch takes again by ``linalg.frobenius_norm`` has no ddot
    #   error and is within an ulp of ||D||_F);
    # - ||G||_F <= (1 + sqrt(n) gamma_n) ||D||_F ||U||_2 + nu^2: each entry
    #   of G = D U errs by gamma_n (|D| |U|) and by n 2^-1075 of underflow,
    #   and || |D| |U| ||_F <= ||D||_F ||U||_F <= sqrt(n) ||D||_F ||U||_2;
    # - ||H||_F <= 2 eta (1 + u)^2 ||G||_F + n 2^-1075: G + G^T and the
    #   product by eta round once each, and the product may underflow;
    # - ||U||_2 <= top / (1 - u), and c r top + tiny rounds three times.
    # To first order the factor on 2 eta r top is 1 + (n^2 / 2 + n sqrt(n)
    # + 7) u, and 2 u more for the roundings of c; ``c`` takes twice their
    # sum, which also covers the higher orders while n^2 eps is small.  The
    # absolute terms are 2 eta nu ||U||_2 and 2 eta nu^2, each times
    # 1 + O(n^2 eps), and n 2^-1075; a step is taken only where slack <=
    # max(limit, 0) <= hi / 16, so ||U||_2 <= (17 / 16) hi (1 + u) until
    # the next refresh, which sets ``tiny`` = 4 c nu (hi + nu) + 2 nu.  Its
    # 2 nu also covers the roundings and underflows of a and of tiny
    # itself, and the rounding by which an error of subnormal delta exceeds
    # delta.  The factor of 2 in ``rounding``, ``c`` and ``tiny`` also
    # covers the roundings of the sums that make ``rnd`` and ``slack``.
    # The loop refreshes at t = 0, at every stop, and when the slack exceeds
    # BRACKET_RTOL lo or is not finite, so lo - slack >= (15/16) lo > 0
    # certifies definiteness in between and a loss is found at its own step.
    #
    # Each pass takes the residual r of row t, records the row, then steps.
    # A row is common when tol < r <= r_div = 10 r0, t is not the cap and
    # the slack is within its limit: it appends its bracket and nothing
    # else.  NaN fails every comparison, and r_div is finite, since a finite
    # r0 is the root of a ddot that did not overflow, so r0^2 and 10 r0 are
    # finite: a non-finite residual fails the chain too.  Every other row
    # takes the rare branch, which tests in the order of the guards: a
    # non-finite residual, then a refresh, a loss of definiteness,
    # convergence, divergence and the cap; t = 0 always does, with infinite
    # slack, and sets r_div.  It takes a residual under linalg.TINY_NORM
    # again by ``linalg.frobenius_norm``, so no underflowed square stops a run.
    # At n <= 16 the interpreter's bookkeeping costs as much as the BLAS
    # calls, so the callables and ``G.T`` are bound once, the bound
    # ``ndarray.dot`` of U and of D makes the BLAS call of ``@`` with the
    # least dispatch (it and ``np.dot`` both call PyArray_MatrixProduct2),
    # and eta is held in a 0-d array, which ``multiply`` takes without
    # converting a Python float: the product is the same IEEE product.
    U = np.array(U0.values, order="C")
    D = np.empty_like(U)
    d = D.reshape(-1)
    G = np.empty_like(U)
    GT = G.T
    H = np.empty_like(U)
    eta_h = np.array(eta)
    eps = linalg.EPS
    nu = n * 2.0**-537
    c = 2.0 * eta * (1.0 + (n * n / 2 + n * math.sqrt(n) + 9) * eps)
    rounding = 2.0 * eps * math.sqrt(n)
    down, up = 1.0 - eps, 1.0 + 2.0 * eps
    lo, hi, limit, slack = 0.0, 0.0, 0.0, math.inf
    add, multiply, subtract, sqrt = np.add, np.multiply, np.subtract, math.sqrt
    u_times, d_times, ddot = U.dot, D.dot, d.dot
    add_r, add_smin, add_opn = residuals.append, smins.append, opnorms.append

    r_div = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(cap + 1):
            u_times(U, D)
            subtract(D, M_arr, D)
            r = sqrt(ddot(d))
            if tol < r <= r_div and t != cap and slack <= limit:
                top = hi + slack
                add_r(r)
                add_smin((lo - slack) * down)
                add_opn(top * up)
            else:
                if r < linalg.TINY_NORM:
                    r = linalg.frobenius_norm(D)
                add_r(r)
                if not math.isfinite(r):
                    add_smin(math.nan)
                    add_opn(math.nan)
                    raise DivergenceError(
                        f"residual {r} at step {t} is not finite",
                        trace=trace("diverged"),
                    )
                if t == 0:
                    r_div = DIVERGENCE_FACTOR * r
                lam, smin, opn = linalg.spectral_extremes(U)
                add_smin(smin)
                add_opn(opn)
                if lam <= 0.0:
                    raise LostPositiveDefinitenessError(
                        f"iterate lost positive definiteness at step {t} "
                        f"(lambda_min={lam:.6e})",
                        trace=trace("lost-positive-definiteness"),
                    )
                (lo, hi), slack = linalg.widened(lam, opn, n), 0.0
                top, limit = hi, BRACKET_RTOL * lo
                tiny = 4.0 * c * nu * (hi + nu) + 2.0 * nu
                if r <= tol:
                    break
                if r > r_div:
                    raise DivergenceError(
                        f"residual {r:.6e} at step {t} exceeds {DIVERGENCE_FACTOR:g}x "
                        f"its initial value {residuals[0]:.6e}",
                        trace=trace("diverged"),
                    )
                if t == cap:
                    break
            d_times(U, G)
            add(G, GT, H)
            multiply(eta_h, H, H)
            subtract(U, H, U)
            e = 0.0
            if draw and (drawn_error := next(errors, None)) is not None:
                E, fro = drawn_error
                add(U, E, U)
                drawn.append(fro)
                e = delta
            a = c * r * top + tiny
            rnd = min(a + e, rounding * (top + a + e))
            slack = (slack + a + e + rnd) * up
    # The stop row's refresh took U's extreme eigenvalues, and lam > 0
    # there, so (lam, opn) are eigvalsh's first and last: U, exactly
    # symmetric, needs no second eigensolve to be returned.
    stop = trace("converged" if r <= tol else "max-iters")
    try:
        return SpdMatrix.with_spectrum(U, lam, opn), stop
    except linalg.NotPositiveDefiniteError:  # lambda_min > 0, but under SPD_RTOL ||U||
        raise LostPositiveDefinitenessError(
            f"iterate at step {t} is too close to singular to return "
            f"(lambda_min={lam:.6e}, lambda_max={opn:.6e})",
            trace=trace("lost-positive-definiteness"),
        ) from None
