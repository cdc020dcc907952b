"""Instance generators, hard-instance replication, sweeps, and grids.

Four experiment families:

* seeded random SPD instances with prescribed spectrum and condition number,
* the 2x2 diagonal slow-convergence construction, certified in exact
  rational arithmetic,
* robustness sweeps that inject per-step errors and locate residual floors,
* a convergence benchmark table and the diagonal-restriction landscape grid.

Everything is deterministic given the seeds in the inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from . import analysis, baselines, linalg
from .gd import (
    METHODS,
    SPECTRUM_CHOICES,
    GdConfig,
    ErrorModel,
    GdError,
    LowerBoundError,
    gd_step,
    resolve,
    residual_fro,
    run,
    run_perturbed,
)

LANDSCAPE_HEADER = ("x", "y", "f", "neggrad_x", "neggrad_y")

# Residual floor detection: the run has plateaued once the residual changes
# by less than 1% over this many steps.
PLATEAU_WINDOW = 100
PLATEAU_RTOL = 0.01

_SQRT2 = math.sqrt(2.0)
# Stationary points of the diagonal restriction f(x, y) = (x^2-4)^2 + (y^2-2)^2,
# with their closed-form values.  These rows are appended to the uniform grid
# (float coordinates are the nearest-double labels of the exact points).
_LANDMARKS = (
    (0.0, 0.0, 20.0, 0.0, 0.0),
    (2.0, 0.0, 4.0, 0.0, 0.0),
    (0.0, _SQRT2, 16.0, 0.0, 0.0),
    (2.0, _SQRT2, 0.0, 0.0, 0.0),
)


@dataclass(frozen=True)
class SpdInstanceSpec:
    """Recipe for a random SPD test matrix with prescribed spectrum."""

    n: int
    kappa: float
    opnorm: float = 1.0
    spectrum: str = "geometric"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n", linalg.as_int("n", self.n, 1))
        if not 1.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and at least 1, got {self.kappa}")
        if self.kappa > 1.0 and self.n < 2:
            raise ValueError("kappa > 1 needs n >= 2")
        object.__setattr__(self, "opnorm", linalg.as_positive("opnorm", self.opnorm))
        if self.spectrum not in SPECTRUM_CHOICES:
            raise ValueError(f"spectrum must be one of {SPECTRUM_CHOICES}")
        object.__setattr__(self, "seed", linalg.as_int("seed", self.seed, 0))


def random_spd(spec: SpdInstanceSpec) -> linalg.SpdMatrix:
    """M = Q diag(lam) Q^T with lam_max = opnorm and lam_min = opnorm / kappa.

    Q comes from the QR factorization of a seeded Gaussian matrix with the
    sign of diag(R) fixed, so the same seed reproduces M bitwise.
    """
    n, lo = spec.n, spec.opnorm / spec.kappa
    if spec.spectrum == "geometric":
        lam = np.geomspace(spec.opnorm, lo, n)
    elif spec.spectrum == "linear":
        lam = np.linspace(spec.opnorm, lo, n)
    else:
        lam = np.array([spec.opnorm] * (n - n // 2) + [lo] * (n // 2))
    Q = linalg.random_orthogonal(np.random.default_rng(spec.seed), n)
    return linalg.SpdMatrix(linalg.from_eig(Q, lam))


@dataclass(frozen=True)
class LowerBoundInstance:
    """The 2x2 diagonal instance on which descent provably stalls.

    Normalized to ||M||_2 = 1, sigma_min(M) = 1/kappa.  ``case`` 1 is the
    large-step regime (eta >= 1/4) where the first update lands exactly on
    the singular saddle surface; case 2 is the small-step regime where the
    bottom coordinate crawls (see :func:`case2_alpha_trace`).
    """

    M: linalg.SpdMatrix
    U0: linalg.SpdMatrix
    eta: float
    case: int


def case2_alpha_trace(eta: float, sigma_min: float, steps: int) -> tuple:
    """Normalized scalar recurrence for the case-2 bottom coordinate.

    alpha_{t+1} = alpha_t (1 + 2 eta sigma_min (1 - alpha_t^2)), alpha_0 = 1/2.
    """
    out = [0.5]
    a = 0.5
    for _ in range(steps):
        a = a * (1.0 + 2.0 * eta * sigma_min * (1.0 - a * a))
        out.append(a)
    return tuple(out)


def lower_bound_instance(kappa: float, eta: float, case: int | None = None) -> LowerBoundInstance:
    """Construct the hard instance for a given condition number and step size.

    The case defaults to 1 exactly when eta >= 1/(4 ||M||_2) = 1/4; passing
    ``case`` overrides the classification (useful at the boundary).
    """
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and at least 1, got {kappa}")
    eta = linalg.as_positive("eta", eta)
    if case is None:
        case = 1 if eta >= 0.25 else 2
    elif case not in (1, 2):
        raise ValueError("case must be 1 or 2")
    sigma = 1.0 / kappa
    # diag(1, sigma) and case 1's start are SpdMatrix only while their
    # eigenvalue ratio exceeds SPD_RTOL
    if not sigma > linalg.SPD_RTOL:
        raise ValueError(f"kappa must be below {1.0 / linalg.SPD_RTOL:g}, got {kappa:g}")
    M = linalg.SpdMatrix(np.diag([1.0, sigma]))
    if case == 1:
        beta = 1.0 / (2.0 * eta) + 1.0
        if not math.sqrt(sigma) > linalg.SPD_RTOL * math.sqrt(beta):
            least = 0.5 / (sigma / linalg.SPD_RTOL**2 - 1.0)
            raise ValueError(
                f"case 1 at kappa {kappa:g} needs eta above about {least:.3g}, got {eta:g}"
            )
        U0 = np.diag([math.sqrt(beta), math.sqrt(sigma)])
    else:
        U0 = np.diag([1.0, 0.5 * math.sqrt(sigma)])
    return LowerBoundInstance(M=M, U0=linalg.SpdMatrix(U0), eta=eta, case=case)


def scalar_gd_trace(u0: float, m: float, eta: float, steps: int) -> np.ndarray:
    """Scalar gradient descent on (m - u^2)^2, in the same operation order
    as the matrix update, so diagonal instances can be compared bitwise."""
    out = np.empty(steps + 1)
    u = float(u0)
    out[0] = u
    for t in range(1, steps + 1):
        d = u * u - m
        g = d * u
        u = u - eta * (g + g)
        out[t] = u
    return out


def _round_up(x: Fraction, denom: int) -> Fraction:
    return Fraction(x.numerator * denom // x.denominator + 1, denom)


def _certify_case1(eta: float, sigma: float) -> bool:
    """Exact check that the first update lands on v = 0 and stays there.

    Works on the squared iterate v = u^2, which is rational: v_0 = beta =
    1/(2 eta) + 1 gives v_1 = v_0 (1 - 2 eta (v_0 - 1))^2 = 0 identically,
    and v = 0 is a fixed point.  The bottom coordinate starts at the fixed
    point sigma.  The residual is then 1/(2 eta) at t = 0 and 1 afterwards,
    and both must clear sigma/4.
    """
    e, s = Fraction(eta), Fraction(sigma)
    v0 = 1 / (2 * e) + 1
    v1 = v0 * (1 - 2 * e * (v0 - 1)) ** 2
    if v1 != 0:
        return False
    return 1 / (2 * e) >= s / 4 and 1 >= s / 4


def _certify_case2(eta: float, sigma: float, steps: int) -> bool:
    """Exact upper envelope of the case-2 recurrence, rounded outward.

    The update map F(a) = a (1 + c (1 - a^2)), c = 2 eta sigma, is
    increasing in a on [0, 1] for our step sizes, so a rational sequence
    h_t with h_0 = alpha_0 and h_{t+1} >= F(h_t) dominates the true
    alpha_t.  Rounding up to a fixed denominator keeps the arithmetic
    cheap.  If h_T^2 <= 3/4 then every residual sigma (1 - alpha_t^2) is
    at least sigma/4.
    """
    e, s = Fraction(eta), Fraction(sigma)
    c = 2 * e * s
    if c >= Fraction(1, 2):
        return False  # envelope argument needs F increasing on [0, 1]
    h = Fraction(1, 2)
    for _ in range(steps):
        h = _round_up(h * (1 + c * (1 - h * h)), 2**64)
        if h * h > Fraction(3, 4):
            return False
    return True


@dataclass(frozen=True)
class LowerBoundReport:
    """Float trajectory plus the exact-arithmetic certification verdict.

    ``escape_step`` is the first step at which the float-64 run drops below
    the certified bound (round-off eventually kicks case-1 iterates off the
    saddle surface); None when it never does within the horizon.
    """

    kappa: float
    eta: float
    case: int
    steps: int
    bound: float
    residuals: np.ndarray
    diag_top: np.ndarray
    diag_bottom: np.ndarray
    min_residual: float
    escape_step: int | None
    scalar_max_diff: float
    alpha_max_diff: float | None
    certified: bool

    def rows(self):
        for t in range(self.steps + 1):
            yield (t, float(self.residuals[t]), float(self.diag_top[t]),
                   float(self.diag_bottom[t]))


LOWER_BOUND_HEADER = ("t", "residual_fro", "diag_top", "diag_bottom")
# The longest horizon run_lower_bound runs: its arrays then take 24 MB and
# its per-step Python loop about a minute (2-core Xeon, case 2).
LOWER_BOUND_MAX_STEPS = 10**6


def run_lower_bound(
    kappa: float, eta: float, case: int | None = None, steps: int | None = None
) -> LowerBoundReport:
    """Run descent on the hard instance and certify the residual bound.

    The bound residual >= sigma_min/4 for t <= kappa holds for exact
    dynamics; it is certified here in rational arithmetic (the float run
    can leave the case-1 saddle surface through round-off, which is
    reported, not an error).  The matrix iterates must match the diagonal
    scalar recurrences to 1e-12 or :class:`LowerBoundError` is raised.
    A horizon, ``steps`` or ceil(kappa), above ``LOWER_BOUND_MAX_STEPS`` is
    refused before anything is allocated.
    """
    if kappa < 2.0:
        raise ValueError("kappa must be at least 2")
    inst = lower_bound_instance(kappa, eta, case)
    T = math.ceil(kappa) if steps is None else linalg.as_int("steps", steps, 1)
    if T > LOWER_BOUND_MAX_STEPS:
        raise ValueError(
            f"kappa must be at most {LOWER_BOUND_MAX_STEPS:g} for the default horizon "
            f"of ceil(kappa) steps, got {kappa:g}"
            if steps is None
            else f"steps must be at most {LOWER_BOUND_MAX_STEPS}, got {T}"
        )
    M = np.asarray(inst.M.values)
    sigma = float(M[1, 1])
    bound = 0.25 * sigma

    U = np.asarray(inst.U0.values).copy()
    res = np.empty(T + 1)
    top = np.empty(T + 1)
    bot = np.empty(T + 1)
    res[0], top[0], bot[0] = residual_fro(U, M), U[0, 0], U[1, 1]
    for t in range(1, T + 1):
        # bare steps: case 1 lands exactly on a singular iterate, which the
        # guarded driver would reject
        U = gd_step(U, M, inst.eta)
        res[t], top[t], bot[t] = residual_fro(U, M), U[0, 0], U[1, 1]

    s_top = scalar_gd_trace(float(inst.U0.values[0, 0]), float(M[0, 0]), inst.eta, T)
    s_bot = scalar_gd_trace(float(inst.U0.values[1, 1]), sigma, inst.eta, T)
    scalar_max_diff = max(
        float(np.max(np.abs(top - s_top))), float(np.max(np.abs(bot - s_bot)))
    )
    if not scalar_max_diff <= 1e-12:
        raise LowerBoundError(
            f"matrix iterates drift from the scalar recurrence by {scalar_max_diff:.3e}"
        )

    alpha_max_diff = None
    if inst.case == 2:
        alpha = np.array(case2_alpha_trace(inst.eta, sigma, T))
        alpha_max_diff = float(np.max(np.abs(bot - alpha * math.sqrt(sigma))))
        if not alpha_max_diff <= 1e-12:
            raise LowerBoundError(
                f"bottom coordinate drifts from alpha_t sqrt(sigma) by {alpha_max_diff:.3e}"
            )
        certified = _certify_case2(inst.eta, sigma, T)
    else:
        certified = _certify_case1(inst.eta, sigma)
    if not certified:
        raise LowerBoundError("exact certification of the residual bound failed")

    below = np.nonzero(res < bound - 1e-12)[0]
    escape = int(below[0]) if len(below) else None
    return LowerBoundReport(
        kappa=kappa,
        eta=inst.eta,
        case=inst.case,
        steps=T,
        bound=bound,
        residuals=res,
        diag_top=top,
        diag_bottom=bot,
        min_residual=float(res.min()),
        escape_step=escape,
        scalar_max_diff=scalar_max_diff,
        alpha_max_diff=alpha_max_diff,
        certified=certified,
    )


@dataclass(frozen=True)
class RobustnessRow:
    delta: float
    plateau_step: int
    floor_residual: float
    max_bound_ratio: float
    bound_satisfied: bool


ROBUSTNESS_HEADER = tuple(f.name for f in fields(RobustnessRow))


def residual_floor(trace, tol: float):
    """(floor, plateau_step) for a perturbed run.

    A converged run's floor is its final residual.  Otherwise the floor is
    the median residual over the first window of PLATEAU_WINDOW steps whose
    endpoints differ by less than PLATEAU_RTOL relative; if no window
    qualifies, the trailing window is used.
    """
    r = trace.residual_fro
    if trace.converged and trace.final_residual <= tol:
        return trace.final_residual, trace.steps
    for t in range(PLATEAU_WINDOW, len(r)):
        prev = r[t - PLATEAU_WINDOW]
        if abs(r[t] - prev) < PLATEAU_RTOL * prev:
            return float(np.median(r[t - PLATEAU_WINDOW : t + 1])), t
    start = max(0, len(r) - PLATEAU_WINDOW - 1)
    return float(np.median(r[start:])), trace.steps


def robustness_sweep(M, deltas, cfg: GdConfig, seed: int = 0) -> list:
    """Residual floors and bound checks for a nonincreasing error ladder.

    For each delta, runs the perturbed iteration to the configured horizon,
    locates the residual plateau, and verifies every recorded residual
    against the certified perturbed bound.  Returns RobustnessRow entries
    in input order.  A non-finite, negative or increasing delta, or a bad
    seed, is rejected before the first run.
    """
    errs = [ErrorModel(delta=float(d), schedule="every-step", seed=seed) for d in deltas]
    if any(b.delta > a.delta for a, b in zip(errs, errs[1:])):
        raise ValueError("deltas must be nonincreasing")
    M_spd, cfg = resolve(M, cfg)
    rate = analysis.rate_params(cfg.init, M_spd)
    rows = []
    for err in errs:
        _, trace = run_perturbed(M_spd, cfg, err)
        floor, plateau = residual_floor(trace, cfg.tol)
        bounds = analysis.stability_bound_series(
            float(trace.eta[0]),
            rate,
            float(trace.residual_fro[0]),
            trace.err_fro[1:],
            rate.u_op,
            rate.m_op,
        )
        ratio = float(np.max(trace.residual_fro / bounds))
        rows.append(
            RobustnessRow(
                delta=err.delta,
                plateau_step=plateau,
                floor_residual=floor,
                max_bound_ratio=ratio,
                bound_satisfied=bool(ratio <= 1.0 + 1e-9),
            )
        )
    return rows


@dataclass(frozen=True)
class BenchmarkRow:
    n: int
    kappa: float
    method: str
    iterations: int | None
    predicted_iterations: float | None
    wall_time_s: float
    final_residual: float | None
    status: str


BENCHMARK_HEADER = tuple(f.name for f in fields(BenchmarkRow))


def _bench_gd(M, cfg):
    M, cfg = resolve(M, cfg)
    try:
        _, trace = run(M, cfg)
    except GdError as exc:
        trace = exc.trace
    r0 = trace.residual_fro[0]
    predicted = analysis.rate_params(cfg.init, M).alpha * math.log(max(r0 / cfg.tol, 1.0))
    return trace.steps, predicted, trace.final_residual, trace.stop_reason


def convergence_benchmark(specs, methods=METHODS, cfg: GdConfig = None) -> list:
    """Iteration counts, wall time, and final residual per (instance, method).

    GD rows carry the alpha log(r0/tol) iteration prediction.  Per-row
    solver failures are recorded in the status column rather than raised,
    so one hard cell cannot sink a whole table.  Row order follows input
    order.  An unknown method is refused before the first run.
    """
    methods = tuple(methods)
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if cfg is None:
        cfg = GdConfig()
    rows = []
    for spec in specs:
        M = random_spd(spec)
        for method in methods:
            start = time.perf_counter()
            iters, predicted, resid, status = None, None, None, ""
            try:
                if method == "gd":
                    iters, predicted, resid, status = _bench_gd(M, cfg)
                elif method == "newton":
                    X, iters = baselines.newton_sqrt(M)
                    resid, status = residual_fro(X, M), "converged"
                else:
                    X = baselines.evd_sqrt(M)
                    iters, resid, status = 0, residual_fro(X, M), "converged"
            except ValueError:
                raise
            except Exception as exc:  # noqa: BLE001 - recorded per row
                status = f"error:{type(exc).__name__}"
            wall = time.perf_counter() - start
            rows.append(
                BenchmarkRow(
                    n=spec.n,
                    kappa=spec.kappa,
                    method=method,
                    iterations=iters,
                    predicted_iterations=predicted,
                    wall_time_s=wall,
                    final_residual=resid,
                    status=status,
                )
            )
    return rows


def _landscape_row(x: float, y: float) -> tuple:
    d1, d2 = x * x - 4.0, y * y - 2.0
    return (x, y, d1 * d1 + d2 * d2, -2.0 * d1 * x, -2.0 * d2 * y)


def landscape_grid(grid_min: float = 0.0, grid_max: float = 3.0, steps: int = 100) -> list:
    """Objective and negative-gradient samples of the diagonal restriction.

    For M = diag(4, 2) and U = diag(x, y), emits rows (x, y, f, -df/dx,
    -df/dy) with f = (x^2-4)^2 + (y^2-2)^2 over a uniform (steps+1)^2 grid,
    x outer and y inner.  The four stationary points are appended with
    their closed-form values whenever they fall inside the range but not on
    the grid (their irrational coordinates are labeled by nearest doubles).
    """
    if not 0.0 <= grid_min < grid_max < math.inf:
        raise ValueError("need 0 <= grid_min < grid_max, both finite")
    steps = linalg.as_int("steps", steps, 1)
    # past x = y = 2, f and |gradient| grow with x and y: the corner is the largest row
    if not all(map(math.isfinite, _landscape_row(grid_max, grid_max))):
        raise ValueError(f"grid_max {grid_max:g} puts inf in the corner row (grid_max, grid_max)")
    pts = np.linspace(grid_min, grid_max, steps + 1).tolist()
    rows = [_landscape_row(x, y) for x in pts for y in pts]
    for mark in _LANDMARKS:
        x, y = mark[0], mark[1]
        if grid_min <= x <= grid_max and grid_min <= y <= grid_max:
            if not (x in pts and y in pts):
                rows.append(mark)
    return rows
