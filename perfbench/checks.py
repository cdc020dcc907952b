"""Correctness checks computed apart from the program.

Each check returns a list of problems; an empty list means it passed.  The
checks use numpy and the known roots from :mod:`inputs` only, never the
program's own norms, eigensolver or bounds, and never a stored copy of an
earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# The accuracy bound of acceptance check 01: relative Frobenius error of
# the root against the exact one.
ROOT_RTOL = 1e-6
# c in the paper's residual decay exp(-c eta beta^2 t); the program's
# default GdConfig.c_rate.
C_RATE = 1.0 / 50.0
# Round-off slack on the perturbed-residual bound, relative to the bound.
BOUND_RTOL = 1e-9


def check_exit(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def check_root(U: np.ndarray, root: np.ndarray) -> list:
    """U is finite, exactly symmetric, positive definite and close to root."""
    if not np.all(np.isfinite(U)):
        return ["root has non-finite entries"]
    problems = []
    if not np.array_equal(U, U.T):
        problems.append("root is not exactly symmetric")
    lam_min = float(np.linalg.eigvalsh(U)[0])
    if not lam_min > 0.0:
        problems.append(f"root is not positive definite (lambda_min {lam_min:.3e})")
    rel = float(np.linalg.norm(U - root) / np.linalg.norm(root))
    if not rel <= ROOT_RTOL:
        problems.append(f"relative error {rel:.3e} exceeds {ROOT_RTOL:g}")
    return problems


def check_converged(U: np.ndarray, M: np.ndarray, tol: float, converged: bool) -> list:
    """The solver says it converged and ||M - U^2||_F <= tol, by numpy."""
    problems = [] if converged else ["solver did not report convergence"]
    r = float(np.linalg.norm(M - U @ U))
    if not r <= tol:
        problems.append(f"residual {r:.3e} exceeds tol {tol:g}")
    return problems


def check_finite_pd(U: np.ndarray) -> list:
    if not np.all(np.isfinite(U)):
        return ["iterate has non-finite entries"]
    lam_min = float(np.linalg.eigvalsh((U + U.T) / 2.0)[0])
    return [] if lam_min > 0.0 else [f"iterate is not positive definite (lambda_min {lam_min:.3e})"]


def check_same_trace(a: dict, b: dict) -> list:
    """Two traces, as column dicts, are bitwise equal."""
    if a.keys() != b.keys():
        return [f"trace columns differ: {sorted(a)} vs {sorted(b)}"]
    return [
        f"trace column {k} differs"
        for k in a
        if not np.array_equal(np.asarray(a[k]), np.asarray(b[k]))
    ]


def perturbed_bound(M: np.ndarray, U0: np.ndarray, eta: float, err_fro) -> np.ndarray:
    """The paper's residual bound under per-step errors, for t = 0 .. len(err_fro).

    r_t <= exp(-c eta beta^2 t) r_0
           + 4 max(||U0||, sqrt(3 ||M||)) sum_{s<t} exp(-c eta beta^2 (t-s-1)) ||E_s||_F
    with beta = min(sigma_min(U0), sqrt(sigma_min(M))), every norm taken by numpy.
    """
    w_m = np.linalg.eigvalsh(M)
    w_u = np.linalg.eigvalsh(U0)
    beta = min(float(np.min(np.abs(w_u))), math.sqrt(float(np.min(np.abs(w_m)))))
    u_op = float(np.max(np.abs(w_u)))
    m_op = float(np.max(np.abs(w_m)))
    r0 = float(np.linalg.norm(M - U0 @ U0))
    g = math.exp(-C_RATE * eta * beta * beta)
    prefactor = 4.0 * max(u_op, math.sqrt(3.0 * m_op))
    out = np.empty(len(err_fro) + 1)
    out[0] = decay = r0
    acc = 0.0
    for t, e in enumerate(err_fro, start=1):
        decay *= g
        acc = g * acc + float(e)
        out[t] = decay + prefactor * acc
    return out


def check_under_bound(residuals, bound) -> list:
    residuals = np.asarray(residuals, dtype=float)
    over = np.nonzero(~(residuals <= bound * (1.0 + BOUND_RTOL)))[0]
    if over.size == 0:
        return []
    t = int(over[0])
    return [
        f"residual {residuals[t]:.3e} at step {t} exceeds the perturbed bound "
        f"{bound[t]:.3e} ({over.size} steps over)"
    ]


def check_shrinking(deltas, errors) -> list:
    """Final errors strictly decrease along a decreasing delta ladder."""
    return [
        f"final error {e1:.3e} at delta={d1:g} is not below {e0:.3e} at delta={d0:g}"
        for d0, d1, e0, e1 in zip(deltas, deltas[1:], errors, errors[1:])
        if not e1 < e0
    ]
