"""Seeded SPD inputs with known square roots.

Every input is M = Q diag(lam) Q^T with a geometric spectrum from 1 down to
1 / kappa, so ||M||_2 = 1, and Q orthogonal from the QR factorisation of a
Gaussian matrix drawn from the given seed.  The exact root Q diag(sqrt(lam))
Q^T is formed from the same factors, so checks compare against a root the
program never saw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    name: str
    n: int
    kappa: float
    M: np.ndarray
    root: np.ndarray


def spd_instance(name: str, n: int, kappa: float, seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.where(np.diag(R) >= 0.0, 1.0, -1.0)
    lam = np.geomspace(1.0, 1.0 / kappa, n)
    M = (Q * lam) @ Q.T
    root = (Q * np.sqrt(lam)) @ Q.T
    # exact symmetry, which the program's SPD wrapper would impose anyway
    M, root = (M + M.T) / 2.0, (root + root.T) / 2.0
    for A in (M, root):
        A.setflags(write=False)
    return Instance(name, n, kappa, M, root)


def sub_seed(seed: int, index: int) -> int:
    """Independent child seed for input ``index`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def write_matrix_file(path, A: np.ndarray) -> None:
    """The program's text format, written with %.17g so it reads back bitwise."""
    with open(path, "w") as f:
        f.write(f"{A.shape[0]}\n")
        for row in A:
            f.write(" ".join("%.17g" % x for x in row) + "\n")


def read_matrix_file(path) -> np.ndarray:
    rows = []
    with open(path) as f:
        for line in f:
            s = line.strip()
            if s and not s.startswith("#"):
                rows.append([float(x) for x in s.split()])
    n = int(rows[0][0])
    A = np.array(rows[1:], dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"{path}: expected a {n}x{n} matrix, got shape {A.shape}")
    return A


def read_trace_csv(path) -> dict:
    """Columns of a trace CSV as float arrays, keyed by header name."""
    with open(path) as f:
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}
