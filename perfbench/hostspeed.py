"""Host speed: a fixed reference computation timed around every operation.

The benchmark's host shares its physical cores with other tenants, and its
CPU runs up to 1.9x slower for stretches of seconds to tens of minutes
(README, "Machine and pinning").  Taking the fastest or the median
repetition within a run removes short bursts, not a slow stretch that
covers a whole run.  So every timed operation is followed by a block of
reference samples, a fixed computation that does not use matsqrt, and its
wall time is divided by the median of the samples taken just before and
just after it.  Multiplied by ``REF_S`` this gives the operation's time at
the host speed at which one sample takes ``REF_S``: a slow stretch slows
the operation and the samples alike, while a change to matsqrt moves the
operation only.

The sample mixes what the workloads run: a Python loop of small (n = 16)
numpy updates with a Gaussian draw, a matrix product, a norm and an
``eigvalsh`` per iteration, and n = 64 products that run in BLAS.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# One sample's time at the reference speed.  A round figure near the median
# sample on the machine of the README, so that scaled times read close to
# that machine's wall times; it sets the unit and nothing else.
REF_S = 0.012
# Samples after each operation: at least MIN_SAMPLES, and enough to cover
# SHARE of the operation's wall time.
MIN_SAMPLES = 3
SHARE = 0.1

_rng = np.random.default_rng(12345)
_A16 = _rng.standard_normal((16, 16))
_A16 = _A16 @ _A16.T / 16.0 + np.eye(16)
_B64 = _rng.standard_normal((64, 64)) / 8.0


def sample_s() -> float:
    """Wall time of one run of the fixed reference computation."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    U = np.eye(16)
    for _ in range(200):
        E = rng.standard_normal((16, 16))
        R = _A16 - U @ U
        U = U + 0.01 * (R @ U + U @ R) + 1e-9 * (E + E.T)
        np.linalg.eigvalsh(U)
        np.linalg.norm(R)
    B = _B64
    for _ in range(8):
        B = 0.5 * (B @ _B64 + _B64)
    return time.perf_counter() - start


class HostSpeed:
    """Scales each operation's wall time by the reference samples around it."""

    def __init__(self):
        sample_s()  # warm-up: caches and lazy numpy set-up
        self.samples = []  # every sample taken, for the record
        self._before = self._block(0.0)

    def _block(self, wall: float) -> list:
        count = max(MIN_SAMPLES, int(SHARE * wall / REF_S + 0.5))
        block = [sample_s() for _ in range(count)]
        self.samples.extend(block)
        return block

    def scale(self, wall: float) -> float:
        """Multiplier from the wall time of the operation that just ended,
        ``wall``, to its time at the reference speed.

        Call it right after the operation, before anything else is timed.
        """
        after = self._block(wall)
        factor = statistics.median(self._before + after)
        self._before = after
        return REF_S / factor

    def median_sample_s(self) -> float:
        return statistics.median(self.samples)
