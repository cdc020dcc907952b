"""Spans and counters around calls into matsqrt, taken from outside the program.

:func:`instrument` replaces each layer function with a timing wrapper under
every name a matsqrt module binds it to (``cli`` imports ``run`` and
``step_size_policy`` by name from ``gd``, so both bindings are wrapped), and
restores the originals on exit.  Span layers record one span per call with
a name, start, end and parent; per-step layers, called once per descent
step, keep only a count and a total so that the trace stays small.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import matsqrt
from matsqrt import analysis, baselines, cli, experiments, gd, io, linalg

MODULES = (matsqrt, linalg, gd, analysis, baselines, experiments, io, cli)

# (owner, attribute, layer name, per-step)
LAYERS = (
    (linalg, "sym_eig", "linalg.sym_eig", False),
    (linalg, "estimate_opnorm_bound", "linalg.estimate_opnorm_bound", False),
    (linalg, "solve", "linalg.solve", False),
    (linalg.SpdMatrix, "__init__", "linalg.SpdMatrix", False),
    (linalg, "spectral_extremes", "linalg.spectral_extremes", True),
    (gd, "step_size_policy", "gd.step_size_policy", False),
    (gd, "run", "gd.run", False),
    (gd, "run_perturbed", "gd.run_perturbed", False),
    (gd.ErrorModel, "sample", "gd.ErrorModel.sample", True),
    (analysis, "rate_params", "analysis.rate_params", False),
    (baselines, "newton_sqrt", "baselines.newton_sqrt", False),
    (baselines, "evd_sqrt", "baselines.evd_sqrt", False),
    (io, "read_matrix", "io.read_matrix", False),
    (io, "write_matrix", "io.write_matrix", False),
    (io, "write_trace_csv", "io.write_trace_csv", False),
)


class Tracer:
    """In-memory spans plus per-layer call counts, total and self time."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.steps = 0
        self._stack = []  # [span id, time covered by child spans]
        self._next_id = 0

    def wrap(self, fn, name: str, per_step: bool):
        counts_steps = name in ("gd.run", "gd.run_perturbed")

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                d = end - start
                self.calls[name] += 1
                self.total_s[name] += d
                self.self_s[name] += d - frame[1]
                if parent is not None:
                    parent[1] += d
                if not per_step:
                    self.spans.append(
                        (frame[0], None if parent is None else parent[0], name, start, end)
                    )
            if counts_steps:
                self.steps += result[1].steps
            return result

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer call through ``tracer`` until the block exits."""
    patched = []
    try:
        for owner, attr, name, per_step in LAYERS:
            orig = getattr(owner, attr)
            wrapper = tracer.wrap(orig, name, per_step)
            targets = [owner] if isinstance(owner, type) else MODULES
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is orig:
                        patched.append((target, key, orig))
                        setattr(target, key, wrapper)
        yield tracer
    finally:
        for target, key, orig in reversed(patched):
            setattr(target, key, orig)
