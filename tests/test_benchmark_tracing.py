"""The benchmark's traced mode finds every function it wraps.

``perfbench/tracing.py`` wraps matsqrt functions by module and name; a
rename or deletion in the package would break every traced benchmark run
without failing a test of its own, so this test enters and leaves its
``instrument`` once around a small perturbed run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from matsqrt import baselines, gd

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_every_layer_and_restores_it():
    tracing = _load_tracing()
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing.LAYERS]
    M = np.diag([4.0, 3.0, 2.0, 1.0])
    cfg = gd.GdConfig(eta=0.01, tol=1e-300, max_iters=600)
    with tracing.instrument(tracing.Tracer()) as tracer:
        # through the module, whose binding the tracer wraps
        gd.run_perturbed(M, cfg, gd.ErrorModel(1e-9, "every-step", seed=1))
    # at n = 4 the errors come in blocks of 512 steps
    assert tracer.calls["gd.ErrorModel.sample"] == 2
    assert tracer.calls["gd.run_perturbed"] == 1 and tracer.steps == 600
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing.LAYERS] == originals


def test_benchmark_tracer_counts_one_solve_per_newton_iteration():
    # newton_sqrt reaches linalg.solve through the module, so the traced
    # layer measures the baseline
    tracing = _load_tracing()
    with tracing.instrument(tracing.Tracer()) as tracer:
        _, iters = baselines.newton_sqrt(np.diag([4.0, 3.0, 2.0, 1.0]))
    assert iters > 0 and tracer.calls["linalg.solve"] == iters
    assert tracer.calls["baselines.newton_sqrt"] == 1
