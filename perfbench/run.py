"""Benchmark of matsqrt: time to a square root, steps/s, set-up and memory.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload solve-small --seed 1 --seconds 40 --trace 0

Runs whole passes of one workload for about ``--seconds`` seconds, checks
every output, and prints one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, taken by
wrapping the program's functions from outside (see tracing.py).  BLAS runs
on one thread, child processes run one at a time, and the process and its
children stay on the CPU that the run started on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def end_to_end(wl, seconds: float) -> tuple:
    start = time.perf_counter()
    setup, passes, longest = [], [], 0.0
    while True:
        t0 = time.perf_counter()
        setup += [wl.setup_once() for _ in range(wl.SETUP_REPS)]
        passes.append(wl.run_pass())
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    # Every pass runs the same operations; each is credited with the median
    # of its repetitions, every one scaled to the reference host speed.
    median = {
        label: statistics.median(p.scaled[label] for p in passes) for label in passes[0].scaled
    }
    steps = {label: s for label, (_, s) in passes[0].ops.items() if s > 0}
    step_wall = sum(median[label] for label in steps)
    setup += [s for p in passes for s in p.setup_s]
    rss = [p.rss_mb for p in passes if p.rss_mb is not None]
    if not rss:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    metrics = {
        "wall_s": (sum(median.values()), "s"),
        "steps_per_s": (sum(steps.values()) / step_wall if step_wall else 0.0, "steps/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return passes, metrics


def per_layer(wl, seconds: float, spans_path: Path) -> tuple:
    import tracing

    # Untraced and traced passes alternate, so that both see the same share
    # of co-tenant load; the layers are read from the fastest traced pass.
    start = time.perf_counter()
    untraced, traced, longest = [], [], 0.0
    while True:
        t0 = time.perf_counter()
        untraced.append(wl.run_pass(in_process=True))
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced.append((wl.run_pass(in_process=True), tracer))
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    fastest, tracer = min(traced, key=lambda pt: pt[0].wall_s)
    passes = untraced + [p for p, _ in traced]
    startup = wl.startup_s() if hasattr(wl, "startup_s") else 0.0
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(
        json.dumps(
            [
                {"id": i, "parent": p, "name": name, "start": s, "end": e}
                for i, p, name, s, e in tracer.spans
            ]
        )
    )

    calls, total = tracer.calls, tracer.total_s
    run_self = tracer.self_s["gd.run"] + tracer.self_s["gd.run_perturbed"]
    metrics = {
        "linalg.sym_eig.calls": (calls["linalg.sym_eig"], "count"),
        "linalg.sym_eig.s": (total["linalg.sym_eig"], "s"),
        "gd.step_size_policy.s": (total["gd.step_size_policy"], "s"),
        "analysis.rate_params.s": (total["analysis.rate_params"], "s"),
        "linalg.SpdMatrix.s": (total["linalg.SpdMatrix"], "s"),
        "linalg.estimate_opnorm_bound.s": (total["linalg.estimate_opnorm_bound"], "s"),
        "linalg.spectral_extremes.calls": (calls["linalg.spectral_extremes"], "count"),
        "linalg.spectral_extremes.s": (total["linalg.spectral_extremes"], "s"),
        "gd.run.self_s": (run_self, "s"),
        "gd.run.self_us_per_step": (1e6 * run_self / max(tracer.steps, 1), "us/step"),
        "gd.steps": (tracer.steps, "count"),
        "gd.ErrorModel.sample.calls": (calls["gd.ErrorModel.sample"], "count"),
        "gd.ErrorModel.sample.s": (total["gd.ErrorModel.sample"], "s"),
        "io.read_matrix.s": (total["io.read_matrix"], "s"),
        "io.write_matrix.s": (total["io.write_matrix"], "s"),
        "io.write_trace_csv.s": (total["io.write_trace_csv"], "s"),
        "cli.startup_s": (startup, "s"),
        "baselines.evd_sqrt.s": (total["baselines.evd_sqrt"], "s"),
        "baselines.newton_sqrt.s": (total["baselines.newton_sqrt"], "s"),
        "linalg.solve.calls": (calls["linalg.solve"], "count"),
        "linalg.solve.s": (total["linalg.solve"], "s"),
        "trace.overhead_s": (fastest.wall_s - min(p.wall_s for p in untraced), "s"),
        "host.ref_sample_ms": (1e3 * wl.host.median_sample_s(), "ms"),
    }
    return passes, metrics


def pin_to_current_cpu() -> None:
    """Keep this process and the children it starts on the CPU it runs on now.

    The vCPUs of a shared host run at different speeds at the same moment, so
    the host-speed samples must run on the CPU that ran the operation.
    """
    try:
        with open("/proc/self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, IndexError, ValueError):
        pass  # not Linux: leave the scheduler's choice


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "matsqrt" / "__init__.py").is_file():
        print(f"error: no matsqrt sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    pin_to_current_cpu()
    sys.path.insert(0, str(src))
    import workloads  # imports numpy, so after the thread pinning

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-work"))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            spans = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json"
            passes, metrics = per_layer(wl, args.seconds, spans)
        else:
            passes, metrics = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for res in passes for p in res.problems]
    for p in [p for res in passes for p in res.failures][:20]:
        print(f"operation failed: {p}", file=sys.stderr)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
