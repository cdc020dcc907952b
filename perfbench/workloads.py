"""The three workloads: what one pass runs, how it is timed and checked.

A pass is one round over the workload's inputs, the same operations in the
same order every time, so every run attempts whole rounds.  Each operation
is timed on its own, followed by the host-speed samples of
:mod:`hostspeed` that scale it, and the checks run outside the timed
region.  The program's functions are looked up through their modules at
call time, so the wrappers of :mod:`tracing` see the calls of a traced
pass.
"""

from __future__ import annotations

import contextlib
import io as stdio
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import hostspeed
import inputs
from matsqrt import cli, gd, linalg

TOL = 1e-8


@dataclass
class PassResult:
    ops: dict = field(default_factory=dict)  # label -> (wall s, descent steps)
    scaled: dict = field(default_factory=dict)  # label -> wall s at the reference speed
    setup_s: list = field(default_factory=list)  # set-up samples, at the reference speed
    rss_mb: float | None = None  # peak RSS of the child that ran the solve
    failed: int = 0
    problems: list = field(default_factory=list)  # outputs that failed a check
    failures: list = field(default_factory=list)  # operations that did not complete

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.ops.values())

    def add(self, label: str, wall: float, steps: int, host: hostspeed.HostSpeed) -> None:
        """Record an operation that just ended, and its wall at the reference speed."""
        self.scaled[label] = wall * host.scale(wall)
        self.ops[label] = (wall, steps)

    def record(self, label: str, problems: list) -> None:
        self.problems.extend(f"{label}: {p}" for p in problems)

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        self.failures.append(f"{label}: {reason}")


def library_setup_s(instances, cfg: gd.GdConfig, host: hostspeed.HostSpeed) -> float:
    """Matrix in hand to first step: validate M, pick U0, pick the step size.

    Returned at the reference speed.
    """
    start = time.perf_counter()
    for inst in instances:
        M = linalg.SpdMatrix(inst.M)
        U0 = gd.initial_iterate(M, cfg)
        gd.step_size_policy(U0, M, cfg)
    wall = time.perf_counter() - start
    return wall * host.scale(wall)


def timed(res: PassResult, label: str, solve, host: hostspeed.HostSpeed):
    """Time ``solve()``; a GdError counts the operation as failed and returns None."""
    start = time.perf_counter()
    try:
        U, trace = solve()
    except gd.GdError as exc:
        res.add(label, time.perf_counter() - start, 0, host)
        res.fail(label, f"raised {exc!r}")
        return None
    res.add(label, time.perf_counter() - start, trace.steps, host)
    return np.asarray(U.values), trace


class SolveSmall:
    """gd.run with the default GdConfig(tol=1e-8) on n = 4 and n = 16, kappa = 10."""

    SIZES = (4, 16)
    KAPPA = 10.0
    SETUP_REPS = 5  # set-up samples per pass; set-up is a few milliseconds

    def __init__(self, seed: int, workdir: Path):
        self.instances = [
            inputs.spd_instance(f"n{n}", n, self.KAPPA, inputs.sub_seed(seed, i))
            for i, n in enumerate(self.SIZES)
        ]
        self.cfg = gd.GdConfig(tol=TOL)
        self.host = hostspeed.HostSpeed()

    def setup_once(self) -> float:
        return library_setup_s(self.instances, self.cfg, self.host)

    def run_pass(self, in_process: bool = False) -> PassResult:
        res = PassResult()
        for inst in self.instances:
            out = timed(res, inst.name, lambda: gd.run(inst.M, self.cfg), self.host)
            if out is not None:
                U, trace = out
                res.record(inst.name, checks.check_root(U, inst.root))
                res.record(inst.name, checks.check_converged(U, inst.M, self.cfg.tol, trace.converged))
        return res


class Perturbed:
    """gd.run_perturbed, every-step errors, over a descending delta ladder ending at 0."""

    N = 16
    KAPPA = 10.0
    DELTAS = (1e-6, 1e-7, 1e-8, 0.0)
    HORIZON = 3000
    C_STEP = 1.0
    SETUP_REPS = 1  # a pass is about a second, so a run has dozens

    def __init__(self, seed: int, workdir: Path):
        self.instances = [inputs.spd_instance("n16", self.N, self.KAPPA, inputs.sub_seed(seed, 0))]
        self.err_seed = inputs.sub_seed(seed, 1)
        self.cfg = gd.GdConfig(tol=TOL, c_step=self.C_STEP, max_iters=self.HORIZON)
        inst = self.instances[0]
        # Computed once, before any timing or tracing: the program's start,
        # on which the perturbed bound is conditioned, and the clean run that
        # the delta = 0 run must reproduce bitwise.
        self.U0 = np.asarray(gd.initial_iterate(linalg.SpdMatrix(inst.M), self.cfg).values)
        _, clean = gd.run(inst.M, self.cfg)
        self.clean_columns = trace_columns(clean)
        self.host = hostspeed.HostSpeed()

    def setup_once(self) -> float:
        return library_setup_s(self.instances, self.cfg, self.host)

    def run_pass(self, in_process: bool = False) -> PassResult:
        inst = self.instances[0]
        res = PassResult()
        errors = []
        for delta in self.DELTAS:
            label = f"delta={delta:g}"
            err = gd.ErrorModel(delta=delta, schedule="every-step", seed=self.err_seed)
            out = timed(res, label, lambda: gd.run_perturbed(inst.M, self.cfg, err), self.host)
            if out is None:
                continue
            U, trace = out
            errors.append(float(np.linalg.norm(U - inst.root) / np.linalg.norm(inst.root)))
            res.record(label, checks.check_finite_pd(U))
            bound = checks.perturbed_bound(inst.M, self.U0, float(trace.eta[0]), trace.err_fro[1:])
            res.record(label, checks.check_under_bound(trace.residual_fro, bound))
            if delta == 0.0:
                res.record(label, checks.check_same_trace(trace_columns(trace), self.clean_columns))
                res.record(label, checks.check_converged(U, inst.M, self.cfg.tol, trace.converged))
        if res.failed == 0:
            res.record("ladder", checks.check_shrinking(self.DELTAS, errors))
        return res


def trace_columns(trace) -> dict:
    names = ("t", "residual_fro", "objective", "sigma_min", "opnorm", "eta", "err_norm", "err_fro")
    return {k: getattr(trace, k) for k in names}


class CliN64:
    """matsqrt sqrt on an n = 64, kappa = 2 matrix file: gd, then newton, then evd."""

    N = 64
    KAPPA = 2.0
    METHODS = ("gd", "newton", "evd")
    SETUP_REPS = 1  # each costs a process start and the Jacobi set-up, about 1.5 s

    def __init__(self, seed: int, workdir: Path):
        self.inst = inputs.spd_instance("n64", self.N, self.KAPPA, inputs.sub_seed(seed, 0))
        self.workdir = workdir
        self.matrix = workdir / "M.txt"
        inputs.write_matrix_file(self.matrix, self.inst.M)
        src = Path(cli.__file__).resolve().parent.parent
        self.env = {k: v for k, v in os.environ.items() if k != "MATSQRT_SEED"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.env["PYTHONUNBUFFERED"] = "1"
        self.host = hostspeed.HostSpeed()

    def setup_once(self) -> float:
        """Spawn to first '#' echo line of the gd invocation, which is then stopped.

        Returned at the reference speed.
        """
        code, _, first_echo, _, stderr = self.spawn(self.argv("gd"), stop_at_echo=True)
        if first_echo is None:
            raise RuntimeError(f"gd invocation exited {code} before its echo: {stderr.strip()}")
        return first_echo * self.host.scale(first_echo)

    def argv(self, method: str) -> list:
        args = ["sqrt", str(self.matrix), "-o", str(self.workdir / f"U_{method}.txt")]
        if method == "gd":
            return args + ["--trace", str(self.workdir / "trace.csv")]
        return args + ["--method", method]

    def spawn(self, args: list, stop_at_echo: bool = False):
        """Run the CLI as a child: (exit code, wall, time to first '#' line, peak RSS MB, stderr).

        With ``stop_at_echo`` the child is killed once its first '#' line arrives.
        """
        errfile = self.workdir / "stderr.txt"
        with open(errfile, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "matsqrt.cli"] + args,
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env,
                text=True,
            )
            first_echo = None
            try:
                for line in proc.stdout:
                    if first_echo is None and line.startswith("#"):
                        first_echo = time.perf_counter() - start
                        if stop_at_echo:
                            proc.kill()
                            break
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux
        return proc.returncode, wall, first_echo, usage.ru_maxrss / 1024.0, errfile.read_text()

    def call_in_process(self, args: list):
        out, err = stdio.StringIO(), stdio.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        return code, time.perf_counter() - start, err.getvalue()

    def run_pass(self, in_process: bool = False) -> PassResult:
        res = PassResult()
        for method in self.METHODS:
            output = self.workdir / f"U_{method}.txt"
            trace_csv = self.workdir / "trace.csv"
            output.unlink(missing_ok=True)
            trace_csv.unlink(missing_ok=True)
            if in_process:
                code, wall, stderr = self.call_in_process(self.argv(method))
            else:
                code, wall, first_echo, rss, stderr = self.spawn(self.argv(method))
            # host samples right after the call; gd's step count is read
            # from its trace below
            res.add(method, wall, 0, self.host)
            if code != 0:
                res.fail(method, "; ".join(checks.check_exit(code) + stderr.strip().splitlines()[-1:]))
                continue
            U = inputs.read_matrix_file(output)
            res.record(method, checks.check_root(U, self.inst.root))
            if method == "gd":
                trace = inputs.read_trace_csv(trace_csv)
                res.ops[method] = (wall, int(trace["t"][-1]))
                converged = bool(trace["residual_fro"][-1] <= TOL)
                res.record(method, checks.check_converged(U, self.inst.M, TOL, converged))
                if not in_process:
                    res.setup_s.append(first_echo * res.scaled[method] / wall)
                    res.rss_mb = rss
        return res

    def startup_s(self, reps: int = 5) -> float:
        """Fastest wall time of a child that only imports matsqrt.cli."""
        walls = []
        for _ in range(reps):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import matsqrt.cli"], env=self.env, check=True)
            walls.append(time.perf_counter() - start)
        return min(walls)


WORKLOADS = {"solve-small": SolveSmall, "cli-n64": CliN64, "perturbed": Perturbed}
