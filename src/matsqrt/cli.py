"""Command-line interface: solve, certify, bench, and experiment commands.

Exit codes: 0 success/convergence, 1 parse or validation error, 2
divergence or loss of positive definiteness, 3 iteration cap reached, 4
failed certificate.  Identical invocations produce byte-identical file and
stdout output (benchmark wall-time columns excepted).  The commands that
draw (certify, bench, robustness) take a seed: 0 by default, overridable
by the MATSQRT_SEED environment variable; an explicit --seed flag wins
over the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
import warnings

# The certificates and experiments are imported by the commands that run them,
# so that ``sqrt`` starts without loading them.
from . import baselines, gd, io, linalg
from .gd import GdConfig, GdError, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIVERGED = 2
EXIT_ITER_CAP = 3
EXIT_CERT_FAILED = 4

INIT_FLAGS = {"auto-lambda": "scaled-identity", "sqrt-opnorm": "sqrt-opnorm-identity"}
# The flags of ``sqrt`` that some method does not read, each with the
# methods that do; ``sqrt`` refuses one given to any other method.
SQRT_METHOD_FLAGS = (
    ("eta", ("gd",)),
    ("tol", ("gd", "newton")),
    ("max_iters", ("gd",)),
    ("init", ("gd",)),
    ("trace", ("gd",)),
)
# Horizon for the certification run; corridor checking does not require
# convergence, so the run is capped rather than open-ended.
CERTIFY_MAX_ITERS = 200_000


class CliUsageError(Exception):
    """Command-line arguments violated a precondition."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which collides with the
    # divergence exit code; surface usage problems as exceptions instead.
    def error(self, message):
        raise CliUsageError(message)


def _eta_arg(value: str):
    if value == "auto":
        return "auto"
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"eta must be 'auto' or a number, got {value!r}")


def _float_list(value: str):
    try:
        return [float(p) for p in value.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {value!r}")


def _int_list(value: str):
    try:
        return [int(p) for p in value.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {value!r}")


def _output(path):
    """Where an ``-o`` flag points: stdout by default or for "-", else the path."""
    return sys.stdout if path is None or path == "-" else path


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return linalg.as_int("--seed", args.seed, 0)
    seed = os.environ.get("MATSQRT_SEED", 0)
    with contextlib.suppress(ValueError):
        seed = int(seed)  # a string that is no integer is refused by as_int
    return linalg.as_int("MATSQRT_SEED", seed, 0)


def _echo(pairs) -> None:
    # '#'-prefixed so the echo coexists with matrix/CSV output on stdout
    for key, value in pairs:
        if isinstance(value, float):
            value = io.format_float(value)
        print(f"# {key} {value}")


def _read_spd(path) -> linalg.SpdMatrix:
    return linalg.SpdMatrix(io.read_matrix(path))


def _echo_gd_config(M_spd, cfg: GdConfig, seed: int | None = None):
    """Echo the resolved gd settings; return the resolved config and the rate parameters."""
    _, cfg = gd.resolve(M_spd, cfg)
    rate = gd.rate_params(cfg.init, M_spd)
    _echo(
        [
            ("method", "gd"),
            *([] if seed is None else [("seed", seed)]),
            ("eta", cfg.eta),
            ("alpha", rate.alpha),
            ("beta", rate.beta),
            ("corridor-low", rate.corridor_low),
            ("corridor-high", rate.corridor_high),
            ("tol", cfg.tol),
            ("max-iters", cfg.max_iters),
        ]
    )
    return cfg, rate


def cmd_sqrt(args) -> int:
    for name, methods in SQRT_METHOD_FLAGS:
        if getattr(args, name) is not None and args.method not in methods:
            flag = "--" + name.replace("_", "-")
            raise CliUsageError(f"{flag} applies to --method {' and '.join(methods)} only")
    M_spd = _read_spd(args.matrix)
    if args.method == "evd":
        _echo([("method", "evd")])
        U = baselines.evd_sqrt(M_spd)
        io.write_matrix(_output(args.output), U)
        return EXIT_OK
    if args.method == "newton":
        # newton's --tol defaults to gd's: one residual tolerance for both
        tol = GdConfig.tol if args.tol is None else args.tol
        m_fro = baselines.frobenius_scale(M_spd)
        rel = tol / m_fro
        if rel == math.inf and tol < math.inf:
            raise CliUsageError(f"--tol {tol:g} divided by ||M||_F = {m_fro:.6e} overflows")
        ncfg = baselines.NewtonConfig(tol=rel)
        _echo([("method", "newton"), ("tol-rel", rel)])
        U, _ = baselines.newton_sqrt(M_spd, ncfg)
        io.write_matrix(_output(args.output), U)
        return EXIT_OK

    init = args.init
    if init is not None:
        init = INIT_FLAGS.get(args.init)
        if args.init.startswith("file:"):
            init = io.read_matrix(args.init[5:])
        elif init is None:
            raise CliUsageError(
                f"--init must be one of {tuple(INIT_FLAGS)} or file:PATH, got {args.init!r}"
            )
    # a flag left out takes GdConfig's default
    given = {"eta": args.eta, "tol": args.tol, "max_iters": args.max_iters, "init": init}
    cfg = GdConfig(**{k: v for k, v in given.items() if v is not None})
    cfg, _ = _echo_gd_config(M_spd, cfg)
    try:
        U, trace = run(M_spd, cfg)
    except GdError as exc:
        if args.trace:
            io.write_trace_csv(args.trace, exc.trace)
        raise
    if args.trace:
        io.write_trace_csv(args.trace, trace)
    io.write_matrix(_output(args.output), U)
    if not trace.converged:
        print(
            f"error: tolerance {cfg.tol:g} not reached within {cfg.max_iters} iterations",
            file=sys.stderr,
        )
        return EXIT_ITER_CAP
    return EXIT_OK


def cmd_certify(args) -> int:
    from . import analysis

    samples = linalg.as_int("--samples", args.samples, 1)
    M_spd = _read_spd(args.matrix)
    seed = _resolve_seed(args)
    constant = 1.0 if args.self_test else analysis.SMOOTHNESS_CONSTANT
    # refuse a matrix too large to certify before anything is echoed
    analysis.margin_scale(M_spd)
    cfg = GdConfig(max_iters=CERTIFY_MAX_ITERS, tol=args.tol)
    cfg, rate = _echo_gd_config(M_spd, cfg, seed)
    cap = 4.0 * rate.m_op
    _echo([("samples", samples), ("smoothness-cap", cap), ("self-test", args.self_test)])
    reports = [
        analysis.smoothness_certificate(M_spd, cap, samples, seed, constant),
        analysis.gradient_dominance_certificate(
            M_spd, rate.corridor_low**2, samples, seed
        ),
        analysis.saddle_location_check(M_spd, samples, seed),
    ]
    try:
        _, trace = run(M_spd, cfg)
    except GdError as exc:
        trace = exc.trace
    reports.append(analysis.corridor_check(trace, rate))
    io.write_reports_json(_output(args.output), reports)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CERT_FAILED


def cmd_bench(args) -> int:
    from . import experiments

    seed = _resolve_seed(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in gd.METHODS:
            raise CliUsageError(f"unknown method {m!r}")
    specs = []
    for i, (n, kappa) in enumerate(
        (n, kappa) for n in args.sizes for kappa in args.kappas
    ):
        specs.append(
            experiments.SpdInstanceSpec(
                n=n,
                kappa=kappa,
                opnorm=args.opnorm,
                spectrum=args.spectrum,
                seed=seed + i,
            )
        )
    cfg = GdConfig(max_iters=args.max_iters, tol=args.tol, c_step=args.c_step)
    _echo(
        [
            ("seed", seed),
            ("methods", ",".join(methods)),
            ("tol", cfg.tol),
            ("c-step", cfg.c_step),
            ("max-iters", cfg.max_iters),
        ]
    )
    rows = map(dataclasses.astuple, experiments.convergence_benchmark(specs, methods, cfg))
    io.write_table_csv(_output(args.output), experiments.BENCHMARK_HEADER, rows)
    return EXIT_OK


def cmd_lowerbound(args) -> int:
    from . import experiments

    report = experiments.run_lower_bound(args.kappa, args.eta, args.case, args.steps)
    _echo(
        [
            ("kappa", args.kappa),
            ("eta", report.eta),
            ("case", report.case),
            ("steps", report.steps),
            ("bound", report.bound),
            ("min-residual", report.min_residual),
            ("escape-step", "none" if report.escape_step is None else report.escape_step),
            ("certified", "true" if report.certified else "false"),
        ]
    )
    io.write_table_csv(_output(args.output), experiments.LOWER_BOUND_HEADER, report.rows())
    return EXIT_OK


def cmd_robustness(args) -> int:
    from . import experiments

    M_spd = _read_spd(args.matrix)
    seed = _resolve_seed(args)
    cfg = GdConfig(max_iters=args.max_iters, tol=args.tol, c_step=args.c_step)
    cfg, _ = _echo_gd_config(M_spd, cfg, seed)
    rows = map(dataclasses.astuple, experiments.robustness_sweep(M_spd, args.deltas, cfg, seed))
    io.write_table_csv(_output(args.output), experiments.ROBUSTNESS_HEADER, rows)
    return EXIT_OK


def cmd_landscape(args) -> int:
    from . import experiments

    rows = experiments.landscape_grid(args.grid_min, args.grid_max, args.steps)
    io.write_table_csv(_output(args.output), experiments.LANDSCAPE_HEADER, rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="matsqrt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sqrt", help="compute an SPD square root")
    p.add_argument("matrix", help="input matrix file")
    p.add_argument("--method", choices=gd.METHODS, default="gd")
    # None marks a per-method flag left out (see SQRT_METHOD_FLAGS)
    p.add_argument("--eta", type=_eta_arg, help="gd only")
    p.add_argument("--tol", type=float, help="gd and newton")
    p.add_argument("--max-iters", type=int, help="gd only")
    p.add_argument("--init", metavar="{auto-lambda,sqrt-opnorm,file:PATH}", help="gd only")
    p.add_argument("--trace", help="gd only: write the iteration trace CSV here")
    p.add_argument("-o", "--output", default=None, help="output matrix file (default stdout)")
    p.set_defaults(func=cmd_sqrt)

    p = sub.add_parser("certify", help="run the property certificates on a matrix")
    p.add_argument("matrix")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=GdConfig.tol)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--self-test",
        action="store_true",
        help="intentionally loosen the smoothness constant to 1 (must fail)",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bench", help="convergence benchmark table")
    p.add_argument("--sizes", type=_int_list, default=[4, 16])
    p.add_argument("--kappas", type=_float_list, default=[1.0, 10.0, 100.0])
    p.add_argument("--methods", default="gd,newton,evd")
    p.add_argument("--spectrum", choices=gd.SPECTRUM_CHOICES, default="geometric")
    p.add_argument("--opnorm", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=GdConfig.tol)
    p.add_argument("--c-step", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lowerbound", help="replicate the slow-convergence instance")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--case", type=int, choices=(1, 2), default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("robustness", help="residual floors under injected errors")
    p.add_argument("matrix")
    p.add_argument("--deltas", type=_float_list, required=True)
    p.add_argument("--tol", type=float, default=GdConfig.tol)
    p.add_argument("--c-step", type=float, default=1.0)
    p.add_argument("--max-iters", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_robustness)

    p = sub.add_parser("landscape", help="objective / negative-gradient grid")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--grid-min", type=float, default=0.0)
    p.add_argument("--grid-max", type=float, default=3.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_landscape)

    return parser


# The exit code of an error is that of the first row its class matches, so
# subclasses come before their bases: NotPositiveDefiniteError,
# DimensionMismatchError and NewtonConvergenceError are LinalgErrors, and a
# MatrixFormatError is a ValueError.  Other exceptions propagate.
EXIT_CODES = (
    (CliUsageError, EXIT_USAGE),
    (linalg.NotPositiveDefiniteError, EXIT_USAGE),
    (linalg.DimensionMismatchError, EXIT_USAGE),
    (baselines.NewtonConvergenceError, EXIT_ITER_CAP),
    (gd.LowerBoundError, EXIT_CERT_FAILED),
    (GdError, EXIT_DIVERGED),
    (linalg.LinalgError, EXIT_DIVERGED),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    # A warning shows as one line that names no source file.  The filters in
    # force still decide which warnings show; catch_warnings restores them
    # and the display on return.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except tuple(cls for cls, _ in EXIT_CODES) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
