import dataclasses
import importlib
import io as std_io
import json
import math
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from matsqrt import analysis, cli, experiments, gd, io, linalg
from matsqrt.baselines import NewtonConvergenceError, evd_sqrt
from matsqrt.experiments import LowerBoundError, SpdInstanceSpec, random_spd
from matsqrt.gd import DivergenceError


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("MATSQRT_SEED", raising=False)


@pytest.fixture
def spd_file(tmp_path):
    path = tmp_path / "m.txt"
    io.write_matrix(path, np.diag([4.0, 2.0]))
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_stdout_matrix(out):
    return io.read_matrix(std_io.StringIO(out))  # '#' echo lines are comments


# -------------------------------------------------------------- sqrt


def test_sqrt_evd(capsys, spd_file):
    code, out, err = run_cli(capsys, "sqrt", spd_file, "--method", "evd")
    assert code == 0
    U = parse_stdout_matrix(out)
    assert np.allclose(U, np.diag([2.0, math.sqrt(2.0)]), rtol=0, atol=1e-10)


def test_sqrt_evd_of_entries_above_half_the_largest_double(capsys, matrix_file):
    # A + A^T overflows here; the file used to fail on a non-finite root
    for m, root in [([1e308, 1e300], [1e154, 1e150]), ([1.7e308], [math.sqrt(1.7e308)])]:
        code, out, err = run_cli(capsys, "sqrt", matrix_file(np.diag(m)), "--method", "evd")
        assert (code, err) == (0, "")
        assert np.allclose(parse_stdout_matrix(out), np.diag(root), rtol=1e-15, atol=0.0)


def test_sqrt_gd_matches_evd(capsys, spd_file):
    code, out, _ = run_cli(capsys, "sqrt", spd_file, "--eta", "0.02", "--tol", "1e-9")
    assert code == 0
    U = parse_stdout_matrix(out)
    want = np.asarray(evd_sqrt(np.diag([4.0, 2.0])))
    assert np.max(np.abs(U - want)) <= 1e-6
    assert "# eta 0.02" in out
    assert "# alpha " in out and "# beta " in out
    assert "# corridor-low " in out and "# corridor-high " in out


def test_sqrt_newton(capsys, spd_file):
    code, out, _ = run_cli(capsys, "sqrt", spd_file, "--method", "newton")
    assert code == 0
    U = parse_stdout_matrix(out)
    assert np.allclose(U, np.diag([2.0, math.sqrt(2.0)]), rtol=0, atol=1e-8)


def test_sqrt_output_file(capsys, spd_file, tmp_path):
    dest = tmp_path / "u.txt"
    code, out, _ = run_cli(
        capsys, "sqrt", spd_file, "--method", "evd", "-o", str(dest)
    )
    assert code == 0
    assert all(line.startswith("#") for line in out.splitlines() if line.strip())
    U = io.read_matrix(dest)
    assert U.shape == (2, 2)


def test_sqrt_explicit_init_file(capsys, spd_file, tmp_path):
    u0 = tmp_path / "u0.txt"
    io.write_matrix(u0, 3.0 * np.eye(2))
    code, out, _ = run_cli(
        capsys, "sqrt", spd_file, "--eta", "0.02", "--init", f"file:{u0}"
    )
    assert code == 0


# ---------------------------------------------------------- exit codes


def test_exit_usage_not_positive_definite(capsys, tmp_path):
    path = tmp_path / "npd.txt"
    io.write_matrix(path, np.diag([1.0, -1.0]))
    code, _, err = run_cli(capsys, "sqrt", str(path))
    assert code == 1
    assert "error:" in err


def test_exit_usage_malformed_file(capsys, tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("not a matrix\n")
    code, _, err = run_cli(capsys, "sqrt", str(path))
    assert code == 1
    assert "error:" in err


def test_exit_usage_missing_file(capsys):
    code, _, err = run_cli(capsys, "sqrt", "/nonexistent/m.txt")
    assert code == 1


def test_exit_usage_unknown_flag(capsys, spd_file):
    code, _, err = run_cli(capsys, "sqrt", spd_file, "--bogus")
    assert code == 1
    assert "error:" in err


def test_exit_usage_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_exit_usage_no_command(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_exit_usage_bad_env_seed(capsys, spd_file, monkeypatch):
    monkeypatch.setenv("MATSQRT_SEED", "many")
    code, _, err = run_cli(capsys, "certify", spd_file, "--samples", "10")
    assert code == 1
    assert "MATSQRT_SEED" in err


@pytest.mark.parametrize(
    "argv, env, name",
    [
        (("certify", "MAT", "--seed", "-1"), None, "--seed"),
        (("bench", "--sizes", "2", "--kappas", "1", "--seed", "-1"), None, "--seed"),
        (("robustness", "MAT", "--deltas", "1e-6", "--seed", "-1"), None, "--seed"),
        # a zero delta draws nothing, and this ran to exit code 0
        (("robustness", "MAT", "--deltas", "0", "--seed", "-1"), None, "--seed"),
        (("certify", "MAT", "--samples", "5"), "-1", "MATSQRT_SEED"),
    ],
)
def test_exit_usage_negative_seed_before_any_echo(capsys, spd_file, monkeypatch, argv, env, name):
    if env is not None:
        monkeypatch.setenv("MATSQRT_SEED", env)
    argv = [spd_file if a == "MAT" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {name} must be at least 0, got -1\n")


def test_exit_usage_bad_eta_argument(capsys, spd_file):
    code, _, _ = run_cli(capsys, "sqrt", spd_file, "--eta", "fast")
    assert code == 1


def test_exit_usage_unknown_init(capsys, spd_file):
    code, out, err = run_cli(capsys, "sqrt", spd_file, "--init", "bogus")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == (
        "error: --init must be one of ('auto-lambda', 'sqrt-opnorm') or file:PATH, got 'bogus'\n"
    )


def test_exit_usage_start_of_the_wrong_order(capsys, spd_file, matrix_file):
    # the start is resolved before the echo, so nothing reaches stdout
    start = matrix_file(np.eye(3), "i3.txt")
    code, out, err = run_cli(capsys, "sqrt", spd_file, "--init", f"file:{start}")
    assert (code, out) == (1, "")
    assert err == "error: initial iterate has order 3, matrix has order 2\n"


EXIT_CASES = [
    (linalg.NotPositiveDefiniteError, 1),
    (linalg.DimensionMismatchError, 1),
    (io.MatrixFormatError, 1),
    (NewtonConvergenceError, 3),
    (linalg.SingularMatrixError, 2),
    (DivergenceError, 2),
    (LowerBoundError, 4),
    (cli.CliUsageError, 1),
    (ValueError, 1),
    (FileNotFoundError, 1),
]


@pytest.mark.parametrize("cls, code", EXIT_CASES, ids=[c.__name__ for c, _ in EXIT_CASES])
def test_exit_code_table(capsys, monkeypatch, cls, code):
    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_landscape", fail)
    assert run_cli(capsys, "landscape") == (code, "", "error: boom\n")


def test_exit_code_cases_reach_every_row():
    rows = {
        next(i for i, (c, _) in enumerate(cli.EXIT_CODES) if issubclass(cls, c))
        for cls, _ in EXIT_CASES
    }
    assert rows == set(range(len(cli.EXIT_CODES)))


def test_error_outside_the_table_propagates(monkeypatch):
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_landscape", fail)
    with pytest.raises(RuntimeError, match="boom"):
        cli.main(["landscape"])


def test_exit_diverged_writes_partial_trace(capsys, tmp_path):
    big = tmp_path / "big.txt"
    io.write_matrix(big, np.array([[100.0]]))
    u0 = tmp_path / "u0.txt"
    io.write_matrix(u0, np.array([[0.5]]))
    trace_path = tmp_path / "trace.csv"
    code, _, err = run_cli(
        capsys,
        "sqrt",
        str(big),
        "--eta",
        "0.05",
        "--init",
        f"file:{u0}",
        "--trace",
        str(trace_path),
    )
    assert code == 2
    assert "error:" in err
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "t,residual_fro,objective,sigma_min,opnorm,eta,err_norm"
    assert len(lines) > 2  # partial records up to the divergence step


def test_exit_diverged_on_non_finite_residual(capsys, tmp_path):
    # the first step overflows U to diag(-inf, 1), whose square holds
    # inf * 0 = NaN: caught at step 1, not carried to the iteration cap
    one = tmp_path / "one.txt"
    io.write_matrix(one, np.eye(2))
    u0 = tmp_path / "u0.txt"
    io.write_matrix(u0, np.diag([2.0, 1.0]))
    trace_path = tmp_path / "trace.csv"
    code, _, err = run_cli(
        capsys,
        "sqrt",
        str(one),
        "--eta",
        "1e308",
        "--init",
        f"file:{u0}",
        "--max-iters",
        "1000",
        "--trace",
        str(trace_path),
    )
    assert code == 2
    assert err == "error: residual nan at step 1 is not finite\n"
    assert trace_path.read_text().splitlines()[1:] == [
        "0,3,9,1,2,1e+308,0",
        "1,nan,nan,nan,nan,1e+308,0",
    ]


def test_exit_diverged_on_a_last_iterate_too_close_to_singular(capsys, matrix_file, tmp_path):
    # lambda_min of the step-1 iterate is about 1e-14: positive, but under
    # the SPD wrapper's bound, so the root is refused as a failed run
    start = matrix_file(np.diag([2.0, 1.0]), "u0.txt")
    trace_path = tmp_path / "trace.csv"
    argv = ["sqrt", matrix_file(np.eye(2)), "--init", f"file:{start}"]
    argv += ["--eta", repr((2 - 1e-14) / 12), "--max-iters", "1", "--trace", str(trace_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_DIVERGED
    assert out == (
        "# method gd\n# eta 0.16666666666666582\n# alpha 8.0000000000000639\n"
        "# beta 0.99999999999999822\n# corridor-low 0.09999999999999995\n"
        "# corridor-high 2.0000000000000018\n# tol 1e-08\n# max-iters 1\n"
    )
    assert len(trace_path.read_text().splitlines()) == 1 + 2  # header, rows 0 and 1
    [line] = err.splitlines()
    assert line.startswith("error: ") and "step 1" in line and "matrix" not in line


def test_diverging_run_writes_only_the_error_line(tmp_path):
    # in a child process numpy's floating-point warnings would reach stderr
    one = tmp_path / "one.txt"
    io.write_matrix(one, np.eye(2))
    u0 = tmp_path / "u0.txt"
    io.write_matrix(u0, np.diag([2.0, 1.0]))
    argv = ["sqrt", str(one), "--eta", "1e308", "--init", f"file:{u0}"]
    proc = subprocess.run(
        [sys.executable, "-m", "matsqrt.cli", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: residual nan at step 1 is not finite\n"


def test_residual_overflow_at_the_start_writes_only_the_error_line(tmp_path):
    # the start sqrt(1.5 ||M||) I of diag(1e200, 5e199), a valid SPD
    # matrix, is finite, but the squares of its residual overflow; the loop
    # names the residual, and no numpy warning reaches stderr
    path = tmp_path / "big.txt"
    io.write_matrix(path, np.diag([1e200, 5e199]))
    proc = subprocess.run(
        [sys.executable, "-m", "matsqrt.cli", "sqrt", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert all(line.startswith("# ") for line in proc.stdout.splitlines())
    assert proc.stderr == "error: residual inf at step 0 is not finite\n"


def test_a_start_norm_that_overflows_writes_one_true_error_line(capsys, matrix_file):
    # 1.5 ||M||_2 overflows for diag(1.7e308, 1e308), whose entries are
    # finite; the error says so, and a RuntimeWarning would fail this test
    path = matrix_file(np.diag([1.7e308, 1e308]))
    code, out, err = run_cli(capsys, "sqrt", path)
    assert (code, out) == (cli.EXIT_DIVERGED, "")
    assert err == "error: 1.5 ||M||_2 overflows for ||M||_2 = 1.700000e+308\n"


@pytest.mark.parametrize("eta", ["1e-3", "auto"])
def test_exit_diverged_on_a_start_whose_norms_overflow(capsys, tmp_path, eta):
    # alpha = (||U0|| / sigma_min(M)^(1/2))^3 overflows for U0 = 1e200 I;
    # the echo computes it before the first step, by either step size
    one = tmp_path / "one.txt"
    io.write_matrix(one, np.eye(2))
    u0 = tmp_path / "u0.txt"
    io.write_matrix(u0, 1e200 * np.eye(2))
    code, out, err = run_cli(capsys, "sqrt", str(one), "--eta", eta, "--init", f"file:{u0}")
    assert code == 2
    assert out == ""
    assert err == (
        "error: rate parameters overflow for a start of spectral norm "
        "1.000000e+200 and a matrix of spectral norm 1.000000e+00\n"
    )


@pytest.mark.parametrize("init", ["auto-lambda", "sqrt-opnorm"])
def test_exit_diverged_on_a_corridor_bound_whose_cube_underflows(capsys, matrix_file, init):
    # corridor_high^3 is below the doubles for ||M|| = 2e-300 and a start
    # of its scale; the step size used to divide by that 0
    path = matrix_file(np.diag([1e-300, 2e-300]))
    code, out, err = run_cli(capsys, "sqrt", path, "--init", init)
    assert (code, out) == (cli.EXIT_DIVERGED, "")
    assert err.startswith("error: rate parameters underflow for a start of spectral norm ")
    assert err.endswith(" and a matrix of spectral norm 2.000000e-300\n")


def test_newton_refuses_a_matrix_whose_frobenius_norm_overflows(capsys, matrix_file):
    # the relative tolerance divides by ||M||_F = 2.1e308, which overflows;
    # no numpy warning reaches stderr
    path = matrix_file(np.diag([1.5e308, 1.5e308]))
    code, out, err = run_cli(capsys, "sqrt", path, "--method", "newton")
    assert (code, out) == (cli.EXIT_DIVERGED, "")
    assert err == "error: ||M||_F = inf overflows; Newton's tol is relative to it\n"


def test_newton_takes_a_matrix_of_norm_below_tol(capsys, matrix_file):
    # tol / ||M||_F is above 1 here, and the root must still meet the
    # absolute tolerance
    M = np.diag([1e-10, 2e-10])
    code, out, err = run_cli(capsys, "sqrt", matrix_file(M), "--method", "newton")
    assert (code, err) == (0, "")
    Y = parse_stdout_matrix(out)
    assert linalg.frobenius_norm(M - Y @ Y) <= 1e-8


def test_newton_takes_a_matrix_whose_frobenius_squares_underflow(capsys, matrix_file):
    # the squares of the entries underflow, but ||M||_F is taken at scale and
    # reads 2.236068e-300, not 0; the root meets the absolute tolerance
    M = np.diag([1e-300, 2e-300])
    code, out, err = run_cli(capsys, "sqrt", matrix_file(M), "--method", "newton")
    assert (code, err) == (0, "")
    Y = parse_stdout_matrix(out)
    assert linalg.frobenius_norm(M - Y @ Y) <= 1e-8


def test_newton_names_a_relative_tolerance_that_overflows(capsys, matrix_file):
    # --tol is finite, but --tol / ||M||_F is not
    path = matrix_file(np.diag([1e-10, 2e-10]))
    code, out, err = run_cli(capsys, "sqrt", path, "--method", "newton", "--tol", "1e300")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: --tol 1e+300 divided by ||M||_F = 2.236068e-10 overflows\n"


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-8", "inf"])
def test_newton_refuses_a_tolerance_that_is_not_positive_and_finite(capsys, spd_file, tol):
    code, out, err = run_cli(capsys, "sqrt", spd_file, "--method", "newton", f"--tol={tol}")
    assert (code, out) == (cli.EXIT_USAGE, "")
    # the relative tolerance, --tol / ||M||_F, is the one NewtonConfig reads
    rel = float(tol) / math.hypot(4.0, 2.0)
    assert err == f"error: tol must be positive and finite, got {rel}\n"


def test_exit_diverged_on_a_corridor_bound_that_overflows(capsys, matrix_file):
    # sqrt(3 ||M||) is inf, and the automatic step size cubes it
    path = matrix_file(np.diag([1e308, 1e300]))
    code, out, err = run_cli(capsys, "sqrt", path, "--init", "sqrt-opnorm")
    assert (code, out) == (cli.EXIT_DIVERGED, "")
    assert err == (
        "error: rate parameters overflow for a start of spectral norm "
        "1.000000e+154 and a matrix of spectral norm 1.000000e+308\n"
    )


def test_exit_iteration_cap(capsys, spd_file):
    code, out, err = run_cli(
        capsys, "sqrt", spd_file, "--eta", "1e-5", "--max-iters", "10"
    )
    assert code == 3
    assert "not reached" in err
    U = parse_stdout_matrix(out)  # the unconverged iterate is still written
    assert U.shape == (2, 2)


def test_exit_iteration_cap_newton(capsys, spd_file):
    code, _, err = run_cli(capsys, "sqrt", spd_file, "--method", "newton", "--tol", "1e-30")
    assert code == 3


def test_exit_cert_failed_self_test(capsys, spd_file):
    code, out, _ = run_cli(capsys, "certify", spd_file, "--samples", "40", "--self-test")
    assert code == 4
    reports = [json.loads(l) for l in out.splitlines() if not l.startswith("#")]
    smooth = [r for r in reports if r["property"] == "smoothness"]
    assert smooth and smooth[0]["pass"] is False


# --------------------------------------------------------------- certify


def test_certify_passes(capsys, spd_file):
    code, out, _ = run_cli(capsys, "certify", spd_file, "--samples", "150")
    assert code == 0
    reports = [json.loads(l) for l in out.splitlines() if not l.startswith("#")]
    assert len(reports) == 4
    assert all(r["pass"] is True for r in reports)
    assert all(r["samples"] >= 1 for r in reports)
    names = {r["property"] for r in reports}
    assert names == {
        "smoothness",
        "gradient-dominance",
        "saddle-location",
        "eigenvalue-corridor",
    }


@pytest.mark.parametrize("top", [1e100, 1e150], ids=["1e100", "1e150"])
def test_certify_refuses_a_matrix_whose_margins_overflow(capsys, matrix_file, top):
    # ||M||_F^4 overflows; at 1e150 the smoothness check's gradient norms
    # would overflow too, and a RuntimeWarning fails this test
    path = matrix_file(np.diag([top, top / 2.0]))
    code, out, err = run_cli(capsys, "certify", path, "--samples", "10")
    assert (code, out) == (cli.EXIT_DIVERGED, "")
    fro = math.hypot(top, top / 2.0)
    assert err == f"error: certificate margins overflow for a matrix of Frobenius norm {fro:.6e}\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("self_test", [(), ("--self-test",)], ids=["plain", "self-test"])
def test_certify_refuses_fewer_than_one_sample(capsys, spd_file, samples, self_test):
    # no sample would leave each margin at inf and pass vacuously
    code, out, err = run_cli(capsys, "certify", spd_file, "--samples", samples, *self_test)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: --samples must be at least 1, got {samples}\n"


def test_certify_reports_the_corridor_of_a_run_that_fails(capsys, spd_file, monkeypatch):
    # the corridor check reads the trace that the run's GdError carries
    checked = []

    def failing_run(M, cfg):
        _, trace = gd.run(M, dataclasses.replace(cfg, max_iters=5))
        checked.append(analysis.corridor_check(trace, gd.rate_params(cfg.init, M)))
        raise DivergenceError("boom", trace=trace)

    monkeypatch.setattr(cli, "run", failing_run)
    code, out, err = run_cli(capsys, "certify", spd_file, "--samples", "10")
    assert (code, err) == (0, "")
    assert checked[0].samples == 6
    assert out.splitlines()[-1] == io.report_json_line(checked[0])


def test_certify_eigendecomposes_m_once_and_sqrt_never(capsys, tmp_path, sym_eig_calls):
    # sqrt: the step size and the echoed rate parameters read the spectra
    # that the constructors of M and U0 keep.  certify's smoothness cap and
    # first two certificates read them too; the saddle check needs M's
    # eigenvectors, so it decomposes M once.
    path = tmp_path / "m6.txt"
    io.write_matrix(path, np.diag([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]) + 0.1)
    assert run_cli(capsys, "sqrt", str(path))[0] == 0
    assert len(sym_eig_calls) == 0
    assert run_cli(capsys, "certify", str(path), "--samples", "10")[0] == 0
    assert len(sym_eig_calls) == 1


def test_sqrt_and_robustness_resolve_their_start_once(
    capsys, matrix_file, sym_eig_calls, opnorm_bound_calls
):
    # one norm bound for the auto-lambda start, and no decomposition
    # beyond the constructors' spectra, however many runs follow
    path = matrix_file(np.diag([6.0, 5.0, 4.0, 3.0, 2.0, 1.0]) + 0.1)
    assert run_cli(capsys, "sqrt", path)[0] == 0
    assert (len(opnorm_bound_calls), len(sym_eig_calls)) == (1, 0)
    opnorm_bound_calls.clear()
    argv = ("robustness", path, "--deltas", "1e-6,1e-7,0", "--max-iters", "200")
    assert run_cli(capsys, *argv)[0] == 0
    assert (len(opnorm_bound_calls), len(sym_eig_calls)) == (1, 0)


def test_certify_env_seed_and_flag_priority(capsys, spd_file, monkeypatch):
    monkeypatch.setenv("MATSQRT_SEED", "5")
    _, out, _ = run_cli(capsys, "certify", spd_file, "--samples", "10")
    assert "# seed 5" in out
    _, out, _ = run_cli(capsys, "certify", spd_file, "--samples", "10", "--seed", "3")
    assert "# seed 3" in out


@pytest.mark.parametrize(
    "method, argv, flag",
    [
        ("newton", ("--eta", "0.5"), "--eta applies to --method gd only"),
        ("newton", ("--max-iters", "1"), "--max-iters applies to --method gd only"),
        ("newton", ("--init", "sqrt-opnorm"), "--init applies to --method gd only"),
        ("newton", ("--trace", "t.csv"), "--trace applies to --method gd only"),
        ("evd", ("--tol", "1e-3"), "--tol applies to --method gd and newton only"),
        ("evd", ("--trace", "t.csv", "--eta", "auto"), "--eta applies to --method gd only"),
    ],
)
def test_sqrt_refuses_a_flag_its_method_does_not_read(
    capsys, spd_file, tmp_path, monkeypatch, method, argv, flag
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "sqrt", spd_file, "--method", method, *argv)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {flag}\n")
    assert not (tmp_path / "t.csv").exists()


def test_sqrt_refuses_an_infinite_step_size(capsys, spd_file):
    code, out, err = run_cli(capsys, "sqrt", spd_file, "--eta", "inf")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: eta must be positive and finite, got inf\n"


def test_sqrt_refuses_an_infinite_tolerance(capsys, spd_file):
    # row 0 would meet it and return the start as a root
    code, out, err = run_cli(capsys, "sqrt", spd_file, "--tol", "inf")
    assert (code, out, err) == (
        cli.EXIT_USAGE, "", "error: tol must be positive and finite, got inf\n"
    )


# ------------------------------------------------------------ lowerbound


def test_lowerbound_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "lowerbound", "--kappa", "4", "--eta", "0.25", "--case", "2"
    )
    assert code == 0
    assert "# certified true" in out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(experiments.LOWER_BOUND_HEADER)
    assert len(lines) == 1 + 4 + 1  # header plus t = 0..4
    row1 = lines[2].split(",")
    assert float(row1[3]) == 0.2734375


def test_lowerbound_horizon_past_window(capsys):
    code, _, err = run_cli(
        capsys, "lowerbound", "--kappa", "10", "--eta", "0.1", "--steps", "2000"
    )
    assert code == 4
    assert "error:" in err


def test_lowerbound_exits_on_a_failed_exact_certification(capsys):
    code, out, err = run_cli(capsys, "lowerbound", "--kappa", "2", "--eta", "0.5", "--case", "2")
    assert (code, out) == (cli.EXIT_CERT_FAILED, "")
    assert err == "error: exact certification of the residual bound failed\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("lowerbound", "--kappa", "4", "--eta", "0.25"),
        ("landscape", "--steps", "4"),
        ("sqrt", "MAT"),
    ],
)
def test_commands_without_randomness_take_no_seed(capsys, spd_file, argv):
    argv = [spd_file if a == "MAT" else a for a in argv]
    assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
    code, out, err = run_cli(capsys, *argv, "--seed", "3")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: unrecognized arguments: --seed")


def test_lowerbound_bad_kappa(capsys):
    code, _, _ = run_cli(capsys, "lowerbound", "--kappa", "1.2", "--eta", "0.3")
    assert code == 1


@pytest.mark.parametrize(
    "kappa, eta, message",
    [
        ("10", "inf", "eta must be positive and finite, got inf"),
        ("10", "nan", "eta must be positive and finite, got nan"),
        ("inf", "0.3", "kappa must be finite and at least 1, got inf"),
        ("nan", "0.3", "kappa must be finite and at least 1, got nan"),
    ],
)
def test_lowerbound_refuses_a_non_finite_value(capsys, kappa, eta, message):
    code, out, err = run_cli(capsys, "lowerbound", "--kappa", kappa, "--eta", eta)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # M = diag(1, 1/kappa) fails SpdMatrix's SPD_RTOL
        (("--kappa", "1e12", "--eta", "0.3"), "kappa must be below 1e+12, got 1e+12"),
        # the start diag(sqrt(1/(2 eta) + 1), sqrt(1/kappa)) fails it
        (
            ("--kappa", "1e6", "--eta", "1e-30", "--case", "1"),
            "case 1 at kappa 1e+06 needs eta above about 5e-19, got 1e-30",
        ),
    ],
)
def test_lowerbound_refuses_an_instance_it_cannot_build(capsys, argv, message):
    code, out, err = run_cli(capsys, "lowerbound", *argv)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("--kappa", "1e11", "--eta", "0.3"),
            "kappa must be at most 1e+06 for the default horizon of ceil(kappa) steps, got 1e+11",
        ),
        (
            ("--kappa", "10", "--eta", "0.3", "--steps", "100000000000"),
            "steps must be at most 1000000, got 100000000000",
        ),
    ],
)
def test_lowerbound_refuses_a_horizon_above_its_cap(capsys, argv, message):
    # three arrays of T + 1 floats, 745 GiB at T = 1e11, used to end in a
    # numpy allocation traceback
    code, out, err = run_cli(capsys, "lowerbound", *argv)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {message}\n")


# ------------------------------------------------------------ robustness


def test_robustness_table(capsys, spd_file):
    code, out, _ = run_cli(
        capsys,
        "robustness",
        spd_file,
        "--deltas",
        "1e-6,0",
        "--tol",
        "1e-10",
        "--max-iters",
        "600",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(experiments.ROBUSTNESS_HEADER)
    assert len(lines) == 3
    first, second = lines[1].split(","), lines[2].split(",")
    assert float(first[2]) > float(second[2])  # floors shrink with delta
    assert first[4] == second[4] == "true"


def test_robustness_shows_each_warning_as_one_line(capsys, spd_file):
    deltas = (1e-2, 1e-3, 1e-6, 0.0)
    argv = ("robustness", spd_file, "--deltas", ",".join(map(str, deltas)), "--max-iters", "200")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = run_cli(capsys, *argv)
    shown = warnings.showwarning
    code, out, err = run_cli(capsys, *argv)
    assert warnings.showwarning is shown
    # the filters in force still apply: ignored, no line is shown
    assert quiet == (cli.EXIT_OK, out, "")
    M, cfg = gd.resolve(io.read_matrix(spd_file), gd.GdConfig(c_step=1.0))
    tolerance = gd.stability_tolerance(cfg.eta, gd.rate_params(cfg.init, M))
    above = [d for d in deltas if d >= tolerance]
    assert len(above) == 2
    lines = err.splitlines()
    assert len(lines) == len(above)
    for line, delta in zip(lines, above):
        assert line.startswith(f"warning: error level delta={delta:.3e} is at or above")


# ----------------------------------------------------------------- bench


def test_bench_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--sizes",
        "2",
        "--kappas",
        "1,4",
        "--max-iters",
        "50000",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(experiments.BENCHMARK_HEADER)
    assert len(lines) == 1 + 2 * 3
    assert all(l.endswith("converged") for l in lines[1:])


def test_bench_unknown_method(capsys):
    code, _, _ = run_cli(capsys, "bench", "--methods", "gd,magic")
    assert code == 1


@pytest.mark.parametrize("flag", ["--kappas", "--opnorm"])
def test_bench_rejects_a_non_finite_instance_value(capsys, flag):
    code, out, err = run_cli(capsys, "bench", "--sizes", "4", flag, "nan")
    assert (code, out) == (cli.EXIT_USAGE, "")
    message = {
        "--kappas": "kappa must be finite and at least 1, got nan",
        "--opnorm": "opnorm must be positive and finite, got nan",
    }[flag]
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flag, value, kind", [("--sizes", "4,x", "integer"), ("--kappas", "1,y", "float")]
)
def test_bench_refuses_a_list_entry_that_is_not_a_number(capsys, flag, value, kind):
    code, out, err = run_cli(capsys, "bench", flag, value)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: argument {flag}: expected a comma-separated {kind} list, got '{value}'\n"


def test_bench_records_a_newton_failure_in_its_row(capsys):
    code, out, err = run_cli(
        capsys, "bench", "--sizes", "16", "--kappas", "1e8", "--methods", "newton"
    )
    assert (code, err) == (0, "")
    row = out.splitlines()[-1].split(",")
    del row[experiments.BENCHMARK_HEADER.index("wall_time_s")]
    assert row == ["16", "100000000", "newton", "", "", "", "error:NewtonConvergenceError"]


def test_bench_takes_a_residual_whose_squares_overflow(capsys):
    # at ||M||_2 = 1e200 the entries of the evd residual are about 1e184:
    # their squares pass the largest double, and its norm does not
    code, out, err = run_cli(capsys, "bench", "--sizes", "4", "--kappas", "10", "--opnorm", "1e200")
    assert (code, err) == (0, "")
    row = out.splitlines()[-1].split(",")
    assert row[2] == "evd"
    M = random_spd(SpdInstanceSpec(n=4, kappa=10.0, opnorm=1e200, seed=0)).values
    X = evd_sqrt(M).values
    assert float(row[6]) == linalg.frobenius_norm(M - X @ X) < math.inf


def _bench_in_a_child(*argv):
    # in a child process numpy's floating-point warnings would reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "matsqrt.cli", "bench", *argv], capture_output=True, text=True
    )
    rows = [line.split(",") for line in proc.stdout.splitlines() if not line.startswith("#")]
    return proc.returncode, proc.stderr, {row[2]: row[-1] for row in rows[1:]}


def test_bench_at_the_largest_norm_records_each_row_and_no_warning():
    # the instance's V diag(w) V^T was symmetrized by its own sum, which
    # overflowed at ||M||_2 = 1e308: a warning, then exit 2 on a valid instance
    code, err, status = _bench_in_a_child("--sizes", "2", "--kappas", "1", "--opnorm", "1e308")
    assert (code, err) == (0, "")
    assert status == {
        "gd": "error:GdError",
        "newton": "error:NewtonConvergenceError",
        "evd": "converged",
    }


def test_bench_at_a_subnormal_norm_shows_no_numpy_warning():
    # Newton's update overflowed there and printed numpy's warning
    code, err, status = _bench_in_a_child("--sizes", "4", "--kappas", "10", "--opnorm", "1e-310")
    assert code == 0 and "warning:" not in err
    assert list(status) == ["gd", "newton", "evd"]


def test_bench_deterministic_modulo_wall_time(capsys):
    argv = ["bench", "--sizes", "2", "--kappas", "4", "--seed", "0"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    wall = experiments.BENCHMARK_HEADER.index("wall_time_s")
    for a, b in zip(out1.splitlines(), out2.splitlines()):
        if a.startswith("#") or "," not in a:
            assert a == b
            continue
        ca, cb = a.split(","), b.split(",")
        del ca[wall], cb[wall]
        assert ca == cb


# ------------------------------------------------------------- landscape


def test_landscape_csv(capsys):
    code, out, _ = run_cli(capsys, "landscape", "--steps", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(experiments.LANDSCAPE_HEADER)
    assert len(lines) == 1 + 25 + 3


def test_landscape_refuses_a_non_finite_bound(capsys):
    code, out, err = run_cli(capsys, "landscape", "--grid-max", "inf")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: need 0 <= grid_min < grid_max, both finite\n"


def test_landscape_refuses_a_grid_whose_corner_row_overflows(capsys):
    # f at (1e77, 1e77) is about 2e308; at 9e76 the grid is finite
    code, out, err = run_cli(capsys, "landscape", "--steps", "1", "--grid-max", "1e77")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == "error: grid_max 1e+77 puts inf in the corner row (grid_max, grid_max)\n"
    code, out, err = run_cli(capsys, "landscape", "--steps", "1", "--grid-max", "9e76")
    assert (code, err) == (0, "")
    assert "inf" not in out


def test_readme_batch_runs(capsys, monkeypatch, tmp_path):
    # the README's replacements for the batch scripts, run verbatim
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Batch runs\n", 1)[1].split("\n## ", 1)[0]
    headers = {
        "lowerbound": experiments.LOWER_BOUND_HEADER,
        "landscape": experiments.LANDSCAPE_HEADER,
    }
    lines = [
        shlex.split(line)
        for line in section.splitlines()
        if line.startswith(("matsqrt lowerbound", "matsqrt landscape"))
    ]
    assert [argv[1] for argv in lines] == ["lowerbound", "lowerbound", "landscape"]
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert run_cli(capsys, *argv[1:])[0] == 0
        out = tmp_path / argv[argv.index("-o") + 1]
        assert out.read_text().splitlines()[0] == ",".join(headers[argv[1]])


def test_readme_python_blocks_run(capsys, monkeypatch, tmp_path):
    # every library snippet of the README, run verbatim in a scratch directory
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [b.split("\n```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    header = (tmp_path / "robustness_sweep.csv").read_text().splitlines()[0]
    assert header == ",".join(experiments.ROBUSTNESS_HEADER)


# ----------------------------------------------------------- determinism


@pytest.mark.parametrize(
    "argv",
    [
        ("landscape", "--steps", "10"),
        ("lowerbound", "--kappa", "100", "--eta", "0.3"),
        ("certify", "MAT", "--samples", "200"),
        ("robustness", "MAT", "--deltas", "1e-6,1e-7", "--max-iters", "400"),
    ],
    ids=["landscape", "lowerbound", "certify", "robustness"],
)
def test_repeat_runs_byte_identical(capsys, spd_file, argv):
    argv = [spd_file if a == "MAT" else a for a in argv]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2
    assert out1 == out2


def test_sqrt_trace_byte_identical(capsys, spd_file, tmp_path):
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    argv = ["sqrt", spd_file, "--eta", "0.02", "--tol", "1e-9"]
    _, out1, _ = run_cli(capsys, *argv, "--trace", str(t1))
    _, out2, _ = run_cli(capsys, *argv, "--trace", str(t2))
    assert out1 == out2
    assert t1.read_bytes() == t2.read_bytes()


# A real gd run's trace CSV, recorded before the trace derived its t, eta,
# objective and err_norm columns instead of storing them.  Its sigma_min and
# opnorm columns were derived again from the reference loop's iterates in
# test_gd.py, by the bracket recurrence of gd._run_loop's comment written
# out in Python floats, when the step's bound came to be read from the
# residual: exact at the refresh rows 0-5, 7, 9, 11, 14, 18, 24, 37 and 40.
PINNED_TRACE_CSV = (
    't,residual_fro,objective,sigma_min,opnorm,eta,err_norm\n'
    '0,7.414434360757169,54.973836889976567,2.6639630924655968,2.6639630924655968,0.01,0\n'
    '1,5.4091103278177632,29.258474538504789,2.3861107217381758,2.537950182155321,0.01,0\n'
    '2,4.1933038387252735,17.583797083868113,2.2042010770457332,2.4511709798753087,0.01,0\n'
    '3,3.3705521207105673,11.360621598426503,2.0729707840326128,2.3885837724498491,0.01,0\n'
    '4,2.7764755881575405,7.7088166916347607,1.9728244186353718,2.3420650036551933,0.01,0\n'
    '5,2.328407918261183,5.4214834338213755,1.8935028314198841,2.3067602911318255,0.01,0\n'
    '6,1.9796093769718826,3.9188532853950049,1.7860812528718417,2.4141818696798683,0.01,0\n'
    '7,1.701452649553131,2.8949411186713698,1.7754500974228906,2.2583674309268731,0.01,0\n'
    '8,1.4753480664577896,2.1766519172007381,1.6985999924425843,2.3352175359071801,0.01,0\n'
    '9,1.2886715350381808,1.6606743252176612,1.6918387096177583,2.2285466450325164,0.01,0\n'
    '10,1.1325409644502287,1.2826490361578542,1.6344014170985881,2.2859839375516873,0.01,0\n'
    '11,1.0005244343844741,1.0010491438003719,1.6298142598930152,2.2097247941231011,0.01,0\n'
    '12,0.88785138382626183,0.78828007976220815,1.5855965868973025,2.2539424671188142,0.01,0\n'
    '13,0.79091087260468196,0.62554000840429946,1.5455732681273764,2.2939657858887408,0.01,0\n'
    '14,0.70692138237945057,0.49973784086527334,1.5626404756285284,2.1933539771255539,0.01,0\n'
    '15,0.63370716539874428,0.40158477147771143,1.5316298991173818,2.2243645536367009,0.01,0\n'
    '16,0.56954299242752338,0.32437922022329796,1.5034379839954088,2.2525564687586739,0.01,0\n'
    '17,0.51304407362651183,0.26321422148328572,1.4777794289588315,2.2782150237952519,0.01,0\n'
    '18,0.46308655514341363,0.21444915755459387,1.5029224722236998,2.1829832201184782,0.01,0\n'
    '19,0.41874915888177255,0.17535085806419198,1.4827042686368841,2.2032014237052948,0.01,0\n'
    '20,0.37926971959952938,0.14384552020510563,1.4642524937764079,2.2216531985657708,0.01,0\n'
    '21,0.34401239356094576,0.11834452692353103,1.4474003780630573,2.2385053142791214,0.01,0\n'
    '22,0.31244262473725631,0.097620393752705967,1.4319989066397745,2.2539067857024047,0.01,0\n'
    '23,0.28410782491210845,0.080717256176289276,1.417914575599013,2.2679911167431657,0.01,0\n'
    '24,0.25862231275569447,0.066885500655104249,1.4491102094241699,2.1774104388312403,0.01,0\n'
    '25,0.23565546204463006,0.05553349679146808,1.4378476709539865,2.1886729773014246,0.01,0\n'
    '26,0.21492229230680238,0.046191591730410604,1.4275322161193735,2.1989884321360376,0.01,0\n'
    '27,0.19617593575892048,0.038484997770888096,1.4180799834275555,2.2084406648278558,0.01,0\n'
    '28,0.17920155830402495,0.032113198498590859,1.4094151251477405,2.2171055231076706,0.01,0\n'
    '29,0.16381141675132155,0.026834180258075151,1.4014689498544317,2.2250516984009794,0.01,0\n'
    '30,0.14984081093165755,0.022452268620656746,1.39417917243323,2.2323414758221811,0.01,0\n'
    '31,0.1371447459819822,0.018808681350462424,1.3874892552929567,2.2390313929624543,0.01,0\n'
    '32,0.12559516230473988,0.015774144794353955,1.3813478274602846,2.2451728207951267,0.01,0\n'
    '33,0.11507862247422825,0.013243089350565951,1.3757081705636838,2.2508124776917273,0.01,0\n'
    '34,0.10549436843634032,0.011129061771782316,1.3705277625760706,2.2559928856793405,0.01,0\n'
    '35,0.096752680724235374,0.0093610812273258268,1.3657678716826362,2.2607527765727746,0.01,0\n'
    '36,0.088773485535369095,0.0078807317340983864,1.361393193850871,2.2651274544045399,0.01,0\n'
    '37,0.081485166441026463,0.0066398323499217851,1.3981483314272272,2.1753580981288958,0.01,0\n'
    '38,0.074823546005852087,0.0055985630368898635,1.394603143093325,2.1789032864627988,0.01,0\n'
    '39,0.068731009258613793,0.0047239516337076546,1.3913424776873842,2.1821639518687395,0.01,0\n'
    '40,0.063155746207323435,0.0039886482790038487,1.3924869542727512,2.175291157244768,0.01,0\n'
)


def test_sqrt_trace_csv_pinned(capsys, tmp_path):
    matrix, trace = tmp_path / "m.txt", tmp_path / "t.csv"
    io.write_matrix(matrix, [[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
    # the start the trace was recorded from: a power-iteration estimate of
    # ||M||, which the default start no longer makes
    start = tmp_path / "u0.txt"
    io.write_matrix(start, 2.6639630924655968 * np.eye(3))
    argv = ["sqrt", str(matrix), "--eta", "0.01", "--max-iters", "40", "--trace", str(trace)]
    argv += ["--init", f"file:{start}"]
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_ITER_CAP
    assert err == "error: tolerance 1e-08 not reached within 40 iterations\n"
    assert trace.read_text() == PINNED_TRACE_CSV


_GD_ECHO_KAPPA_10 = (
    '# method gd\n'
    '# seed 0\n'
    '# eta {eta}\n'
    '# alpha 58.094750193114194\n'
    '# beta 0.31622776601683383\n'
    '# corridor-low 0.031622776601683382\n'
    '# corridor-high 1.7320508075688794\n'
    '# tol 1e-08\n'
    '# max-iters {max_iters}\n'
)

# (argv, exit code, stdout, written file) of three commands on seeded n = 6
# files, recorded before the rate parameters and certificates were rewritten,
# and again when the default start came to read 1.5 ||M||_2 from the matrix.
# The robustness file's positive-delta rows were re-derived by the reference
# loop of test_gd.py when the errors came to be scaled to Frobenius norm delta.
# The two eigenvalue-corridor margins were re-derived from that loop's
# iterates, with the bracket recurrence of gd._run_loop's comment in Python
# floats, when the step's bound came to be read from the residual.
GOLDEN_RUNS = {
    "certify": (
        ["certify", "KAPPA10", "--samples", "40"],
        cli.EXIT_OK,
        _GD_ECHO_KAPPA_10.format(eta="0.00033333333333333256", max_iters=200000)
        + '# samples 40\n'
        '# smoothness-cap 4.0000000000000098\n'
        '# self-test False\n',
        '{"property": "smoothness", "samples": 40, "worst_margin": 9.191767909282188, "pass": true}\n'
        '{"property": "gradient-dominance", "samples": 40, "worst_margin": 8.673617379884035e-19, "pass": true}\n'
        '{"property": "saddle-location", "samples": 40, "worst_margin": -1.5881867761018131e-22, "pass": true}\n'
        '{"property": "eigenvalue-corridor", "samples": 120360, "worst_margin": 0.2734253348544606, "pass": true}\n',
    ),
    "certify-self-test": (
        ["certify", "KAPPA100", "--samples", "40", "--self-test"],
        cli.EXIT_CERT_FAILED,
        '# method gd\n'
        '# seed 0\n'
        '# eta 0.00019245008972984906\n'
        '# alpha 1837.1173070881348\n'
        '# beta 0.099999999999986752\n'
        '# corridor-low 0.0099999999999986749\n'
        '# corridor-high 1.7320508075688794\n'
        '# tol 1e-08\n'
        '# max-iters 200000\n'
        '# samples 40\n'
        '# smoothness-cap 4.0000000000000098\n'
        '# self-test True\n',
        '{"property": "smoothness", "samples": 40, "worst_margin": -34.10747663791386, "pass": false}\n'
        '{"property": "gradient-dominance", "samples": 40, "worst_margin": -1.0842021724855044e-19, "pass": true}\n'
        '{"property": "saddle-location", "samples": 40, "worst_margin": -3.298382692555198e-23, "pass": true}\n'
        '{"property": "eigenvalue-corridor", "samples": 200001, "worst_margin": 0.09669704686225927, "pass": true}\n',
    ),
    "robustness": (
        ["robustness", "KAPPA10", "--deltas", "1e-6,1e-7,0"],
        cli.EXIT_OK,
        _GD_ECHO_KAPPA_10.format(eta="0.033333333333333257", max_iters=20000),
        'delta,plateau_step,floor_residual,max_bound_ratio,bound_satisfied\n'
        '9.9999999999999995e-07,911,4.3100996529537426e-06,1,true\n'
        '9.9999999999999995e-08,1141,3.7412307197678589e-07,1,true\n'
        '0,1194,9.9385654119172863e-09,1,true\n',
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_golden_bytes(capsys, tmp_path, name):
    argv, want_code, want_out, want_file = GOLDEN_RUNS[name]
    files = {}
    for label, kappa in (("KAPPA10", 10.0), ("KAPPA100", 100.0)):
        files[label] = str(tmp_path / f"{label}.txt")
        io.write_matrix(files[label], random_spd(SpdInstanceSpec(n=6, kappa=kappa, seed=3)))
    dest = tmp_path / "out.txt"
    argv = [files.get(a, a) for a in argv] + ["-o", str(dest)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (want_code, want_out, "")
    assert dest.read_text() == want_file


# ------------------------------------------------------------ entry point


def test_installed_entry_point(spd_file):
    proc = subprocess.run(
        [sys.executable, "-m", "matsqrt.cli", "sqrt", spd_file, "--method", "evd"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    U = parse_stdout_matrix(proc.stdout)
    assert np.allclose(U, np.diag([2.0, math.sqrt(2.0)]), atol=1e-10)


@pytest.mark.parametrize("method", ["gd", "newton", "evd"])
def test_benchmark_cli_command_lines_run(capsys, monkeypatch, tmp_path, method):
    # the benchmark's cli-n64 workload runs these argv in child processes; a
    # changed option fails here first, on a small matrix written over its own
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    wl = workloads.CliN64(seed=0, workdir=tmp_path)
    io.write_matrix(wl.matrix, np.diag([4.0, 3.0, 2.0, 1.0]))
    code, _, err = run_cli(capsys, *wl.argv(method))
    assert (code, err) == (cli.EXIT_OK, "")
