import io as std_io
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from matsqrt import cli, io, linalg
from matsqrt.baselines import NewtonConvergenceError, evd_sqrt
from matsqrt.experiments import LowerBoundError
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


def test_exit_usage_bad_eta_argument(capsys, spd_file):
    code, _, _ = run_cli(capsys, "sqrt", spd_file, "--eta", "fast")
    assert code == 1


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
    # one power iteration for the auto-lambda start, and no decomposition
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


# ------------------------------------------------------------ lowerbound


def test_lowerbound_stdout(capsys):
    code, out, _ = run_cli(
        capsys, "lowerbound", "--kappa", "4", "--eta", "0.25", "--case", "2"
    )
    assert code == 0
    assert "# certified true" in out
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(cli.experiments.LOWER_BOUND_HEADER)
    assert len(lines) == 1 + 4 + 1  # header plus t = 0..4
    row1 = lines[2].split(",")
    assert float(row1[3]) == 0.2734375


def test_lowerbound_horizon_past_window(capsys):
    code, _, err = run_cli(
        capsys, "lowerbound", "--kappa", "10", "--eta", "0.1", "--steps", "2000"
    )
    assert code == 4
    assert "error:" in err


def test_lowerbound_bad_kappa(capsys):
    code, _, _ = run_cli(capsys, "lowerbound", "--kappa", "1.2", "--eta", "0.3")
    assert code == 1


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
    assert lines[0] == ",".join(cli.experiments.ROBUSTNESS_HEADER)
    assert len(lines) == 3
    first, second = lines[1].split(","), lines[2].split(",")
    assert float(first[2]) > float(second[2])  # floors shrink with delta
    assert first[4] == second[4] == "true"


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
    assert lines[0] == ",".join(cli.experiments.BENCHMARK_HEADER)
    assert len(lines) == 1 + 2 * 3
    assert all(l.endswith("converged") for l in lines[1:])


def test_bench_unknown_method(capsys):
    code, _, _ = run_cli(capsys, "bench", "--methods", "gd,magic")
    assert code == 1


def test_bench_deterministic_modulo_wall_time(capsys):
    argv = ["bench", "--sizes", "2", "--kappas", "4", "--seed", "0"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    wall = cli.experiments.BENCHMARK_HEADER.index("wall_time_s")
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
    assert lines[0] == ",".join(cli.experiments.LANDSCAPE_HEADER)
    assert len(lines) == 1 + 25 + 3


def test_readme_batch_runs(capsys, monkeypatch, tmp_path):
    # the README's replacements for the batch scripts, run verbatim
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Batch runs\n", 1)[1].split("\n## ", 1)[0]
    headers = {
        "lowerbound": cli.experiments.LOWER_BOUND_HEADER,
        "landscape": cli.experiments.LANDSCAPE_HEADER,
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
    assert header == ",".join(cli.experiments.ROBUSTNESS_HEADER)


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
