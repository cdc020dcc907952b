"""Every check of the benchmark can fail.

Run with ``python3 -m pytest -q perfbench`` from the root of the repository.
Each check is fed a good output, which it must accept, and a bad one (a
wrong root, a residual over its bound, a non-zero exit code), which it must
reject; the next tests break the program's outputs inside a real pass and
see the workload report it.  The last one shows that the host-speed scaling
cancels a host that runs at half speed.
"""

import math

import numpy as np
import pytest

import checks
import hostspeed
import inputs
import workloads
from matsqrt import analysis, gd, linalg


@pytest.fixture
def inst():
    return inputs.spd_instance("n8", 8, 10.0, seed=3)


def test_inputs_have_the_stated_spectrum_and_root(inst):
    w = np.linalg.eigvalsh(inst.M)
    assert w[-1] == pytest.approx(1.0, rel=1e-12)
    assert w[-1] / w[0] == pytest.approx(10.0, rel=1e-10)
    assert np.linalg.norm(inst.root @ inst.root - inst.M) < 1e-14
    again = inputs.spd_instance("n8", 8, 10.0, seed=3)
    assert np.array_equal(again.M, inst.M)


def test_matrix_file_round_trips_bitwise(inst, tmp_path):
    path = tmp_path / "M.txt"
    inputs.write_matrix_file(path, inst.M)
    assert np.array_equal(inputs.read_matrix_file(path), inst.M)


def test_exit_code():
    assert checks.check_exit(0) == []
    assert checks.check_exit(1)
    assert checks.check_exit(2)


def test_root_accepts_the_exact_root(inst):
    assert checks.check_root(inst.root, inst.root) == []


def test_root_rejects_a_wrong_root(inst):
    wrong = inst.root + 1e-5 * np.eye(inst.n)
    assert any("relative error" in p for p in checks.check_root(wrong, inst.root))


def test_root_rejects_asymmetry_and_indefiniteness(inst):
    skew = inst.root.copy()
    skew[0, 1] += 1e-15
    assert any("symmetric" in p for p in checks.check_root(skew, inst.root))
    assert any("positive definite" in p for p in checks.check_root(-inst.root, inst.root))
    nan = inst.root.copy()
    nan[2, 2] = np.nan
    assert checks.check_root(nan, inst.root)


def test_converged_rejects_a_residual_over_tol(inst):
    assert checks.check_converged(inst.root, inst.M, 1e-8, True) == []
    wrong = inst.root + 1e-6 * np.eye(inst.n)
    assert any("residual" in p for p in checks.check_converged(wrong, inst.M, 1e-8, True))
    assert checks.check_converged(inst.root, inst.M, 1e-8, False)


def test_finite_pd():
    assert checks.check_finite_pd(np.eye(3)) == []
    assert checks.check_finite_pd(np.diag([1.0, -1e-9, 1.0]))
    assert checks.check_finite_pd(np.full((3, 3), np.inf))


def test_same_trace_rejects_one_ulp():
    a = {"t": np.arange(3), "residual_fro": np.array([1.0, 0.5, 0.25])}
    b = {k: v.copy() for k, v in a.items()}
    assert checks.check_same_trace(a, b) == []
    b["residual_fro"][1] = np.nextafter(0.5, 1.0)
    assert checks.check_same_trace(a, b) == ["trace column residual_fro differs"]


def test_perturbed_bound_agrees_with_the_program(inst):
    cfg = gd.GdConfig(c_step=1.0)
    M = linalg.SpdMatrix(inst.M)
    U0 = gd.initial_iterate(M, cfg)
    eta = gd.step_size_policy(U0, M, cfg)
    err = np.random.default_rng(0).uniform(0.0, 1e-6, 50)
    ours = checks.perturbed_bound(inst.M, U0.values, eta, err)
    theirs = analysis.stability_bound_series(
        eta, analysis.rate_params(U0, M), ours[0], err,
        linalg.spectral_norm(U0), linalg.spectral_norm(M),
    )
    np.testing.assert_allclose(ours, theirs, rtol=1e-12)
    clean = checks.perturbed_bound(inst.M, U0.values, eta, np.zeros(5))
    beta = min(float(U0.values[0, 0]), math.sqrt(0.1))
    assert clean[5] == pytest.approx(clean[0] * math.exp(-5 * eta * beta**2 / 50.0), rel=1e-12)


def test_under_bound_rejects_a_residual_over_its_bound():
    bound = np.array([1.0, 0.9, 0.8])
    assert checks.check_under_bound([1.0, 0.9, 0.8], bound) == []
    assert checks.check_under_bound([1.0, 0.95, 0.8], bound)
    assert checks.check_under_bound([1.0, np.nan, 0.8], bound)


def test_shrinking_rejects_an_error_that_does_not_shrink():
    assert checks.check_shrinking([1e-6, 1e-7, 0.0], [3e-6, 3e-7, 6e-9]) == []
    assert checks.check_shrinking([1e-6, 1e-7, 0.0], [3e-6, 3e-6, 6e-9])


def test_solve_small_pass_rejects_a_wrong_root(monkeypatch, tmp_path):
    wl = workloads.SolveSmall(seed=0, workdir=tmp_path)
    wl.instances = wl.instances[:1]
    real = gd.run
    monkeypatch.setattr(gd, "run", lambda M, cfg: real(M, gd.GdConfig(tol=1e-3)))
    res = wl.run_pass()
    assert res.failed == 0
    assert any("relative error" in p for p in res.problems)
    assert any("residual" in p for p in res.problems)


def test_perturbed_pass_rejects_a_residual_over_its_bound(monkeypatch, tmp_path):
    wl = workloads.Perturbed(seed=0, workdir=tmp_path)
    wl.DELTAS = (1e-6, 0.0)
    real = gd.run_perturbed

    def bumped(M, cfg, err):
        U, trace = real(M, cfg, err)
        trace.residual_fro[7] = 1e3
        return U, trace

    monkeypatch.setattr(gd, "run_perturbed", bumped)
    res = wl.run_pass()
    assert any("exceeds the perturbed bound" in p for p in res.problems)
    assert any("differs" in p for p in res.problems)


def test_cli_pass_counts_a_non_zero_exit_as_failed(tmp_path):
    wl = workloads.CliN64(seed=0, workdir=tmp_path)
    inputs.write_matrix_file(wl.matrix, -np.eye(4))  # not positive definite
    res = wl.run_pass()
    assert (res.attempted, res.failed) == (3, 3)
    assert all("exit code 1" in f for f in res.failures)


def test_host_scaling_cancels_a_host_at_half_speed(monkeypatch):
    host = hostspeed.HostSpeed()
    monkeypatch.setattr(hostspeed, "sample_s", lambda: hostspeed.REF_S)
    host.scale(0.3)  # the block before this operation holds real samples
    assert host.scale(0.3) == 1.0
    monkeypatch.setattr(hostspeed, "sample_s", lambda: 2.0 * hostspeed.REF_S)
    host.scale(0.3)
    # an operation that took 0.6 s with every sample around it twice as slow
    # reads 0.3 s at the reference speed
    assert 0.6 * host.scale(0.6) == pytest.approx(0.3)
