import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matsqrt.analysis import stability_tolerance
from matsqrt.experiments import (
    BENCHMARK_HEADER,
    LOWER_BOUND_HEADER,
    LowerBoundError,
    ROBUSTNESS_HEADER,
    SpdInstanceSpec,
    case2_alpha_trace,
    convergence_benchmark,
    landscape_grid,
    lower_bound_instance,
    random_spd,
    residual_floor,
    robustness_sweep,
    run_lower_bound,
    scalar_gd_trace,
)
from matsqrt.gd import GdConfig, IterationTrace
from matsqrt import experiments, linalg


# ------------------------------------------------------------ instances


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        SpdInstanceSpec(n=0, kappa=1.0)
    with pytest.raises(ValueError):
        SpdInstanceSpec(n=4, kappa=0.5)
    with pytest.raises(ValueError):
        SpdInstanceSpec(n=4, kappa=10.0, opnorm=0.0)
    with pytest.raises(ValueError):
        SpdInstanceSpec(n=4, kappa=10.0, spectrum="cauchy")
    with pytest.raises(ValueError):
        SpdInstanceSpec(n=1, kappa=2.0)  # 1x1 cannot have kappa > 1
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            SpdInstanceSpec(n=4, kappa=bad)
        with pytest.raises(ValueError, match="finite"):
            SpdInstanceSpec(n=4, kappa=10.0, opnorm=bad)


def test_random_spd_kappa_one_is_scaled_identity():
    M = random_spd(SpdInstanceSpec(n=5, kappa=1.0, opnorm=3.0, seed=2))
    assert np.max(np.abs(np.asarray(M) - 3.0 * np.eye(5))) <= 1e-12


@pytest.mark.parametrize("spectrum", ["geometric", "linear", "two-point"])
def test_random_spd_recovers_spectrum(spectrum):
    spec = SpdInstanceSpec(n=6, kappa=25.0, opnorm=2.0, spectrum=spectrum, seed=7)
    M = random_spd(spec)
    got = np.sort(np.linalg.eigvalsh(np.asarray(M)))[::-1]
    if spectrum == "geometric":
        want = 2.0 * np.geomspace(1.0, 1.0 / 25.0, 6)
    elif spectrum == "linear":
        want = 2.0 * np.linspace(1.0, 1.0 / 25.0, 6)
    else:
        want = 2.0 * np.array([1.0, 1.0, 1.0, 1.0 / 25.0, 1.0 / 25.0, 1.0 / 25.0])
    assert np.allclose(got, want, rtol=1e-10, atol=0)


@given(st.integers(0, 500))
def test_random_spd_deterministic(seed):
    spec = SpdInstanceSpec(n=4, kappa=9.0, seed=seed)
    assert np.array_equal(np.asarray(random_spd(spec)), np.asarray(random_spd(spec)))


def test_random_spd_is_spd_type():
    assert isinstance(random_spd(SpdInstanceSpec(n=3, kappa=4.0)), linalg.SpdMatrix)


# ------------------------------------------------------- hard instances


def test_lower_bound_instance_case_classification():
    assert lower_bound_instance(4.0, 0.25).case == 1  # boundary step size
    assert lower_bound_instance(4.0, 0.30).case == 1
    assert lower_bound_instance(4.0, 0.10).case == 2
    assert lower_bound_instance(4.0, 0.25, case=2).case == 2  # explicit override


def test_lower_bound_instance_worked_example():
    # kappa = 2, eta = 1/2: beta = 1/(2 eta) + 1 = 2
    inst = lower_bound_instance(2.0, 0.5)
    U0 = np.asarray(inst.U0)
    assert inst.case == 1
    assert U0[0, 0] == math.sqrt(2.0)
    assert U0[1, 1] == math.sqrt(0.5)
    assert np.array_equal(np.asarray(inst.M), np.diag([1.0, 0.5]))


def test_lower_bound_instance_validation():
    with pytest.raises(ValueError):
        lower_bound_instance(0.5, 0.1)
    with pytest.raises(ValueError):
        lower_bound_instance(4.0, 0.0)
    with pytest.raises(ValueError):
        lower_bound_instance(4.0, 0.1, case=3)


@given(
    st.floats(2.0, 1e4),
    st.floats(1e-3, 1.0),
)
def test_lower_bound_instance_norm_invariants(kappa, eta):
    inst = lower_bound_instance(kappa, eta)
    M = np.asarray(inst.M)
    assert M[0, 0] == 1.0
    assert M[1, 1] == pytest.approx(1.0 / kappa, rel=1e-15)
    U0 = np.asarray(inst.U0)
    assert U0[0, 0] >= U0[1, 1] > 0.0


def test_case2_alpha_trace_first_step():
    # sigma = 1/4, eta = 1/4: alpha_1 = (1/2)(1 + (1/8)(3/4)) = 35/64
    trace = case2_alpha_trace(0.25, 0.25, 3)
    assert trace[0] == 0.5
    assert trace[1] == 0.546875
    assert len(trace) == 4


def test_case2_alpha_trace_monotone_below_one():
    trace = case2_alpha_trace(0.1, 0.1, 500)
    arr = np.array(trace)
    assert np.all(np.diff(arr) > 0)
    assert np.all(arr < 1.0)


def test_scalar_gd_trace_matches_hand_step():
    # u = 1, m = 4: u1 = 1 - 2 eta (1 - 4) = 1 + 6 eta
    got = scalar_gd_trace(1.0, 4.0, 0.05, 1)
    assert got[1] == pytest.approx(1.3, rel=1e-15)


def test_run_lower_bound_case1_stalls():
    rep = run_lower_bound(10.0, 0.3)
    assert rep.case == 1
    assert rep.certified
    assert rep.scalar_max_diff == 0.0
    assert rep.escape_step is None
    assert rep.bound == pytest.approx(0.025, rel=1e-15)
    assert rep.min_residual >= rep.bound - 1e-12
    # the first update lands on the saddle surface up to round-off
    assert abs(rep.diag_top[1]) <= 2e-15
    assert len(rep.residuals) == rep.steps + 1 == 11


def test_run_lower_bound_case2_stalls():
    rep = run_lower_bound(10.0, 0.1)
    assert rep.case == 2
    assert rep.certified
    assert rep.scalar_max_diff == 0.0
    assert rep.alpha_max_diff <= 1e-12
    assert rep.escape_step is None
    assert rep.min_residual >= rep.bound - 1e-12


def test_run_lower_bound_case2_boundary_oracle():
    rep = run_lower_bound(4.0, 0.25, case=2)
    # bottom coordinate after one step: alpha_1 sqrt(sigma) = (35/64)(1/2)
    assert rep.diag_bottom[1] == 0.2734375


def test_run_lower_bound_case1_roundoff_escape():
    # beyond ~80 steps round-off amplification kicks the float iterate off
    # the saddle; the exact dynamics certificate still holds
    rep = run_lower_bound(100.0, 0.3)
    assert rep.certified
    assert rep.escape_step is not None
    assert 60 <= rep.escape_step <= 95
    assert rep.min_residual < rep.bound


def test_run_lower_bound_case2_horizon_past_window_fails():
    with pytest.raises(LowerBoundError):
        run_lower_bound(10.0, 0.1, steps=2000)


def test_run_lower_bound_validation():
    with pytest.raises(ValueError):
        run_lower_bound(1.5, 0.3)
    with pytest.raises(ValueError):
        run_lower_bound(10.0, 0.3, steps=0)


def test_lower_bound_report_rows_match_header():
    rep = run_lower_bound(4.0, 0.3)
    rows = list(rep.rows())
    assert len(rows) == rep.steps + 1
    assert all(len(r) == len(LOWER_BOUND_HEADER) for r in rows)
    assert rows[0][0] == 0 and rows[-1][0] == rep.steps


# ------------------------------------------------------------ robustness


def _fake_trace(residuals, converged=False):
    k = len(residuals)
    columns = (residuals, np.ones(k), np.ones(k))
    reason = "converged" if converged else "max-iters"
    return IterationTrace(columns, 1e-3, converged, reason)


def test_residual_floor_converged_run():
    tr = _fake_trace([1.0, 0.1, 1e-12], converged=True)
    floor, plateau = residual_floor(tr, tol=1e-8)
    assert floor == 1e-12
    assert plateau == 2


def test_residual_floor_plateau_detection():
    r = np.concatenate([np.geomspace(1.0, 1e-4, 200), np.full(300, 1e-4)])
    floor, plateau = residual_floor(_fake_trace(r), tol=1e-10)
    assert floor == pytest.approx(1e-4, rel=0.02)
    assert 200 <= plateau <= 310


def test_residual_floor_no_plateau_uses_tail():
    r = np.geomspace(1.0, 1e-8, 150)  # still descending at the horizon
    floor, plateau = residual_floor(_fake_trace(r), tol=1e-12)
    assert plateau == 149
    assert floor == pytest.approx(np.median(r[49:]), rel=1e-12)


def test_robustness_sweep_floor_tracks_error_size():
    M = random_spd(SpdInstanceSpec(n=6, kappa=4.0, seed=3))
    cfg = GdConfig(c_step=1.0, tol=1e-10, max_iters=4000)
    from matsqrt.gd import initial_iterate, step_size_policy
    from matsqrt.analysis import rate_params

    U0 = initial_iterate(M, cfg)
    rate = rate_params(U0, M)
    eta = step_size_policy(U0, M, cfg)
    delta = stability_tolerance(eta, rate) / 2.0
    rows = robustness_sweep(M, [delta, delta / 10.0, 0.0], cfg, seed=1)
    assert [r.delta for r in rows] == [delta, delta / 10.0, 0.0]
    assert all(r.bound_satisfied for r in rows)
    assert all(r.max_bound_ratio <= 1.0 + 1e-9 for r in rows)
    floors = [r.floor_residual for r in rows]
    assert floors[0] > floors[1] > floors[2]
    assert floors[2] <= cfg.tol
    assert ROBUSTNESS_HEADER == (
        "delta", "plateau_step", "floor_residual", "max_bound_ratio", "bound_satisfied"
    )
    assert len(astuple(rows[0])) == len(ROBUSTNESS_HEADER)


def test_robustness_sweep_rejects_bad_ladders():
    M = random_spd(SpdInstanceSpec(n=4, kappa=4.0, seed=0))
    cfg = GdConfig(max_iters=100)
    with pytest.raises(ValueError):
        robustness_sweep(M, [1e-8, 1e-6], cfg)
    with pytest.raises(ValueError):
        robustness_sweep(M, [1e-6, -1e-8], cfg)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_robustness_sweep_rejects_a_non_finite_delta_before_any_run(monkeypatch, bad):
    # NaN passes the ordering and sign checks; it must not cost the runs
    # of the deltas before it
    runs = []

    def run_perturbed(*args):
        runs.append(args)
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "run_perturbed", run_perturbed)
    M = random_spd(SpdInstanceSpec(n=4, kappa=4.0, seed=0))
    ladder = [1e-6, 1e-7, bad] if math.isnan(bad) else [bad, 1e-7]
    with pytest.raises(ValueError, match="finite"):
        robustness_sweep(M, ladder, GdConfig(max_iters=100))
    assert runs == []


# ------------------------------------------------------------- benchmark


def test_convergence_benchmark_grid():
    specs = [SpdInstanceSpec(n=4, kappa=k, seed=5) for k in (4.0, 16.0, 64.0)]
    cfg = GdConfig(c_step=1.0, tol=1e-8, max_iters=200_000)
    rows = convergence_benchmark(specs, cfg=cfg)
    assert len(rows) == 9
    assert [r.method for r in rows[:3]] == ["gd", "newton", "evd"]
    assert all(r.status == "converged" for r in rows)
    gd_rows = [r for r in rows if r.method == "gd"]
    assert gd_rows[0].iterations < gd_rows[1].iterations < gd_rows[2].iterations
    assert all(r.predicted_iterations > 0 for r in gd_rows)
    assert all(r.iterations <= 15 for r in rows if r.method == "newton")
    assert all(r.iterations == 0 for r in rows if r.method == "evd")
    assert all(r.predicted_iterations is None for r in rows if r.method != "gd")
    assert all(r.wall_time_s >= 0.0 for r in rows)
    assert BENCHMARK_HEADER == (
        "n", "kappa", "method", "iterations", "predicted_iterations",
        "wall_time_s", "final_residual", "status",
    )
    assert len(astuple(rows[0])) == len(BENCHMARK_HEADER)


def test_convergence_benchmark_records_per_row_failure():
    specs = [SpdInstanceSpec(n=4, kappa=16.0, seed=5)]
    cfg = GdConfig(eta=0.9, tol=1e-8, max_iters=1000)  # far past stability
    rows = convergence_benchmark(specs, methods=("gd", "evd"), cfg=cfg)
    assert rows[0].method == "gd"
    assert rows[0].status == "diverged"
    assert rows[1].status == "converged"  # the failure does not sink the table


def test_convergence_benchmark_times_each_method_on_its_own_decomposition(
    sym_eig_calls, monkeypatch
):
    # the evd method pays for its own decomposition of M, whatever ran
    # before it on the same instance; gd reads the constructor's spectrum
    from matsqrt import baselines, experiments

    per_method = []

    def counted(name, real):
        def wrapper(*args):
            before = len(sym_eig_calls)
            out = real(*args)
            per_method.append((name, len(sym_eig_calls) - before))
            return out

        return wrapper

    monkeypatch.setattr(experiments, "_bench_gd", counted("gd", experiments._bench_gd))
    monkeypatch.setattr(baselines, "evd_sqrt", counted("evd", baselines.evd_sqrt))
    specs = [SpdInstanceSpec(n=4, kappa=4.0, seed=5)]
    cfg = GdConfig(c_step=1.0, tol=1e-8, max_iters=200_000)
    convergence_benchmark(specs, methods=("gd", "evd"), cfg=cfg)
    gd_first = dict(per_method)
    per_method.clear()
    convergence_benchmark(specs, methods=("evd", "gd"), cfg=cfg)
    assert dict(per_method) == gd_first
    assert gd_first == {"gd": 0, "evd": 1}


def test_convergence_benchmark_unknown_method():
    with pytest.raises(ValueError):
        convergence_benchmark([SpdInstanceSpec(n=2, kappa=2.0)], methods=("qr",))


# ------------------------------------------------------------- landscape


def test_landscape_grid_shape_and_sampling():
    rows = landscape_grid()
    # 101 x 101 uniform samples plus the three off-grid stationary points
    assert len(rows) == 101 * 101 + 3
    xs = sorted({r[0] for r in rows[: 101 * 101]})
    assert xs[0] == 0.0 and xs[-1] == 3.0 and len(xs) == 101


def test_landscape_grid_gridpoint_values():
    rows = landscape_grid(0.0, 3.0, 3)  # pts 0, 1, 2, 3
    table = {(r[0], r[1]): r for r in rows}
    x, y = 1.0, 2.0
    f = (x * x - 4.0) ** 2 + (y * y - 2.0) ** 2
    assert table[(x, y)][2] == f
    assert table[(x, y)][3] == -2.0 * (x * x - 4.0) * x
    assert table[(x, y)][4] == -2.0 * (y * y - 2.0) * y


def test_landscape_grid_minimum_row_is_exact():
    rows = landscape_grid()
    mins = [r for r in rows if r[0] == 2.0 and r[1] == math.sqrt(2.0)]
    assert len(mins) == 1
    assert mins[0][2:] == (0.0, 0.0, 0.0)


def test_landscape_grid_saddle_rows_are_exact():
    table = {(r[0], r[1]): r for r in landscape_grid()}
    assert table[(0.0, 0.0)][2:] == (20.0, 0.0, 0.0)
    assert table[(2.0, 0.0)][2:] == (4.0, 0.0, 0.0)
    assert table[(0.0, math.sqrt(2.0))][2:] == (16.0, 0.0, 0.0)


def test_landscape_grid_skips_landmarks_already_on_grid():
    rows = landscape_grid(0.0, 2.0, 2)  # pts 0, 1, 2: saddles (0,0), (2,0) on grid
    assert len(rows) == 9 + 2
    assert sum(1 for r in rows if (r[0], r[1]) == (2.0, 0.0)) == 1


def test_landscape_grid_validation():
    with pytest.raises(ValueError):
        landscape_grid(-1.0, 3.0)
    with pytest.raises(ValueError):
        landscape_grid(3.0, 3.0)
    with pytest.raises(ValueError):
        landscape_grid(0.0, 3.0, steps=0)
