import dataclasses
import math
import pickle
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import matsqrt.experiments as experiments
import matsqrt.gd as gd
import matsqrt.linalg as linalg
from matsqrt.analysis import rate_params, stability_tolerance
from matsqrt.baselines import evd_sqrt
from matsqrt.experiments import SpdInstanceSpec, random_spd, scalar_gd_trace
from matsqrt.gd import (
    DivergenceError,
    ErrorModel,
    GdConfig,
    GdError,
    LostPositiveDefinitenessError,
    TraceRecord,
    gd_step,
    gradient,
    initial_iterate,
    objective,
    residual_fro,
    run,
    resolve,
    run_perturbed,
    step_size_policy,
)


def test_config_defaults_pinned():
    # downstream guarantees quote these values; changing them is a contract
    # change, not a tuning knob
    cfg = GdConfig()
    assert cfg.eta == "auto"
    assert cfg.max_iters == 10_000_000
    assert cfg.tol == 1e-8
    assert cfg.init == "scaled-identity"
    assert cfg.c_step == 0.01
    assert gd.C_RATE == 1.0 / 50.0
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eta=-0.1),
        dict(eta="fast"),
        dict(eta=0.0),
        dict(max_iters=0),
        dict(tol=0.0),
        dict(init="random"),
        dict(init="explicit"),
        dict(tol=math.nan),
        dict(c_step=0.0),
        # a start given without init="explicit" would be silently ignored
        dict(init_matrix=5.0 * np.eye(2)),
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        GdConfig(**kwargs)


# ---------------------------------------------------------------- gradient


def test_gradient_1x1_oracle():
    # M = [4], U = [1]: (U^2 - M) U + U (U^2 - M) = -3 - 3 = -6
    g = gradient(np.array([[1.0]]), np.array([[4.0]]))
    assert g[0, 0] == -6.0


def test_gradient_is_symmetric():
    rng = np.random.default_rng(4)
    U = rng.standard_normal((5, 5))
    U = (U + U.T) / 2.0
    M = random_spd(SpdInstanceSpec(n=5, kappa=3.0, seed=1))
    g = gradient(U, M)
    assert np.array_equal(g, g.T)


def test_gradient_zero_at_root():
    M = random_spd(SpdInstanceSpec(n=4, kappa=5.0, seed=2))
    g = gradient(evd_sqrt(M), M)
    assert np.max(np.abs(g)) <= 1e-12


# ---------------------------------------------------------------- gd_step


def test_gd_step_scalar_oracle():
    # u = 1, m = 4, eta = 0.1: u' = 1 - 0.1(-3)(1) - 0.1(1)(-3) = 1.6
    U1 = gd_step(np.array([[1.0]]), np.array([[4.0]]), 0.1)
    assert U1[0, 0] == 1.6


def test_gd_step_diagonal_oracle():
    # coordinates evolve independently: top as above, bottom is stationary
    U1 = gd_step(np.diag([1.0, 1.0]), np.diag([4.0, 1.0]), 0.1)
    assert U1[0, 0] == 1.6
    assert U1[1, 1] == 1.0
    assert U1[0, 1] == 0.0


def test_gd_step_fixed_point_at_root():
    M = random_spd(SpdInstanceSpec(n=6, kappa=8.0, seed=5))
    R = evd_sqrt(M).values
    U1 = gd_step(R, M, 0.01)
    assert np.max(np.abs(U1 - R)) <= 1e-13


def test_gd_step_output_symmetric():
    M = random_spd(SpdInstanceSpec(n=5, kappa=4.0, seed=6))
    U = np.asarray(initial_iterate(M, GdConfig()))
    U1 = gd_step(U, M, 0.001)
    assert np.array_equal(U1, U1.T)
    # from a start that does not commute with M, at sizes where U @ U is not
    # exactly symmetric on OpenBLAS 0.3.31: the symmetry comes from G + G^T
    for n in (17, 33):
        M = random_spd(SpdInstanceSpec(n=n, kappa=4.0, seed=6))
        U = random_spd(SpdInstanceSpec(n=n, kappa=3.0, seed=60)).values
        U1 = gd_step(U, M, 0.001)
        assert np.array_equal(U1, U1.T)


@pytest.mark.parametrize("n", [5, 17, 33])
def test_gd_step_is_a_gradient_step(n):
    # the loop's update is bitwise U - eta * gradient(U, M), the gradient
    # that check 06 verifies by finite differences
    M = random_spd(SpdInstanceSpec(n=n, kappa=10.0, seed=n))
    U = random_spd(SpdInstanceSpec(n=n, kappa=3.0, seed=100 + n)).values
    eta = 1e-3
    assert _same_bits(gd_step(U, M, eta), U - eta * gradient(U, M))


# ------------------------------------------------------------- step size


def test_step_size_policy_worked_example():
    # U0 = 2I, M = diag(4,1): alpha = 8, beta = 1; the operator-norm bound
    # 1/120 is the smallest of the three, times c_step = 0.01
    eta = step_size_policy(2.0 * np.eye(2), np.diag([4.0, 1.0]), GdConfig())
    assert eta == pytest.approx(0.01 / 120.0, rel=1e-14)


def test_step_size_and_spectra_are_python_floats():
    M, U0 = np.diag([4.0, 1.0]), 2.0 * np.eye(2)
    rate = rate_params(U0, M)
    values = [step_size_policy(U0, M, GdConfig()), *dataclasses.astuple(rate)]
    values.append(resolve(M, GdConfig())[2])
    values.append(resolve(M, GdConfig(eta=np.float64(0.01)))[2])
    for value in values:
        assert type(value) is float


def test_step_size_scales_inversely_with_m():
    M = np.diag([4.0, 1.0])
    U0 = 2.0 * np.eye(2)
    base = step_size_policy(U0, M, GdConfig())
    scaled = step_size_policy(2.0 * U0, 4.0 * M, GdConfig())
    assert scaled == pytest.approx(base / 4.0, rel=1e-12)


def test_step_size_c_step_is_linear():
    M = np.diag([4.0, 1.0])
    a = step_size_policy(2 * np.eye(2), M, GdConfig(c_step=0.01))
    b = step_size_policy(2 * np.eye(2), M, GdConfig(c_step=1.0))
    assert b == pytest.approx(100.0 * a, rel=1e-14)


@pytest.mark.parametrize("init", ["scaled-identity", "sqrt-opnorm-identity"])
def test_run_on_a_raw_array_eigendecomposes_m_and_u0_once_each(
    sym_eig_calls, eigvalsh_calls, spectral_extremes_calls, init
):
    # one eigvalsh each in the constructors of M, U0 and the returned
    # iterate; the step size reads them, and the loop's refreshes make the rest
    M = random_spd(SpdInstanceSpec(n=6, kappa=4.0, seed=3))
    eigvalsh_calls.clear()
    run(np.array(M.values), GdConfig(init=init, max_iters=5))
    assert len(sym_eig_calls) == 0
    assert len(eigvalsh_calls) - len(spectral_extremes_calls) == 3


def test_step_size_and_rate_params_share_the_cached_spectra(sym_eig_calls, eigvalsh_calls):
    M_arr = np.array([[4.0, 1.0], [1.0, 2.0]])
    U_arr = np.array([[2.0, 0.5], [0.5, 1.5]])
    eta_raw = step_size_policy(U_arr, M_arr, GdConfig())
    rate_raw = rate_params(U_arr, M_arr)
    assert len(eigvalsh_calls) == 4  # raw arrays are validated on every call
    eigvalsh_calls.clear()
    M, U0 = linalg.SpdMatrix(M_arr), linalg.SpdMatrix(U_arr)
    assert len(eigvalsh_calls) == 2
    assert step_size_policy(U0, M, GdConfig()) == eta_raw
    assert rate_params(U0, M) == rate_raw
    assert step_size_policy(U0, M, GdConfig()) == eta_raw
    assert rate_params(U0, M) == rate_raw
    assert len(eigvalsh_calls) == 2
    assert sym_eig_calls == []


# ---------------------------------------------------------------- init


def test_initial_iterate_scaled_identity_estimates_lambda():
    M = np.diag([4.0, 1.0])
    U0 = initial_iterate(M, GdConfig())
    lam = U0.values[0, 0] ** 2
    assert 4.0 <= lam <= 8.0  # power-iteration bracket [||M||, 2||M||]


def test_initial_iterate_sqrt_opnorm():
    U0 = initial_iterate(np.diag([4.0, 1.0]), GdConfig(init="sqrt-opnorm-identity"))
    assert np.allclose(U0.values, 2.0 * np.eye(2), atol=1e-14)


def test_initial_iterate_explicit():
    W = np.diag([3.0, 2.0])
    U0 = initial_iterate(np.diag([4.0, 1.0]), GdConfig(init="explicit", init_matrix=W))
    assert np.array_equal(U0.values, W)


# ---------------------------------------------------------------- run


def test_run_converges_to_root():
    M = np.diag([4.0, 1.0])
    U, trace = run(M, GdConfig(init="explicit", init_matrix=math.sqrt(4.0) * np.eye(2)))
    assert trace.converged
    assert trace.stop_reason == "converged"
    assert np.allclose(U.values, np.diag([2.0, 1.0]), atol=1e-8)
    assert trace.final_residual <= 1e-8


def test_run_already_converged_at_start():
    M = np.eye(3)
    cfg = GdConfig(init="explicit", init_matrix=np.eye(3))
    _, trace = run(M, cfg)
    assert trace.converged and trace.steps == 0


def test_run_residual_monotone():
    M = random_spd(SpdInstanceSpec(n=6, kappa=10.0, seed=8))
    _, trace = run(M, GdConfig(c_step=1.0, tol=1e-9))
    r = trace.residual_fro
    assert np.all(r[1:] <= r[:-1] * (1.0 + 1e-12))


@given(st.integers(0, 200))
def test_run_matches_evd_root(seed):
    M = random_spd(SpdInstanceSpec(n=4, kappa=6.0, seed=seed))
    U, trace = run(M, GdConfig(c_step=1.0, tol=1e-10))
    R = evd_sqrt(M).values
    assert trace.converged
    assert linalg.frobenius_norm(U.values - R) <= 1e-7 * linalg.frobenius_norm(R)


def test_run_eta_column_constant():
    M = np.diag([4.0, 1.0])
    cfg = GdConfig(eta=0.02, tol=1e-6, init="explicit", init_matrix=math.sqrt(4.0) * np.eye(2))
    _, trace = run(M, cfg)
    assert np.all(trace.eta == 0.02)


def test_run_max_iters_returns_unconverged_trace():
    M = np.diag([4.0, 1.0])
    U0 = math.sqrt(4.0) * np.eye(2)
    _, trace = run(M, GdConfig(eta=1e-6, max_iters=50, init="explicit", init_matrix=U0))
    assert not trace.converged
    assert trace.stop_reason == "max-iters"
    assert trace.steps == 50


def test_run_divergence_carries_partial_trace():
    # starting far below the root with a large step overshoots upward and
    # the residual blows past ten times its initial value within two steps
    M = np.array([[100.0]])
    cfg = GdConfig(eta=0.05, init="explicit", init_matrix=np.array([[0.5]]))
    with pytest.raises(DivergenceError) as exc_info:
        run(M, cfg)
    exc = exc_info.value
    assert exc.trace is not None
    assert exc.trace.stop_reason == "diverged"
    assert exc.step == exc.trace.steps


def test_run_detects_loss_of_positive_definiteness():
    # eta large enough to push the top eigenvalue of U through zero while
    # the residual stays within the divergence guard
    M = np.diag([4.0, 1.0])
    cfg = GdConfig(eta=0.1, init="explicit", init_matrix=np.diag([2.0, 3.0]))
    with pytest.raises(LostPositiveDefinitenessError) as exc_info:
        run(M, cfg)
    assert exc_info.value.trace.stop_reason == "lost-positive-definiteness"


def test_run_1x1():
    U, trace = run(np.array([[4.0]]), GdConfig(init="explicit", init_matrix=[[math.sqrt(4.0)]]))
    assert trace.converged
    assert U.values[0, 0] == pytest.approx(2.0, abs=1e-8)


def test_trace_records_iterates_all_columns():
    M = np.diag([4.0, 1.0])
    cfg = GdConfig(eta=0.02, tol=1e-6, init="explicit", init_matrix=math.sqrt(4.0) * np.eye(2))
    _, trace = run(M, cfg)
    recs = list(trace.records())
    assert recs[0].t == 0
    assert recs[0].residual_fro == 3.0  # ||diag(4,1) - 4 I||_F
    assert recs[0].objective == 9.0
    assert recs[0].sigma_min == pytest.approx(2.0, abs=1e-12)
    assert recs[0].opnorm == pytest.approx(2.0, abs=1e-12)
    assert all(rec.err_norm == 0.0 for rec in recs)


# ---------------------------------------------------------------- errors


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(delta=-1.0)
    with pytest.raises(ValueError):
        ErrorModel(schedule="sometimes")


def test_error_model_schedules():
    every = ErrorModel(delta=1.0, schedule="every-step")
    first = ErrorModel(delta=1.0, schedule="first-step-only")
    assert [every.active_at(t) for t in (1, 2, 9)] == [True, True, True]
    assert [first.active_at(t) for t in (1, 2, 9)] == [True, False, False]


def test_error_sample_norm_and_symmetry():
    err = ErrorModel(delta=1e-3, schedule="every-step", seed=2)
    rng = np.random.default_rng(2)
    block = err.sample(rng, 6, 5)
    assert block.shape == (5, 6, 6)
    for E in block:
        assert np.array_equal(E, E.T)
        s = np.max(np.abs(np.linalg.eigvalsh(E)))
        assert s <= 1e-3
        assert s >= 1e-3 * (1.0 - 1e-12)


SAMPLED_SLICES = {1: 2000, 2: 2000, 4: 1000, 16: 200, 17: 200, 64: 20, 65: 20}


def _sampled_blocks(delta):
    for n, k in SAMPLED_SLICES.items():
        yield n, ErrorModel(delta).sample(np.random.default_rng((n, k)), n, k)


def _spectral_norms(E):
    return np.linalg.svd(E, compute_uv=False)[:, 0]


@pytest.mark.parametrize("delta", [1e-300, 1e-7, 1.0, 1e5])
def test_error_sample_norm_is_certified_under_delta(delta):
    # One eigvalsh and the margin 4 n eps keep every slice at or under
    # delta, checked on 5,440 slices against an independent SVD and
    # against a second eigvalsh widened by its own error bound.
    for n, E in _sampled_blocks(delta):
        assert np.array_equal(E, E.transpose(0, 2, 1))
        norms = _spectral_norms(E)
        assert np.all(norms <= delta) and np.all(norms >= delta * (1.0 - 1e-12))
        w = np.linalg.eigvalsh(E)
        s = np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
        assert np.all(s + linalg.eigvalsh_pad(n, s) <= delta)


def test_error_sample_at_a_subnormal_delta_exceeds_it_by_its_rounding():
    # At delta = 1e-320 the scale and the scaled entries are subnormal and
    # round by up to half a unit 2^-1074 absolutely, not relatively: a
    # slice exceeds delta by at most (s + n) / 2 units, s the norm of the
    # symmetric draw before scaling (measured: 2 units at n = 1, 6 at
    # n = 65).  The loop's ``tiny`` term, n 2^-537 a step, absorbs it.
    delta = 1e-320
    unit = 2.0**-1074
    for n, E in _sampled_blocks(delta):
        G = np.random.default_rng((n, len(E))).standard_normal(E.shape)
        s = _spectral_norms((G + G.transpose(0, 2, 1)) / 2.0)
        # in units of 2^-1074, scaled exactly by two powers of two
        norms = _spectral_norms(E * 2.0**537 * 2.0**537)
        assert np.all(norms <= delta / unit + (s + n) / 2.0)
        assert np.any(norms > delta / unit)


def test_error_sample_makes_one_eigensolve(eigvalsh_calls):
    # one stacked eigvalsh for a block drawn first, none for its redraw
    gd._NORM_MEMO.clear()
    ErrorModel(1e-3).sample(np.random.default_rng(0), 16, 32)
    assert len(eigvalsh_calls) == 1
    ErrorModel(1e-3).sample(np.random.default_rng(0), 16, 32)
    assert len(eigvalsh_calls) == 1


def test_error_sample_zero_delta():
    err = ErrorModel(delta=0.0)
    block = err.sample(np.random.default_rng(0), 4, 3)
    assert block.shape == (3, 4, 4)
    assert np.all(block == 0.0)


def test_run_perturbed_zero_delta_matches_run():
    M = random_spd(SpdInstanceSpec(n=5, kappa=4.0, seed=3))
    cfg = GdConfig(c_step=1.0, tol=1e-9)
    U_plain, tr_plain = run(M, cfg)
    U_zero, tr_zero = run_perturbed(M, cfg, ErrorModel(delta=0.0, seed=9))
    assert np.array_equal(U_plain.values, U_zero.values)
    assert np.array_equal(tr_plain.residual_fro, tr_zero.residual_fro)


def test_run_perturbed_zero_delta_draws_no_error(monkeypatch):
    def draw(self, rng, n, k):
        raise AssertionError("an error was drawn with delta = 0")

    monkeypatch.setattr(ErrorModel, "sample", draw)
    M = random_spd(SpdInstanceSpec(n=5, kappa=4.0, seed=3))
    cfg = GdConfig(c_step=1.0, max_iters=20, tol=1e-14)
    for schedule in ("every-step", "first-step-only"):
        _, tr = run_perturbed(M, cfg, ErrorModel(delta=0.0, schedule=schedule))
        assert tr.steps == 20 and np.all(tr.err_fro == 0.0)


def _record_samples(monkeypatch) -> list:
    """(generator, block) of each call of ``ErrorModel.sample``."""
    calls = []
    sample = ErrorModel.sample

    def recorded(self, rng, n, k):
        calls.append((rng, sample(self, rng, n, k)))
        return calls[-1][1]

    monkeypatch.setattr(ErrorModel, "sample", recorded)
    return calls


def test_run_perturbed_draws_one_matrix_per_scheduled_step_at_most(monkeypatch):
    calls = _record_samples(monkeypatch)
    M = random_spd(SpdInstanceSpec(n=5, kappa=4.0, seed=3))
    cfg = GdConfig(c_step=1.0, max_iters=10, tol=1e-14)
    _, tr = run_perturbed(M, cfg, ErrorModel(1e-9, "first-step-only"))
    assert tr.steps == 10 and [len(block) for _, block in calls] == [1]
    calls.clear()
    _, tr = run_perturbed(M, cfg, ErrorModel(1e-9, "every-step"))
    assert tr.steps == 10 and sum(len(block) for _, block in calls) <= 10


def test_run_perturbed_records_error_norms():
    M = random_spd(SpdInstanceSpec(n=5, kappa=4.0, seed=3))
    cfg = GdConfig(c_step=1.0, max_iters=50, tol=1e-14)
    delta = 1e-9
    _, tr = run_perturbed(M, cfg, ErrorModel(delta=delta, schedule="every-step"))
    assert tr.err_norm[0] == 0.0
    assert np.all(tr.err_norm[1:] == delta)
    assert np.all(tr.err_fro[1:] >= tr.err_norm[1:] * (1.0 - 1e-12))
    _, tr1 = run_perturbed(M, cfg, ErrorModel(delta=delta, schedule="first-step-only"))
    assert tr1.err_norm[1] == delta
    assert np.all(tr1.err_norm[2:] == 0.0)


def test_run_perturbed_noise_floor_above_tol():
    M = random_spd(SpdInstanceSpec(n=5, kappa=4.0, seed=3))
    cfg = GdConfig(c_step=1.0, max_iters=4000, tol=1e-12)
    _, tr = run_perturbed(M, cfg, ErrorModel(delta=1e-7, schedule="every-step"))
    assert not tr.converged
    assert tr.final_residual > 1e-12


def test_run_perturbed_warns_above_tolerance():
    M = random_spd(SpdInstanceSpec(n=4, kappa=4.0, seed=1))
    cfg = GdConfig(c_step=1.0, max_iters=10, tol=1e-14)
    # well above eta sigma_min beta / 300 but far too small to destabilize
    with pytest.warns(UserWarning, match="stability tolerance"):
        run_perturbed(M, cfg, ErrorModel(delta=1e-3, schedule="every-step"))


@pytest.mark.parametrize("factor", [1.001, 0.999])
def test_run_perturbed_warns_from_the_stability_tolerance(factor):
    M = random_spd(SpdInstanceSpec(n=4, kappa=4.0, seed=1))
    cfg = GdConfig(c_step=1.0, max_iters=10, tol=1e-14)
    U0 = initial_iterate(M, cfg)
    eta = step_size_policy(U0, M, cfg)
    tolerance = stability_tolerance(eta, rate_params(U0, M))
    err = ErrorModel(delta=factor * tolerance, schedule="every-step")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_perturbed(M, cfg, err)
    assert len(caught) == (1 if factor > 1.0 else 0)
    if caught:
        assert "stability tolerance" in str(caught[0].message)


def test_explicit_eta_perturbed_run_on_a_raw_array_makes_no_decomposition(sym_eig_calls):
    # the stability warning reads the spectra of M and U0 from their
    # constructors' eigvalsh
    M = np.array(random_spd(SpdInstanceSpec(n=16, kappa=2.0, seed=4)).values)
    cfg = GdConfig(eta=0.01, init="explicit", init_matrix=np.eye(16), max_iters=5)
    with pytest.warns(UserWarning, match="stability tolerance"):
        run_perturbed(M, cfg, ErrorModel(delta=1e-3))
    assert sym_eig_calls == []


def test_run_perturbed_deterministic_in_seed():
    M = random_spd(SpdInstanceSpec(n=4, kappa=4.0, seed=1))
    cfg = GdConfig(c_step=1.0, max_iters=30, tol=1e-14)
    err = ErrorModel(delta=1e-8, schedule="every-step", seed=11)
    _, a = run_perturbed(M, cfg, err)
    _, b = run_perturbed(M, cfg, err)
    assert np.array_equal(a.residual_fro, b.residual_fro)


# All eight columns of two perturbed runs, recorded before the trace derived
# its t, eta, objective, err_norm and err_fro columns instead of storing them.
# err_fro, the one column that moved, was re-recorded when the sampler's
# certified margin replaced its corrective rescale.
PINNED_PERTURBED_TRACES = {
    "every-step": {
        "t": [0, 1, 2, 3, 4, 5, 6],
        "residual_fro": [2.7613402542968153, 2.3272250001716626, 1.9854401746949302, 1.7101870528023573, 1.484710778327541, 1.2975221903992082, 1.1403817995086272],
        "objective": [7.625000000000001, 5.4159762014239945, 3.9419726872926346, 2.924739755572813, 2.204366095281973, 1.6835638345783592, 1.3004706486505346],
        "sigma_min": [2.0, 1.8895363898281223, 1.8468230221639153, 1.7724157311063407, 1.7429381713639427, 1.6899383222091682, 1.668005896924279],
        "opnorm": [2.0, 2.110463610171878, 2.054160408955513, 2.128567700013088, 2.0928223419032497, 2.1458221910580244, 2.1197557982943294],
        "eta": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01],
        "err_norm": [0.0, 1e-05, 1e-05, 1e-05, 1e-05, 1e-05, 1e-05],
        "err_fro": [0.0, 1.2385767850567369e-05, 1.0373823877902967e-05, 1.1749074829929215e-05, 1.173994485553373e-05, 1.0767844131477792e-05, 1.3109304448337332e-05],
    },
    "first-step-only": {
        "t": [0, 1, 2, 3, 4, 5, 6],
        "residual_fro": [2.7613402542968153, 2.3272250001716626, 1.9854608066958361, 1.7102194348613675, 1.48473900680224, 1.2975264920869727, 1.1403671745146073],
        "objective": [7.625000000000001, 5.4159762014239945, 3.94205461492528, 2.9248505153775355, 2.2044499183201016, 1.6835749976675247, 1.3004372927104288],
        "sigma_min": [2.0, 1.8895363898281223, 1.8468268935938332, 1.7724286838769714, 1.7429512377125427, 1.6899603554172045, 1.6680042759001903],
        "opnorm": [2.0, 2.110463610171878, 2.054162783824154, 2.128560993541016, 2.0928404965788654, 2.145831378874204, 2.119770367386508],
        "eta": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01],
        "err_norm": [0.0, 1e-05, 0.0, 0.0, 0.0, 0.0, 0.0],
        "err_fro": [0.0, 1.2385767850567369e-05, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
}


@pytest.mark.parametrize("schedule", sorted(PINNED_PERTURBED_TRACES))
def test_run_perturbed_trace_pinned(schedule):
    M = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
    cfg = GdConfig(eta=0.01, max_iters=6, init="explicit", init_matrix=2.0 * np.eye(3))
    _, trace = run_perturbed(M, cfg, ErrorModel(1e-5, schedule, seed=7))
    pinned = PINNED_PERTURBED_TRACES[schedule]
    for name in TraceRecord._fields:
        assert _same_bits(getattr(trace, name), np.array(pinned[name])), name
    assert [tuple(rec) for rec in trace.records()] == list(zip(*pinned.values()))


# -------------------------------------------------------- residual basics


def test_objective_is_squared_residual():
    M = np.diag([4.0, 1.0])
    U = 2.0 * np.eye(2)
    assert residual_fro(U, M) == 3.0
    assert objective(U, M) == 9.0


# ------------------------------------------- reference loop (list trace)
#
# The descent loop as it was before it moved to preallocated buffers and an
# array-backed trace, copied verbatim together with the trace builder and
# the spectral monitor it called; only the stability warning of perturbed
# runs, which touches no iterate or trace entry, is left out.  The current
# loop must reproduce it bit for bit, the same operations in the same
# order, except in the monitored sigma_min and opnorm columns: there it
# records bounds that bracket the reference's exact values, and the exact
# values themselves at every spectrum refresh.


class _RefTraceBuilder:
    def __init__(self):
        self.columns = {
            "t": [],
            "residual_fro": [],
            "objective": [],
            "sigma_min": [],
            "opnorm": [],
            "eta": [],
            "err_norm": [],
            "err_fro": [],
        }

    def append(self, t, residual, smin, opnorm, eta, err_norm, err_fro):
        c = self.columns
        c["t"].append(t)
        c["residual_fro"].append(residual)
        c["objective"].append(residual * residual)
        c["sigma_min"].append(smin)
        c["opnorm"].append(opnorm)
        c["eta"].append(eta)
        c["err_norm"].append(err_norm)
        c["err_fro"].append(err_fro)

    def finish(self, converged: bool, stop_reason: str):
        return _RefTrace(self.columns, converged, stop_reason)


class _RefTrace:
    """The reference loop's record: its eight columns as arrays, and the stop."""

    def __init__(self, columns, converged, stop_reason):
        for name, values in columns.items():
            setattr(self, name, np.asarray(values, dtype=int if name == "t" else float))
        self.converged = converged
        self.stop_reason = stop_reason

    def __len__(self):
        return len(self.t)

    @property
    def steps(self):
        return int(self.t[-1])

    @property
    def final_residual(self):
        return float(self.residual_fro[-1])


def _ref_spectral_extremes(A):
    A = np.asarray(getattr(A, "values", A), dtype=float)
    w = np.linalg.eigvalsh(A)
    return float(w[0]), float(np.min(np.abs(w))), float(max(abs(w[0]), abs(w[-1])))


def _ref_update(U, S, M, eta):
    # S is the cached product U @ U
    D = S - M
    G = D @ U
    return U - eta * (G + G.T)


def _ref_sample(err, rng, n):
    # ErrorModel.sample drawing one matrix per step
    G = rng.standard_normal((n, n))
    E = (G + G.T) / 2.0
    if err.delta == 0.0:
        return np.zeros((n, n))
    w = np.linalg.eigvalsh(E)
    s = max(abs(float(w[0])), abs(float(w[-1])))
    if s == 0.0:
        return np.zeros((n, n))
    return E * (err.delta / (s * (1.0 + 4 * n * linalg.EPS)))


def _ref_run_loop(M, cfg, err):
    M_spd, U0, eta = gd.resolve(M, cfg)
    M_arr = M_spd.values
    n = M_spd.n

    rng = None
    if err is not None:
        rng = np.random.default_rng(err.seed)

    builder = _RefTraceBuilder()
    U = U0.values
    S = U @ U
    r = float(np.linalg.norm(M_arr - S))
    _, smin, opn = _ref_spectral_extremes(U)
    builder.append(0, r, smin, opn, eta, 0.0, 0.0)
    r0 = r
    if r <= cfg.tol:
        return linalg.SpdMatrix(U), builder.finish(True, "converged")

    converged = False
    for t in range(1, cfg.max_iters + 1):
        U = _ref_update(U, S, M_arr, eta)
        err_norm = 0.0
        err_fro = 0.0
        if err is not None and err.active_at(t):
            E = _ref_sample(err, rng, n)
            U = U + E
            err_norm = err.delta
            err_fro = float(np.linalg.norm(E))
        S = U @ U
        r = float(np.linalg.norm(M_arr - S))
        lam_min, smin, opn = _ref_spectral_extremes(U)
        builder.append(t, r, smin, opn, eta, err_norm, err_fro)
        if lam_min <= 0.0:
            raise LostPositiveDefinitenessError(
                f"iterate lost positive definiteness at step {t} "
                f"(lambda_min={lam_min:.6e})",
                step=t,
                trace=builder.finish(False, "lost-positive-definiteness"),
            )
        if r <= cfg.tol:
            converged = True
            break
        if r > gd.DIVERGENCE_FACTOR * r0:
            raise DivergenceError(
                f"residual {r:.6e} at step {t} exceeds {gd.DIVERGENCE_FACTOR:g}x "
                f"its initial value {r0:.6e}",
                step=t,
                trace=builder.finish(False, "diverged"),
            )
    trace = builder.finish(converged, "converged" if converged else "max-iters")
    return linalg.SpdMatrix(U), trace


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


MONITORED = ("sigma_min", "opnorm")


def _assert_traces_identical(got, ref, refreshed):
    """Every column bitwise, except the monitored pair, which must bracket.

    ``sigma_min`` and ``opnorm`` bound the reference loop's exact values
    from below and above on every row, and equal them bitwise at t = 0, at
    the last row and at the rows ``refreshed`` where the loop recomputed
    the spectrum.
    """
    for name in TraceRecord._fields:
        if name not in MONITORED:
            assert _same_bits(getattr(got, name), getattr(ref, name)), name
    exact = sorted({0, len(ref) - 1, *refreshed})
    for name in MONITORED:
        assert _same_bits(getattr(got, name)[exact], getattr(ref, name)[exact]), name
    assert np.all(got.sigma_min <= ref.sigma_min)
    assert np.all(got.opnorm >= ref.opnorm)
    assert got.converged == ref.converged
    assert got.stop_reason == ref.stop_reason


def _refresh_steps(monkeypatch) -> list:
    """Steps at which the loop calls ``linalg.spectral_extremes``."""
    steps = []
    spectral_extremes = linalg.spectral_extremes

    def recorded(A):
        steps.append(sys._getframe(1).f_locals["t"])
        return spectral_extremes(A)

    monkeypatch.setattr(linalg, "spectral_extremes", recorded)
    return steps


def _assert_matches_reference(M, cfg, err=None):
    """Run both loops; compare the final iterate or the raised error."""
    loop = run if err is None else (lambda M_, cfg_: run_perturbed(M_, cfg_, err))
    with pytest.MonkeyPatch.context() as mp:
        refreshed = _refresh_steps(mp)
        try:
            U, tr = loop(M, cfg)
            raised = None
        except GdError as exc:
            raised = exc
    try:
        U_ref, tr_ref = _ref_run_loop(M, cfg, err)
    except GdError as exc:
        assert type(raised) is type(exc)
        assert raised.step == exc.step
        assert str(raised) == str(exc)
        _assert_traces_identical(raised.trace, exc.trace, refreshed)
        return exc.trace
    assert raised is None
    assert _same_bits(U.values, U_ref.values)
    _assert_traces_identical(tr, tr_ref, refreshed)
    return tr


@pytest.mark.parametrize("n", [1, 2, 4, 16, 17, 33, 64])
@pytest.mark.parametrize("non_commuting", [True, False])
@pytest.mark.parametrize("explicit_eta", [False, True])
def test_run_bitwise_matches_reference_loop(n, non_commuting, explicit_eta):
    # U @ U is not exactly symmetric at n = 17 and 33 on OpenBLAS 0.3.31;
    # n = 1 converges, the other sizes stop at the 300-step cap.  A start
    # that does not commute with M makes D U unsymmetric, so G and G^T differ.
    M = random_spd(SpdInstanceSpec(n=n, kappa=4.0 if n > 1 else 1.0, seed=n))
    start = {}
    if non_commuting:
        spec = SpdInstanceSpec(n=n, kappa=2.0 if n > 1 else 1.0, opnorm=1.5, seed=50 + n)
        start = dict(init="explicit", init_matrix=random_spd(spec))
    auto = GdConfig(c_step=1.0, tol=1e-9, max_iters=300, **start)
    cfg = auto
    if explicit_eta:
        eta = 0.7 * step_size_policy(initial_iterate(M, auto), M, auto)
        cfg = GdConfig(eta=eta, tol=1e-9, max_iters=300, **start)
    trace = _assert_matches_reference(M, cfg)
    assert len(trace) > 1


@pytest.mark.parametrize("delta", [1e-7, 0.0])
@pytest.mark.parametrize("schedule", ["every-step", "first-step-only"])
def test_run_perturbed_bitwise_matches_reference_loop(delta, schedule):
    M = random_spd(SpdInstanceSpec(n=16, kappa=10.0, seed=5))
    cfg = GdConfig(c_step=1.0, tol=1e-8, max_iters=1500)
    trace = _assert_matches_reference(M, cfg, ErrorModel(delta, schedule, seed=3))
    assert np.all(trace.err_norm[1:2] == delta)


def test_divergence_and_cap_bitwise_match_reference_loop():
    diverged = _assert_matches_reference(
        np.array([[100.0]]),
        GdConfig(eta=0.05, init="explicit", init_matrix=np.array([[0.5]])),
    )
    assert diverged.stop_reason == "diverged"
    lost = _assert_matches_reference(
        np.diag([4.0, 1.0]),
        GdConfig(eta=0.1, init="explicit", init_matrix=np.diag([2.0, 3.0])),
    )
    assert lost.stop_reason == "lost-positive-definiteness"
    capped = _assert_matches_reference(
        random_spd(SpdInstanceSpec(n=6, kappa=10.0, seed=4)),
        GdConfig(max_iters=500),
    )
    assert capped.stop_reason == "max-iters" and capped.steps == 500


def _guard_edge(case):
    if case == "start-at-root":
        root = np.diag([1.0, 2.0, 3.0, 4.0])
        return root @ root, GdConfig(init="explicit", init_matrix=root)
    M = random_spd(SpdInstanceSpec(n=4, kappa=10.0, seed=9))
    r0 = gd.residual_fro(initial_iterate(M, GdConfig()), M)
    if case == "tol-at-r1":
        # a step before the cap must stop at a residual equal to tol
        r1 = run(M, GdConfig(max_iters=1))[1].residual_fro[1]
        return M, GdConfig(tol=float(r1), max_iters=2)
    tol = {"tol-at-r0": r0, "tol-below-r0": float(np.nextafter(r0, 0.0))}
    # one ulp below r0 converges at the cap: convergence is tested first
    return M, GdConfig(tol=tol.get(case, 1e-8), max_iters=1)


@pytest.mark.parametrize(
    "case, steps, stop_reason",
    [
        ("start-at-root", 0, "converged"),
        ("tol-at-r0", 0, "converged"),
        ("tol-at-r1", 1, "converged"),
        ("tol-below-r0", 1, "converged"),
        ("one-step-cap", 1, "max-iters"),
    ],
)
def test_guard_edges_match_reference_loop(case, steps, stop_reason):
    # the loop records row 0 on its rare branch and tests r <= tol before
    # the cap; a zero residual, a tolerance at r0 or one ulp under it, and
    # a cap of one step each stop at a guard's edge
    M, cfg = _guard_edge(case)
    trace = _assert_matches_reference(M, cfg)
    assert (trace.steps, trace.stop_reason) == (steps, stop_reason)
    if case == "start-at-root":
        assert trace.residual_fro.tolist() == [0.0]


def test_gd_step_is_the_loop_update():
    M = random_spd(SpdInstanceSpec(n=17, kappa=10.0, seed=7))
    U = np.asarray(initial_iterate(M, GdConfig()))
    got = gd_step(U, M, 1e-3)
    assert _same_bits(got, _ref_update(U, U @ U, np.asarray(M), 1e-3))


@pytest.mark.parametrize("n", [4, 16, 17, 33, 64])
def test_run_from_scaled_identity_follows_the_scalar_recurrences(n):
    # U0 = c I commutes with M = Q diag(lam) Q^T, so in exact arithmetic
    # every iterate is Q diag(u_t(lam_i)) Q^T with u_t the scalar descent
    # of scalar_gd_trace: an oracle that shares no code with the update
    M = random_spd(SpdInstanceSpec(n=n, kappa=10.0, seed=n))
    lam, Q = np.linalg.eigh(M.values)
    for T in (10, 300, 3000):
        cfg = GdConfig(init="sqrt-opnorm-identity", c_step=1.0, tol=1e-300, max_iters=T)
        c = float(np.asarray(initial_iterate(M, cfg))[0, 0])
        U, trace = run(M, cfg)
        eta = float(trace.eta[0])
        u = [scalar_gd_trace(c, float(m), eta, T)[-1] for m in lam]
        expect = (Q * u) @ Q.T
        assert trace.steps == T
        assert np.linalg.norm(U.values - expect) <= 1e-13 * np.linalg.norm(expect)


def _peak_bytes_per_step(loop, steps):
    M = random_spd(SpdInstanceSpec(n=4, kappa=10.0, seed=1))
    cfg = GdConfig(max_iters=steps, tol=1e-300)
    tracemalloc.start()
    try:
        _, trace = loop(M, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.steps == steps
    return peak / steps


def test_trace_memory_per_step_bounded():
    # three stored columns cost 24 bytes a step, and array.array's
    # over-allocation of about a sixteenth keeps the peak under 26 (eight
    # numpy columns that doubled: 113; eight Python lists: 261)
    assert _peak_bytes_per_step(run, 20_000) <= 32.0


def test_perturbed_trace_memory_per_step_bounded():
    # every step also keeps its error's Frobenius norm, 8 bytes, and the
    # error blocks of 64 KiB and their eigvalsh work arrays add a constant.
    # A cold norm memo adds each slice's norm, 8 bytes, and 400 to 550
    # bytes per block of 512 slices, about 1 byte a step: measured 33.7 ->
    # 42.6 bytes a step kept and 45.2 -> 54.9 at the peak, warm -> cold.
    gd._NORM_MEMO.clear()
    err = ErrorModel(1e-9, "every-step", seed=1)
    assert _peak_bytes_per_step(lambda M, cfg: run_perturbed(M, cfg, err), 20_000) <= 64.0


# ------------------------------------------------------ spectral brackets
#
# The loop recomputes the spectrum exactly at t = 0, at every stop and when
# the Weyl slack since the last refresh exceeds BRACKET_RTOL lambda_min
# there; the rows in between record certified bounds.


def test_refresh_count_is_bounded(monkeypatch):
    # the early, large steps refresh every few steps, the later ones rarely
    steps = 2000
    M = random_spd(SpdInstanceSpec(n=64, kappa=2.0, seed=64))
    refreshed = _refresh_steps(monkeypatch)
    _, trace = run(M, GdConfig(tol=1e-300, max_iters=steps))
    assert trace.steps == steps
    assert refreshed[0] == 0 and refreshed[-1] == steps
    assert len(refreshed) <= steps // 20 + 1


@pytest.mark.parametrize("seed", [3, 4])
def test_brackets_hold_at_the_rounding_floor(monkeypatch, seed):
    # From the exact root every step moves U by a few ulps, so the slack
    # grows by less than eps a step and stays within eigvalsh's own error
    # for the first steps after a refresh; only the widening of the
    # refreshed values by LAPACK's error bound keeps the reference inside.
    # With the default fraction the loop would refresh only at t = 0 and at
    # the stop; a fraction of 1e-14 makes it refresh every few dozen steps.
    M = random_spd(SpdInstanceSpec(n=16, kappa=10.0, seed=seed))
    cfg = GdConfig(
        eta=1e-3, tol=1e-300, max_iters=3000, init="explicit", init_matrix=evd_sqrt(M)
    )
    monkeypatch.setattr(gd, "BRACKET_RTOL", 1e-14)
    trace = _assert_matches_reference(M, cfg)
    assert trace.steps == 3000 and trace.residual_fro.max() < 1e-13


def test_brackets_count_the_rounding_of_each_update():
    # 1x1, the root 1e-10 below U0 = 1.5 and a step H of 0.6 ulp: each
    # update U - H rounds to the next double down, so U moves one ulp, 5/3
    # of ||H||, on every step.  Only the rounding term of the slack covers
    # the other 2/3; without it the lower bound passes the exact eigenvalue
    # within about ten steps.
    u0 = 1.5
    m = (u0 - 1e-10) ** 2
    eta = 0.6 * np.spacing(u0) / (2.0 * (u0 * u0 - m) * u0)
    cfg = GdConfig(eta=eta, tol=1e-300, max_iters=400, init="explicit", init_matrix=[[u0]])
    trace = _assert_matches_reference(np.array([[m]]), cfg)
    assert trace.steps == 400
    assert trace.sigma_min[-1] == u0 - 400 * np.spacing(u0)


@pytest.mark.parametrize("schedule", ["every-step", "first-step-only"])
def test_brackets_hold_under_injected_errors(schedule):
    # Near the root the update moves U by about 1e-7 a step and each error
    # by up to delta = 2e-6, so the bracket must count delta
    M = random_spd(SpdInstanceSpec(n=16, kappa=4.0, seed=2))
    U0 = np.asarray(evd_sqrt(M)) * (1.0 + 1e-6)
    cfg = GdConfig(eta=0.01, tol=1e-300, max_iters=200, init="explicit", init_matrix=U0)
    trace = _assert_matches_reference(M, cfg, ErrorModel(2e-6, schedule, seed=2))
    assert trace.stop_reason == "max-iters" and trace.steps == 200


@pytest.mark.parametrize("n", [65, 100])
def test_run_bitwise_matches_reference_loop_at_n_65_and_100(n):
    M = random_spd(SpdInstanceSpec(n=n, kappa=4.0, seed=n))
    trace = _assert_matches_reference(M, GdConfig(eta=0.01, tol=1e-9, max_iters=50))
    assert trace.stop_reason == "max-iters" and trace.steps == 50


@pytest.mark.parametrize("n", [2, 16])
@pytest.mark.parametrize("max_iters", [100, 3000])
def test_loss_of_definiteness_at_step_21_matches_reference_loop(n, max_iters):
    # The second coordinate grows from 1e-6 by a factor of 3 a step and
    # overshoots past zero at step 21, then stays bounded: 4 eta m = 4 is
    # the edge of stability.  Each step moves lambda_min by more than a
    # sixteenth of itself, so each refreshes, and the loss is reported at
    # its own step whatever the cap.
    m = np.ones(n)
    m[1] = 100.0
    u0 = np.ones(n)
    u0[1] = 1e-6
    cfg = GdConfig(
        eta=0.01, init="explicit", init_matrix=np.diag(u0), max_iters=max_iters
    )
    lost = _assert_matches_reference(np.diag(m), cfg)
    assert lost.stop_reason == "lost-positive-definiteness"
    assert lost.steps == 21


def test_loss_of_definiteness_at_step_25_reported_before_non_finite_residual(monkeypatch):
    # 1x1 with 2 eta m = 2.001: the iterate turns negative at step 25 and
    # its square overflows at step 28.  The problem is scaled by 2^502, so
    # ten times the initial residual exceeds every finite residual and the
    # growth guard cannot stop the run in between: the loop must refresh at
    # every step, step 25 included, and report the loss there.
    scale = 2.0**502
    M = np.array([[100.0 * scale]])
    U0 = np.array([[1e-6 * 2.0**251]])
    eta = 0.010005 / scale
    U, lost_at, non_finite_at = U0, None, None
    with np.errstate(over="ignore"):
        for t in range(1, 40):
            U = _ref_update(U, U @ U, M, eta)
            if lost_at is None and U[0, 0] <= 0.0:
                lost_at = t
            if not math.isfinite(float(np.linalg.norm(M - U @ U))):
                non_finite_at = t
                break
    assert (lost_at, non_finite_at) == (25, 28)
    cfg = GdConfig(eta=eta, init="explicit", init_matrix=U0)
    lost = _assert_matches_reference(M, cfg)
    assert lost.stop_reason == "lost-positive-definiteness"
    assert lost.steps == 25
    refreshed = _refresh_steps(monkeypatch)
    with pytest.raises(LostPositiveDefinitenessError):
        run(M, cfg)
    assert refreshed == list(range(26))


def test_run_perturbed_every_step_100_steps_matches_reference_loop():
    M = random_spd(SpdInstanceSpec(n=16, kappa=10.0, seed=8))
    cfg = GdConfig(c_step=1.0, tol=1e-8, max_iters=100)
    trace = _assert_matches_reference(M, cfg, ErrorModel(1e-7, "every-step", seed=4))
    assert len(trace) == 101 and np.all(trace.err_norm[1:] == 1e-7)


@pytest.mark.parametrize(
    "n, max_iters, schedule, blocks",
    [
        (16, 100, "every-step", [32, 32, 32, 4]),
        (16, 45, "every-step", [32, 13]),
        (65, 6, "every-step", [1] * 6),
        (16, 100, "first-step-only", [1]),
        (65, 6, "first-step-only", [1]),
    ],
)
def test_error_blocks_draw_the_reference_stream(monkeypatch, n, max_iters, schedule, blocks):
    # Block by block, the loop must add exactly the matrices that one
    # reference draw per step gives, and leave the generator where those
    # draws leave it.
    calls = _record_samples(monkeypatch)
    M = random_spd(SpdInstanceSpec(n=n, kappa=4.0, seed=n))
    cfg = GdConfig(eta=0.01, tol=1e-300, max_iters=max_iters)
    err = ErrorModel(1e-7, schedule, seed=5)
    trace = _assert_matches_reference(M, cfg, err)
    assert trace.stop_reason == "max-iters" and trace.steps == max_iters
    assert [len(block) for _, block in calls] == blocks
    ref_rng = np.random.default_rng(err.seed)
    ref = [_ref_sample(err, ref_rng, n) for _ in range(sum(blocks))]
    assert _same_bits(np.concatenate([block for _, block in calls]), np.stack(ref))
    assert calls[0][0].bit_generator.state == ref_rng.bit_generator.state


def test_robustness_sweep_rows_match_the_reference_loop(monkeypatch):
    M = random_spd(SpdInstanceSpec(n=16, kappa=10.0, seed=6))
    cfg = GdConfig(c_step=1.0, tol=1e-8, max_iters=400)
    deltas = [1e-6, 1e-7, 0.0]
    rows = experiments.robustness_sweep(M, deltas, cfg, seed=3)
    monkeypatch.setattr(experiments, "run_perturbed", _ref_run_loop)
    assert experiments.robustness_sweep(M, deltas, cfg, seed=3) == rows


def test_error_sample_keeps_a_zero_slice_zero():
    # An antisymmetric draw has a zero symmetric part: its slice stays
    # zero, and the slices around it are scaled as one draw per step
    n = 5
    draws = np.random.default_rng(7).standard_normal((3, n, n))
    draws[1] -= draws[1].T

    class Stream:
        def __init__(self):
            self.values = draws.reshape(-1)

        def standard_normal(self, shape):
            size = math.prod(shape)
            out, self.values = self.values[:size], self.values[size:]
            return out.reshape(shape)

    err = ErrorModel(1e-6)
    ref_stream = Stream()
    ref = np.stack([_ref_sample(err, ref_stream, n) for _ in range(3)])
    block = err.sample(Stream(), n, 3)
    assert _same_bits(block, ref)
    assert np.all(block[1] == 0.0) and np.all(block[0] != 0.0)


# ------------------------------------------------------------ norm memo
#
# ErrorModel.sample memoizes each block's slice norms by the generator's
# state before the draw, n and k; a redraw must be bitwise a fresh draw.


def _memo_entries() -> list:
    return [s for _, s in gd._NORM_MEMO._norms.values()]


def _assert_memo_within_cap():
    entries = _memo_entries()
    held = sum(len(s) + gd.NORM_MEMO_BLOCK_SLICES for s in entries)
    assert gd._NORM_MEMO.held == held <= gd.NORM_MEMO_SLICES
    assert not any(s.flags.writeable for s in entries)


def test_error_sample_warm_equals_cold_at_every_delta():
    # the norms do not depend on delta: a ladder's second rung reads them
    # from its first rung's draw
    for delta in (1e-6, 1e-9, 1e-300):
        gd._NORM_MEMO.clear()
        cold = ErrorModel(delta).sample(np.random.default_rng(8), 16, 32)
        warm = ErrorModel(delta).sample(np.random.default_rng(8), 16, 32)
        other = ErrorModel(delta * 3.0).sample(np.random.default_rng(8), 16, 32)
        gd._NORM_MEMO.clear()
        fresh = ErrorModel(delta * 3.0).sample(np.random.default_rng(8), 16, 32)
        assert _same_bits(warm, cold) and _same_bits(other, fresh)


def test_error_sample_memo_misses_another_draw(eigvalsh_calls):
    gd._NORM_MEMO.clear()
    err = ErrorModel(1e-6)
    advanced = np.random.default_rng(0)
    advanced.standard_normal(1)
    draws = [
        (np.random.default_rng(0), 16, 32),
        (np.random.default_rng(0), 16, 31),
        (np.random.default_rng(0), 15, 32),
        (np.random.default_rng(1), 16, 32),
        (advanced, 16, 32),
        (np.random.Generator(np.random.PCG64DXSM(0)), 16, 32),
    ]
    for i, (rng, n, k) in enumerate(draws, 1):
        err.sample(rng, n, k)
        assert len(eigvalsh_calls) == len(_memo_entries()) == i
    err.sample(np.random.default_rng(0), 16, 32)
    assert len(eigvalsh_calls) == len(draws)


def test_error_sample_memo_is_bypassed_without_a_bit_generator(eigvalsh_calls):
    gd._NORM_MEMO.clear()
    draws = np.random.default_rng(7).standard_normal((2, 5, 5))

    class Stream:
        def standard_normal(self, shape):
            return draws.copy()

    err = ErrorModel(1e-6)
    assert _same_bits(err.sample(Stream(), 5, 2), err.sample(Stream(), 5, 2))
    assert len(eigvalsh_calls) == 2 and _memo_entries() == []


def test_norm_memo_evicts_the_oldest_block_within_its_cap(monkeypatch, eigvalsh_calls):
    k = 8
    monkeypatch.setattr(gd, "NORM_MEMO_SLICES", 3 * (k + gd.NORM_MEMO_BLOCK_SLICES))
    gd._NORM_MEMO.clear()
    err = ErrorModel(1e-6)
    for seed in range(5):
        err.sample(np.random.default_rng(seed), 4, k)
        _assert_memo_within_cap()
    assert len(_memo_entries()) == 3 and len(eigvalsh_calls) == 5
    for seed in (4, 3, 2):  # hits, which do not reorder the memo
        err.sample(np.random.default_rng(seed), 4, k)
    assert len(eigvalsh_calls) == 5
    err.sample(np.random.default_rng(0), 4, k)  # a miss evicts seed 2
    err.sample(np.random.default_rng(3), 4, k)
    assert len(eigvalsh_calls) == 6
    err.sample(np.random.default_rng(2), 4, k)
    assert len(eigvalsh_calls) == 7
    _assert_memo_within_cap()
    # a block over the cap on its own is not kept
    err.sample(np.random.default_rng(9), 4, 3 * k + 2 * gd.NORM_MEMO_BLOCK_SLICES + 1)
    assert _memo_entries() == []
    _assert_memo_within_cap()


def test_norm_memo_ignores_a_block_drawn_after_another_thread_drew(monkeypatch):
    # Another thread that draws from the same generator between the state
    # read and the draw leaves a block of another state under the key; a
    # clean draw from that state must not take its norms.
    shared = np.random.default_rng(21)
    state = shared.bit_generator.state
    dumps = pickle.dumps

    class Interleaved:
        @staticmethod
        def dumps(obj):
            shared.standard_normal(1)
            return dumps(obj)

    err = ErrorModel(1e-6)
    gd._NORM_MEMO.clear()
    monkeypatch.setattr(gd, "pickle", Interleaved)
    err.sample(shared, 6, 4)
    monkeypatch.undo()
    assert len(_memo_entries()) == 1
    clean = np.random.default_rng(0)
    clean.bit_generator.state = state
    ref_rng = np.random.default_rng(0)
    ref_rng.bit_generator.state = state
    ref = np.stack([_ref_sample(err, ref_rng, 6) for _ in range(4)])
    assert _same_bits(err.sample(clean, 6, 4), ref)


def test_perturbed_traces_equal_cold_and_warm(eigvalsh_calls):
    M = random_spd(SpdInstanceSpec(n=16, kappa=10.0, seed=12))
    cfg = GdConfig(c_step=1.0, tol=1e-300, max_iters=200)
    err = ErrorModel(1e-7, "every-step", seed=13)
    traces, solves = [], []
    for cold in (True, True, False, False):
        if cold:
            gd._NORM_MEMO.clear()
        eigvalsh_calls.clear()
        traces.append(run_perturbed(M, cfg, err)[1])
        solves.append(len(eigvalsh_calls))
    # 200 steps are 7 blocks of 32 or fewer: the warm runs skip 7 eigvalsh
    assert solves[0] == solves[1] == solves[2] + 7 == solves[3] + 7
    for trace in traces[1:]:
        for name in TraceRecord._fields:
            assert _same_bits(getattr(trace, name), getattr(traces[0], name)), name


def test_norm_memo_under_racing_threads(monkeypatch):
    # more threads than cores, switching every microsecond, on a cap of
    # three blocks: every block stays bitwise its reference, nothing
    # raises, and the memo's count matches its entries
    n, k, seeds = 6, 4, range(8)
    err = ErrorModel(1e-6)
    refs = {}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        refs[seed] = np.stack([_ref_sample(err, rng, n) for _ in range(k)])
    monkeypatch.setattr(gd, "NORM_MEMO_SLICES", 3 * (k + gd.NORM_MEMO_BLOCK_SLICES))
    gd._NORM_MEMO.clear()
    failures = []

    def work(offset):
        try:
            for i in range(200):
                seed = (i + offset) % len(seeds)
                block = err.sample(np.random.default_rng(seed), n, k)
                if not _same_bits(block, refs[seed]):
                    failures.append(seed)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    _assert_memo_within_cap()


# ------------------------------------------------------- input hygiene


@pytest.mark.parametrize("eta", [1, np.float32(0.01), np.float64(0.02)])
def test_config_user_eta_is_used_whatever_its_number_type(eta):
    cfg = GdConfig(eta=eta)
    assert type(cfg.eta) is float and cfg.eta == float(eta)
    M = np.diag([0.04, 0.01])
    U0 = math.sqrt(0.04) * np.eye(2)
    _, trace = run(M, GdConfig(eta=eta, init="explicit", init_matrix=U0, max_iters=3))
    assert np.all(trace.eta == float(eta))


def test_run_non_finite_residual_raises_divergence():
    cfg = GdConfig(init="explicit", init_matrix=1e200 * np.eye(2), eta=1e-3)
    with pytest.raises(DivergenceError, match="not finite") as exc_info:
        run(np.eye(2), cfg)
    exc = exc_info.value
    assert exc.step == 0 and exc.trace.steps == 0
    assert exc.trace.stop_reason == "diverged"
    assert math.isinf(exc.trace.residual_fro[0])


def test_run_non_finite_residual_caught_before_growth_guard():
    # U_1 = diag(-1.2e301, 1) squares to inf at the first step
    cfg = GdConfig(init="explicit", init_matrix=np.diag([2.0, 1.0]), eta=1e300)
    with pytest.raises(DivergenceError, match="not finite") as exc_info:
        run(np.eye(2), cfg)
    exc = exc_info.value
    assert exc.step == exc.trace.steps == 1
    assert math.isnan(exc.trace.sigma_min[1])


def test_rate_parameters_of_an_overflowing_start_raise_gd_error():
    # (1e200)^3 overflows; alpha and the corridor bound name the norms
    U0, M = 1e200 * np.eye(2), np.eye(2)
    for compute in (lambda: step_size_policy(U0, M, GdConfig()), lambda: rate_params(U0, M)):
        with pytest.raises(GdError, match="start of spectral norm 1.000000e\\+200"):
            compute()
    # a finite cube keeps its bits
    rate = rate_params(2.0 * np.eye(2), M)
    ratio = max(rate.u_op, math.sqrt(rate.m_op)) / min(rate.u_smin, math.sqrt(rate.m_smin))
    assert rate.alpha == ratio**3


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_error_model_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="finite"):
        ErrorModel(delta=delta)
