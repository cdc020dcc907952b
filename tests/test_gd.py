import dataclasses
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
    fields = [f.name for f in dataclasses.fields(GdConfig)]
    assert fields == ["eta", "max_iters", "tol", "init", "c_step"]
    assert gd.INIT_CHOICES == ("scaled-identity", "sqrt-opnorm-identity")


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
        dict(init=None),
        dict(eta=math.inf),
        dict(c_step=math.inf),
        dict(tol=math.inf),
        dict(max_iters=10.0),  # passed, and then failed in run's range()
        dict(max_iters=2.5),
        dict(max_iters=3.0),
        dict(eta=math.nan),
        dict(c_step=math.nan),
    ],
)
def test_config_rejects_invalid(kwargs):
    [name] = kwargs
    with pytest.raises(ValueError, match=f"^{name} must be "):
        GdConfig(**kwargs)


def test_error_without_a_trace_has_no_step():
    assert GdError("x").step is None


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
    # U0 = 2I, M = diag(4,1): beta = 1; the operator-norm bound 1/120 is
    # the smaller of the two, times c_step = 0.01
    eta = step_size_policy(2.0 * np.eye(2), np.diag([4.0, 1.0]), GdConfig())
    assert eta == pytest.approx(0.01 / 120.0, rel=1e-14)


def test_step_size_and_spectra_are_python_floats():
    M, U0 = np.diag([4.0, 1.0]), 2.0 * np.eye(2)
    rate = rate_params(U0, M)
    values = [step_size_policy(U0, M, GdConfig()), *dataclasses.astuple(rate)]
    values.append(resolve(M, GdConfig())[1].eta)
    values.append(resolve(M, GdConfig(eta=np.float64(0.01)))[1].eta)
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


def test_step_size_keeps_the_corridor_bound_where_the_rate_bound_ties_it():
    # ||U0|| = 2 >= sqrt(3 ||M||): 1 / (alpha beta^2) equals the corridor
    # bound in exact arithmetic, and rounding no longer picks between them
    M = random_spd(SpdInstanceSpec(n=16, kappa=100.0, seed=7))
    U0 = linalg.SpdMatrix(2.0 * np.eye(16))
    cfg = GdConfig()
    rate = rate_params(U0, M)
    assert step_size_policy(U0, M, cfg) == cfg.c_step * (rate.beta / rate.corridor_high**3)


@pytest.mark.parametrize("init", gd.INIT_CHOICES)
def test_step_size_is_the_smaller_of_two_safeguards(init):
    # on a named start the rate bound 1 / (alpha beta^2) exceeds the corridor
    # bound by (corridor_high / ||U0||)^3, 2^(3/2) or 3^(3/2) but for the
    # few ulps by which ||U0|| is widened, so it never binds
    cfg = GdConfig(init=init)
    for n in (2, 4, 16):
        for kappa in (1.0, 10.0, 1e4):
            for seed in range(5):
                M = random_spd(SpdInstanceSpec(n=n, kappa=kappa, seed=seed))
                U0 = initial_iterate(M, cfg)
                rate = rate_params(U0, M)
                bound_opnorm = 1.0 / (10.0 * max(rate.u_op * rate.u_op, 3.0 * rate.m_op))
                bound_corridor = rate.beta / rate.corridor_high**3
                eta = step_size_policy(U0, M, cfg)
                assert eta == cfg.c_step * min(bound_opnorm, bound_corridor)
                bound_rate = 1.0 / (rate.alpha * rate.beta * rate.beta)
                assert bound_rate >= 2.0**1.5 * (1.0 - 1e-12) * bound_corridor


def test_resolve_returns_a_config_that_resolves_to_itself(eigvalsh_calls):
    M, cfg = resolve(random_spd(SpdInstanceSpec(n=4, kappa=10.0, seed=1)), GdConfig())
    assert isinstance(cfg.init, linalg.SpdMatrix) and type(cfg.eta) is float
    eigvalsh_calls.clear()
    M_again, again = resolve(M, cfg)
    assert M_again is M and again.init is cfg.init and again.eta == cfg.eta
    assert eigvalsh_calls == []


@pytest.mark.parametrize("init", gd.INIT_CHOICES)
def test_resolve_on_a_raw_array_makes_one_eigensolve(eigvalsh_calls, init):
    # M's constructor makes it; the named start c I is admitted with the
    # spectrum c, c, and the step size reads the two
    M = random_spd(SpdInstanceSpec(n=6, kappa=4.0, seed=3))
    eigvalsh_calls.clear()
    resolve(np.array(M.values), GdConfig(init=init))
    assert len(eigvalsh_calls) == 1


@pytest.mark.parametrize("init", gd.INIT_CHOICES)
@pytest.mark.parametrize("max_iters", [5, GdConfig.max_iters])
def test_run_on_a_raw_array_eigendecomposes_only_m_and_its_refreshes(
    sym_eig_calls, eigvalsh_calls, spectral_extremes_calls, init, max_iters
):
    # one eigvalsh in M's constructor, and one in each of the loop's
    # refreshes; the returned iterate keeps the stop row's
    M = random_spd(SpdInstanceSpec(n=4, kappa=2.0, seed=3))
    eigvalsh_calls.clear()
    _, trace = run(np.array(M.values), GdConfig(init=init, max_iters=max_iters))
    assert trace.stop_reason == ("max-iters" if max_iters == 5 else "converged")
    assert len(sym_eig_calls) == 0
    assert len(eigvalsh_calls) == 1 + len(spectral_extremes_calls)


def test_perturbed_run_on_a_raw_array_eigendecomposes_only_m_and_its_refreshes(
    eigvalsh_calls, spectral_extremes_calls
):
    # the errors are scaled by their Frobenius norms, one batched dot a
    # block: a stream that no earlier run drew adds no eigensolve
    M = random_spd(SpdInstanceSpec(n=16, kappa=4.0, seed=3))
    cfg = GdConfig(c_step=1.0, tol=1e-300, max_iters=100)
    err = ErrorModel(1e-7, "every-step", seed=26)
    eigvalsh_calls.clear()
    run_perturbed(np.array(M.values), cfg, err)
    assert len(spectral_extremes_calls) > 1
    assert len(eigvalsh_calls) == 1 + len(spectral_extremes_calls)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 64, 65, 100, 200])
def test_eigvalsh_of_a_scaled_identity_is_the_scale_where_lapack_does_not_rescale(n):
    # initial_iterate admits c I with the spectrum c, c unsolved inside
    # UNSCALED_RANGE: there LAPACK returns c exactly in every slot.  Outside,
    # its rescaling may round c, within eigvalsh's error bound.
    lo, hi = linalg.UNSCALED_RANGE
    rng = np.random.default_rng(n)
    step = 1 if n <= 16 else 3 if n <= 65 else 11
    for e in [*range(-1074, 1024, step), 1023]:
        for c in (math.ldexp(1.0 + rng.random(), e), math.ldexp(1.8, e)):
            w = np.linalg.eigvalsh(c * np.eye(n))
            if lo <= c <= hi:
                assert np.all(w == c), c
            else:
                assert np.all(np.abs(w - c) <= n * linalg.EPS * c), c
    for c in (lo, hi, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)):
        assert np.all(np.linalg.eigvalsh(c * np.eye(n)) == c), c


@pytest.mark.parametrize("init", gd.INIT_CHOICES)
def test_named_start_is_bitwise_the_eigensolved_one_at_every_scale(init):
    # the start against SpdMatrix(c * I), which validates by eigvalsh,
    # over every scale 4^k at which SpdMatrix accepts the seeded matrix
    cfg = GdConfig(init=init)
    norm = linalg.estimate_opnorm_bound if init == "scaled-identity" else linalg.spectral_norm
    checked = 0
    for n, kappa, seed in [(1, 1.0, 0), (4, 10.0, 5), (16, 10.0, 2)]:
        base = random_spd(SpdInstanceSpec(n=n, kappa=kappa, seed=seed)).values
        for k in range(-560, 541):
            try:
                with np.errstate(over="ignore"):
                    M = linalg.SpdMatrix(np.ldexp(base, 2 * k))
            except linalg.LinalgError:  # not positive definite, or not finite
                continue
            U0 = initial_iterate(M, cfg)
            ref = linalg.SpdMatrix(math.sqrt(norm(M)) * np.eye(n))
            assert _same_bits(U0.values, ref.values), (n, k)
            assert _same_bits(np.array(U0.bounds), np.array(ref.bounds)), (n, k)
            checked += 1
    assert checked > 3 * 1000


def _root_of(case):
    M = random_spd(SpdInstanceSpec(n=4, kappa=4.0, seed=9))
    if case == "converged":
        U, trace = run(M, GdConfig(c_step=1.0))
    elif case == "capped":
        U, trace = run(M, GdConfig(max_iters=50))
    else:
        cfg = GdConfig(c_step=1.0, tol=1e-300, max_iters=300)
        U, trace = run_perturbed(M, cfg, ErrorModel(1e-7, "every-step", seed=2))
    return U, trace


@pytest.mark.parametrize("case", ["converged", "capped", "perturbed"])
def test_returned_root_keeps_the_bounds_of_an_eigensolve(case):
    # the root is admitted with its stop row's eigenvalues, not solved again
    U, trace = _root_of(case)
    assert trace.stop_reason == ("converged" if case == "converged" else "max-iters")
    ref = linalg.SpdMatrix(np.array(U.values))
    assert _same_bits(np.array(U.bounds), np.array(ref.bounds))
    assert _same_bits(U.values, ref.values) and not U.values.flags.writeable


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
    assert 4.0 <= lam <= 8.0  # the bound's bracket [||M||, 2||M||]


def test_initial_iterate_sqrt_opnorm():
    U0 = initial_iterate(np.diag([4.0, 1.0]), GdConfig(init="sqrt-opnorm-identity"))
    assert np.allclose(U0.values, 2.0 * np.eye(2), atol=1e-14)


def test_initial_iterate_explicit():
    W = np.diag([3.0, 2.0])
    U0 = initial_iterate(np.diag([4.0, 1.0]), GdConfig(init=W))
    assert np.array_equal(U0.values, W)


# ---------------------------------------------------------------- run


def test_run_converges_to_root():
    M = np.diag([4.0, 1.0])
    U, trace = run(M, GdConfig(init=math.sqrt(4.0) * np.eye(2)))
    assert trace.converged
    assert trace.stop_reason == "converged"
    assert np.allclose(U.values, np.diag([2.0, 1.0]), atol=1e-8)
    assert trace.final_residual <= 1e-8


def test_run_already_converged_at_start():
    M = np.eye(3)
    cfg = GdConfig(init=np.eye(3))
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
    cfg = GdConfig(eta=0.02, tol=1e-6, init=math.sqrt(4.0) * np.eye(2))
    _, trace = run(M, cfg)
    assert np.all(trace.eta == 0.02)


def test_run_max_iters_returns_unconverged_trace():
    M = np.diag([4.0, 1.0])
    U0 = math.sqrt(4.0) * np.eye(2)
    _, trace = run(M, GdConfig(eta=1e-6, max_iters=50, init=U0))
    assert not trace.converged
    assert trace.stop_reason == "max-iters"
    assert trace.steps == 50


def test_run_divergence_carries_partial_trace():
    # starting far below the root with a large step overshoots upward and
    # the residual blows past ten times its initial value within two steps
    M = np.array([[100.0]])
    cfg = GdConfig(eta=0.05, init=np.array([[0.5]]))
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
    cfg = GdConfig(eta=0.1, init=np.diag([2.0, 3.0]))
    with pytest.raises(LostPositiveDefinitenessError) as exc_info:
        run(M, cfg)
    assert exc_info.value.trace.stop_reason == "lost-positive-definiteness"


def test_run_refuses_a_last_iterate_too_close_to_singular():
    # lambda_min of the step-1 iterate is about 1e-14: positive, which the
    # loop lets through, but under SPD_RTOL ||U||, which SpdMatrix refuses
    cfg = GdConfig(eta=(2 - 1e-14) / 12, max_iters=1, init=np.diag([2.0, 1.0]))
    with pytest.raises(LostPositiveDefinitenessError) as exc_info:
        run(np.eye(2), cfg)
    exc = exc_info.value
    assert exc.step == exc.trace.steps == 1
    assert exc.trace.stop_reason == "lost-positive-definiteness"


@st.composite
def _instances(draw):
    """(M, U0): random SPD matrices of one order n <= 4, norms from 1e-2 to 1e2."""
    n = draw(st.integers(1, 4))
    kappas = st.floats(1.0, 100.0) if n > 1 else st.just(1.0)
    seed = draw(st.integers(0, 2**16))
    scales = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)
    M = random_spd(SpdInstanceSpec(n, draw(kappas), draw(scales), seed=seed))
    U0 = random_spd(SpdInstanceSpec(n, draw(kappas), draw(scales), seed=seed + 1))
    return M.values, U0.values


STOP_REASONS = {
    DivergenceError: "diverged",
    LostPositiveDefinitenessError: "lost-positive-definiteness",
}


# user step sizes from 1e-4 to about 3: each stop and failure occurs
@given(_instances(), st.floats(-4.0, 0.5).map(lambda e: 10.0**e), st.integers(1, 50))
@example((np.eye(2), np.diag([2.0, 1.0])), (2 - 1e-14) / 12, 1)
def test_run_returns_a_root_or_raises_a_traced_error(instance, eta, max_iters):
    M, U0 = instance
    try:
        U, trace = run(M, GdConfig(eta=eta, max_iters=max_iters, init=U0))
    except GdError as exc:
        assert exc.trace.stop_reason == STOP_REASONS[type(exc)]
        assert exc.step == exc.trace.steps
    else:
        assert isinstance(U, linalg.SpdMatrix)
        assert trace.stop_reason in ("converged", "max-iters")


def test_run_1x1():
    U, trace = run(np.array([[4.0]]), GdConfig(init=[[math.sqrt(4.0)]]))
    assert trace.converged
    assert U.values[0, 0] == pytest.approx(2.0, abs=1e-8)


def test_trace_records_iterates_all_columns():
    M = np.diag([4.0, 1.0])
    cfg = GdConfig(eta=0.02, tol=1e-6, init=math.sqrt(4.0) * np.eye(2))
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
    for delta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^delta must be finite and non-negative, got"):
            ErrorModel(delta=delta)
    with pytest.raises(ValueError, match="^schedule must be one of"):
        ErrorModel(schedule="sometimes")
    with pytest.raises(ValueError, match="^seed must be at least 0, got -1$"):
        ErrorModel(1e-6, seed=-1)
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        ErrorModel(1e-6, seed=1.5)


def test_error_model_takes_integer_seeds_only():
    # default_rng returns a Generator seed unaltered: a run would draw from
    # the caller's generator, and its errors would depend on what drew from
    # it before, not on the seed, n and t alone
    for seed in (np.random.default_rng(3), 1.5, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ErrorModel(1e-6, seed=seed)
    err = ErrorModel(1e-6, seed=np.int64(3))
    assert type(err.seed) is int and err.seed == 3


def test_error_model_schedules():
    # an every-step stream yields one error per step up to the cap, a
    # first-step-only stream E_1 alone, the first error of the same stream
    every = ErrorModel(delta=1.0, schedule="every-step")
    first = ErrorModel(delta=1.0, schedule="first-step-only")
    errors = list(every.errors(3, 9))
    assert len(errors) == 9 and all(E.shape == (3, 3) for E in errors)
    [E1] = first.errors(3, 9)
    assert _same_bits(E1, errors[0])


def test_error_sample_norm_and_symmetry():
    err = ErrorModel(delta=1e-3, schedule="every-step", seed=2)
    rng = np.random.default_rng(2)
    block = err.sample(rng, 6, 5)
    assert block.shape == (5, 6, 6)
    for E in block:
        assert np.array_equal(E, E.T)
        assert 1e-3 * (1.0 - 1e-12) <= np.linalg.norm(E) <= 1e-3
        assert np.max(np.abs(np.linalg.eigvalsh(E))) < 1e-3


SAMPLED_SLICES = {1: 2000, 2: 2000, 4: 1000, 16: 200, 17: 200, 64: 20, 65: 20}


def _sampled_blocks(delta):
    for n, k in SAMPLED_SLICES.items():
        yield n, ErrorModel(delta).sample(np.random.default_rng((n, k)), n, k)


def _spectral_norms(E):
    return np.linalg.svd(E, compute_uv=False)[:, 0]


def _two_square(x):
    """(p, e) with p + e = x * x exactly: Dekker's product, for |x| <= 1 not tiny."""
    t = (2.0**27 + 1.0) * x
    hi = t - (t - x)
    lo = x - hi
    p = x * x
    return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo


def _fro_exceeds(E, delta) -> np.ndarray:
    """Whether ||E||_F > delta, exactly, for each slice of a stack.

    Scaled by a power of two to delta in [1/2, 1), each square is the exact
    sum of two doubles, and ``math.fsum`` rounds the sum of all of them less
    delta^2 correctly, so the sign of what it returns is exact.
    """
    k = math.frexp(delta)[1]
    x = np.ldexp(E.reshape(len(E), -1), -k)
    assert np.all((x == 0.0) | (np.abs(x) >= 2.0**-400))  # no product underflows
    p, e = _two_square(x)
    d = [-part for part in _two_square(math.ldexp(delta, -k))]
    return np.array([math.fsum(ps + es + d) > 0.0 for ps, es in zip(p.tolist(), e.tolist())])


@pytest.mark.parametrize("delta", [1e-300, 1e-7, 1e-6, 1.0, 1e5, 1e300])
def test_error_sample_norm_is_certified_under_delta(delta):
    # One batched dot and the margin (n^2 + 4) eps keep every slice's
    # Frobenius norm at or under delta, checked exactly on 5,440 slices, and
    # its spectral norm under it by an independent SVD.  The norm falls
    # short of delta by at most its own and np.linalg.norm's errors.
    for n, E in _sampled_blocks(delta):
        assert np.array_equal(E, E.transpose(0, 2, 1))
        assert not np.any(_fro_exceeds(E, delta))
        k = math.frexp(delta)[1]  # the norms of the scaled stack do not overflow
        fro = np.ldexp(np.linalg.norm(np.ldexp(E, -k), axis=(1, 2)), k)
        assert np.all(fro >= delta * (1.0 - 2 * (n * n + 4) * linalg.EPS))
        assert np.all(_spectral_norms(np.ldexp(E, -k)) <= math.ldexp(delta, -k))


def test_error_sample_at_a_subnormal_delta_exceeds_it_by_its_rounding():
    # At delta = 1e-320 the scale and the scaled entries are subnormal and
    # round by up to half a unit 2^-1074 absolutely, not relatively: a
    # slice's Frobenius norm exceeds delta by at most (s + n) / 2 units, s
    # the norm of the symmetric draw before scaling, as the n^2 entries'
    # roundings have a norm of at most n / 2 units.  The loop's ``tiny``
    # term, n 2^-537 a step, absorbs it.
    delta = 1e-320
    unit = 2.0**-1074
    for n, E in _sampled_blocks(delta):
        G = np.random.default_rng((n, len(E))).standard_normal(E.shape)
        s = np.linalg.norm((G + G.transpose(0, 2, 1)) / 2.0, axis=(1, 2))
        # in units of 2^-1074, scaled exactly by two powers of two: integers
        # whose squares sum exactly
        norms = np.linalg.norm(E * 2.0**537 * 2.0**537, axis=(1, 2))
        assert np.all(norms <= delta / unit + (s + n) / 2.0)
        assert np.any(norms > delta / unit)


def test_error_sample_makes_no_eigensolve(eigvalsh_calls):
    # a whole block is scaled by one batched dot
    ErrorModel(1e-3).sample(np.random.default_rng(0), 16, 32)
    assert eigvalsh_calls == []


@pytest.mark.parametrize("n", [1, 2, 4, 5, 16, 17, 33, 64, 91, 100])
def test_batched_fro_norms_give_each_slice_its_own_bits(n):
    # A block scales its slices by one batched dot, the reference one slice
    # at a time: a slice's norm must not depend on the stack it is taken in.
    G = np.random.default_rng(n).standard_normal((6, n, n))
    E = (G + G.transpose(0, 2, 1)) / 2.0
    single = np.array([np.linalg.norm(S) for S in E])
    assert _same_bits(gd._fro_norms(E), single)
    assert _same_bits(gd._fro_norms(E[2:5]), single[2:5])


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
    assert np.all(tr.err_fro[1:] <= tr.err_norm[1:])
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
    cfg = GdConfig(eta=0.01, init=np.eye(16), max_iters=5)
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


# All eight columns of two perturbed runs whose errors have Frobenius norm
# just under delta, taken from the reference loop below.  At rows 1, 3 and
# 5, where the loop records its bracket and not an eigensolve, sigma_min and
# opnorm were derived from the reference iterates by the bracket recurrence
# of the loop's comment, written out in Python floats.
PINNED_PERTURBED_TRACES = {
    "every-step": {
        "t": [0, 1, 2, 3, 4, 5, 6],
        "residual_fro": [2.7613402542968153, 2.3272282040047414, 1.9854434018637497, 1.7101919920277673, 1.484715093272533, 1.2975245272259817, 1.1403794105171896],
        "objective": [7.625000000000001, 5.415991113515134, 3.941985502004299, 2.9247566495959028, 2.2043789081912664, 1.6835698987530072, 1.3004651999315329],
        "sigma_min": [2.0, 1.8895363898281219, 1.8468241636507707, 1.765245738343846, 1.742940511459231, 1.6807855189907892, 1.6680062805432396],
        "opnorm": [2.0, 2.1104636101718786, 2.054161433923292, 2.1357398592302173, 2.0928255107671747, 2.154980503235617, 2.119758548655289],
        "eta": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01],
        "err_norm": [0.0, 1e-05, 1e-05, 1e-05, 1e-05, 1e-05, 1e-05],
        "err_fro": [0.0, 9.999999999999972e-06, 9.99999999999997e-06, 9.999999999999974e-06, 9.999999999999972e-06, 9.999999999999974e-06, 9.999999999999972e-06],
    },
    "first-step-only": {
        "t": [0, 1, 2, 3, 4, 5, 6],
        "residual_fro": [2.7613402542968153, 2.3272282040047414, 1.9854632903840768, 1.7102214442564958, 1.4847406895580104, 1.2975279389039458, 1.1403684423247225],
        "objective": [7.625000000000001, 5.415991113515134, 3.9420644774627647, 2.9248573883947744, 2.204454915229196, 1.6835787522363217, 1.3004401842501139],
        "sigma_min": [2.0, 1.8895363898281219, 1.8468278957430966, 1.7652585624452197, 1.7429519433089231, 1.680805414839241, 1.668004797160993],
        "opnorm": [2.0, 2.1104636101718786, 2.0541637232208014, 2.1357330565186787, 2.092841157609045, 2.1549876860787274, 2.1197708227462706],
        "eta": [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01],
        "err_norm": [0.0, 1e-05, 0.0, 0.0, 0.0, 0.0, 0.0],
        "err_fro": [0.0, 9.999999999999972e-06, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
}


@pytest.mark.parametrize("schedule", sorted(PINNED_PERTURBED_TRACES))
def test_run_perturbed_trace_pinned(schedule):
    M = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
    cfg = GdConfig(eta=0.01, max_iters=6, init=2.0 * np.eye(3))
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


def test_objective_is_inf_where_a_finite_residual_squares_past_the_doubles():
    # the squares of the entries overflow and ||M - U^2||_F = 5 2^665, about
    # 6.5e200, does not
    M = np.diag([math.ldexp(3.0, 665), math.ldexp(4.0, 665)])
    U = np.zeros((2, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert residual_fro(U, M) == math.ldexp(5.0, 665)
        assert objective(U, M) == math.inf


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
    s = float(np.linalg.norm(E))
    if s == 0.0:
        return np.zeros((n, n))
    return E * (err.delta / (s * (1.0 + (n * n + 4) * linalg.EPS)))


def _ref_run_loop(M, cfg, err):
    M_spd, cfg = gd.resolve(M, cfg)
    U0, eta = cfg.init, cfg.eta
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
        if err is not None and (err.schedule == "every-step" or t == 1):
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
                trace=builder.finish(False, "lost-positive-definiteness"),
            )
        if r <= cfg.tol:
            converged = True
            break
        if r > gd.DIVERGENCE_FACTOR * r0:
            raise DivergenceError(
                f"residual {r:.6e} at step {t} exceeds {gd.DIVERGENCE_FACTOR:g}x "
                f"its initial value {r0:.6e}",
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
        start = dict(init=random_spd(spec))
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
        GdConfig(eta=0.05, init=np.array([[0.5]])),
    )
    assert diverged.stop_reason == "diverged"
    lost = _assert_matches_reference(
        np.diag([4.0, 1.0]),
        GdConfig(eta=0.1, init=np.diag([2.0, 3.0])),
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
        return root @ root, GdConfig(init=root)
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
    # error blocks of 64 KiB add a constant: measured 33.9 bytes a step kept
    # and 45.7 at the peak
    err = ErrorModel(1e-9, "every-step", seed=1)
    assert _peak_bytes_per_step(lambda M, cfg: run_perturbed(M, cfg, err), 20_000) <= 52.0


# ------------------------------------------------------ spectral brackets
#
# The loop recomputes the spectrum exactly at t = 0, at every stop and when
# the Weyl slack since the last refresh exceeds BRACKET_RTOL lambda_min
# there; the rows in between record certified bounds.


def test_refresh_count_is_bounded(monkeypatch):
    # the early, large steps refresh every few steps, the later ones rarely:
    # measured 51 refreshes at n = 64, kappa = 2 over 2,000 steps, and 294
    # at n = 16, kappa = 100 over 200,000 steps, where the residual lies
    # mostly on U's small eigenvalues and c r (hi + slack) is loosest
    for n, kappa, steps, bound in ((64, 2.0, 2000, 2000 // 20 + 1), (16, 100.0, 200_000, 400)):
        M = random_spd(SpdInstanceSpec(n=n, kappa=kappa, seed=n))
        with pytest.MonkeyPatch.context() as mp:
            refreshed = _refresh_steps(mp)
            _, trace = run(M, GdConfig(tol=1e-300, max_iters=steps))
        assert trace.steps == steps
        assert refreshed[0] == 0 and refreshed[-1] == steps
        assert len(refreshed) <= bound


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
        eta=1e-3, tol=1e-300, max_iters=3000, init=evd_sqrt(M)
    )
    monkeypatch.setattr(gd, "BRACKET_RTOL", 1e-14)
    trace = _assert_matches_reference(M, cfg)
    assert trace.steps == 3000 and trace.residual_fro.max() < 1e-13


@pytest.mark.parametrize("n", [2, 16])
def test_brackets_hold_where_the_step_bound_is_attained(n):
    # M = diag(1, ..., 1, 4) from U0 = diag(1, ..., 1, 1.5): every iterate
    # is diagonal, and U^2 - M is zero but for its last entry, on U's
    # largest eigenvalue, so ||(U^2 - M) U||_F = ||U^2 - M||_F ||U||_2
    # holds exactly on every step.  The eigenvalue that moves is the
    # bracket's top, moving outward, and the loop's bound c r (hi + slack)
    # exceeds each step only by c's rounding factor and the widening of hi.
    m = np.ones(n)
    m[-1] = 4.0
    u0 = np.ones(n)
    u0[-1] = 1.5
    cfg = GdConfig(eta=1e-3, tol=1e-300, max_iters=3000, init=np.diag(u0))
    trace = _assert_matches_reference(np.diag(m), cfg)
    assert trace.steps == 3000 and trace.residual_fro[-1] < 1e-13


def test_brackets_count_the_rounding_of_each_update():
    # 1x1, the root 1e-10 below U0 = 1.5 and a step H of 0.6 ulp: each
    # update U - H rounds to the next double down, so U moves one ulp, 5/3
    # of ||H||, on every step.  Only the rounding term of the slack covers
    # the other 2/3; without it the lower bound passes the exact eigenvalue
    # within about ten steps.
    u0 = 1.5
    m = (u0 - 1e-10) ** 2
    eta = 0.6 * np.spacing(u0) / (2.0 * (u0 * u0 - m) * u0)
    cfg = GdConfig(eta=eta, tol=1e-300, max_iters=400, init=[[u0]])
    trace = _assert_matches_reference(np.array([[m]]), cfg)
    assert trace.steps == 400
    assert trace.sigma_min[-1] == u0 - 400 * np.spacing(u0)


@pytest.mark.parametrize("schedule", ["every-step", "first-step-only"])
def test_brackets_hold_under_injected_errors(schedule):
    # Near the root the update moves U by about 1e-7 a step and each error
    # by up to delta = 2e-6, so the bracket must count delta
    M = random_spd(SpdInstanceSpec(n=16, kappa=4.0, seed=2))
    U0 = np.asarray(evd_sqrt(M)) * (1.0 + 1e-6)
    cfg = GdConfig(eta=0.01, tol=1e-300, max_iters=200, init=U0)
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
        eta=0.01, init=np.diag(u0), max_iters=max_iters
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
    cfg = GdConfig(eta=eta, init=U0)
    lost = _assert_matches_reference(M, cfg)
    assert lost.stop_reason == "lost-positive-definiteness"
    assert lost.steps == 25
    refreshed = _refresh_steps(monkeypatch)
    with pytest.raises(LostPositiveDefinitenessError):
        run(M, cfg)
    assert refreshed == list(range(26))


@pytest.mark.parametrize("k", [-255, -260])
def test_a_converged_run_meets_its_tol_where_the_residual_squares_underflow(k):
    # At 4^k M the entries of U^2 - M near the stop are about 1e-162, and
    # their squares underflow: sqrt(d . d) read 2.2e-162 and 0.0 where the
    # true residual was above tol.  The true residual here is exact.
    M = np.ldexp(random_spd(SpdInstanceSpec(n=4, kappa=10.0, seed=5)).values, 2 * k)
    tol = 1e-8 * 4.0**k
    U, trace = run(M, GdConfig(tol=tol))
    assert trace.converged
    X = [[Fraction(x) for x in row] for row in U.values]
    R = [[sum(X[i][l] * X[l][j] for l in range(4)) - Fraction(M[i, j]) for j in range(4)]
         for i in range(4)]
    true_sq = sum(x * x for row in R for x in row)
    assert true_sq <= Fraction(tol) ** 2
    # the stop row records that residual, not the underflowed one
    true_unscaled = math.sqrt(true_sq * Fraction(2) ** (-4 * k))
    assert math.ldexp(trace.final_residual, -2 * k) == pytest.approx(true_unscaled, rel=1e-12)


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


@pytest.mark.parametrize("n", [1, 2, 16, 63, 64, 65, 100])
@pytest.mark.parametrize("delta", [1e-300, 1e-6, 1e300])
def test_drawn_norms_are_the_norms_of_the_reference_stream(n, delta):
    # each block's slice norms are one batched dot, bitwise np.linalg.norm
    # of each slice where that lies in [TINY_NORM, inf); at 1e-300 the
    # squares underflow and at 1e300 they overflow, no RuntimeWarning is
    # raised, and the norm is math.hypot of the entries.  The 1e300 run
    # diverges at step 1 on its error.
    M = random_spd(SpdInstanceSpec(n=n, kappa=1.0 if n == 1 else 4.0, seed=n))
    err = ErrorModel(delta, "every-step", seed=3)
    cfg = GdConfig(tol=1e-300, max_iters=40)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # delta over the stability tolerance
            trace = run_perturbed(M, cfg, err)[1]
    except DivergenceError as exc:
        assert delta == 1e300
        trace = exc.trace
    rng = np.random.default_rng(err.seed)
    ref = []
    for _ in trace.drawn_fro:
        E = _ref_sample(err, rng, n)
        with np.errstate(over="ignore"):
            fro = float(np.linalg.norm(E))
        ref.append(fro if 2.0**-480 <= fro < math.inf else math.hypot(*E.ravel().tolist()))
    assert _same_bits(trace.drawn_fro, np.array(ref))
    assert len(ref) == (1 if delta == 1e300 else 40)
    # ErrorModel's certified margin
    assert all(delta * (1.0 - 2 * (n * n + 4) * linalg.EPS) <= fro <= delta for fro in ref)


@pytest.mark.parametrize("delta", [1e-160, 1e-200, 1e-300, 1e300])
def test_err_fro_is_the_norm_of_each_error_where_its_squares_under_or_overflow(delta):
    # At n = 16 the batched dot of the errors' entries read 9.97e-161 for
    # 1e-160, 0.0 for 1e-200 and 1e-300, and inf for 1e300; each err_fro
    # must be the norm of its error within two ulps of the exact value, and
    # at most delta.  The 1e300 run diverges at step 1 on its error.
    n = 16
    M = random_spd(SpdInstanceSpec(n=n, kappa=4.0, seed=n))
    err = ErrorModel(delta, "every-step", seed=3)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # delta over the stability tolerance
            trace = run_perturbed(M, GdConfig(tol=1e-300, max_iters=5), err)[1]
    except DivergenceError as exc:
        assert delta == 1e300
        trace = exc.trace
    rng = np.random.default_rng(err.seed)
    fros = trace.err_fro[1:].tolist()
    assert len(fros) == (1 if delta == 1e300 else 5)
    two_ulps = Fraction(2) ** -51
    for fro in fros:
        exact_sq = sum(Fraction(x) ** 2 for x in _ref_sample(err, rng, n).ravel().tolist())
        assert (Fraction(fro) * (1 - two_ulps)) ** 2 <= exact_sq <= (Fraction(fro) * (1 + two_ulps)) ** 2
        assert fro <= delta


# ------------------------------------------------------- input hygiene


@pytest.mark.parametrize("eta", [1, np.float32(0.01), np.float64(0.02)])
def test_config_user_eta_is_used_whatever_its_number_type(eta):
    cfg = GdConfig(eta=eta)
    assert type(cfg.eta) is float and cfg.eta == float(eta)
    M = np.diag([0.04, 0.01])
    U0 = math.sqrt(0.04) * np.eye(2)
    _, trace = run(M, GdConfig(eta=eta, init=U0, max_iters=3))
    assert np.all(trace.eta == float(eta))


def test_run_non_finite_residual_raises_divergence():
    cfg = GdConfig(init=1e200 * np.eye(2), eta=1e-3)
    with pytest.raises(DivergenceError, match="not finite") as exc_info:
        run(np.eye(2), cfg)
    exc = exc_info.value
    assert exc.step == 0 and exc.trace.steps == 0
    assert exc.trace.stop_reason == "diverged"
    assert math.isinf(exc.trace.residual_fro[0])


def test_run_non_finite_residual_caught_before_growth_guard():
    # U_1 = diag(-1.2e301, 1) squares to inf at the first step
    cfg = GdConfig(init=np.diag([2.0, 1.0]), eta=1e300)
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


def test_an_infinite_rate_cube_raises_gd_error():
    # sqrt(3 ||M||) is inf for ||M|| = 1e308, so the corridor bound cubes
    # inf; Python's power returns it without an OverflowError
    U0, M = 1e154 * np.eye(2), np.diag([1e308, 1e300])
    with pytest.raises(GdError, match="start of spectral norm 1.000000e\\+154"):
        step_size_policy(U0, M, GdConfig())
    for x in (math.inf, math.nan):
        with pytest.raises(GdError):
            gd.rate_cube(x, 1.0, 1.0)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_error_model_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="finite"):
        ErrorModel(delta=delta)
