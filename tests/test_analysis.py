import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matsqrt import analysis
from matsqrt.analysis import (
    CertificateReport,
    corridor_check,
    first_error_attenuation_bound,
    gradient_dominance_certificate,
    rate_params,
    saddle_location_check,
    smoothness_certificate,
    stability_bound,
    stability_bound_series,
    stability_tolerance,
    theoretical_residual_bound,
)
from matsqrt.experiments import SpdInstanceSpec, random_spd
from matsqrt.gd import GdConfig, GdError, gradient, objective, run


def worked_rate():
    # U0 = 2I, M = diag(4, 1)
    return rate_params(2.0 * np.eye(2), np.diag([4.0, 1.0]))


def test_rate_params_worked_example():
    # the spectra are widened outward, so each value errs on its safe side
    rate = worked_rate()
    assert 8.0 < rate.alpha == pytest.approx(8.0, rel=1e-14)
    assert 1.0 > rate.beta == pytest.approx(1.0, rel=1e-14)
    assert 0.1 > rate.corridor_low == pytest.approx(0.1, rel=1e-14)
    assert math.sqrt(12.0) < rate.corridor_high == pytest.approx(math.sqrt(12.0), rel=1e-14)
    assert 4.0 < rate.kappa == pytest.approx(4.0, rel=1e-14)
    assert 2.0 < rate.u_op == pytest.approx(2.0, rel=1e-14)
    assert 2.0 > rate.u_smin == pytest.approx(2.0, rel=1e-14)
    assert 4.0 < rate.m_op == pytest.approx(4.0, rel=1e-14)
    assert 1.0 > rate.m_smin == pytest.approx(1.0, rel=1e-14)


@given(st.integers(0, 300), st.integers(2, 8))
def test_alpha_at_least_one(seed, n):
    M = random_spd(SpdInstanceSpec(n=n, kappa=5.0, seed=seed))
    rng = np.random.default_rng(seed + 1)
    U0 = np.diag(rng.uniform(0.3, 3.0, n))
    rate = rate_params(U0, M)
    assert rate.alpha >= 1.0
    assert 0.0 < rate.corridor_low <= rate.corridor_high


def test_rate_params_alpha_scale_invariant():
    M = np.diag([4.0, 1.0])
    U0 = 2.0 * np.eye(2)
    a = rate_params(U0, M).alpha
    b = rate_params(3.0 * U0, 9.0 * M).alpha
    assert b == pytest.approx(a, rel=1e-12)


# ---------------------------------------------------------------- bounds


def test_residual_bound_worked_example():
    # eta = 0.01/120, beta = 1: the exponent reaches 1 at t = 600000
    rate = worked_rate()
    eta = 0.01 / 120.0
    got = theoretical_residual_bound(600_000, eta, rate, 10.0)
    assert got == pytest.approx(10.0 / math.e, rel=1e-12)


def test_residual_bound_decreases_and_starts_at_r0():
    rate = worked_rate()
    b = [theoretical_residual_bound(t, 1e-4, rate, 5.0) for t in range(0, 500, 50)]
    assert b[0] == 5.0
    assert all(x > y for x, y in zip(b, b[1:]))


def test_stability_bound_zero_errors_is_exact_decay():
    rate = worked_rate()
    for t in (0, 1, 17, 400):
        plain = theoretical_residual_bound(t, 1e-4, rate, 3.0)
        with_zero = stability_bound(t, 1e-4, rate, 3.0, np.zeros(t), 2.0, 4.0)
        assert with_zero == plain  # bitwise, not approximately


def test_stability_bound_hand_example():
    rate = worked_rate()
    eta, r0 = 1e-3, 2.0
    errs = np.array([1e-6, 2e-6])
    x = (1.0 / 50.0) * eta * rate.beta**2
    prefac = 4.0 * max(2.0, math.sqrt(12.0))
    expect = math.exp(-2 * x) * r0 + prefac * (
        math.exp(-x) * 1e-6 + math.exp(0.0) * 2e-6
    )
    assert stability_bound(2, eta, rate, r0, errs, 2.0, 4.0) == pytest.approx(
        expect, rel=1e-14
    )


@given(st.integers(0, 100))
def test_stability_series_matches_direct_sum(seed):
    rate = worked_rate()
    rng = np.random.default_rng(seed)
    errs = rng.uniform(0.0, 1e-5, size=60)
    series = stability_bound_series(2e-4, rate, 1.5, errs, 2.0, 4.0)
    assert len(series) == 61
    for t in (0, 1, 7, 33, 60):
        direct = stability_bound(t, 2e-4, rate, 1.5, errs, 2.0, 4.0)
        assert series[t] == pytest.approx(direct, rel=1e-10)


def test_first_error_attenuation_bound_shape():
    rate = worked_rate()
    r0, e0 = 4.0, 1e-4
    assert first_error_attenuation_bound(0, 1e-3, rate, r0, e0, 2.0, 4.0) == r0
    b1 = first_error_attenuation_bound(1, 1e-3, rate, r0, e0, 2.0, 4.0)
    # at t = 1 the error term carries no decay yet
    expect = theoretical_residual_bound(1, 1e-3, rate, r0) + 6.0 * 4.0 * e0
    assert b1 == pytest.approx(expect, rel=1e-14)
    b = [
        first_error_attenuation_bound(t, 1e-3, rate, r0, e0, 2.0, 4.0)
        for t in range(1, 2000, 100)
    ]
    assert all(x > y for x, y in zip(b, b[1:]))


def test_stability_tolerance_formula():
    rate = dataclasses.replace(worked_rate(), beta=0.5, m_smin=0.25)
    assert stability_tolerance(1e-3, rate) == pytest.approx(1e-3 * 0.25 * 0.5 / 300.0, rel=1e-15)


def test_bounds_keep_their_operation_order():
    # bitwise: the exponent is (C_RATE eta) beta^2 and the tolerance
    # (eta sigma_min(M)) beta / 300, in that order
    for eta in (1e-3, 3e-3, 7e-3, 0.013, 0.029):
        for beta, m_smin in ((0.3, 0.7), (0.55, 0.45), (0.9, 0.35), (0.71, 0.2), (0.83, 0.6)):
            rate = dataclasses.replace(worked_rate(), beta=beta, m_smin=m_smin)
            assert stability_tolerance(eta, rate) == eta * m_smin * beta / 300.0
            for t in (10**4, 10**5, 3 * 10**5):
                want = math.exp(-(1.0 / 50.0) * eta * beta**2 * t) * 2.5
                assert theoretical_residual_bound(t, eta, rate, 2.5) == want


# ------------------------------------------------------------ certificates


def test_certificate_report_truncates_witnesses():
    rep = CertificateReport("x", 10, -1.0, False, witnesses=tuple(str(i) for i in range(9)))
    assert len(rep.witnesses) == 5


def test_report_keeps_the_certificate_rule():
    # a NaN margin never becomes the worst, any witness fails the report,
    # and only the first five witnesses are kept
    rep = analysis._report("x", 3, 0, -1.0, [(0.5, None), (0.25, None), (math.nan, None)])
    assert (rep.worst_margin, rep.passed, rep.witnesses) == (0.25, True, ())
    rep = analysis._report("x", 2, 0, -1.0, [(0.5, None), (0.75, "w")])
    assert (rep.worst_margin, rep.passed, rep.witnesses) == (0.5, False, ("w",))
    rep = analysis._report("x", 8, 0, 0.0, [(-1.0, f"w{i}") for i in range(8)])
    assert (rep.passed, rep.witnesses) == (False, tuple(f"w{i}" for i in range(5)))
    rep = analysis._report("x", 1, 0, 0.0, [(-0.5, None)])
    assert (rep.worst_margin, rep.passed) == (-0.5, False)


def test_sampled_certificates_fail_on_a_nan_margin(monkeypatch):
    # a NaN gradient gives NaN margins, which never become the worst margin;
    # each sample must still give a witness, so no certificate passes
    monkeypatch.setattr(analysis, "gradient", lambda U, M: np.full(np.shape(U), math.nan))
    M = np.diag([4.0, 2.0])
    for rep in (
        smoothness_certificate(M, 16.0, 3, seed=0),
        gradient_dominance_certificate(M, 1.0, 3, seed=0),
        saddle_location_check(M, 3, seed=0),
    ):
        assert not rep.passed and len(rep.witnesses) == 3, rep.property_name


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_certificates_refuse_fewer_than_one_sample(samples):
    # with no sample the worst margin would stay inf and the check pass; a
    # seed is refused also where sample 0, which draws nothing, is the only one
    M = np.diag([4.0, 2.0])
    for num_samples, seed, message in (
        (samples, 0, f"num_samples must be at least 1, got {samples}"),
        (2.5, 0, "num_samples must be an integer, got 2.5"),
        (3.0, 0, "num_samples must be an integer, got 3.0"),
        (1, -1, "seed must be at least 0, got -1"),
        (3, 1.5, "seed must be an integer, got 1.5"),
    ):
        for check in (
            lambda: smoothness_certificate(M, 16.0, num_samples, seed=seed),
            lambda: gradient_dominance_certificate(M, 1.0, num_samples, seed=seed),
            lambda: saddle_location_check(M, num_samples, seed=seed),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check()


@pytest.mark.parametrize(
    "top, fro", [(1e100, "1.118034e\\+100"), (1e200, "1.118034e\\+200")], ids=["1e100", "1e200"]
)
def test_certificates_refuse_a_matrix_whose_margin_scale_overflows(top, fro):
    # at 1e200 the squares of the entries overflow, but ||M||_F does not
    M = np.diag([top, top / 2.0])
    for check in (
        lambda: gradient_dominance_certificate(M, 1.0, 3, 0),
        lambda: saddle_location_check(M, 3, 0),
    ):
        with pytest.raises(GdError, match=f"Frobenius norm {fro}$"):
            check()


def test_smoothness_certificate_passes():
    M = np.diag([4.0, 2.0])
    rep = smoothness_certificate(M, 16.0, 500, seed=0)
    assert rep.passed
    assert rep.samples == 500
    assert rep.witnesses == ()


def test_smoothness_boundary_pair_keeps_check_tight():
    # sample 0 is the antipodal pair +/- sqrt(cap) I; its Lipschitz ratio
    # exceeds max(cap, ||M||_2) / 2, so a vacuous sampling region would fail
    M = np.diag([4.0, 2.0])
    cap = 16.0
    n = 2
    U1 = math.sqrt(cap) * np.eye(n)
    U2 = -U1
    ratio = np.linalg.norm(gradient(U1, M) - gradient(U2, M)) / np.linalg.norm(U1 - U2)
    assert ratio >= max(cap, 4.0) / 2.0


def test_smoothness_certificate_loosened_constant_fails():
    M = np.diag([4.0, 2.0])
    rep = smoothness_certificate(M, 16.0, 100, seed=0, constant=1.0)
    assert not rep.passed
    assert rep.worst_margin < 0.0
    assert len(rep.witnesses) >= 1


def test_gradient_dominance_certificate_passes():
    M = np.diag([4.0, 2.0])
    rep = gradient_dominance_certificate(M, floor=0.01, num_samples=500, seed=0)
    assert rep.passed


def test_gradient_dominance_tight_at_scaled_identity():
    # at U = sqrt(floor) I the inequality is an equality for any M
    M = random_spd(SpdInstanceSpec(n=4, kappa=8.0, seed=3))
    floor = 0.09
    U = math.sqrt(floor) * np.eye(4)
    margin = np.linalg.norm(gradient(U, M)) ** 2 - 4.0 * floor * objective(U, M)
    assert abs(margin) <= 1e-9


def test_pointwise_dominance_needs_positive_definite_iterates():
    # for indefinite U the pointwise inequality is false: this U is a
    # stationary point with positive objective, hence the certificates
    # sample PD matrices only
    a = 0.5
    U = np.diag([1.0, -1.0])
    M = np.array([[1.0, -a], [-a, 1.0]])
    g = gradient(U, M)
    assert np.max(np.abs(g)) <= 1e-15
    assert objective(U, M) == pytest.approx(2.0 * a * a)


def test_saddle_location_check_passes():
    M = np.diag([4.0, 2.0])
    rep = saddle_location_check(M, 400, seed=0)
    assert rep.passed
    # sample 0 is the exact root, where the margin degenerates to zero
    assert rep.worst_margin >= -1e-12


def test_saddle_location_check_random_spd():
    M = random_spd(SpdInstanceSpec(n=6, kappa=20.0, seed=9))
    rep = saddle_location_check(M, 300, seed=4)
    assert rep.passed


def test_certificates_deterministic():
    M = np.diag([4.0, 2.0])
    a = smoothness_certificate(M, 16.0, 50, seed=7)
    b = smoothness_certificate(M, 16.0, 50, seed=7)
    assert a.worst_margin == b.worst_margin


# ---------------------------------------------------------------- corridor


def test_corridor_check_on_real_run():
    M = random_spd(SpdInstanceSpec(n=5, kappa=6.0, seed=2))
    cfg = GdConfig(c_step=1.0, tol=1e-9)
    from matsqrt.gd import initial_iterate

    U0 = initial_iterate(M, cfg)
    rate = rate_params(U0, M)
    _, trace = run(M, cfg)
    rep = corridor_check(trace, rate)
    assert rep.passed
    assert rep.samples == len(trace)


def test_corridor_check_flags_violation():
    M = np.diag([4.0, 1.0])
    U0 = math.sqrt(4.0) * np.eye(2)
    cfg = GdConfig(eta=0.02, init=U0, tol=1e-6)
    rate = rate_params(U0, M)
    _, trace = run(M, cfg)
    trace.sigma_min[3] = rate.corridor_low / 2.0  # doctor one record
    rep = corridor_check(trace, rate)
    assert not rep.passed
    assert any("step 3" in w for w in rep.witnesses)
