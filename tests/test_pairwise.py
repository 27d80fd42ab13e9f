"""Tests for the per-link relative-skew Kalman filter."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clocklab.clocks import RelParams
from clocklab.measurement import Measurement
from clocklab.pairwise import (
    PairwiseFilterState,
    SubOptConfig,
    initial_state,
    kalman_gain,
    predict,
    relative_skew_estimate,
    suboptimal_predict,
    suboptimal_update,
    update,
    variance_upper_bound,
)

REL = RelParams(alpha=10.0, eps_i=1.0, eps_j=1.0)  # eps_ij = sqrt(2), ceiling 0.1
CEILING = REL.eps_ij**2 / (2 * REL.alpha)


def meas(y, sigma2, t_k=0.0):
    return Measurement(link=(0, 1), t_k=t_k, y=y, sigma2=sigma2)


# ---------------------------------------------------------------- predict


def test_initial_state():
    st0 = initial_state(REL)
    assert st0.x_hat == 0.0
    assert st0.P == 0.0
    assert st0.t_last == 0.0
    assert st0.rel is REL


def test_predict_zero_dt_is_identity():
    st0 = PairwiseFilterState(x_hat=0.3, P=0.02, t_last=1.5, rel=REL)
    assert predict(st0, 0.0) is st0


def test_predict_closed_form():
    st0 = PairwiseFilterState(x_hat=1.0, P=0.0, t_last=0.0, rel=REL)
    st1 = predict(st0, 0.1)
    assert st1.x_hat == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert st1.P == pytest.approx(0.08646647167633874, rel=1e-13)
    assert st1.t_last == pytest.approx(0.1)


def test_predict_rejects_negative_dt():
    with pytest.raises(ValueError, match="time went backwards"):
        predict(initial_state(REL), -1e-9)


def test_predict_variance_climbs_to_ceiling_from_below():
    st0 = initial_state(REL)
    ps = []
    for _ in range(80):
        st0 = predict(st0, 0.05)
        ps.append(st0.P)
    ps = np.array(ps)
    assert np.all(np.diff(ps[:15]) > 0)  # strictly climbing until float saturation
    assert np.all(np.diff(ps) >= 0)
    assert np.all(ps < CEILING + 1e-15)
    assert ps[-1] == pytest.approx(CEILING, rel=1e-12)


@given(
    dt1=st.floats(min_value=0.0, max_value=0.5),
    dt2=st.floats(min_value=0.0, max_value=0.5),
    x0=st.floats(min_value=-2.0, max_value=2.0),
    p0=st.floats(min_value=0.0, max_value=0.1),
)
@settings(max_examples=50, deadline=None)
def test_predict_composes_as_semigroup(dt1, dt2, x0, p0):
    st0 = PairwiseFilterState(x_hat=x0, P=p0, t_last=0.0, rel=REL)
    direct = predict(st0, dt1 + dt2)
    staged = predict(predict(st0, dt1), dt2)
    assert staged.x_hat == pytest.approx(direct.x_hat, abs=1e-14)
    assert staged.P == pytest.approx(direct.P, abs=1e-14)


# ----------------------------------------------------------------- update


def test_update_with_huge_noise_is_a_noop():
    st0 = PairwiseFilterState(x_hat=0.4, P=0.05, t_last=0.0, rel=REL)
    st1 = update(st0, meas(y=5.0, sigma2=1e30))
    assert st1.x_hat == pytest.approx(0.4, abs=1e-12)
    assert st1.P == pytest.approx(0.05, rel=1e-12)


def test_update_equal_prior_and_noise_halves():
    st0 = PairwiseFilterState(x_hat=0.0, P=0.01, t_last=0.0, rel=REL)
    st1 = update(st0, meas(y=1.0, sigma2=0.01))
    assert st1.x_hat == pytest.approx(0.5)
    assert st1.P == pytest.approx(0.005)
    assert kalman_gain(st0.P, 0.01) == pytest.approx(0.5)


@given(
    p0=st.floats(min_value=1e-8, max_value=0.1),
    s2=st.floats(min_value=1e-6, max_value=1.0),
    y=st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=100, deadline=None)
def test_update_strictly_shrinks_variance(p0, s2, y):
    st0 = PairwiseFilterState(x_hat=0.1, P=p0, t_last=0.0, rel=REL)
    st1 = update(st0, meas(y=y, sigma2=s2))
    assert 0.0 < st1.P < p0
    assert 0.0 < kalman_gain(p0, s2) < 1.0


def test_update_then_predict_never_exceeds_ceiling():
    rng = np.random.default_rng(7)
    st0 = initial_state(REL)
    for _ in range(500):
        st0 = predict(st0, rng.uniform(0.0, 0.3))
        assert st0.P <= CEILING + 1e-15
        st0 = update(st0, meas(y=rng.normal(), sigma2=rng.uniform(1e-4, 1e-1)))
        assert st0.P <= CEILING + 1e-15


def test_sign_flipped_measurements_negate_the_estimate():
    # Mirror-image measurement streams must give mirror-image estimates
    # and identical variances.
    rng = np.random.default_rng(42)
    sa = initial_state(REL)
    sb = initial_state(REL)
    for _ in range(300):
        dt = rng.uniform(0.0, 0.1)
        y = rng.normal(scale=0.5)
        s2 = rng.uniform(1e-4, 1e-1)
        sa = update(predict(sa, dt), meas(y=y, sigma2=s2))
        sb = update(predict(sb, dt), meas(y=-y, sigma2=s2))
        assert abs(sa.x_hat + sb.x_hat) <= 1e-12
        assert sa.P == sb.P


# ------------------------------------------------- relative skew readout


def test_relative_skew_estimate_fresh_state_is_unity():
    a_ij, a_ji = relative_skew_estimate(initial_state(REL), 0.0)
    assert a_ij == pytest.approx(1.0)
    assert a_ji == pytest.approx(1.0)


def test_relative_skew_estimate_closed_form():
    rel = RelParams(alpha=10.0, eps_i=0.5, eps_j=1.5)
    st0 = PairwiseFilterState(x_hat=0.2, P=0.03, t_last=0.1, rel=rel)
    a_ij, a_ji = relative_skew_estimate(st0, 0.1)
    c = rel.c_ij(0.1)
    assert a_ij == pytest.approx(c * math.exp(0.2 + 0.015), rel=1e-14)
    assert a_ji == pytest.approx(math.exp(-0.2 + 0.015) / c, rel=1e-14)


@given(
    x=st.floats(min_value=-1.0, max_value=1.0),
    p=st.floats(min_value=0.0, max_value=0.2),
    t=st.floats(min_value=0.0, max_value=10.0),
    ei=st.floats(min_value=0.0, max_value=3.0),
    ej=st.floats(min_value=0.1, max_value=3.0),
)
@settings(max_examples=80, deadline=None)
def test_relative_skew_estimates_multiply_to_exp_P(x, p, t, ei, ej):
    # The two directed estimates always multiply to e^P: the
    # deterministic normalizers are reciprocal for any noise split.
    rel = RelParams(alpha=10.0, eps_i=ei, eps_j=ej)
    st0 = PairwiseFilterState(x_hat=x, P=p, t_last=t, rel=rel)
    a_ij, a_ji = relative_skew_estimate(st0, t)
    assert a_ij * a_ji == pytest.approx(math.exp(p), rel=1e-12)


# ------------------------------------------------------ variance bound


def test_variance_bound_frozen_value():
    assert variance_upper_bound(0.002, 1e-2, REL) == pytest.approx(
        0.008270159961040142, rel=1e-12
    )


def test_variance_bound_vanishes_with_continuous_observation():
    assert variance_upper_bound(1e-12, 1e-2, REL) < 1e-6


def test_variance_bound_approaches_prior_ceiling_with_useless_noise():
    assert variance_upper_bound(0.002, 1e12, REL) == pytest.approx(CEILING, rel=1e-4)
    assert variance_upper_bound(0.002, 1e12, REL) <= CEILING * (1 + 1e-4)


def test_variance_bound_monotone_in_gap_and_noise():
    gaps = np.geomspace(1e-4, 1.0, 20)
    vals = [variance_upper_bound(g, 1e-2, REL) for g in gaps]
    assert np.all(np.diff(vals) > 0)
    noises = np.geomspace(1e-6, 1e2, 20)
    vals = [variance_upper_bound(0.01, s, REL) for s in noises]
    assert np.all(np.diff(vals) > 0)


def test_variance_bound_validation():
    with pytest.raises(ValueError, match="gap must be positive"):
        variance_upper_bound(0.0, 1e-2, REL)
    with pytest.raises(ValueError, match="noise variance must be positive"):
        variance_upper_bound(0.002, 0.0, REL)


def test_filter_variance_settles_below_bound():
    # Regular measurements every 0.002 with noise 1e-2: the long-run
    # variance must stay under the guaranteed ceiling for those caps.
    bound = variance_upper_bound(0.002, 1e-2, REL)
    st0 = initial_state(REL)
    for _ in range(5000):
        st0 = update(predict(st0, 0.002), meas(y=0.0, sigma2=1e-2))
    assert st0.P == pytest.approx(0.004526594172506255, rel=1e-9)
    assert st0.P <= bound

    # Irregular gaps and noises below the caps keep it under the bound too.
    rng = np.random.default_rng(3)
    st0 = initial_state(REL)
    worst = 0.0
    for k in range(5000):
        st0 = predict(st0, rng.uniform(1e-4, 0.002))
        st0 = update(st0, meas(y=0.0, sigma2=rng.uniform(2e-3, 1e-2)))
        if k > 100:
            worst = max(worst, st0.P)
    assert worst <= bound + 1e-15


def test_two_sigma_coverage_over_many_links():
    # Drive 200 independent links with synthetic truth and well-modeled
    # noise; the 2-sigma band from the reported variance must cover the
    # true state at least 90% of the time (nominal ~95%).
    rng = np.random.default_rng(20260822)
    n_links, n_epochs, gap, s2 = 200, 400, 0.002, 1e-2
    decay = math.exp(-REL.alpha * gap)
    step_sd = math.sqrt(CEILING * (1.0 - decay**2))

    x_true = np.zeros((n_epochs + 1, n_links))
    for k in range(n_epochs):
        x_true[k + 1] = decay * x_true[k] + step_sd * rng.standard_normal(n_links)
    ys = x_true[1:] + math.sqrt(s2) * rng.standard_normal((n_epochs, n_links))

    hits = total = 0
    for link in range(n_links):
        fs = initial_state(REL)
        for k in range(n_epochs):
            fs = update(predict(fs, gap), meas(y=ys[k, link], sigma2=s2))
            if k >= 50:
                hits += abs(fs.x_hat - x_true[k + 1, link]) <= 2.0 * math.sqrt(fs.P)
                total += 1
    assert hits / total >= 0.90


# ------------------------------------------------------ suboptimal variant


def test_suboptimal_config_validation():
    with pytest.raises(ValueError, match="unknown f_mode"):
        SubOptConfig(f_mode="oracle")
    with pytest.raises(ValueError, match="gain_floor"):
        SubOptConfig(gain_floor=1.5)


def test_suboptimal_predict_zero_dtau_is_identity():
    st0 = PairwiseFilterState(x_hat=0.3, P=0.02, t_last=1.0, rel=REL)
    assert suboptimal_predict(st0, 0.0, SubOptConfig()) is st0
    with pytest.raises(ValueError, match="time went backwards"):
        suboptimal_predict(st0, -0.1, SubOptConfig())


def test_suboptimal_unity_mode_matches_predict():
    st0 = PairwiseFilterState(x_hat=0.3, P=0.02, t_last=1.0, rel=REL)
    a = suboptimal_predict(st0, 0.37, SubOptConfig(f_mode="unity"))
    b = predict(st0, 0.37)
    assert a == b


def test_suboptimal_conditional_mean_rescales_elapsed_time():
    rel = RelParams(alpha=10.0, eps_i=0.5, eps_j=1.5)
    st0 = PairwiseFilterState(x_hat=0.5, P=0.02, t_last=0.0, rel=rel)
    f = rel.c_ij_inf * math.exp(0.5 + 0.01)
    a = suboptimal_predict(st0, 0.3, SubOptConfig(f_mode="conditional-mean"))
    b = predict(st0, 0.3 / f)
    assert a.x_hat == pytest.approx(b.x_hat, rel=1e-14)
    assert a.P == pytest.approx(b.P, rel=1e-14)


def test_suboptimal_update_caps_the_gain():
    st0 = PairwiseFilterState(x_hat=0.0, P=1.0, t_last=0.0, rel=REL)
    cfg = SubOptConfig(gain_floor=0.9)
    st1 = suboptimal_update(st0, meas(y=1.0, sigma2=1e-8), cfg)
    assert st1.x_hat == pytest.approx(0.9)  # raw gain would be ~1
    uncapped = suboptimal_update(st0, meas(y=1.0, sigma2=1.0), cfg)
    assert uncapped.x_hat == pytest.approx(0.5)  # raw gain 0.5 passes through


def test_suboptimal_estimate_stays_bounded_over_a_million_steps():
    # The applied gain lies in [0, gain_floor], so every update is a
    # convex-ish combination: |x| can never exceed the largest |y| seen.
    rng = np.random.default_rng(11)
    n = 500_000  # predict+update pairs -> 1e6 filter steps
    d_taus = rng.uniform(0.0, 0.01, n)
    ys = rng.uniform(-3.0, 3.0, n)
    s2s = rng.uniform(1e-4, 1e-1, n)
    cfg = SubOptConfig(f_mode="unity", gain_floor=0.99)
    fs = initial_state(REL)
    worst = 0.0
    for k in range(n):
        fs = suboptimal_predict(fs, d_taus[k], cfg)
        fs = suboptimal_update(fs, meas(y=ys[k], sigma2=s2s[k]), cfg)
        if abs(fs.x_hat) > worst:
            worst = abs(fs.x_hat)
    assert worst <= 3.0 + 1e-12
    assert 0.0 < fs.P <= CEILING + 1e-15


def test_suboptimal_tracks_truth_on_a_simulated_link():
    # Reference sender, dr, receiver with eps=1: run the local-time
    # filter on receiver display gaps and check its error is comparable
    # to the reference-time optimal filter's.
    from clocklab.clocks import ClockParams, simulate_clock

    alpha, horizon, gap = 10.0, 20.0, 0.002
    dt = 1e-4
    sub = int(round(gap / dt))
    traj = simulate_clock(ClockParams(alpha=alpha, epsilon=1.0), horizon, dt, seed=99)
    idx = np.arange(0, len(traj.states), sub)
    x = traj.states[idx]
    tau = traj.displays[idx]
    rng = np.random.default_rng(5)
    s2 = 2.5e-3
    ys = x[1:] + math.sqrt(s2) * rng.standard_normal(len(x) - 1)

    rel = RelParams(alpha=alpha, eps_i=0.0, eps_j=1.0)
    cfg = SubOptConfig(f_mode="unity")
    f_opt = initial_state(rel)
    f_sub = initial_state(rel)
    err_opt = []
    err_sub = []
    for k in range(len(ys)):
        f_opt = update(predict(f_opt, gap), meas(y=ys[k], sigma2=s2))
        d_tau = tau[k + 1] - tau[k]
        f_sub = suboptimal_predict(f_sub, d_tau, cfg)
        f_sub = suboptimal_update(f_sub, meas(y=ys[k], sigma2=s2), cfg)
        err_opt.append(f_opt.x_hat - x[k + 1])
        err_sub.append(f_sub.x_hat - x[k + 1])
    half = len(ys) // 2
    mse_opt = float(np.mean(np.square(err_opt[half:])))
    mse_sub = float(np.mean(np.square(err_sub[half:])))
    assert mse_sub <= 2.0 * mse_opt
