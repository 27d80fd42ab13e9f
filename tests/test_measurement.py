"""Tests for delay models, link measurements, and offset estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import truncnorm

from conftest import sem
from clocklab.clocks import ClockParams, RelParams, simulate_clock
from clocklab.measurement import (
    DelayModel,
    Measurement,
    draw_delay,
    measurement_epoch,
    noise_variance,
    offset_delay_estimate,
    predict_receipt,
    skew_measurement,
)

P10_1 = ClockParams(alpha=10.0, epsilon=1.0)
REL11 = RelParams(alpha=10.0, eps_i=1.0, eps_j=1.0)
# A constant delay adds nothing to the noise variance: only the floor is left.
CONSTANT = DelayModel("constant", mean=5e-3)
FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Delay models
# ---------------------------------------------------------------------------

@pytest.mark.scipy_floor
def test_constant_delay():
    m = DelayModel("constant", mean=3e-3)
    rng = np.random.default_rng(0)
    assert draw_delay(m, rng, size=1).tolist() == [3e-3]
    assert m.variance == 0.0
    assert m.bound == 3e-3


def test_uniform_delay_mean_and_range():
    # Full spread: delays uniform on (0, 2*mean], mean 500 grid steps.
    m = DelayModel("uniform", mean=500e-5, spread=500e-5)
    rng = np.random.default_rng(1)
    d = draw_delay(m, rng, size=1_000_000)
    assert abs(d.mean() - 5e-3) < 3 * sem(d)
    assert np.all(d > 0) and np.all(d <= m.bound)
    assert m.variance == pytest.approx((500e-5) ** 2 / 3.0, rel=1e-12)


def test_truncated_normal_delay():
    m = DelayModel("truncated-normal", mean=5e-3, spread=2e-3)
    rng = np.random.default_rng(2)
    d = draw_delay(m, rng, size=100_000)
    assert np.all(d > 0) and np.all(d <= m.bound)
    a, b = (0 - m.mean) / m.spread, (m.bound - m.mean) / m.spread
    assert abs(d.mean() - truncnorm.mean(a, b, loc=m.mean, scale=m.spread)) < 3 * sem(d)
    assert m.variance == pytest.approx(d.var(ddof=1), rel=0.05)


@pytest.mark.scipy_floor
@pytest.mark.parametrize("m, count", [
    (DelayModel("uniform", mean=5e-3, spread=5e-5), 2048),
    (DelayModel("truncated-normal", mean=5e-3, spread=3e-3), 1024),
    (DelayModel("constant", mean=5e-3), 512),
])
def test_delay_blocks_are_the_single_draws(m, count):
    # The simulator draws its delays in blocks of 256 and hands them out
    # in order; that must be the stream of one draw per packet.
    single, block = np.random.default_rng(8), np.random.default_rng(8)
    one_by_one = np.concatenate([draw_delay(m, single, size=1) for _ in range(count)])
    blocks = np.concatenate([draw_delay(m, block, size=256) for _ in range(count // 256)])
    assert one_by_one.tobytes() == blocks.tobytes()
    assert single.random() == block.random()


def test_delay_model_validation():
    with pytest.raises(ValueError):
        DelayModel("exponential", mean=1e-3)
    with pytest.raises(ValueError):
        DelayModel("uniform", mean=1e-3, spread=2e-3)
    with pytest.raises(ValueError):
        DelayModel("constant", mean=0.0)
    with pytest.raises(ValueError):
        DelayModel("truncated-normal", mean=1e-3, spread=0.0)


# ---------------------------------------------------------------------------
# Noise variance
# ---------------------------------------------------------------------------

@pytest.mark.scipy_floor
def test_noise_variance_floor_for_constant_delays():
    m = DelayModel("constant", mean=5e-3)
    assert noise_variance(4e-4, m, floor=1e-6) == 1e-6


def test_noise_variance_quarters_when_separation_doubles():
    m = DelayModel("uniform", mean=5e-3, spread=1e-4)
    v1 = noise_variance(4e-4, m, floor=0.0)
    v2 = noise_variance(8e-4, m, floor=0.0)
    assert v2 == pytest.approx(v1 / 4.0, rel=1e-12)


def test_noise_variance_matches_dominant_term():
    # Var log|1 + (d1 - d0)/delta_s| vs the delta-method prediction
    # 2 Var(d) / delta_s^2, in the small-spread regime where the
    # expansion is honest.
    m = DelayModel("uniform", mean=5e-3, spread=1e-4)
    delta_s = 40e-5
    rng = np.random.default_rng(3)
    d0 = draw_delay(m, rng, size=100_000)
    d1 = draw_delay(m, rng, size=100_000)
    emp = np.log(np.abs(1.0 + (d1 - d0) / delta_s)).var(ddof=1)
    pred = noise_variance(delta_s, m, floor=0.0)
    assert pred / emp < 2.0 and emp / pred < 2.0


@settings(max_examples=40, deadline=None)
@given(ds=st.floats(1e-5, 1e-2), factor=st.floats(1.1, 10.0))
def test_noise_variance_decreasing(ds, factor):
    m = DelayModel("uniform", mean=5e-3, spread=5e-4)
    assert noise_variance(ds * factor, m, FLOOR) < noise_variance(ds, m, FLOOR)


# ---------------------------------------------------------------------------
# Skew measurement
# ---------------------------------------------------------------------------

def test_skew_measurement_identical_clocks():
    meas = skew_measurement((1, 2), 1.0, 1.0, 1.4, 1.4, REL11, 1.4, CONSTANT, FLOOR)
    assert meas.y == 0.0
    assert meas.sigma2 == 1e-6
    assert meas.link == (1, 2)


@settings(max_examples=40, deadline=None)
@given(
    ratio=st.floats(0.5, 2.0),
    t_k=st.floats(0.0, 50.0),
    eps=st.floats(0.0, 5.0),
)
def test_skew_measurement_equal_eps_no_correction(ratio, t_k, eps):
    # Equal diffusion coefficients: the normalizer correction vanishes
    # for every epoch, so y is exactly the raw log-ratio.
    meas = skew_measurement((1, 2), 2.0, 3.0, 2.5, 3.0 + 0.5 * ratio,
                            RelParams(10.0, eps, eps), t_k, CONSTANT, FLOOR)
    assert meas.y == pytest.approx(math.log(ratio), abs=1e-12)


def test_skew_measurement_out_of_order_receipt():
    meas = skew_measurement((1, 2), 2.0, 3.0, 2.5, 2.9, REL11, 0.0, CONSTANT, FLOOR)
    assert meas.y == pytest.approx(math.log(0.1 / 0.5), abs=1e-12)


def test_skew_measurement_errors():
    with pytest.raises(ValueError, match="non-increasing send stamps"):
        skew_measurement((1, 2), 2.0, 3.0, 2.0, 3.1, REL11, 0.0, CONSTANT, FLOOR)
    with pytest.raises(ValueError, match="degenerate receive stamps"):
        skew_measurement((1, 2), 2.0, 3.0, 2.4, 3.0, REL11, 0.0, CONSTANT, FLOOR)


def _exchange_ys(pi, pj, n_exchanges, gap_steps, pair_steps, delay_steps,
                 start_step, dt, seeds):
    """Simulate two clocks and run repeated two-packet exchanges.

    Returns (y values, ground-truth relative states at the send epochs).
    Constant delays keep the delay noise out; what remains is the skew
    wander within each exchange window.
    """
    horizon = (start_step + n_exchanges * gap_steps + pair_steps + delay_steps + 1) * dt
    ti = simulate_clock(pi, horizon, dt, seed=seeds[0])
    tj = simulate_clock(pj, horizon, dt, seed=seeds[1])
    k0 = start_step + gap_steps * np.arange(n_exchanges)
    s0 = ti.displays[k0]
    s1 = ti.displays[k0 + pair_steps]
    r0 = tj.displays[k0 + delay_steps]
    r1 = tj.displays[k0 + pair_steps + delay_steps]
    x_ij = tj.states[k0] - ti.states[k0]
    rel = RelParams(pi.alpha, pi.epsilon, pj.epsilon)
    ys = np.empty(n_exchanges)
    for k in range(n_exchanges):
        ys[k] = skew_measurement((1, 2), s0[k], r0[k], s1[k], r1[k], rel, k0[k] * dt,
                                 CONSTANT, FLOOR).y
    return ys, x_ij


def test_skew_measurement_unbiased_equal_eps():
    # 2000 exchanges with 40-step send separation: the mean of
    # y - X_ij at the send epoch vanishes within 3 SE.
    ys, x_ij = _exchange_ys(P10_1, P10_1, n_exchanges=2000, gap_steps=5000,
                            pair_steps=40, delay_steps=5, start_step=0,
                            dt=1e-5, seeds=(101, 202))
    resid = ys - x_ij
    assert abs(resid.mean()) < 3 * sem(resid)


def test_skew_measurement_unbiased_unequal_eps():
    # Unequal diffusions make the normalizer correction material
    # (~0.05 here); a wrong correction sign would bias the residual by
    # ~0.1, two orders of magnitude beyond this gate.
    pi, pj = ClockParams(10.0, 0.5), ClockParams(10.0, 1.5)
    ys, x_ij = _exchange_ys(pi, pj, n_exchanges=2000, gap_steps=5000,
                            pair_steps=40, delay_steps=5, start_step=50_000,
                            dt=1e-5, seeds=(303, 404))
    resid = ys - x_ij
    assert abs(resid.mean()) < 3 * sem(resid)


def test_measurement_epoch_rule():
    assert measurement_epoch(0, 5.0, 6.1) == 5.0
    assert measurement_epoch(1, 5.0, 6.1) == 6.1


# ---------------------------------------------------------------------------
# Offset and delay estimation
# ---------------------------------------------------------------------------

def _roundtrip(a_i, b_i, a_j, b_j, d, t0, t1):
    """Stamps ``(s_i, r_ij, s_j, r_ji)`` of one roundtrip between clocks
    tau = a t + b, symmetric delay d."""
    s_i = a_i * t0 + b_i
    r_ij = a_j * (t0 + d) + b_j
    s_j = a_j * t1 + b_j
    r_ji = a_i * (t1 + d) + b_i
    return s_i, r_ij, s_j, r_ji


def test_offset_estimate_identical_clocks():
    rec = _roundtrip(1.0, 0.0, 1.0, 0.0, d=0.004, t0=2.0, t1=2.1)
    tau, d_ji, d_ij = offset_delay_estimate(*rec, 1.0, 1.0)
    assert tau == pytest.approx(0.0, abs=1e-15)
    assert d_ji == pytest.approx(0.004, abs=1e-15)
    assert d_ij == pytest.approx(0.004, abs=1e-15)


def test_offset_estimate_pure_offset():
    rec = _roundtrip(1.0, 0.2, 1.0, 0.9, d=0.004, t0=2.0, t1=2.1)
    tau, d_ji, d_ij = offset_delay_estimate(*rec, 1.0, 1.0)
    assert tau == pytest.approx(0.7, abs=1e-12)
    assert d_ji == pytest.approx(0.004, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.5, 2.0),
    b_i=st.floats(-1.0, 1.0),
    b_j=st.floats(-1.0, 1.0),
    d=st.floats(1e-4, 1e-2),
    t0=st.floats(0.0, 10.0),
    wait=st.floats(1e-3, 1.0),
)
def test_offset_estimate_exact_for_equal_skews(a, b_i, b_j, d, t0, wait):
    # Equal constant skews + symmetric constant delays + exact skew
    # estimates: the offset comes back exactly.
    rec = _roundtrip(a, b_i, a, b_j, d=d, t0=t0, t1=t0 + wait)
    tau, _, _ = offset_delay_estimate(*rec, 1.0, 1.0)
    assert tau == pytest.approx(b_j - b_i, abs=1e-10)


def test_offset_estimate_clamps_negative_delay():
    # An inconsistent stamp set that would imply a negative delay.
    tau, d_ji, d_ij = offset_delay_estimate(2.0, 1.9, 3.0, 2.9, 1.0, 1.0)
    assert d_ji == 0.0 and d_ij == 0.0
    assert tau == pytest.approx(3.0 - 2.9, abs=1e-15)


def test_offset_estimate_invalid_skew():
    rec = _roundtrip(1.0, 0.0, 1.0, 0.0, d=0.004, t0=2.0, t1=2.1)
    with pytest.raises(ValueError, match="invalid skew estimate"):
        offset_delay_estimate(*rec, 0.0, 1.0)
    with pytest.raises(ValueError, match="invalid skew estimate"):
        offset_delay_estimate(*rec, 1.0, -0.5)


# ---------------------------------------------------------------------------
# Receipt prediction
# ---------------------------------------------------------------------------

def test_predict_receipt_unit_skew():
    assert predict_receipt(1.0, 5.0, 1.25, 1.0) == pytest.approx(5.25, abs=1e-15)


def test_predict_receipt_zero_error_for_stable_link():
    # Equal constant delays and the exact average relative skew: the
    # next receipt is predicted perfectly.
    s0, r0 = 2.0, 7.1
    a_bar = 1.37
    s1, s2 = 2.5, 3.1
    r1 = r0 + a_bar * (s1 - s0)
    r2 = r0 + a_bar * (s2 - s0)
    a_hat = (r1 - r0) / (s1 - s0)
    assert predict_receipt(s1, r1, s2, a_hat) == pytest.approx(r2, abs=1e-12)


def test_predict_receipt_validation():
    with pytest.raises(ValueError):
        predict_receipt(1.0, 5.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="invalid skew estimate"):
        predict_receipt(1.0, 5.0, 1.5, 0.0)


# ---------------------------------------------------------------------------
# Record validation
# ---------------------------------------------------------------------------

def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement(link=(1, 2), y=float("nan"), sigma2=1.0)
    with pytest.raises(ValueError):
        Measurement(link=(1, 2), y=0.0, sigma2=0.0)
