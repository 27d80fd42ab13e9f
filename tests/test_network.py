"""Tests for the centralized and distributed network filters."""

import math

import numpy as np
import pytest

from clocklab.clocks import ClockParams, RelParams, skew_normalizer
from clocklab.measurement import Measurement
from clocklab.network import (
    initial_network_state,
    measurement_selector,
    net_predict,
    net_update_distributed,
    net_update_optimal,
    nodal_skew_estimate,
    relative_skew_readout,
)
from clocklab.pairwise import (
    PairwiseFilterState,
    initial_state,
    predict,
    relative_skew_estimate,
    update,
)

REF = ClockParams(alpha=10.0, epsilon=0.0)
P4 = (REF, ClockParams(10.0, 1.0), ClockParams(10.0, 0.5), ClockParams(10.0, 1.5))


def meas(link, y, sigma2):
    return Measurement(link=link, t_k=0.0, y=y, sigma2=sigma2)


def diag_state(diag, params=P4):
    st = initial_network_state(params)
    return st.__class__(
        x_hat=np.zeros(len(diag)), P=np.diag(np.asarray(diag, dtype=float)),
        t_last=0.0, params=st.params,
    )


# ------------------------------------------------------------ construction


def test_initial_state_shapes():
    st = initial_network_state(P4)
    assert st.n == 3
    assert st.x_hat.shape == (3,)
    assert st.P.shape == (3, 3)
    assert not st.x_hat.any() and not st.P.any()


def test_initial_state_validation():
    with pytest.raises(ValueError, match="alpha convention violated"):
        initial_network_state((REF, ClockParams(alpha=5.0, epsilon=1.0)))
    with pytest.raises(ValueError, match="reference clock"):
        initial_network_state((ClockParams(10.0, 1.0), ClockParams(10.0, 1.0)))
    with pytest.raises(ValueError, match="at least one node"):
        initial_network_state((REF,))


def test_measurement_selector():
    np.testing.assert_array_equal(measurement_selector((1, 2), 3), [-1.0, 1.0, 0.0])
    np.testing.assert_array_equal(measurement_selector((0, 2), 3), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(measurement_selector((3, 0), 3), [0.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="must differ"):
        measurement_selector((1, 1), 3)
    with pytest.raises(ValueError, match="outside"):
        measurement_selector((1, 4), 3)


# ---------------------------------------------------------------- predict


def test_net_predict_zero_dt_identity():
    st = initial_network_state(P4)
    assert net_predict(st, 0.0) is st


def test_net_predict_reaches_stationary_diag():
    st = net_predict(initial_network_state(P4), 100.0)
    want = np.diag([p.epsilon**2 / 20.0 for p in P4[1:]])
    np.testing.assert_allclose(st.P, want, rtol=1e-12, atol=0)
    assert st.t_last == 100.0


def test_net_predict_semigroup():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    st = diag_state([0.1, 0.2, 0.3]).__class__(
        x_hat=rng.normal(size=3), P=a @ a.T, t_last=0.0, params=P4
    )
    one = net_predict(st, 0.34)
    two = net_predict(net_predict(st, 0.17), 0.17)
    np.testing.assert_allclose(two.x_hat, one.x_hat, rtol=1e-13)
    np.testing.assert_allclose(two.P, one.P, rtol=1e-12, atol=1e-16)


def test_net_predict_rejects_negative_dt():
    with pytest.raises(ValueError, match="time went backwards"):
        net_predict(initial_network_state(P4), -0.1)


# ------------------------------------------------------------ optimal update


def test_optimal_reference_link_touches_one_row():
    st = diag_state([0.1, 0.2, 0.3])
    out = net_update_optimal(st, meas((0, 1), y=0.7, sigma2=0.05))
    assert out.x_hat[0] == pytest.approx(0.1 * 0.7 / 0.15, rel=1e-14)
    assert out.x_hat[1] == out.x_hat[2] == 0.0
    assert out.P[0, 0] == pytest.approx(0.1 - 0.01 / 0.15, rel=1e-14)
    np.testing.assert_array_equal(out.P[1:, 1:], st.P[1:, 1:])
    assert not out.P[0, 1:].any() and not out.P[1:, 0].any()


def test_optimal_internal_link_hand_expansion():
    st = diag_state([0.1, 0.2, 0.3])
    out = net_update_optimal(st, meas((1, 2), y=0.35, sigma2=0.05))
    c = 0.1 + 0.2 + 0.05
    assert out.P[0, 0] == pytest.approx(0.1 - 0.01 / c, rel=1e-14)
    assert out.P[1, 1] == pytest.approx(0.2 - 0.04 / c, rel=1e-14)
    assert out.P[0, 1] == pytest.approx(0.02 / c, rel=1e-14)
    assert out.P[2, 2] == 0.3
    assert not out.P[2, :2].any()
    np.testing.assert_allclose(
        out.x_hat, np.array([-0.1, 0.2, 0.0]) * (0.35 / c), rtol=1e-14
    )


def test_optimal_degenerate_covariance_error():
    st = diag_state([0.1, 0.2, 0.3])
    bad = st.__class__(x_hat=st.x_hat, P=-np.eye(3), t_last=0.0, params=P4)
    with pytest.raises(ValueError, match="covariance degenerate"):
        net_update_optimal(bad, meas((1, 2), y=0.0, sigma2=0.1))


def test_single_node_network_reduces_to_pairwise():
    rel = RelParams(alpha=10.0, eps_i=0.0, eps_j=1.0)
    net = initial_network_state((REF, ClockParams(10.0, 1.0)))
    pair = initial_state(rel)
    rng = np.random.default_rng(8)
    for _ in range(200):
        dt = rng.uniform(0.0, 0.05)
        y, s2 = rng.normal(), rng.uniform(1e-4, 1e-1)
        net = net_update_optimal(net_predict(net, dt), meas((0, 1), y, s2))
        pair = update(predict(pair, dt), Measurement(link=(0, 1), t_k=0.0, y=y, sigma2=s2))
        assert net.x_hat[0] == pytest.approx(pair.x_hat, rel=1e-12, abs=1e-15)
        assert net.P[0, 0] == pytest.approx(pair.P, rel=1e-12)


def test_distributed_equals_optimal_on_single_node_network():
    a = initial_network_state((REF, ClockParams(10.0, 1.0)))
    b = initial_network_state((REF, ClockParams(10.0, 1.0)))
    rng = np.random.default_rng(9)
    for _ in range(200):
        dt = rng.uniform(0.0, 0.05)
        y, s2 = rng.normal(), rng.uniform(1e-4, 1e-1)
        a = net_update_optimal(net_predict(a, dt), meas((0, 1), y, s2))
        b = net_update_distributed(net_predict(b, dt), meas((0, 1), y, s2))
        assert b.x_hat[0] == pytest.approx(a.x_hat[0], rel=1e-12, abs=1e-15)
        assert b.P[0, 0] == pytest.approx(a.P[0, 0], rel=1e-12)


# -------------------------------------------------------- distributed update


def test_distributed_huge_noise_is_a_noop():
    st = diag_state([0.1, 0.2, 0.3])
    out = net_update_distributed(st, meas((1, 2), y=5.0, sigma2=1e30))
    np.testing.assert_allclose(out.x_hat, st.x_hat, atol=1e-12)
    np.testing.assert_allclose(out.P, st.P, rtol=1e-12, atol=1e-15)


def test_distributed_diagonal_hand_expansion():
    st = diag_state([0.1, 0.2, 0.3])
    out = net_update_distributed(st, meas((1, 2), y=0.35, sigma2=0.05))
    a = 0.35
    assert out.P[0, 0] == pytest.approx(0.1 * (0.2 + 0.05) / a, rel=1e-13)
    assert out.P[1, 1] == pytest.approx(0.2 * (0.1 + 0.05) / a, rel=1e-13)
    assert out.P[2, 2] == 0.3
    np.testing.assert_allclose(
        out.x_hat[:2], np.array([-0.1, 0.2]) * (0.35 / a), rtol=1e-13
    )
    assert out.x_hat[2] == 0.0


def test_distributed_locality_with_general_covariance():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3))
    st = initial_network_state(P4).__class__(
        x_hat=rng.normal(size=3), P=a @ a.T + 0.5 * np.eye(3),
        t_last=0.0, params=P4,
    )
    out = net_update_distributed(st, meas((1, 2), y=0.4, sigma2=0.01))
    assert out.x_hat[2] == st.x_hat[2]
    assert out.P[2, 2] == pytest.approx(st.P[2, 2], rel=1e-14)
    # endpoint diagonals never increase
    assert out.P[0, 0] <= st.P[0, 0] + 1e-15
    assert out.P[1, 1] <= st.P[1, 1] + 1e-15


def dense_joseph_update(st, m):
    """The distributed update in its dense textbook form."""
    sel = measurement_selector(m.link, st.n)
    pm = st.P @ sel
    c_k = sel @ pm + m.sigma2
    gain = np.where(sel != 0.0, pm / c_k, 0.0)
    imk = np.eye(st.n) - np.outer(gain, sel)
    x = st.x_hat + gain * (m.y - sel @ st.x_hat)
    return x, imk @ st.P @ imk.T + m.sigma2 * np.outer(gain, gain)


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_distributed_matches_dense_joseph_form(n):
    rng = np.random.default_rng(400 + n)
    params = (REF,) + tuple(ClockParams(10.0, e) for e in rng.uniform(0.5, 1.5, n))
    links = [(0, 1), (n, 0)]  # touching the reference
    if n > 1:
        links += [(1, 2), (n, 1)] + [tuple(int(k) for k in rng.choice(
            np.arange(1, n + 1), 2, replace=False)) for _ in range(6)]
    for link in links:
        a = rng.normal(size=(n, n))
        st = initial_network_state(params).__class__(
            x_hat=rng.normal(size=n), P=a @ a.T + 0.1 * np.eye(n),
            t_last=0.0, params=params,
        )
        m = meas(link, y=rng.normal(), sigma2=rng.uniform(1e-4, 1.0))
        out = net_update_distributed(st, m)
        x_ref, p_ref = dense_joseph_update(st, m)
        scale = np.abs(p_ref).max()
        np.testing.assert_allclose(out.x_hat, x_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.P, p_ref, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_array_equal(out.P, out.P.T)


def test_two_hop_covariance_fill_in():
    # Path 0-1-2-3: a measurement on (1,2) leaves P_13 untouched, the
    # follow-up on (2,3) propagates correlation to the (1,3) entry.
    st = net_predict(initial_network_state(P4), 0.05)
    st = net_update_optimal(st, meas((1, 2), y=0.1, sigma2=1e-3))
    assert st.P[0, 2] == 0.0
    st = net_update_optimal(st, meas((2, 3), y=-0.1, sigma2=1e-3))
    assert abs(st.P[0, 2]) > 1e-12


def test_side_by_side_dominance_and_psd():
    # Same measurement stream through both filters: the optimal filter's
    # total variance is never above the distributed one's, both stay
    # symmetric PSD, and the distributed endpoint diagonals shrink.
    params = (REF,) + tuple(ClockParams(10.0, e) for e in (1.0, 0.7, 1.3, 0.9, 1.1))
    opt = initial_network_state(params)
    dist = initial_network_state(params)
    links = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (2, 5)]
    rng = np.random.default_rng(77)
    for _ in range(300):
        dt = rng.uniform(0.0, 0.01)
        link = links[rng.integers(len(links))]
        y, s2 = rng.normal(scale=0.3), rng.uniform(1e-4, 1e-2)
        opt = net_predict(opt, dt)
        dist = net_predict(dist, dt)
        tr_before = np.trace(opt.P)
        i, j = link
        d_diag_before = [dist.P[k - 1, k - 1] for k in (i, j) if k != 0]
        opt = net_update_optimal(opt, meas(link, y, s2))
        dist = net_update_distributed(dist, meas(link, y, s2))
        d_diag_after = [dist.P[k - 1, k - 1] for k in (i, j) if k != 0]
        assert np.trace(opt.P) <= tr_before + 1e-15
        assert np.trace(opt.P) <= np.trace(dist.P) + 1e-12
        for before, after in zip(d_diag_before, d_diag_after):
            assert after <= before + 1e-15
        for st in (opt, dist):
            np.testing.assert_array_equal(st.P, st.P.T)
            assert np.linalg.eigvalsh(st.P).min() >= -1e-9


# ----------------------------------------------------------------- readouts


def test_nodal_skew_trivial_and_reference():
    st = initial_network_state(P4)
    assert nodal_skew_estimate(st, 1, 0.0) == pytest.approx(1.0)
    assert nodal_skew_estimate(st, 0, 123.4) == 1.0
    with pytest.raises(ValueError, match="outside"):
        nodal_skew_estimate(st, 7, 0.0)


def test_nodal_skew_closed_form():
    st = diag_state([0.01, 0.0, 0.0])
    st = st.__class__(
        x_hat=np.array([0.05, 0.0, 0.0]), P=st.P, t_last=0.3, params=P4
    )
    want = skew_normalizer(0.3, P4[1]) * math.exp(0.05 + 0.005)
    assert nodal_skew_estimate(st, 1, 0.3) == pytest.approx(want, rel=1e-14)


def test_relative_readout_degenerate_self_link():
    st = diag_state([0.1, 0.2, 0.3])
    assert relative_skew_readout(st, 2, 2, 1.0) == pytest.approx((1.0, 1.0, 1.0))


def test_relative_readout_matches_pairwise_on_two_nodes():
    rel = RelParams(alpha=10.0, eps_i=0.0, eps_j=1.0)
    net = initial_network_state((REF, ClockParams(10.0, 1.0)))
    net = net.__class__(
        x_hat=np.array([0.1]), P=np.array([[0.02]]), t_last=0.0, params=net.params
    )
    pair = PairwiseFilterState(x_hat=0.1, P=0.02, t_last=0.0, rel=rel)
    for t in (0.0, 0.05, 2.0):
        a_ij, a_ji, sym = relative_skew_readout(net, 0, 1, t)
        pa_ij, pa_ji = relative_skew_estimate(pair, t)
        assert a_ij == pytest.approx(pa_ij, rel=1e-14)
        assert a_ji == pytest.approx(pa_ji, rel=1e-14)
        assert sym == pytest.approx(math.sqrt(a_ij / a_ji), rel=1e-14)


def test_relative_readout_identities():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3))
    st = initial_network_state(P4).__class__(
        x_hat=rng.normal(size=3, scale=0.2), P=0.01 * (a @ a.T),
        t_last=0.0, params=P4,
    )
    for (i, j) in [(1, 2), (0, 3), (2, 3), (3, 1)]:
        a_ij, a_ji, sym_ij = relative_skew_readout(st, i, j, 0.7)
        _, _, sym_ji = relative_skew_readout(st, j, i, 0.7)
        pii = 0.0 if i == 0 else st.P[i - 1, i - 1]
        pjj = st.P[j - 1, j - 1]
        pij = 0.0 if i == 0 else st.P[i - 1, j - 1]
        v = pii + pjj - 2 * pij
        assert a_ij * a_ji == pytest.approx(math.exp(v), rel=1e-12)
        assert a_ij * a_ji >= 1.0 - 1e-12
        assert sym_ij * sym_ji == pytest.approx(1.0, rel=1e-12)
