"""Tests for the centralized and distributed network filters."""

import math

import numpy as np
import pytest

from clocklab.clocks import ClockParams, RelParams, skew_normalizer
from clocklab.measurement import Measurement
from clocklab.network import (
    initial_network_state,
    link_moments,
    measurement_selector,
    net_predict,
    net_predict_rows,
    net_update_distributed,
    net_update_optimal,
    nodal_skew_estimate,
    relative_skew_readout,
)
from clocklab.pairwise import (
    initial_state,
    predict,
    relative_skew_estimate,
    update,
)

REF = ClockParams(alpha=10.0, epsilon=0.0)
P4 = (REF, ClockParams(10.0, 1.0), ClockParams(10.0, 0.5), ClockParams(10.0, 1.5))


def meas(link, y, sigma2):
    return Measurement(link=link, y=y, sigma2=sigma2)


def diag_state(diag, params=P4):
    st = initial_network_state(params)
    return st.__class__(
        x_hat=np.zeros(len(diag)), P=np.diag(np.asarray(diag, dtype=float)),
        params=st.params,
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


def test_net_predict_semigroup():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    st = diag_state([0.1, 0.2, 0.3]).__class__(
        x_hat=rng.normal(size=3), P=a @ a.T, params=P4
    )
    one = net_predict(st, 0.34)
    two = net_predict(net_predict(st, 0.17), 0.17)
    np.testing.assert_allclose(two.x_hat, one.x_hat, rtol=1e-13)
    np.testing.assert_allclose(two.P, one.P, rtol=1e-12, atol=1e-16)


def test_net_predict_is_net_predict_rows_over_every_row():
    rng = np.random.default_rng(3)
    for n in (1, 2, 9, 50):
        params = (REF,) + tuple(ClockParams(10.0, e) for e in rng.uniform(0.0, 2.0, n))
        a = rng.normal(size=(n, n))
        st = initial_network_state(params).__class__(
            x_hat=rng.normal(size=n), P=a @ a.T, params=params)
        for dt in (1e-4, 0.013, 0.7, 5.0):
            want = net_predict_rows(st, dict.fromkeys(range(1, n + 1), dt))
            got = net_predict(st, dt)
            for w, g in ((want.x_hat, got.x_hat), (want.P, got.P)):
                assert list(map(float.hex, g.ravel())) == list(map(float.hex, w.ravel())), (n, dt)


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
    bad = st.__class__(x_hat=st.x_hat, P=-np.eye(3), params=P4)
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
        pair = update(predict(pair, dt), Measurement(link=(0, 1), y=y, sigma2=s2))
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
        params=P4,
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
            params=params,
        )
        m = meas(link, y=rng.normal(), sigma2=rng.uniform(1e-4, 1.0))
        out = net_update_distributed(st, m)
        x_ref, p_ref = dense_joseph_update(st, m)
        scale = np.abs(p_ref).max()
        np.testing.assert_allclose(out.x_hat, x_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out.P, p_ref, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_array_equal(out.P, out.P.T)


def random_state(rng, params):
    """A state of ``params`` with a random mean and a random symmetric
    positive-definite covariance."""
    n = len(params) - 1
    a = rng.normal(size=(n, n))
    b = a @ a.T + 0.1 * np.eye(n)
    return initial_network_state(params).__class__(
        x_hat=rng.normal(size=n, scale=0.2), P=0.5 * (b + b.T), params=params)


@pytest.mark.parametrize("n", [1, 2, 9, 60])
def test_in_place_operations_match_the_copying_calls(n):
    # Three chains over one random sequence of predicts and updates: the
    # copying calls, every result written into the input itself, and
    # every result written into a spare state.  All agree bit for bit.
    rng = np.random.default_rng(900 + n)
    params = (REF,) + tuple(ClockParams(10.0, e) for e in rng.uniform(0.5, 1.5, n))
    fresh = random_state(rng, params)
    kept = fresh.__class__(x_hat=fresh.x_hat.copy(), P=fresh.P.copy(), params=params)
    spare = initial_network_state(params)
    for _ in range(120):
        if rng.uniform() < 0.5:
            nodes = rng.choice(np.arange(1, n + 1), size=min(n, int(rng.integers(1, 4))),
                               replace=False)
            elapsed = {int(k): float(rng.uniform(0.0, 0.05)) for k in nodes}
            assert net_predict_rows(kept, elapsed, out=kept) is kept
            assert net_predict_rows(fresh, elapsed, out=spare) is spare
            fresh = net_predict_rows(fresh, elapsed)
        else:
            i, j = (int(k) for k in rng.choice(n + 1, size=2, replace=False))
            m = meas((i, j), y=rng.normal(scale=0.3), sigma2=rng.uniform(1e-4, 1e-2))
            assert net_update_distributed(kept, m, out=kept) is kept
            assert net_update_distributed(fresh, m, out=spare) is spare
            fresh = net_update_distributed(fresh, m)
        for st in (kept, spare):
            assert [v.hex() for v in st.x_hat] == [v.hex() for v in fresh.x_hat]
            assert [v.hex() for v in st.P.ravel()] == [v.hex() for v in fresh.P.ravel()]


def test_calls_without_a_target_leave_their_input_untouched():
    st = random_state(np.random.default_rng(31), P4)
    x0, p0 = st.x_hat.copy(), st.P.copy()
    for out in (net_predict_rows(st, {1: 0.03, 3: 0.01}),
                net_update_distributed(st, meas((1, 2), y=0.4, sigma2=0.01)),
                net_update_distributed(st, meas((3, 0), y=-0.2, sigma2=0.02))):
        assert not np.shares_memory(out.P, st.P)
        assert not np.shares_memory(out.x_hat, st.x_hat)
        assert out.P.tobytes() != p0.tobytes()
    assert st.x_hat.tobytes() == x0.tobytes()
    assert st.P.tobytes() == p0.tobytes()


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


def readout(st, i, j, t):
    """:func:`relative_skew_readout` of link (i, j) of ``st``, not advanced."""
    rel = RelParams(st.alpha, st.params[i].epsilon, st.params[j].epsilon)
    return relative_skew_readout(rel, *link_moments(st, i, j, {}), t)


def test_link_moments_match_net_predict_rows():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(3, 3))
    b = a @ a.T + 0.1 * np.eye(3)
    st = initial_network_state(P4).__class__(
        x_hat=rng.normal(size=3, scale=0.2), P=0.5 * (b + b.T), params=P4,
    )
    assert np.count_nonzero(st.P) == 9
    for elapsed in ({}, {1: 0.03}, {3: 0.01}, {1: 0.03, 2: 0.05}, {1: 0.02, 2: 0.0, 3: 0.04}):
        full = net_predict_rows(st, elapsed)
        x = np.concatenate(([0.0], full.x_hat))
        p = np.zeros((4, 4))
        p[1:, 1:] = full.P
        for i in range(4):
            for j in range(4):
                mean, var = link_moments(st, i, j, elapsed)
                assert mean.hex() == float(x[j] - x[i]).hex(), (elapsed, i, j)
                assert var.hex() == float(p[i, i] + p[j, j] - 2.0 * p[i, j]).hex(), (elapsed, i, j)
    for link in ((0, 4), (4, 1), (-1, 2)):
        with pytest.raises(ValueError, match="outside 0..3"):
            link_moments(st, *link, {})


def test_elapsed_keys_are_nodes_one_to_n():
    # node m sits in row m - 1: a key of 0 must not reach row -1
    st = initial_network_state(P4)
    for key in (0, st.n + 1):
        with pytest.raises(ValueError, match=f"node {key}, outside 1..3"):
            net_predict_rows(st, {key: 0.01})
        with pytest.raises(ValueError, match=f"node {key}, outside 1..3"):
            link_moments(st, 1, 2, {key: 0.01})
        with pytest.raises(ValueError, match=f"node {key}, outside 1..3"):
            link_moments(st, 0, 3, {3: 0.01, key: 0.01})


def test_nodal_skew_trivial_and_reference():
    st = initial_network_state(P4)
    assert nodal_skew_estimate(P4[1], *link_moments(st, 0, 1, {}), 0.0) == pytest.approx(1.0)
    assert nodal_skew_estimate(REF, *link_moments(st, 0, 0, {}), 123.4) == 1.0
    with pytest.raises(ValueError, match="outside"):
        link_moments(st, 0, 7, {})


def test_nodal_skew_closed_form():
    st = diag_state([0.01, 0.0, 0.0])
    st = st.__class__(
        x_hat=np.array([0.05, 0.0, 0.0]), P=st.P, params=P4
    )
    want = skew_normalizer(0.3, P4[1]) * math.exp(0.05 + 0.005)
    assert nodal_skew_estimate(P4[1], *link_moments(st, 0, 1, {}), 0.3) == pytest.approx(
        want, rel=1e-14)


def test_relative_readout_degenerate_self_link():
    st = diag_state([0.1, 0.2, 0.3])
    assert readout(st, 2, 2, 1.0) == pytest.approx((1.0, 1.0, 1.0))


def test_relative_readout_matches_pairwise_on_two_nodes():
    rel = RelParams(alpha=10.0, eps_i=0.0, eps_j=1.0)
    net = initial_network_state((REF, ClockParams(10.0, 1.0)))
    net = net.__class__(
        x_hat=np.array([0.1]), P=np.array([[0.02]]), params=net.params
    )
    for t in (0.0, 0.05, 2.0):
        a_ij, a_ji, sym = readout(net, 0, 1, t)
        pa_ij, pa_ji = relative_skew_estimate(rel, 0.1, 0.02, t)
        assert a_ij == pytest.approx(pa_ij, rel=1e-14)
        assert a_ji == pytest.approx(pa_ji, rel=1e-14)
        assert sym == pytest.approx(math.sqrt(a_ij / a_ji), rel=1e-14)


def test_relative_readout_identities():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3))
    st = initial_network_state(P4).__class__(
        x_hat=rng.normal(size=3, scale=0.2), P=0.01 * (a @ a.T),
        params=P4,
    )
    for (i, j) in [(1, 2), (0, 3), (2, 3), (3, 1)]:
        a_ij, a_ji, sym_ij = readout(st, i, j, 0.7)
        _, _, sym_ji = readout(st, j, i, 0.7)
        pii = 0.0 if i == 0 else st.P[i - 1, i - 1]
        pjj = st.P[j - 1, j - 1]
        pij = 0.0 if i == 0 else st.P[i - 1, j - 1]
        v = pii + pjj - 2 * pij
        assert a_ij * a_ji == pytest.approx(math.exp(v), rel=1e-12)
        assert a_ij * a_ji >= 1.0 - 1e-12
        assert sym_ij * sym_ji == pytest.approx(1.0, rel=1e-12)
