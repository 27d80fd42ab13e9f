"""Tests for the centralized and distributed network filters."""

import math
from dataclasses import replace

import numpy as np
import pytest

from clocklab.clocks import ClockParams, RelParams, skew_normalizer
from clocklab.measurement import Measurement
from clocklab.network import (
    initial_network_state,
    link_moments,
    measurement_selector,
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


def random_state(rng, params):
    """A state of ``params`` with a random mean and a random symmetric
    positive-definite covariance."""
    n = len(params) - 1
    a = rng.normal(size=(n, n))
    b = a @ a.T + 0.1 * np.eye(n)
    return initial_network_state(params).__class__(
        x_hat=rng.normal(size=n, scale=0.2), P=0.5 * (b + b.T), params=params)


def copy_of(st):
    """``st`` with arrays of its own, which an operation on ``st`` leaves as they are."""
    return replace(st, x_hat=st.x_hat.copy(), P=st.P.copy())


def every_row(st, dt):
    """Elapsed times that advance every node of ``st`` by ``dt``."""
    return dict.fromkeys(range(1, st.n + 1), dt)


def dense_predict(st, dt):
    """Every row of ``st`` advanced by ``dt`` in the dense closed form, as a
    new state: ``P <- e^{-2 alpha dt} P + (1-e^{-2 alpha dt}) diag(eps_m^2/2 alpha)``."""
    decay = np.exp(-st.alpha * dt)
    e_m = np.array([p.stationary_state_variance for p in st.params[1:]])
    p_new = st.P * (decay * decay)
    p_new.flat[::st.n + 1] += e_m * (1.0 - decay * decay)
    return replace(st, x_hat=decay * st.x_hat, P=p_new)


def assert_same_bits(got, want, msg=None):
    for g, w in ((got.x_hat, want.x_hat), (got.P, want.P)):
        assert list(map(float.hex, g.ravel())) == list(map(float.hex, w.ravel())), msg


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
    st = random_state(np.random.default_rng(5), P4)
    before = copy_of(st)
    assert net_predict_rows(st, every_row(st, 0.0)) is None
    assert_same_bits(st, before)


def test_net_predict_reaches_stationary_diag():
    st = initial_network_state(P4)
    net_predict_rows(st, every_row(st, 100.0))
    want = np.diag([p.epsilon**2 / 20.0 for p in P4[1:]])
    np.testing.assert_allclose(st.P, want, rtol=1e-12, atol=0)


def test_net_predict_semigroup():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3))
    two = diag_state([0.1, 0.2, 0.3]).__class__(
        x_hat=rng.normal(size=3), P=a @ a.T, params=P4
    )
    one = copy_of(two)
    net_predict_rows(one, every_row(one, 0.34))
    net_predict_rows(two, every_row(two, 0.17))
    net_predict_rows(two, every_row(two, 0.17))
    np.testing.assert_allclose(two.x_hat, one.x_hat, rtol=1e-13)
    np.testing.assert_allclose(two.P, one.P, rtol=1e-12, atol=1e-16)


def test_net_predict_is_net_predict_rows_over_every_row():
    # Over every row, net_predict_rows is the dense closed form bit for bit.
    rng = np.random.default_rng(3)
    for n in (1, 2, 9, 50):
        params = (REF,) + tuple(ClockParams(10.0, e) for e in rng.uniform(0.0, 2.0, n))
        a = rng.normal(size=(n, n))
        st = initial_network_state(params).__class__(
            x_hat=rng.normal(size=n), P=a @ a.T, params=params)
        for dt in (1e-4, 0.013, 0.7, 5.0):
            got = copy_of(st)
            net_predict_rows(got, every_row(got, dt))
            assert_same_bits(got, dense_predict(st, dt), (n, dt))


def test_net_predict_rejects_negative_dt():
    st = random_state(np.random.default_rng(6), P4)
    before = copy_of(st)
    with pytest.raises(ValueError, match="time went backwards"):
        net_predict_rows(st, {1: 0.1, 2: -0.1})
    assert_same_bits(st, before)  # checked before any row is written


# ------------------------------------------------------------ optimal update


def test_optimal_reference_link_touches_one_row():
    st = diag_state([0.1, 0.2, 0.3])
    before = copy_of(st)
    assert net_update_optimal(st, meas((0, 1), y=0.7, sigma2=0.05)) is None
    assert st.x_hat[0] == pytest.approx(0.1 * 0.7 / 0.15, rel=1e-14)
    assert st.x_hat[1] == st.x_hat[2] == 0.0
    assert st.P[0, 0] == pytest.approx(0.1 - 0.01 / 0.15, rel=1e-14)
    np.testing.assert_array_equal(st.P[1:, 1:], before.P[1:, 1:])
    assert not st.P[0, 1:].any() and not st.P[1:, 0].any()


def test_optimal_internal_link_hand_expansion():
    st = diag_state([0.1, 0.2, 0.3])
    net_update_optimal(st, meas((1, 2), y=0.35, sigma2=0.05))
    c = 0.1 + 0.2 + 0.05
    assert st.P[0, 0] == pytest.approx(0.1 - 0.01 / c, rel=1e-14)
    assert st.P[1, 1] == pytest.approx(0.2 - 0.04 / c, rel=1e-14)
    assert st.P[0, 1] == pytest.approx(0.02 / c, rel=1e-14)
    assert st.P[2, 2] == 0.3
    assert not st.P[2, :2].any()
    np.testing.assert_allclose(
        st.x_hat, np.array([-0.1, 0.2, 0.0]) * (0.35 / c), rtol=1e-14
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
        net_predict_rows(net, {1: dt})
        net_update_optimal(net, meas((0, 1), y, s2))
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
        for st, update in ((a, net_update_optimal), (b, net_update_distributed)):
            net_predict_rows(st, {1: dt})
            update(st, meas((0, 1), y, s2))
        assert b.x_hat[0] == pytest.approx(a.x_hat[0], rel=1e-12, abs=1e-15)
        assert b.P[0, 0] == pytest.approx(a.P[0, 0], rel=1e-12)


# -------------------------------------------------------- distributed update


def test_distributed_huge_noise_is_a_noop():
    st = diag_state([0.1, 0.2, 0.3])
    before = copy_of(st)
    assert net_update_distributed(st, meas((1, 2), y=5.0, sigma2=1e30)) is None
    np.testing.assert_allclose(st.x_hat, before.x_hat, atol=1e-12)
    np.testing.assert_allclose(st.P, before.P, rtol=1e-12, atol=1e-15)


def test_distributed_diagonal_hand_expansion():
    st = diag_state([0.1, 0.2, 0.3])
    net_update_distributed(st, meas((1, 2), y=0.35, sigma2=0.05))
    a = 0.35
    assert st.P[0, 0] == pytest.approx(0.1 * (0.2 + 0.05) / a, rel=1e-13)
    assert st.P[1, 1] == pytest.approx(0.2 * (0.1 + 0.05) / a, rel=1e-13)
    assert st.P[2, 2] == 0.3
    np.testing.assert_allclose(
        st.x_hat[:2], np.array([-0.1, 0.2]) * (0.35 / a), rtol=1e-13
    )
    assert st.x_hat[2] == 0.0


def test_distributed_locality_with_general_covariance():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 3))
    st = initial_network_state(P4).__class__(
        x_hat=rng.normal(size=3), P=a @ a.T + 0.5 * np.eye(3),
        params=P4,
    )
    before = copy_of(st)
    net_update_distributed(st, meas((1, 2), y=0.4, sigma2=0.01))
    assert st.x_hat[2] == before.x_hat[2]
    assert st.P[2, 2] == pytest.approx(before.P[2, 2], rel=1e-14)
    # endpoint diagonals never increase
    assert st.P[0, 0] <= before.P[0, 0] + 1e-15
    assert st.P[1, 1] <= before.P[1, 1] + 1e-15


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
        x_ref, p_ref = dense_joseph_update(st, m)
        net_update_distributed(st, m)
        scale = np.abs(p_ref).max()
        np.testing.assert_allclose(st.x_hat, x_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(st.P, p_ref, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_array_equal(st.P, st.P.T)


@pytest.mark.parametrize("n", [1, 2, 9, 60])
def test_in_place_operations_match_the_copying_calls(n):
    # A random chain of predicts and updates, each written into the state
    # it reads.  After every step the state equals that step's dense
    # reference applied to a copy of the previous state, so no entry is
    # read after the operation has overwritten it.
    rng = np.random.default_rng(900 + n)
    params = (REF,) + tuple(ClockParams(10.0, e) for e in rng.uniform(0.5, 1.5, n))
    st = random_state(rng, params)
    for _ in range(120):
        prev = copy_of(st)
        if rng.uniform() < 0.5:
            nodes = rng.choice(np.arange(1, n + 1), size=min(n, int(rng.integers(1, 4))),
                               replace=False)
            elapsed = {int(k): float(rng.uniform(0.0, 0.05)) for k in nodes}
            assert net_predict_rows(st, elapsed) is None
            g, noise = np.ones(n), np.zeros(n)
            for m, d in elapsed.items():
                g[m - 1] = np.exp(-st.alpha * d)
                noise[m - 1] = params[m].stationary_state_variance * (1.0 - g[m - 1] * g[m - 1])
            want = replace(prev, x_hat=g * prev.x_hat,
                           P=prev.P * np.outer(g, g) + np.diag(noise))
            assert_same_bits(st, want)
        else:
            i, j = (int(k) for k in rng.choice(n + 1, size=2, replace=False))
            m = meas((i, j), y=rng.normal(scale=0.3), sigma2=rng.uniform(1e-4, 1e-2))
            assert net_update_distributed(st, m) is None
            x_ref, p_ref = dense_joseph_update(prev, m)
            scale = np.abs(p_ref).max()
            np.testing.assert_allclose(st.x_hat, x_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(st.P, p_ref, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_array_equal(st.P, st.P.T)


def test_two_hop_covariance_fill_in():
    # Path 0-1-2-3: a measurement on (1,2) leaves P_13 untouched, the
    # follow-up on (2,3) propagates correlation to the (1,3) entry.
    st = initial_network_state(P4)
    net_predict_rows(st, every_row(st, 0.05))
    net_update_optimal(st, meas((1, 2), y=0.1, sigma2=1e-3))
    assert st.P[0, 2] == 0.0
    net_update_optimal(st, meas((2, 3), y=-0.1, sigma2=1e-3))
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
        net_predict_rows(opt, every_row(opt, dt))
        net_predict_rows(dist, every_row(dist, dt))
        tr_before = np.trace(opt.P)
        i, j = link
        d_diag_before = [dist.P[k - 1, k - 1] for k in (i, j) if k != 0]
        net_update_optimal(opt, meas(link, y, s2))
        net_update_distributed(dist, meas(link, y, s2))
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
        full = copy_of(st)
        net_predict_rows(full, elapsed)
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
