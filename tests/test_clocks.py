"""Tests for ground-truth clock generation and analytics.

Monte Carlo gates use fixed seeds and 3-standard-error tolerances;
frozen constants were computed from independent closed forms or
adaptive quadrature of the defining integrals (not from the code under
test).
"""

import concurrent.futures
import math
import multiprocessing
import os
import re
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import (
    SPLIT_SCHEDULES,
    batch_paths,
    force_splits,
    in_process,
    no_child_left,
    save_trajectory,
    sem,
    traced_peak,
    var_se,
)
from clocklab import clocks
from clocklab.clocks import (
    AllanPoint,
    ClockParams,
    RelParams,
    allan_variance_analytic,
    allan_variance_empirical,
    clock_chunks,
    display_variance_bounds,
    fit_params_from_allan,
    ou_step_euler,
    ou_step_exact,
    ou_transition,
    ou_variance,
    read_trajectory_csv,
    sample_displays,
    simulate_clock,
    skew_autocorrelation,
    skew_moments,
    skew_normalizer,
)

P10_1 = ClockParams(alpha=10.0, epsilon=1.0)


# ---------------------------------------------------------------------------
# One-step transitions
# ---------------------------------------------------------------------------

def test_exact_step_zero_inputs():
    assert ou_step_exact(0.0, 0.123, P10_1, 0.0) == 0.0


def test_exact_step_deterministic_decay():
    p = ClockParams(alpha=10.0, epsilon=0.0)
    assert ou_step_exact(1.0, 0.1, p, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert math.exp(-1.0) == pytest.approx(0.367879, abs=1e-6)


def test_exact_step_one_step_variance():
    # One step of size 0.05 at (alpha=10, eps=1) has variance
    # (1 - e^{-1})/20 = 0.031606..., frozen from the closed form.
    rng = np.random.default_rng(42)
    out = ou_step_exact(np.zeros(100_000), 0.05, P10_1, rng.standard_normal(100_000))
    expected = (1.0 - math.exp(-1.0)) / 20.0
    assert expected == pytest.approx(0.031606, abs=5e-7)
    assert abs(out.var(ddof=1) - expected) < 3 * var_se(out)


def test_exact_step_marginal_matches_ou_variance():
    # A single exact step of size t samples the marginal law at t.
    t = 0.7
    rng = np.random.default_rng(7)
    out = ou_step_exact(np.zeros(100_000), t, P10_1, rng.standard_normal(100_000))
    assert abs(out.mean()) < 3 * sem(out)
    assert abs(out.var(ddof=1) - ou_variance(t, P10_1)) < 3 * var_se(out)


def test_exact_step_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite state"):
        ou_step_exact(float("nan"), 0.1, P10_1, 0.0)
    with pytest.raises(ValueError, match="non-finite state"):
        ou_step_exact(0.0, 0.1, P10_1, float("inf"))


def test_exact_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        ou_step_exact(0.0, 0.0, P10_1, 0.0)
    with pytest.raises(ValueError):
        ou_step_exact(0.0, -1.0, P10_1, 0.0)


def test_euler_step_deterministic():
    p = ClockParams(alpha=10.0, epsilon=0.0)
    assert ou_step_euler(1.0, 0.01, p, 0.0) == pytest.approx(0.9, abs=1e-15)


def test_euler_step_unstable():
    with pytest.raises(ValueError, match="unstable step"):
        ou_step_euler(0.0, 0.1, P10_1, 0.0)


def test_euler_strong_order_one():
    # Couple Euler and exact paths through the same Brownian motion by
    # sampling, per fine step, the joint Gaussian pair (Delta W, I) with
    #   Var(Delta W) = h,  Var(I) = (1 - e^{-2 a h})/(2 a),
    #   Cov(Delta W, I) = (1 - e^{-a h})/a,
    # where I is the stochastic integral driving the exact transition.
    # The exact path composes consistently across refinements, so both
    # Euler resolutions are compared against the same true terminal
    # value; halving the step should halve the strong error.
    alpha, eps = 10.0, 1.0
    p = ClockParams(alpha, eps)
    n_paths, h = 1000, 0.01
    n_fine = int(round(1.0 / h))
    var_i = (1.0 - math.exp(-2 * alpha * h)) / (2 * alpha)
    cov = (1.0 - math.exp(-alpha * h)) / alpha
    a_coef = cov / h
    b_coef = math.sqrt(var_i - cov**2 / h)
    rng = np.random.default_rng(314)
    dw = math.sqrt(h) * rng.standard_normal((n_paths, n_fine))
    xi = rng.standard_normal((n_paths, n_fine))
    integ = a_coef * dw + b_coef * xi

    x_exact = np.zeros(n_paths)
    for k in range(n_fine):
        x_exact = ou_step_exact(x_exact, h, p, integ[:, k] / math.sqrt(var_i))

    # Coarse-composed exact path must coincide (transition semigroup).
    decay_f = math.exp(-alpha * h)
    var_i2 = (1.0 - math.exp(-4 * alpha * h)) / (2 * alpha)
    x_check = np.zeros(n_paths)
    for k in range(0, n_fine, 2):
        i2 = decay_f * integ[:, k] + integ[:, k + 1]
        x_check = ou_step_exact(x_check, 2 * h, p, i2 / math.sqrt(var_i2))
    np.testing.assert_allclose(x_check, x_exact, rtol=1e-10, atol=1e-14)

    def euler_terminal(step_cols):
        step = h * step_cols
        x = np.zeros(n_paths)
        for k in range(dw.shape[1] // step_cols):
            inc = dw[:, k * step_cols:(k + 1) * step_cols].sum(axis=1)
            x = ou_step_euler(x, step, p, inc / math.sqrt(step))
        return x

    err_fine = np.abs(euler_terminal(1) - x_exact).mean()
    err_coarse = np.abs(euler_terminal(2) - x_exact).mean()
    assert 1.6 <= err_coarse / err_fine <= 2.4


# ---------------------------------------------------------------------------
# Path generation
# ---------------------------------------------------------------------------

def test_simulate_clock_reference():
    p = ClockParams(alpha=10.0, epsilon=0.0)
    traj = simulate_clock(p, horizon=0.1, dt=0.001, seed=0)
    np.testing.assert_array_equal(traj.states, 0.0)
    np.testing.assert_array_equal(traj.skews, 1.0)
    np.testing.assert_allclose(traj.displays, np.arange(101) * 0.001, rtol=1e-12)


def test_simulate_clock_deterministic_given_seed():
    a = simulate_clock(P10_1, horizon=0.05, dt=0.001, seed=5)
    b = simulate_clock(P10_1, horizon=0.05, dt=0.001, seed=5)
    c = simulate_clock(P10_1, horizon=0.05, dt=0.001, seed=6)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.displays, b.displays)
    assert not np.array_equal(a.states, c.states)
    assert a.seed == 5


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.5, 50.0),
    epsilon=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**31),
)
def test_simulate_clock_invariants(alpha, epsilon, seed):
    traj = simulate_clock(ClockParams(alpha, epsilon), horizon=0.2, dt=0.002, seed=seed)
    assert traj.states[0] == 0.0
    assert traj.displays[0] == 0.0
    assert np.all(traj.skews > 0)
    assert np.all(np.diff(traj.displays) > 0)


def test_simulate_clock_unbiased_display():
    finals = np.array([
        simulate_clock(P10_1, horizon=5.0, dt=0.001, seed=s).displays[-1]
        for s in range(300)
    ])
    assert abs(finals.mean() - 5.0) < 3 * sem(finals)


def test_sample_displays_matches_simulate_clock(monkeypatch):
    direct = simulate_clock(P10_1, horizon=0.5, dt=0.001, seed=99)
    sampled = sample_displays(P10_1, spacing=0.05, count=10, dt=0.001, seed=99)
    np.testing.assert_array_equal(sampled, direct.displays[::50])
    monkeypatch.setattr(clocks, "_DISPLAY_CHUNK_STEPS", 77)
    sampled = sample_displays(P10_1, spacing=0.05, count=10, dt=0.001, seed=99)
    np.testing.assert_array_equal(sampled, direct.displays[::50])


def test_sample_displays_rejects_step_counts_out_of_range():
    with pytest.raises(ValueError, match="inf steps of dt 1e-320"):
        sample_displays(P10_1, spacing=1e-3, count=10, dt=1e-320, seed=0)
    # 2^52 windows of two steps: one step past the last exact count
    with pytest.raises(ValueError, match=r"9\.0072e\+15 steps of dt 0\.5: .* below 2\^53"):
        sample_displays(P10_1, spacing=1.0, count=2**52, dt=0.5, seed=0)


def test_sample_displays_chunking_invariance(monkeypatch):
    b = sample_displays(P10_1, spacing=0.1, count=5, dt=0.001, seed=3)
    for chunk_steps in (1, 7, 100, 128):
        monkeypatch.setattr(clocks, "_DISPLAY_CHUNK_STEPS", chunk_steps)
        a = sample_displays(P10_1, spacing=0.1, count=5, dt=0.001, seed=3)
        np.testing.assert_array_equal(a, b)


def test_clock_chunks_mixed_batch_chunking_invariance():
    # Kinds interleaved across rows, one row or several at a time; each
    # row draws from its own stream, so every chunking sees the same normals.
    for epsilons in ((0.0, 1.0, 0.5, 1.0, 0.5), (0.0, 1.0, 1.0, 0.5, 0.5, 1.0)):
        check_chunking_invariance([ClockParams(10.0, e) for e in epsilons])


def check_chunking_invariance(params):
    n_steps = 9000

    def whole(chunk_steps):
        rngs = [np.random.default_rng(s) for s in range(len(params))]
        chunks = [[a.copy() for a in chunk]  # the next chunk overwrites this one
                  for chunk in clock_chunks(params, 1e-3, n_steps, rngs, chunk_steps)]
        return [np.concatenate(arrays, axis=1) for arrays in zip(*chunks)]

    want = whole(n_steps + 1)
    assert want[0].shape == (len(params), n_steps + 1)
    # 1907 is the first slot at or past the settle time 27.5 ln 2 / alpha,
    # so its chunks take the settled limits while the reference's one
    # chunk takes the formula on those slots.
    assert (1906 * 1e-3 < 27.5 * math.log(2.0) / 10.0 <= 1907 * 1e-3)
    for chunk_steps in (1, 7, 1907, 4096):
        for got, ref in zip(whole(chunk_steps), want):
            assert got.tobytes() == ref.tobytes(), chunk_steps


def test_clock_chunks_shared_generator_draws_rows_in_turn():
    # One chunk of m clocks driven by [rng] * m is the recursion over
    # the normals of rng in turn: each noisy row takes the next k, and
    # the noiseless row (epsilon = 0) takes none and stays zero.
    params, dt, k = [ClockParams(10.0, e) for e in (0.5, 1.0, 0.0, 2.0)], 1e-3, 300
    shared, ref = np.random.default_rng(21), np.random.default_rng(21)
    (states, _, _), = clock_chunks(params, dt, k, [shared] * len(params), k + 1)
    u = np.zeros((len(params), k + 1))
    u[[0, 1, 3], 1:] = ref.standard_normal((3, k))
    u[:, 1:] *= np.array([[ou_transition(p, dt)[1]] for p in params])
    decay = ou_transition(params[0], dt)[0]
    want = clocks._load_ar1_kernel()(np.array([1.0]), np.array([1.0, -decay]), u, 1)
    assert states.tobytes() == want.tobytes()
    assert shared.random() == ref.random()


def test_clock_chunks_noiseless_row_draws_nothing():
    # The reference clock's row leaves its generator untouched and holds
    # X = +0.0 and a = 1.0 exactly, before and after the settle time.
    params, dt, n_steps = [ClockParams(10.0, e) for e in (1.0, 0.0, 0.5)], 1e-3, 3000
    rngs = [np.random.default_rng(s) for s in range(len(params))]
    chunks = [[a.copy() for a in chunk]  # the next chunk overwrites this one
              for chunk in clock_chunks(params, dt, n_steps, rngs, 700)]
    states, skews, displays = (np.concatenate(arrays, axis=1) for arrays in zip(*chunks))
    assert states.shape == (3, n_steps + 1)
    assert states[1].tobytes() == np.zeros(n_steps + 1).tobytes()
    assert np.all(skews[1] == 1.0)
    assert rngs[1].random() == np.random.default_rng(1).random()
    assert np.all(np.diff(displays[1]) > 0)


def test_clock_chunks_needs_one_generator_per_clock():
    rng = np.random.default_rng(0)
    for rngs in ([], [rng], [rng] * 3):
        with pytest.raises(ValueError, match="one generator per clock"):
            next(clock_chunks([P10_1] * 2, 1e-3, 10, rngs, 4))


@pytest.mark.parametrize("chunk_steps", [1, 7, 77])
def test_forked_sample_displays_are_the_in_process_ones(monkeypatch, forks, chunk_steps):
    monkeypatch.setattr(clocks, "_DISPLAY_CHUNK_STEPS", chunk_steps)

    def sampled():
        return sample_displays(P10_1, spacing=0.05, count=10, dt=0.001, seed=99).tobytes()

    assert sampled() == in_process(monkeypatch, sampled)
    assert len(forks) == 1 and no_child_left()


def test_forked_draws_leave_each_generator_where_in_process_draws_do(monkeypatch, forks):
    # One generator shared by every row, as batch_paths passes it, and a
    # generator per row beside a noiseless row; chunks of a hundred steps
    # fill and drain the ring many times over, and chunks of one step
    # (the first of none) make a round trip each.  The recursion is split
    # between the processes by the policy and by each forced schedule.
    params = [ClockParams(10.0, e) for e in (1.0, 0.0, 0.5, 1.0)]

    def drawn(shared, chunk_steps):
        rngs = ([np.random.default_rng(5)] * 4 if shared
                else [np.random.default_rng(s) for s in range(4)])
        arrays = [a.tobytes() for chunk in clock_chunks(params, 1e-3, 3000, rngs, chunk_steps)
                  for a in chunk]  # copied before the next chunk overwrites them
        return arrays, [g.random() for g in rngs]

    batches = [(True, 100), (False, 100), (True, 1)]
    for shared, chunk_steps in batches:
        want = in_process(monkeypatch, lambda: drawn(shared, chunk_steps))
        for schedule in (None, *SPLIT_SCHEDULES):
            with monkeypatch.context() as patch:
                if schedule:
                    force_splits(patch, schedule)
                assert drawn(shared, chunk_steps) == want, (shared, chunk_steps, schedule)
    assert len(forks) == len(batches) * (1 + len(SPLIT_SCHEDULES)) and no_child_left()


@pytest.mark.parametrize("s, waited, idle, m, want", [
    (0, False, 0.0, 16, 0),     # no idle time: no change
    (8, False, 2e-3, 16, 8),    # idle exactly as long as a step's 2 rows take: no change
    (8, False, 2.1e-3, 16, 10),  # longer: one step up
    (8, True, 2.1e-3, 16, 6),   # the parent waited: one step down, whatever the idle time
    (15, False, 1.0, 16, 16),   # up to m, no further
    (16, False, 1.0, 16, 16),
    (1, True, 0.0, 16, 0),      # down to 0, no further
    (0, True, 0.0, 16, 0),
    (0, False, 1.0, 1, 1),      # one row: steps of one
    (1, True, 0.0, 1, 0),
    (0, False, 1.0, 7, 1),
    (0, False, 1.0, 301, 37),   # 301 rows: steps of 37
    (301, True, 0.0, 301, 264),
])
def test_split_policy_steps_and_clamps(s, waited, idle, m, want):
    assert clocks._next_split(s, waited, idle, 1e-3, m) == want


def test_a_batch_of_one_chunk_does_not_fork(forks):
    # The parent could only wait while the child drew its one chunk.
    params, rngs = [P10_1] * 2, [np.random.default_rng(0)] * 2
    next(clock_chunks(params, 1e-3, 99, rngs, 100))  # points 0..99: one chunk
    simulate_clock(P10_1, horizon=1.0, dt=1e-3, seed=0)
    assert forks == []
    for _ in clock_chunks(params, 1e-3, 100, rngs, 100):  # point 100 starts a second
        pass
    assert len(forks) == 1 and no_child_left()


def test_pool_workers_draw_in_process(forks):
    # The sibling workers of ``simulate --jobs`` keep the other CPUs busy.
    context = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as pool:
        assert pool.submit(clocks._can_fork).result() is False
    assert clocks._can_fork()


class FailingGenerator:
    def standard_normal(self, out):
        raise ArithmeticError("no normals today")


def test_clock_drawer_error_is_raised_in_the_parent(forks):
    with pytest.raises(ArithmeticError, match="no normals today"):
        next(clock_chunks([P10_1] * 2, 1e-3, 1000, [FailingGenerator()] * 2, 100))
    assert len(forks) == 1 and no_child_left()


def test_killed_clock_drawer_makes_the_parent_raise(forks):
    chunks = clock_chunks([P10_1] * 2, 1e-3, 10_000, [np.random.default_rng(0)] * 2, 100)
    next(chunks)  # the child is some chunks ahead, waiting for a free slot
    os.kill(forks[0], signal.SIGKILL)
    with pytest.raises(RuntimeError, match="clock drawer ended with exit code -9"):
        for _ in chunks:
            pass
    assert no_child_left()


def test_clock_drawer_killed_while_it_waits_for_a_carry_makes_the_parent_raise(
        monkeypatch, forks):
    # Splits none, then all: the child draws chunk 1, then waits for the
    # parent's release of chunk 0, whose carry its rows start from.  The
    # parent kills it there, just before that release.
    force_splits(monkeypatch, "none-then-all")
    release = clocks._Drawer.release

    def kill_first(drawer, s, carry):
        if drawer.taken == 1:
            assert not drawer.filled.poll(100)  # no chunk 1 in 0.1 s: it waits
            os.kill(drawer.pid, signal.SIGKILL)
        release(drawer, s, carry)

    monkeypatch.setattr(clocks._Drawer, "release", kill_first)
    with pytest.raises(RuntimeError, match="clock drawer ended with exit code -9"):
        for _ in clock_chunks([P10_1] * 2, 1e-3, 10_000, [np.random.default_rng(0)] * 2, 100):
            pass
    assert len(forks) == 1 and no_child_left()


def test_no_clock_drawer_outlives_its_batch(forks):
    def batch():
        return clock_chunks([P10_1] * 2, 1e-3, 10_000, [np.random.default_rng(0)] * 2, 100)

    for _ in batch():  # a full run
        pass
    assert no_child_left()
    chunks = batch()
    next(chunks)
    chunks.close()
    assert no_child_left()
    with pytest.raises(ZeroDivisionError):
        for k, _ in enumerate(batch()):  # the consumer raises
            k / (k - 3)
    assert no_child_left()
    assert len(forks) == 3


@pytest.mark.parametrize("shape", [(1, 1), (1, 65_537), (10, 4_097), (300, 1_748), (300, 4_097)])
def test_ar1_kernel_is_lfilter_bit_for_bit(shape):
    from scipy.signal import lfilter

    rng = np.random.default_rng(shape[0] * shape[1])
    for decay in (math.exp(-1e-2), math.exp(-1e-4), 1.0 - 2.0**-52):
        u = rng.standard_normal(shape)
        want = lfilter([1.0], [1.0, -decay], u, axis=1)
        got = clocks._load_ar1_kernel()(np.array([1.0]), np.array([1.0, -decay]), u, 1)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (shape, decay)


def test_missing_ar1_kernel_is_an_import_error_naming_scipy(monkeypatch):
    import scipy

    monkeypatch.setattr(clocks.importlib.machinery.PathFinder, "find_spec",
                        lambda *args: None)
    with pytest.raises(ImportError, match=re.escape(f"scipy {scipy.__version__} has no")):
        clocks._load_ar1_kernel.__wrapped__()  # past the cache of the loaded kernel


def test_sample_displays_memory_stays_at_a_few_chunks():
    # 10 000 one-second windows at dt = 1e-3 are 10 M grid points.
    peak = traced_peak(lambda: sample_displays(ClockParams(10.0, 1.0), spacing=1.0,
                                               count=10_000, dt=1e-3, seed=0))
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def test_skew_normalizer_settled_limit_is_bit_identical():
    # clock_chunks multiplies a chunk that starts at or past the settle
    # time by the limit exp(-eps^2 / (4 alpha)) instead of the formula;
    # the formula must give that limit in every bit from there on, and
    # must not give it just before.
    for alpha in (0.1, 1.0, 66.4, 1000.0):
        settle = 27.5 * math.log(2.0) / alpha
        t = np.linspace(0.0, 2.0 * settle, 200_001)
        for epsilon in (1e-5, 0.3, 1.0, 3.0):
            p = ClockParams(alpha, epsilon)
            full = np.exp(-0.25 * epsilon**2 / alpha * (1.0 - np.exp(-2.0 * alpha * t)))
            assert np.array_equal(skew_normalizer(t, p), full), (alpha, epsilon)
            limit = np.exp(np.array([-0.25 * epsilon**2 / alpha]))[0]
            assert np.all(full[t >= settle] == limit), (alpha, epsilon)


def test_skew_normalizer_float_path_matches_the_array_path():
    # 10^5 times on both sides of the settle time, each as a float and
    # inside an array.
    rng = np.random.default_rng(7)
    for alpha, epsilon in ((10.0, 1.0), (0.1, 3.0), (1000.0, 0.3)):
        p = ClockParams(alpha, epsilon)
        settle = 27.5 * math.log(2.0) / alpha
        t = np.concatenate([[0.0, settle, np.nextafter(settle, 0.0)],
                            rng.uniform(0.0, 2.0 * settle, 100_000)])
        want = skew_normalizer(t, p)
        got = np.array([skew_normalizer(float(v), p) for v in t])
        assert type(skew_normalizer(float(t[-1]), p)) is float
        assert got.tobytes() == want.tobytes(), (alpha, epsilon)


def test_ou_variance_closed_form():
    assert ou_variance(0.0, P10_1) == 0.0
    assert ou_variance(1e6, P10_1) == pytest.approx(0.05, rel=1e-12)
    states = batch_paths(P10_1, [0.1], 10_000, dt=0.001, seed=21)[0.1][0]
    assert abs(states.var(ddof=1) - ou_variance(0.1, P10_1)) < 3 * var_se(states)


def test_skew_moments_frozen_limit():
    mean, var = skew_moments(0.0, P10_1)
    assert (mean, var) == (1.0, 0.0)
    _, var_inf = skew_moments(1e6, P10_1)
    assert var_inf == pytest.approx(math.exp(0.05) - 1.0, rel=1e-12)
    assert var_inf == pytest.approx(0.051271, abs=5e-7)
    grid = np.linspace(0.0, 2.0, 50)
    _, vs = skew_moments(grid, P10_1)
    assert np.all(np.diff(vs) >= 0)
    assert np.all(vs <= var_inf + 1e-15)


def test_skew_moments_monte_carlo():
    t = 0.4
    rng = np.random.default_rng(11)
    x = ou_step_exact(np.zeros(100_000), t, P10_1, rng.standard_normal(100_000))
    skews = skew_normalizer(t, P10_1) * np.exp(x)
    mean, var = skew_moments(t, P10_1)
    assert abs(skews.mean() - mean) < 3 * sem(skews)
    assert abs(skews.var(ddof=1) - var) < 3 * var_se(skews)


def test_skew_autocorrelation_trivial():
    assert skew_autocorrelation(0.0, 1.3, P10_1) == pytest.approx(1.0, rel=1e-12)
    _, var = skew_moments(0.8, P10_1)
    assert skew_autocorrelation(0.8, 0.8, P10_1) == pytest.approx(1.0 + var, rel=1e-12)


def test_skew_autocorrelation_monte_carlo():
    r, s = 0.1, 0.2
    rng = np.random.default_rng(17)
    n = 200_000
    x_r = ou_step_exact(np.zeros(n), r, P10_1, rng.standard_normal(n))
    x_s = ou_step_exact(x_r, s - r, P10_1, rng.standard_normal(n))
    prod = (skew_normalizer(r, P10_1) * np.exp(x_r)
            * skew_normalizer(s, P10_1) * np.exp(x_s))
    assert abs(prod.mean() - skew_autocorrelation(r, s, P10_1)) < 3 * sem(prod)


@settings(max_examples=50, deadline=None)
@given(r=st.floats(0.0, 5.0), s=st.floats(0.0, 5.0))
def test_skew_autocorrelation_symmetry(r, s):
    a = skew_autocorrelation(r, s, P10_1)
    assert a == pytest.approx(skew_autocorrelation(s, r, P10_1), rel=1e-12)
    assert a >= 1.0


# ---------------------------------------------------------------------------
# Display variance bounds
# ---------------------------------------------------------------------------

def test_display_bounds_vanish_at_zero():
    lower, upper = display_variance_bounds(1e-9, P10_1)
    assert 0 <= lower <= upper < 1e-15


def test_display_bounds_ordering():
    for t in np.linspace(0.01, 30.0, 40):
        lower, upper = display_variance_bounds(t, P10_1)
        assert 0 <= lower <= upper


def test_display_bounds_bracket_true_variance():
    # Var tau(t) = int int (E[a(r)a(s)] - 1) dr ds, evaluated here with
    # an independent adaptive integrator; the Jensen lower bound is
    # within ~1.2% of the truth at eps=1, so this is a sharp check.
    # The integrand is symmetric in (r, s), so the square is twice the
    # triangle r <= s, which keeps the kink on r = s on the boundary.
    for p, t in [(P10_1, 5.0), (ClockParams(10.0, 3.0), 2.0)]:
        half, _ = integrate.dblquad(
            lambda r, s: skew_autocorrelation(r, s, p) - 1.0,
            0, t, 0, lambda s: s, epsabs=1e-12, epsrel=1e-8,
        )
        val = 2.0 * half
        lower, upper = display_variance_bounds(t, p)
        assert lower <= val <= upper


def test_display_variance_monte_carlo_containment():
    p = ClockParams(10.0, 3.0)
    t = 2.0
    displays = batch_paths(p, [t], 20_000, dt=0.001, seed=33)[t][2]
    lower, upper = display_variance_bounds(t, p)
    assert lower < displays.var(ddof=1) < upper


# ---------------------------------------------------------------------------
# Allan variance
# ---------------------------------------------------------------------------

def test_allan_analytic_frozen_values():
    # Frozen from the 1-D reduction of the defining double integrals,
    #   I1 = 2 int_0^T (T-u) K(u) du,
    #   I2 = int_0^{2T} min(u, 2T-u) K(u) du,
    # evaluated with adaptive quadrature at alpha=10, eps=1.
    for T, expected in [(0.1, 0.01729255254), (0.5, 0.01426883933),
                        (1.0, 0.008617047878)]:
        assert allan_variance_analytic(T, P10_1) == pytest.approx(expected, rel=5e-3)


def test_allan_analytic_matches_reduction_elsewhere():
    p = ClockParams(alpha=2.0, epsilon=0.8)
    T = 0.7
    q = p.stationary_state_variance
    kern = lambda u: np.exp(q * np.exp(-p.alpha * np.abs(u)))
    i1 = 2 * integrate.quad(lambda u: (T - u) * kern(u), 0, T)[0]
    i2 = integrate.quad(lambda u: min(u, 2 * T - u) * kern(u), 0, 2 * T, points=[T])[0]
    assert allan_variance_analytic(T, p) == pytest.approx((i1 - i2) / T**2, rel=5e-3)


def test_allan_analytic_reference_clock():
    assert abs(allan_variance_analytic(0.5, ClockParams(10.0, 0.0))) < 1e-15


def test_allan_analytic_validates():
    with pytest.raises(ValueError):
        allan_variance_analytic(0.0, P10_1)


def _allan_reduction(T, p):
    # The 1-D reduction of the defining double integrals with the
    # kernel's constant 1 taken out (it cancels between I1 and I2), so
    # that tiny q is not lost to rounding.
    q = p.stationary_state_variance
    kern = lambda u: math.expm1(q * math.exp(-p.alpha * abs(u)))
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    i1 = 2 * integrate.quad(lambda u: (T - u) * kern(u), 0, T, **opts)[0]
    i2 = integrate.quad(lambda u: min(u, 2 * T - u) * kern(u), 0, 2 * T, points=[T], **opts)[0]
    return (i1 - i2) / T**2


@pytest.mark.parametrize("alpha, epsilon, T", [
    (10.0, 1.0, 1e-4),                # alpha T = 1e-3: the small-x Taylor branch
    (0.5, 2.0, 0.002),                # q = 4
    (1.0, 2.0, 0.5),                  # q = 2, alpha T = 0.5
    (1.0, math.sqrt(200.0), 0.3),     # q = 100
    (66.4, 4.15e-5, 0.01),            # the mote clock, q = 1.3e-11
    (66.4, 4.15e-5, 0.2),
])
def test_allan_series_matches_adaptive_reduction(alpha, epsilon, T):
    p = ClockParams(alpha, epsilon)
    reference = _allan_reduction(T, p)
    assert allan_variance_analytic(T, p) == pytest.approx(reference, rel=1e-10, abs=0.0)


def test_allan_series_noiseless_clock_is_exactly_zero():
    for T in (1e-6, 0.5, 1e3):
        assert allan_variance_analytic(T, ClockParams(10.0, 0.0)) == 0.0


def test_allan_series_overflow_is_inf_and_fit_rejects_it(monkeypatch):
    huge = ClockParams(1e-3, 2.0)  # q = 2000, e^q overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert allan_variance_analytic(0.1, huge) == math.inf
    # The curve of the start box's corner (0.1, 10), q = 500: the descent
    # from there steps into q > 709, whose infinite curves it must reject.
    series, overflowed = clocks._allan_series, []

    def counted(ts, p):
        vals = series(ts, p)
        overflowed.append(math.isinf(vals[0]))
        return vals

    monkeypatch.setattr(clocks, "_allan_series", counted)
    corner = ClockParams(0.1, 10.0)
    pts = _curve(corner, (0.01, 0.1, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fitted = fit_params_from_allan(pts, n_starts=0)
    assert any(overflowed)
    assert fitted.alpha == pytest.approx(corner.alpha, rel=1e-6)
    assert fitted.epsilon == pytest.approx(corner.epsilon, rel=1e-6)


def test_allan_differs_from_stationary_difference_variance():
    # The stationary variance of a skew difference over lag T,
    # e^{q} - e^{q e^{-alpha T}}, is a different quantity from the
    # Allan variance at large T (frozen: 0.05127 vs 0.00862 at T=1).
    q = 0.05
    lag_var = math.exp(q) - math.exp(q * math.exp(-10.0))
    assert lag_var > 3 * allan_variance_analytic(1.0, P10_1)


def test_allan_empirical_trivial():
    assert allan_variance_empirical(np.arange(10) * 0.5, 0.5) == 0.0
    assert allan_variance_empirical(np.arange(10) * 0.5 * 1.37, 0.5) == pytest.approx(0.0, abs=1e-28)


def test_allan_empirical_insufficient():
    with pytest.raises(ValueError, match="insufficient samples"):
        allan_variance_empirical([0.0, 0.5], 0.5)


def test_allan_empirical_matches_analytic():
    for T, seed in [(0.1, 11), (0.5, 12), (1.0, 13)]:
        displays = sample_displays(P10_1, spacing=T, count=10_000, dt=0.001, seed=seed)
        emp = allan_variance_empirical(displays, T)
        ana = allan_variance_analytic(T, P10_1)
        assert emp == pytest.approx(ana, rel=0.10)


# ---------------------------------------------------------------------------
# Parameter fitting
# ---------------------------------------------------------------------------

def _curve(p: ClockParams, ts) -> list[AllanPoint]:
    return [AllanPoint(t, allan_variance_analytic(t, p)) for t in ts]


def test_fit_evaluates_each_parameter_pair_once(monkeypatch):
    # The descent revisits points (its start, and the point it stepped
    # from); each curve is computed once.
    pts = _curve(ClockParams(66.4, 4.15e-5), np.geomspace(2e-3, 0.2, 8))
    series, pairs = clocks._allan_series, []

    def counted(ts, p):
        pairs.append((p.alpha, p.epsilon))
        return series(ts, p)

    monkeypatch.setattr(clocks, "_allan_series", counted)
    fit_params_from_allan(pts)
    assert len(pairs) > clocks._FIT_GRID**2
    assert len(set(pairs)) == len(pairs)


def test_fit_recovers_known_parameters():
    true = ClockParams(alpha=66.4, epsilon=4.15e-5)
    ts = np.geomspace(2e-3, 0.2, 8)
    fitted = fit_params_from_allan(_curve(true, ts))
    assert fitted.alpha == pytest.approx(true.alpha, rel=0.05)
    assert fitted.epsilon == pytest.approx(true.epsilon, rel=0.05)


def test_fit_tolerates_noisy_points():
    true = ClockParams(alpha=66.4, epsilon=4.15e-5)
    ts = np.geomspace(2e-3, 0.2, 8)
    noise = 1.0 + 0.05 * np.where(np.arange(len(ts)) % 2 == 0, 1.0, -1.0)
    pts = [AllanPoint(q.T, q.sigma2 * f) for q, f in zip(_curve(true, ts), noise)]
    fitted = fit_params_from_allan(pts)
    assert fitted.alpha == pytest.approx(true.alpha, rel=0.20)
    assert fitted.epsilon == pytest.approx(true.epsilon, rel=0.20)


def test_fit_degenerate_quiet_clock():
    # All-zero targets: the fitted diffusion must be negligible, i.e.
    # produce a curve that is zero at double precision.
    pts = [AllanPoint(t, 0.0) for t in (0.01, 0.1, 1.0)]
    fitted = fit_params_from_allan(pts)
    assert fitted.epsilon < 1e-3
    assert max(abs(allan_variance_analytic(t, fitted)) for t in (0.01, 0.1, 1.0)) < 1e-12


def test_fit_failure_reported():
    pts = [AllanPoint(0.1, math.inf), AllanPoint(1.0, math.inf)]
    with pytest.raises(ValueError, match="fit failed"):
        fit_params_from_allan(pts)


def test_fit_validates_points():
    with pytest.raises(ValueError):
        fit_params_from_allan([AllanPoint(0.1, 1.0)])
    with pytest.raises(ValueError):
        fit_params_from_allan([AllanPoint(0.1, 1.0), AllanPoint(0.1, 2.0)])


def test_fit_validates_starts():
    pts = _curve(P10_1, (0.01, 0.1))
    with pytest.raises(ValueError, match="n_starts must be nonnegative"):
        fit_params_from_allan(pts, n_starts=-1)
    with pytest.raises(ValueError, match="n_starts must be at most 1048576, got 1048577"):
        fit_params_from_allan(pts, n_starts=2**20 + 1)


@pytest.mark.parametrize("alpha, epsilon, seeds", [
    (10.0, 1.0, (0, 1, 2, 3)),
    (1.0, 1e-3, (0,)),
    (300.0, 0.1, (0,)),
])
def test_fit_recovers_clock_for_every_restart_seed(alpha, epsilon, seeds):
    true = ClockParams(alpha, epsilon)
    pts = _curve(true, np.geomspace(2e-3, 0.2, 8))
    for seed in seeds:
        fitted = fit_params_from_allan(pts, seed=seed)
        assert fitted.alpha == pytest.approx(alpha, rel=5e-3), seed
        assert fitted.epsilon == pytest.approx(epsilon, rel=5e-3), seed


def test_fit_from_grid_start_alone():
    # With no random restarts the fit is the descent from the grid's
    # best point, so the restart seed cannot matter.
    true = ClockParams(alpha=66.4, epsilon=4.15e-5)
    pts = _curve(true, np.geomspace(2e-3, 0.2, 8))
    fitted = fit_params_from_allan(pts, n_starts=0)
    assert fitted == fit_params_from_allan(pts, n_starts=0, seed=7)
    assert fitted.alpha == pytest.approx(true.alpha, rel=0.05)
    assert fitted.epsilon == pytest.approx(true.epsilon, rel=0.05)


# ---------------------------------------------------------------------------
# Relative (link) parameters
# ---------------------------------------------------------------------------

def test_relative_params_symmetric_link():
    rp = RelParams(10.0, 1.0, 1.0)
    assert rp.eps_ij == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert rp.c_ij_inf == 1.0
    assert rp.c_ij(0.37) == pytest.approx(1.0, rel=1e-12)


def test_relative_params_reference_endpoint():
    rp = RelParams(10.0, 1.0, 0.0)
    assert rp.eps_ij == pytest.approx(1.0, rel=1e-12)
    assert rp.c_ij_inf == pytest.approx(math.exp(1.0 / 40.0), rel=1e-12)


def test_relative_skew_mean_monte_carlo():
    # The mean relative skew is driven by the *denominator* clock:
    # E[a_j/a_i] = exp(Var X_i(t)).  Built from first principles as a
    # ratio of independently sampled endpoint skews.
    pi, pj, t = P10_1, ClockParams(10.0, 0.5), 0.3
    rng = np.random.default_rng(55)
    n = 1_000_000
    x_i = rng.normal(0.0, math.sqrt(ou_variance(t, pi)), n)
    x_j = rng.normal(0.0, math.sqrt(ou_variance(t, pj)), n)
    a_ij = (skew_normalizer(t, pj) * np.exp(x_j)) / (skew_normalizer(t, pi) * np.exp(x_i))
    rp = RelParams(10.0, pi.epsilon, pj.epsilon)
    np.testing.assert_allclose(a_ij, rp.c_ij(t) * np.exp(x_j - x_i), rtol=1e-12)
    expected = rp.relative_skew_mean(t)
    assert expected > 1.0
    assert abs(a_ij.mean() - expected) < 3 * sem(a_ij)


def test_relative_mean_product_grows_to_limit():
    pi, pj = P10_1, ClockParams(10.0, 0.5)
    ij = RelParams(10.0, pi.epsilon, pj.epsilon)
    ji = RelParams(10.0, pj.epsilon, pi.epsilon)
    prod = lambda t: ij.relative_skew_mean(t) * ji.relative_skew_mean(t)
    ts = np.linspace(0.0, 3.0, 30)
    vals = np.array([prod(t) for t in ts])
    assert np.all(np.diff(vals) >= -1e-15)
    limit = math.exp((pi.epsilon**2 + pj.epsilon**2) / (2 * 10.0))
    assert prod(1e6) == pytest.approx(limit, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    eps_i=st.floats(0.0, 5.0),
    eps_j=st.floats(0.0, 5.0),
    t=st.floats(0.0, 10.0),
)
def test_relative_normalizers_reciprocal(eps_i, eps_j, t):
    ij = RelParams(10.0, eps_i, eps_j)
    ji = RelParams(10.0, eps_j, eps_i)
    assert ij.c_ij(t) * ji.c_ij(t) == pytest.approx(1.0, rel=1e-12)
    assert ij.c_ij(0.0) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Excursions and CSV round trips
# ---------------------------------------------------------------------------

def test_skew_excursions_over_long_horizon():
    # Weak empirical proxy for almost-sure unbounded excursions: by
    # horizon 1000 nearly every path has strayed at least 20% from
    # nominal speed.
    hits = 0
    for seed in range(100):
        traj = simulate_clock(P10_1, horizon=1000.0, dt=0.01, seed=seed)
        if traj.skews.max() > 1.2 and traj.skews.min() < 0.8:
            hits += 1
    assert hits >= 95


def test_trajectory_csv_roundtrip(tmp_path):
    traj = simulate_clock(P10_1, horizon=0.02, dt=0.001, seed=8)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    assert path.read_text().splitlines()[0] == "t,x,skew,display"
    back = read_trajectory_csv(path)
    np.testing.assert_allclose(back["x"], traj.states, rtol=1e-15)
    np.testing.assert_allclose(back["display"], traj.displays, rtol=1e-15)


def test_transition_coefficients():
    decay, noise_std = ou_transition(P10_1, 0.05)
    assert decay == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert noise_std**2 == pytest.approx((1 - math.exp(-1.0)) / 20.0, rel=1e-12)
