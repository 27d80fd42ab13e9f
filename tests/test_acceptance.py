"""Acceptance suite: one test per numbered release criterion.

Each test is a self-contained gate with its tolerances written out
literally, so `pytest -v tests/test_acceptance.py` prints one pass/fail
line per criterion.  Stochastic gates use frozen seeds and compare
Monte Carlo output against closed forms or independent oracles; the
protocol-level gates check orderings and reductions, never exact table
values.
"""

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from conftest import batch_paths

from clocklab.clocks import (
    ClockParams,
    RelParams,
    allan_variance_analytic,
    allan_variance_empirical,
    display_variance_bounds,
    fit_params_from_allan,
    ou_step_euler,
    ou_step_exact,
    ou_variance,
    sample_displays,
    skew_moments,
    skew_normalizer,
)
from clocklab.clocks import AllanPoint
from clocklab.measurement import Measurement, noise_variance
from clocklab.network import (
    initial_network_state,
    net_predict_rows,
    net_update_distributed,
    net_update_optimal,
)
from clocklab.pairwise import (
    initial_state,
    predict,
    update,
    variance_upper_bound,
)
from clocklab.simulator import (
    mac_arbitrate,
    read_scenario,
    read_trace_csv,
    run_scenario,
    trace_replay,
    write_metrics_csv,
    write_trace_csv,
)
from clocklab.smoothing import RelativeEstimates, SyncGraph, blue_solve, smooth

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
REL11 = RelParams(alpha=10.0, eps_i=1.0, eps_j=1.0)


def test_criterion_01_skew_moment_suite():
    """Skew mean/variance match the closed forms to 3 SE over 1e4 paths."""
    # The skew at a fixed time is exactly lognormal, so the sampling
    # error of both estimators is available in closed form; the plug-in
    # SE would be badly inconsistent at eps=10 (the fourth moment is
    # e^{6 Var X} and 1e4 paths never see the tail), turning the gate
    # into noise.  Exact SEs keep it honestly calibrated for both eps.
    rng = np.random.default_rng(1)
    n = 10_000
    for eps in (1.0, 10.0):
        p = ClockParams(10.0, eps)
        for t in (0.1, 1.0, 5.0):
            x = ou_step_exact(np.zeros(n), t, p, rng.standard_normal(n))
            a = skew_normalizer(t, p) * np.exp(x)
            mean_cf, var_cf = skew_moments(t, p)
            s2 = ou_variance(t, p)
            e_k = lambda k: math.exp(k * (k - 1) * s2 / 2.0)  # E a^k
            mu2 = e_k(2) - 1.0
            mu4 = e_k(4) - 4.0 * e_k(3) + 6.0 * e_k(2) - 3.0
            se_mean = math.sqrt(mu2 / n)
            se_var = math.sqrt((mu4 - mu2 * mu2) / n)
            assert abs(a.mean() - mean_cf) <= 3.0 * se_mean, (eps, t)
            assert abs(a.var(ddof=1) - var_cf) <= 3.0 * se_var, (eps, t)


def test_criterion_02_display_variance_containment_and_growth():
    """Var tau(t) sits inside its closed-form bracket; growth is ~linear."""
    p = ClockParams(10.0, 1.0)
    times = [1.0, 2.0, 5.0, 10.0, 20.0]
    paths = batch_paths(p, times, 125_000, dt=0.005, seed=404, chunk=2000)
    variances = []
    for t in times:
        displays = paths[t][2]
        v = displays.var(ddof=1)
        lower, upper = display_variance_bounds(t, p)
        assert lower < v < upper, t
        variances.append(v)
    exponent = np.polyfit(np.log(times), np.log(variances), 1)[0]
    assert 0.8 <= exponent <= 1.2


def test_criterion_03_euler_strong_order():
    """Euler-vs-exact strong error halves (ratio in [1.6, 2.4]) per dt halving."""
    alpha = 10.0
    p = ClockParams(alpha, 1.0)
    n_paths, h = 2000, 0.005
    n_fine = int(round(1.0 / h))
    var_i = (1.0 - math.exp(-2 * alpha * h)) / (2 * alpha)
    cov = (1.0 - math.exp(-alpha * h)) / alpha
    rng = np.random.default_rng(314)
    dw = math.sqrt(h) * rng.standard_normal((n_paths, n_fine))
    xi = rng.standard_normal((n_paths, n_fine))
    integ = (cov / h) * dw + math.sqrt(var_i - cov**2 / h) * xi

    x_exact = np.zeros(n_paths)
    for k in range(n_fine):
        x_exact = ou_step_exact(x_exact, h, p, integ[:, k] / math.sqrt(var_i))

    def euler_terminal(step_cols):
        step = h * step_cols
        x = np.zeros(n_paths)
        for k in range(n_fine // step_cols):
            inc = dw[:, k * step_cols:(k + 1) * step_cols].sum(axis=1)
            x = ou_step_euler(x, step, p, inc / math.sqrt(step))
        return x

    errs = [np.abs(euler_terminal(c) - x_exact).mean() for c in (1, 2, 4)]
    assert 1.6 <= errs[1] / errs[0] <= 2.4
    assert 1.6 <= errs[2] / errs[1] <= 2.4


def test_criterion_04_allan_crosscheck_and_fit_recovery():
    """Quadrature vs 1e4-window empirical Allan within 10%; fit within 5%."""
    p = ClockParams(10.0, 1.0)
    for T in (0.1, 0.5, 1.0):
        analytic = allan_variance_analytic(T, p)
        displays = sample_displays(p, spacing=T, count=10_000, dt=1e-3, seed=1234)
        empirical = allan_variance_empirical(displays, T)
        assert empirical == pytest.approx(analytic, rel=0.10), T

    true = ClockParams(alpha=66.4, epsilon=4.15e-5)
    points = [AllanPoint(t, allan_variance_analytic(t, true))
              for t in np.geomspace(2e-3, 0.2, 8)]
    fitted = fit_params_from_allan(points)
    assert fitted.alpha == pytest.approx(true.alpha, rel=0.05)
    assert fitted.epsilon == pytest.approx(true.epsilon, rel=0.05)


def test_criterion_05_pairwise_filter_bounds_and_coverage():
    """Antisymmetry 1e-12; P <= prior ceiling; steady P <= bound; >=90% coverage."""
    ceiling = REL11.eps_ij**2 / (2 * REL11.alpha)

    def meas(y, s2):
        return Measurement(link=(0, 1), y=y, sigma2=s2)

    # (a) mirrored measurement streams give mirrored estimates
    rng = np.random.default_rng(42)
    sa = sb = initial_state(REL11)
    for _ in range(300):
        dt, y, s2 = rng.uniform(0, 0.1), rng.normal(scale=0.5), rng.uniform(1e-4, 0.1)
        sa = update(predict(sa, dt), meas(y, s2))
        sb = update(predict(sb, dt), meas(-y, s2))
        assert abs(sa.x_hat + sb.x_hat) <= 1e-12
        assert sa.P == sb.P
        # (b) the posterior variance never exceeds the prior ceiling
        assert 0.0 <= sa.P <= ceiling + 1e-15

    # (c) regular 0.002-gap observation settles below the guaranteed bound
    bound = variance_upper_bound(0.002, 1e-2, REL11)
    st = initial_state(REL11)
    for k in range(100_000):
        st = update(predict(st, 0.002), meas(0.0, 1e-2))
        if k > 100:
            assert st.P <= bound

    # (d) 2-sigma coverage across 200 independently synthesized links
    rng = np.random.default_rng(20260822)
    n_links, n_epochs, gap, s2 = 200, 400, 0.002, 1e-2
    decay = math.exp(-REL11.alpha * gap)
    step_sd = math.sqrt(ceiling * (1.0 - decay**2))
    x_true = np.zeros((n_epochs + 1, n_links))
    for k in range(n_epochs):
        x_true[k + 1] = decay * x_true[k] + step_sd * rng.standard_normal(n_links)
    ys = x_true[1:] + math.sqrt(s2) * rng.standard_normal((n_epochs, n_links))
    hits = total = 0
    for link in range(n_links):
        fs = initial_state(REL11)
        for k in range(n_epochs):
            fs = update(predict(fs, gap), meas(ys[k, link], s2))
            if k >= 50:
                hits += abs(fs.x_hat - x_true[k + 1, link]) <= 2.0 * math.sqrt(fs.P)
                total += 1
    assert hits / total >= 0.90


def test_criterion_06_network_filter_reduction_and_dominance():
    """2-node net filter == pairwise to 1e-12; line-graph covariance checks."""
    # (a) both network updates collapse to the pairwise filter on 2 nodes
    params2 = (ClockParams(10.0, 0.0), ClockParams(10.0, 1.0))
    rel = RelParams(alpha=10.0, eps_i=0.0, eps_j=1.0)
    opt = initial_network_state(params2)
    dist = initial_network_state(params2)
    pw = initial_state(rel)
    rng = np.random.default_rng(9)
    for _ in range(300):
        dt, y, s2 = rng.uniform(0, 0.05), rng.normal(scale=0.4), rng.uniform(1e-4, 0.1)
        m = Measurement(link=(0, 1), y=y, sigma2=s2)
        for st, net_update in ((opt, net_update_optimal), (dist, net_update_distributed)):
            net_predict_rows(st, {1: dt})
            net_update(st, m)
        pw = update(predict(pw, dt), m)
        for st in (opt, dist):
            assert abs(float(st.x_hat[0]) - pw.x_hat) <= 1e-12
            assert abs(float(st.P[0, 0]) - pw.P) <= 1e-12

    # (b)-(d) optimal vs distributed on the 10-node line, 0.002 cadence
    sc = read_scenario(SCENARIOS / "ten-node-line.scenario")
    sigma2 = noise_variance(sc.skew_gap * sc.dt, sc.delay, sc.noise_floor)
    opt = initial_network_state(sc.params)
    dist = initial_network_state(sc.params)
    every = dict.fromkeys(range(1, opt.n + 1), 0.002)
    rng = np.random.default_rng(7)
    for k in range(2000):
        link = sc.graph.edges[k % len(sc.graph.edges)]
        m = Measurement(link=link, y=float(rng.normal(scale=0.3)), sigma2=sigma2)
        net_predict_rows(opt, every)
        net_predict_rows(dist, every)
        diag_before = np.diag(dist.P).copy()
        net_update_optimal(opt, m)
        net_update_distributed(dist, m)
        assert np.trace(opt.P) <= np.trace(dist.P) + 1e-12
        assert np.all(np.diag(dist.P) <= diag_before + 1e-15)
        for st in (opt, dist):
            assert np.linalg.eigvalsh(st.P).min() >= -1e-9


def test_criterion_07_smoothing_equivalences():
    """Relaxation fixed point == least squares; exact and cycle-consistent."""
    rng = np.random.default_rng(123)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        edges = []
        for j in range(1, n + 1):
            edges.append((int(rng.integers(0, j)), j))
        for _ in range(2):
            i, j = (int(v) for v in rng.choice(n + 1, size=2, replace=False))
            if (i, j) not in edges and (j, i) not in edges:
                edges.append((i, j))
        g = SyncGraph(n=n, edges=edges)

        rel = RelativeEstimates({e: float(rng.normal()) for e in g.edges})
        direct = blue_solve(g, rel)
        relaxed = smooth(g, rel, tol=1e-13, schedule="sweep").values
        assert np.max(np.abs(relaxed - direct)) <= 1e-8

        # consistent inputs are reproduced, not merely approximated
        w = np.concatenate([[0.0], rng.normal(size=n)])
        consistent = RelativeEstimates({(i, j): w[j] - w[i] for (i, j) in g.edges})
        fitted = smooth(g, consistent, tol=1e-13, schedule="sweep").values
        assert np.max(np.abs(fitted - w)) <= 1e-10

        # fitted edge values sum to zero around every fundamental cycle
        tree: dict[int, tuple[int, float]] = {0: (0, 0.0)}
        frontier = [0]
        adjacency: dict[int, list[tuple[int, float]]] = {k: [] for k in range(n + 1)}
        for (i, j) in g.edges:
            val = relaxed[j] - relaxed[i]
            adjacency[i].append((j, val))
            adjacency[j].append((i, -val))
        while frontier:
            u = frontier.pop()
            for (v, val) in adjacency[u]:
                if v not in tree:
                    tree[v] = (u, tree[u][1] + val)
                    frontier.append(v)
        for (i, j) in g.edges:
            cycle_sum = tree[i][1] + (relaxed[j] - relaxed[i]) - tree[j][1]
            assert abs(cycle_sum) <= 1e-10


def test_criterion_08_protocol_ordering():
    """Median error orderings over 20 seeds of the 2- and 5-node scenarios."""
    for name in ("two-node.scenario", "five-node-ring.scenario"):
        base = read_scenario(SCENARIOS / name)
        medians = {}
        for protocol in ("SS", "Hybrid", "MBCSP"):
            skews, offsets, nosync, preds = [], [], [], []
            for seed in range(20):
                rep, _ = run_scenario(replace(base, protocol=protocol, seed=seed))
                nodes = sorted(rep.skew_mae)
                skews.append(np.nanmean([rep.skew_mae[m] for m in nodes]))
                offsets.append(np.nanmean([rep.offset_mae[m] for m in nodes]))
                nosync.append(np.nanmean([rep.offset_nosync[m] for m in nodes]))
                preds.append(np.nanmean(
                    [v for v in rep.pred_mae.values() if not math.isnan(v)]
                ))
            medians[protocol] = tuple(
                float(np.median(v)) for v in (skews, offsets, preds, nosync)
            )
        ss, hy, nf = medians["SS"], medians["Hybrid"], medians["MBCSP"]
        assert nf[0] <= hy[0] <= ss[0], (name, "skew MAE ordering")
        assert nf[1] <= 0.1 * nf[3], (name, "offset MAE vs no-sync")
        assert nf[2] <= ss[2] and hy[2] <= ss[2], (name, "prediction MAE ordering")


def test_criterion_09_determinism_and_replay(tmp_path):
    """Fixed seed: byte-identical outputs; replay reproduces trace metrics."""
    sc = read_scenario(SCENARIOS / "two-node.scenario")
    rep_a, trace_a = run_scenario(sc)
    rep_b, trace_b = run_scenario(sc)
    assert trace_a == trace_b
    files = {}
    for tag, rep, trace in (("a", rep_a, trace_a), ("b", rep_b, trace_b)):
        write_metrics_csv(rep, tmp_path / f"{tag}-metrics.csv")
        write_trace_csv(trace, tmp_path / f"{tag}-trace.csv")
        files[tag] = ((tmp_path / f"{tag}-metrics.csv").read_bytes(),
                      (tmp_path / f"{tag}-trace.csv").read_bytes())
    assert files["a"] == files["b"]

    replayed = trace_replay(read_trace_csv(tmp_path / "a-trace.csv"), sc)
    write_metrics_csv(replayed, tmp_path / "replay-metrics.csv")
    live_rows = (tmp_path / "a-metrics.csv").read_text().splitlines()
    rep_rows = (tmp_path / "replay-metrics.csv").read_text().splitlines()
    for live, rep in zip(live_rows[1:], rep_rows[1:]):
        assert live.split(",")[3] == rep.split(",")[3]  # pred MAE, byte-equal
    assert replayed.out_of_order == rep_a.out_of_order


def test_criterion_10_mac_matching_invariant():
    """1e5 random slots: admitted sets are matchings, drop counts add up."""

    @dataclass
    class Tx:
        src: int
        dst: int

    rng = np.random.default_rng(2718)
    sizes = rng.integers(0, 7, size=100_000)
    for size in sizes:
        pending = []
        for _ in range(size):
            i, j = rng.choice(12, size=2, replace=False)
            pending.append(Tx(int(i), int(j)))
        admitted, dropped = mac_arbitrate(pending, rng)
        assert len(admitted) + len(dropped) == len(pending)
        busy = [e for t in admitted for e in (t.src, t.dst)]
        assert len(busy) == len(set(busy))  # matching
        # brute-force conflict check: every drop collides with an admit,
        # so the collision counter equals pending minus the matching size
        for t in dropped:
            assert any({t.src, t.dst} & {a.src, a.dst} for a in admitted)
