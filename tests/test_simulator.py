"""Tests for the discrete-event protocol simulator."""

import math
import re
import sys
import tracemalloc
import warnings
from array import array
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clocklab.simulator as simulator
import clocklab.clocks as clocks_module
from conftest import SPLIT_SCHEDULES, force_splits, in_process, no_child_left, traced_peak
from clocklab.clocks import _MAX_STATE_VARIANCE, ClockParams, clock_chunks, simulate_clock
from clocklab.measurement import DELAY_KINDS, DelayModel, offset_delay_estimate
from clocklab.clocks import RelParams
from clocklab.network import (
    link_moments,
    net_predict_rows,
    nodal_skew_estimate,
    relative_skew_readout,
)
from clocklab.simulator import (
    PROTOCOLS,
    TRACE_HEADER,
    ProtocolMachine,
    Scenario,
    TraceRow,
    compute_metrics,
    mac_arbitrate,
    quantize_stamp,
    read_scenario,
    read_trace_csv,
    run_scenario,
    trace_replay,
    write_metrics_csv,
    write_trace_csv,
    _CHUNK_STEPS,
    _ERROR_COLUMNS,
    _chunk_width,
)
from clocklab.smoothing import RelativeEstimates, SyncGraph, jacobi_step

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DELAY = DelayModel(kind="uniform", mean=5e-3, spread=5e-5)
LINE3 = SyncGraph(n=2, edges=((0, 1), (1, 2)))


def two_node(**kw):
    base = dict(graph=SyncGraph(n=1, edges=((0, 1),)), alpha=10.0,
                epsilons=(0.0, 1.0), delay=DELAY, dt=1e-4, horizon=2.0,
                skew_rate=5.0, offset_rate=6.0, seed=1)
    base.update(kw)
    return Scenario(**base)


def line(clocks, horizon, protocol="SS"):
    """The shipped ten-node line's clocks and delays on ``clocks`` nodes."""
    base = read_scenario(SCENARIOS / "ten-node-line.scenario")
    n = clocks - 1
    return replace(base, graph=SyncGraph(n=n, edges=[(i, i + 1) for i in range(n)]),
                   epsilons=(0.0,) + (1.0,) * n, horizon=horizon, protocol=protocol)


def metrics_csv_bytes(report, tmp_path, name):
    path = tmp_path / name
    write_metrics_csv(report, path)
    return path.read_bytes()


# ---------------------------------------------------------------- scenario


def test_scenario_validation():
    with pytest.raises(ValueError, match="unknown protocol"):
        two_node(protocol="NTP")
    with pytest.raises(ValueError, match="one epsilon per node"):
        two_node(epsilons=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="zero diffusion"):
        two_node(epsilons=(0.5, 1.0))
    with pytest.raises(ValueError, match="dt"):
        two_node(dt=0.0)
    with pytest.raises(ValueError, match="horizon"):
        two_node(horizon=-1.0)
    with pytest.raises(ValueError, match="rates must be positive"):
        two_node(skew_rate=0.0)
    with pytest.raises(ValueError, match="at least one grid step"):
        two_node(roundtrip_gap=0)
    with pytest.raises(ValueError, match="ss_lambda"):
        two_node(ss_lambda=0.0)
    with pytest.raises(ValueError, match="too high for the grid step"):
        two_node(skew_rate=1e5)
    with pytest.raises(ValueError, match="graph is not connected"):
        two_node(graph=SyncGraph(n=3, edges=((0, 1), (2, 3))),
                 epsilons=(0.0, 1.0, 1.0, 1.0))


def noisy_two_node(alpha, q, **kw):
    """A two-node scenario whose clock has epsilon^2/(4 alpha) = q."""
    return two_node(alpha=alpha, epsilons=(0.0, math.sqrt(4.0 * alpha * q)),
                    delay=DelayModel(kind="constant", mean=1e-3), horizon=1.0,
                    skew_rate=20.0, offset_rate=20.0, skew_gap=10, **kw)


@pytest.mark.parametrize("alpha", [1.0, 100.0, 1000.0])
def test_scenario_rejects_clocks_whose_readouts_overflow(tmp_path, alpha):
    # The symmetrized readout forms c_ij^2 e^(2 mean); the bound leaves six
    # stationary deviations of the mean below the largest float.
    limit = _MAX_STATE_VARIANCE / 2
    k, log_max = 6.0, math.log(sys.float_info.max)
    assert limit == pytest.approx((math.sqrt(k * k + log_max) - k) ** 2 / 2, rel=1e-15)
    with pytest.raises(ValueError, match=r"node 1 is too noisy: epsilon_1\^2/\(4 alpha\) = "
                                         r"227\.06 must stay below 227\.037"):
        noisy_two_node(alpha, 1.0001 * limit)
    with pytest.raises(ValueError, match=r"epsilon_1\^2/\(4 alpha\) = inf must stay below"):
        two_node(alpha=alpha, epsilons=(0.0, 1e160))  # epsilon_1^2 is past the largest float
    for seed in range(3):
        for proto in PROTOCOLS:
            sc = noisy_two_node(alpha, 0.9999 * limit, seed=seed, protocol=proto)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                live, trace = run_scenario(sc)
                assert_replay_exact(live, trace, sc, tmp_path / "trace.csv")
            assert any(row.kind == "skew-b" for row in trace)


@pytest.mark.parametrize("edges, link", [
    (((0, 1), (1, 2), (2, 1)), (2, 1)),
    (((0, 1), (0, 1)), (0, 1)),
], ids=["reversed", "repeated"])
def test_scenario_rejects_repeated_link(edges, link):
    graph = SyncGraph(n=max(map(max, edges)), edges=edges)  # the graph accepts it
    with pytest.raises(ValueError, match=re.escape(f"link {link} is listed twice")):
        two_node(graph=graph, epsilons=(0.0,) + (1.0,) * graph.n)


def test_scenario_derived_properties():
    sc = Scenario(graph=LINE3, alpha=10.0, epsilons=(0.0, 1.0, 0.5),
                  delay=DELAY)
    assert sc.directed_links == ((0, 1), (1, 0), (1, 2), (2, 1))
    assert [p.alpha for p in sc.params] == [10.0, 10.0, 10.0]
    assert [p.epsilon for p in sc.params] == [0.0, 1.0, 0.5]


SCENARIO_FILE = """\
# three clocks on a line
[scenario]
nodes = 3
edges = 0-1, 1-2
alpha = 10.0
dt = 1e-4
horizon = 2.0
protocol = Hybrid
seed = 7
skew_rate = 2.0
offset_rate = 4.0
skew_gap = 30
roundtrip_gap = 15
ss_lambda = 0.1
epsilon_1 = 1.0
epsilon_2 = 0.5   # slower clock

[delay]
kind = uniform
mean = 5e-3
spread = 5e-5
"""


def test_read_scenario_round_trip(tmp_path):
    path = tmp_path / "line.scenario"
    path.write_text(SCENARIO_FILE)
    sc = read_scenario(path)
    assert sc.graph.n == 2
    assert sc.graph.edges == ((0, 1), (1, 2))
    assert sc.epsilons == (0.0, 1.0, 0.5)
    assert sc.protocol == "Hybrid"
    assert (sc.seed, sc.skew_gap, sc.roundtrip_gap) == (7, 30, 15)
    assert (sc.skew_rate, sc.offset_rate, sc.ss_lambda) == (2.0, 4.0, 0.1)
    assert sc.delay == DelayModel(kind="uniform", mean=5e-3, spread=5e-5)
    assert (sc.dt, sc.horizon) == (1e-4, 2.0)


def test_read_scenario_bare_keys_and_defaults(tmp_path):
    path = tmp_path / "min.scenario"
    path.write_text(
        "nodes = 2\nedges = 0-1\nalpha = 10\nepsilon_1 = 1\n"
        "delay.kind = constant\ndelay.mean = 1e-3\n"
    )
    sc = read_scenario(path)
    assert sc.protocol == "MBCSP"
    assert sc.delay.kind == "constant"
    assert sc.delay.bound == 1e-3
    assert sc.dt == 1e-5


def test_read_scenario_errors(tmp_path):
    def parse(text):
        p = tmp_path / "bad.scenario"
        p.write_text(text)
        return read_scenario(p)

    ok = "nodes = 2\nedges = 0-1\nalpha = 10\nepsilon_1 = 1\ndelay.kind = constant\ndelay.mean = 1e-3\n"
    with pytest.raises(ValueError, match=r"unknown scenario key 'bogus' \(line 7\)"):
        parse(ok + "bogus = 3\n")
    with pytest.raises(ValueError, match="line 3: bad value for 'alpha'"):
        parse("nodes = 2\nedges = 0-1\nalpha = fast\nepsilon_1 = 1\ndelay.kind = constant\ndelay.mean = 1e-3\n")
    with pytest.raises(ValueError, match="expected `key = value`"):
        parse("nodes 2\n")
    with pytest.raises(ValueError, match="missing required scenario key 'nodes'"):
        parse("edges = 0-1\nalpha = 10\nepsilon_1 = 1\ndelay.kind = constant\ndelay.mean = 1e-3\n")
    with pytest.raises(ValueError, match="missing required scenario key 'epsilon_1'"):
        parse("nodes = 2\nedges = 0-1\nalpha = 10\ndelay.kind = constant\ndelay.mean = 1e-3\n")
    with pytest.raises(ValueError, match="epsilon_5 references a node outside"):
        parse(ok + "epsilon_5 = 1\n")
    with pytest.raises(ValueError, match="at least two nodes"):
        parse("nodes = 1\nedges =\nalpha = 10\ndelay.kind = constant\ndelay.mean = 1e-3\n")
    with pytest.raises(ValueError, match="zero diffusion"):
        parse(ok + "epsilon_0 = 0.5\n")


def test_read_scenario_is_utf8_and_names_an_undecodable_line(tmp_path, monkeypatch):
    # A UTF-8 comment reads in any locale; a byte that is not UTF-8 is
    # a malformed line, named like the others.
    ok = "nodes = 2\nedges = 0-1\nalpha = 10\nepsilon_1 = 1\ndelay.kind = constant\ndelay.mean = 1e-3\n"
    path = tmp_path / "sc.scenario"
    path.write_bytes("# \u03b5\u2081 is node 1's diffusion\n".encode() + ok.encode())
    monkeypatch.setattr("locale.getpreferredencoding", lambda *args: "ascii")
    assert read_scenario(path).epsilons == (0.0, 1.0)
    path.write_bytes(ok.replace("alpha = 10", "alpha = 10 # \xe9t\xe9").encode("latin-1"))
    with pytest.raises(ValueError, match="^line 3: byte 0xe9 at column 14 is not utf-8$"):
        read_scenario(path)


def test_read_scenario_rejects_a_repeated_key(tmp_path):
    def parse(text):
        p = tmp_path / "again.scenario"
        p.write_text(text)
        return read_scenario(p)

    with pytest.raises(ValueError, match="line 6: key 'alpha' already set on line 5"):
        parse(SCENARIO_FILE.replace("alpha = 10.0\n", "alpha = 10.0\nalpha = 0.5\n"))
    with pytest.raises(ValueError, match="line 16: key 'epsilon_1' already set on line 15"):
        parse(SCENARIO_FILE.replace("epsilon_1 = 1.0\n", "epsilon_1 = 1.0\nepsilon_1 = 3\n"))
    with pytest.raises(ValueError, match="line 16: key 'epsilon_01' already set on line 15"):
        parse(SCENARIO_FILE.replace("epsilon_1 = 1.0\n", "epsilon_1 = 1.0\nepsilon_01 = 3\n"))
    # a second [delay] section, and a bare delay.* key, set the same keys
    with pytest.raises(ValueError, match="line 24: key 'delay.mean' already set on line 20"):
        parse(SCENARIO_FILE + "\n[delay]\nmean = 7e-3\n")
    with pytest.raises(ValueError, match="line 3: key 'delay.kind' already set on line 1"):
        parse("delay.kind = constant\n[delay]\nkind = uniform\n")


# -------------------------------------------------------------------- MAC


@dataclass
class Tx:
    src: int
    dst: int


def test_mac_trivial_cases():
    rng = np.random.default_rng(0)
    assert mac_arbitrate([], rng) == ([], [])
    one = [Tx(0, 1)]
    assert mac_arbitrate(one, rng) == (one, [])


def test_mac_shared_endpoint_admits_one():
    rng = np.random.default_rng(0)
    pending = [Tx(0, 1), Tx(1, 2), Tx(2, 0)]  # triangle: any two conflict
    admitted, dropped = mac_arbitrate(pending, rng)
    assert len(admitted) == 1 and len(dropped) == 2


def test_mac_disjoint_all_admitted():
    rng = np.random.default_rng(0)
    pending = [Tx(0, 1), Tx(2, 3), Tx(4, 5)]
    admitted, dropped = mac_arbitrate(pending, rng)
    assert len(admitted) == 3 and not dropped


def test_mac_maximal_matching_property():
    rng = np.random.default_rng(42)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        pending = []
        for _ in range(k):
            i, j = rng.choice(8, size=2, replace=False)
            pending.append(Tx(int(i), int(j)))
        admitted, dropped = mac_arbitrate(pending, rng)
        assert sorted(map(id, admitted + dropped)) == sorted(map(id, pending))
        busy = [e for t in admitted for e in (t.src, t.dst)]
        assert len(busy) == len(set(busy))  # a matching
        for t in dropped:  # maximal: every drop conflicts with an admit
            assert any({t.src, t.dst} & {a.src, a.dst} for a in admitted)


# ---------------------------------------------------------------- metrics


NO_COUNTS = dict.fromkeys(("collisions", "timeouts", "orphans", "out_of_order"), 0)


def ledger(n=1, **columns):
    """A ledger's errors over nodes 1..n: the buffers given as
    ``column={node: values}``, every other buffer empty."""
    return {col: {m: array("d", columns.get(col, {}).get(m, ())) for m in range(1, n + 1)}
            for col in _ERROR_COLUMNS}


def test_compute_metrics_hand_values():
    errors = ledger(offset_mae={1: [0.1, 0.1]}, skew_mae={1: [0.0, 0.1]},
                    offset_nosync={1: [0.1, 0.3]}, skew_nosync={1: [0.0, 0.2]},
                    pred_mae={1: [0.5, 0.2]})
    counts = dict(collisions=2, timeouts=3, orphans=4, out_of_order=5)
    rep = compute_metrics(errors, counts)
    assert rep.offset_mae[1] == pytest.approx(0.1)
    assert rep.skew_mae[1] == pytest.approx(0.05)
    assert rep.offset_nosync[1] == pytest.approx(0.2)
    assert rep.skew_nosync[1] == pytest.approx(0.1)
    assert rep.pred_mae[1] == pytest.approx(0.35)
    assert (rep.collisions, rep.discarded, rep.out_of_order) == (2, 3 + 4, 5)


def test_compute_metrics_perfect_and_missing():
    rep = compute_metrics(ledger(2, offset_mae={2: [0.0] * 5}, skew_mae={2: [0.0] * 5},
                                 offset_nosync={2: [0.25] * 5}, skew_nosync={2: [0.1] * 5}),
                          NO_COUNTS)
    assert rep.offset_mae[2] == 0.0
    assert rep.skew_mae[2] == 0.0
    assert rep.offset_nosync[2] == 0.25
    assert math.isnan(rep.pred_mae[2])
    # node 1 has no errors at all: every column still holds it, as NaN
    assert all(math.isnan(getattr(rep, col)[1]) for col in _ERROR_COLUMNS)


def test_compute_metrics_empty_and_mismatch():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty buffer is NaN without a warning
        rep = compute_metrics(ledger(), NO_COUNTS)
    assert math.isnan(rep.offset_mae[1]) and math.isnan(rep.skew_mae[1])
    assert (rep.collisions, rep.discarded, rep.out_of_order) == (0, 0, 0)
    # prediction errors need no ground truth
    rep = compute_metrics(ledger(pred_mae={1: [0.5]}), NO_COUNTS)
    assert rep.pred_mae[1] == 0.5 and math.isnan(rep.offset_mae[1])


def tuple_metrics(samples, predictions):
    """Per-node MAEs from rows of (t, tau, skew, offset_est, skew_est) and
    (predicted, actual) receipt pairs: the formula of the report's
    earlier tuple-based assembly, kept as the reference."""
    cols = {col: {} for col in _ERROR_COLUMNS}
    for node, rows in samples.items():
        pairs = predictions.get(node, [])
        if pairs:
            arr = np.asarray(pairs, dtype=float)
            cols["pred_mae"][node] = float(np.mean(np.abs(arr[:, 0] - arr[:, 1])))
        else:
            cols["pred_mae"][node] = float("nan")
        t, tau, skew, est_off, est_skew = np.array(rows, dtype=float).reshape(-1, 5).T
        if len(t) == 0:
            for col in ("offset_mae", "skew_mae", "offset_nosync", "skew_nosync"):
                cols[col][node] = float("nan")
            continue
        true_off = tau - t
        cols["offset_mae"][node] = float(np.mean(np.abs(est_off - true_off)))
        cols["skew_mae"][node] = float(np.mean(np.abs(est_skew - skew)))
        cols["offset_nosync"][node] = float(np.mean(np.abs(true_off)))
        cols["skew_nosync"][node] = float(np.mean(np.abs(skew - 1.0)))
    return cols


@pytest.mark.scipy_floor
def test_ledger_metrics_match_the_tuple_formula_bit_for_bit():
    # Lengths around the steps of numpy's summation: 8-way unrolling,
    # 128-value pairwise blocks and 8 192-value buffers.
    lengths = (0, 1, 7, 8, 9, 127, 128, 129, 8192, 8193)
    rng = np.random.default_rng(7)
    samples, predictions = {}, {}
    errors = ledger(len(lengths))
    for m, (k_samples, k_preds) in enumerate(zip(lengths, lengths[::-1]), 1):
        t = rng.uniform(0.0, 12.0, k_samples)
        tau = t + rng.normal(0.0, 1e-2, k_samples)
        skew = np.exp(rng.normal(0.0, 0.2, k_samples))
        rows = list(zip(t.tolist(), tau.tolist(), skew.tolist(),
                        rng.normal(0.0, 1e-2, k_samples).tolist(),
                        np.exp(rng.normal(0.0, 0.2, k_samples)).tolist()))
        pairs = list(zip(rng.uniform(0.0, 12.0, k_preds).tolist(),
                         rng.uniform(0.0, 12.0, k_preds).tolist()))
        samples[m], predictions[m] = rows, pairs
        for t_, tau_, skew_, est_off, est_skew in rows:  # as the engine appends them
            errors["offset_mae"][m].append(abs(est_off - (tau_ - t_)))
            errors["skew_mae"][m].append(abs(est_skew - skew_))
            errors["offset_nosync"][m].append(abs(tau_ - t_))
            errors["skew_nosync"][m].append(abs(skew_ - 1.0))
        for r_hat, r1 in pairs:  # as the machine appends them
            errors["pred_mae"][m].append(abs(r_hat - r1))
    rep = compute_metrics(errors, NO_COUNTS)
    want = tuple_metrics(samples, predictions)
    for col in _ERROR_COLUMNS:
        assert {m: v.hex() for m, v in getattr(rep, col).items()} == \
            {m: v.hex() for m, v in want[col].items()}, col


def test_metrics_csv(tmp_path):
    rep = compute_metrics(ledger(offset_mae={1: [0.0]}, skew_mae={1: [0.0]},
                                 offset_nosync={1: [0.5]}, skew_nosync={1: [0.0]},
                                 pred_mae={1: [0.25]}), NO_COUNTS)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,offset_mae,skew_mae,pred_mae,offset_nosync,skew_nosync"
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert float(fields[1]) == 0.0 and float(fields[3]) == 0.25


# --------------------------------------------------------------- trace I/O


def test_trace_csv_round_trip(tmp_path):
    rows = [
        TraceRow("skew-a", 0, 1, 3, 0.1, 0.2, true_send_t=0.1, true_delay=0.1),
        TraceRow("off-ack", 1, 0, 4, 1.0 / 3.0, math.pi),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    assert read_trace_csv(path) == rows


def test_trace_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,header\n")
    with pytest.raises(ValueError, match="line 1: expected trace header"):
        read_trace_csv(path)
    path.write_text(TRACE_HEADER + "\nskew-a,0,1,1,0.0\n")
    with pytest.raises(ValueError, match="line 2: expected 8 fields"):
        read_trace_csv(path)
    path.write_text(TRACE_HEADER + "\nskew-a,0,one,1,0.0,0.1,,\n")
    with pytest.raises(ValueError, match="line 2: malformed trace row"):
        read_trace_csv(path)


def test_read_trace_csv_tolerates_loose_layout(tmp_path):
    # CRLF line ends, blank and whitespace-only lines, spaces around the
    # line and its fields, an empty ground-truth pair, no final newline
    path = tmp_path / "loose.csv"
    path.write_bytes((
        TRACE_HEADER + " \r\n"
        "\r\n"
        "  skew-a, 0 ,1, 3 ,0.25, 0.5 ,0.125, 0.0625  \r\n"
        "   \t \r\n"
        "off-ack,1,0,4,1.5,2.5,,\r\n"
        "\n"
        "skew-b,0,1,3,0.75,1.0,, "
    ).encode())
    assert read_trace_csv(path) == [
        TraceRow("skew-a", 0, 1, 3, 0.25, 0.5, true_send_t=0.125, true_delay=0.0625),
        TraceRow("off-ack", 1, 0, 4, 1.5, 2.5),
        TraceRow("skew-b", 0, 1, 3, 0.75, 1.0),
    ]
    path.write_text(TRACE_HEADER + "\noff-ack,1,0,4,1.5,2.5\n")
    with pytest.raises(ValueError, match="line 2: expected 8 fields, got 6"):
        read_trace_csv(path)


def test_read_trace_csv_streams_the_file(tmp_path):
    # The reader holds one line of the file at a time: what it allocates
    # beyond the rows it returns is a small fraction of the file.
    rows = [TraceRow("off-rep", k % 7, k % 7 + 1, k, k / 3.0, k / 3.0 + math.pi,
                     k / 7.0, math.e) for k in range(20_000)]
    path = tmp_path / "trace.csv"
    write_trace_csv(rows, path)
    tracemalloc.start()
    try:
        got = read_trace_csv(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == rows
    assert peak - kept < 0.05 * path.stat().st_size


def test_read_trace_csv_names_an_undecodable_line(tmp_path):
    # Decoded as UTF-8 whatever the locale; an invalid byte on any line,
    # the header included, raises with that line's number.
    path = tmp_path / "bad.csv"
    good = [TRACE_HEADER, "skew-a,0,1,1,0.5,0.6,0.1,0.2", "skew-b,0,1,1,0.5,0.6,0.1,0.2"]
    for ln in (1, 2, 3):
        lines = [line.encode() for line in good]
        lines[ln - 1] = lines[ln - 1].replace(b",", b",\xff", 1)
        path.write_bytes(b"\n".join(lines) + b"\n")
        column = lines[ln - 1].index(b"\xff") + 1
        with pytest.raises(ValueError, match=f"^line {ln}: byte 0xff at column {column} "
                                             "is not utf-8$"):
            read_trace_csv(path)


@pytest.mark.parametrize("tail", ["0.5,", ",0.5", "0.5, ", " ,0.5", "0.5,x"])
def test_read_trace_csv_rejects_half_a_ground_truth_pair(tmp_path, tail):
    path = tmp_path / "half.csv"
    path.write_text(TRACE_HEADER + "\nskew-a,0,1,1,0.5,0.6,,\n"
                    f"skew-a,0,1,1,0.5,0.6,{tail}\n")
    with pytest.raises(ValueError, match=re.escape(
            f"line 3: malformed trace row {f'skew-a,0,1,1,0.5,0.6,{tail}'.strip()!r}")):
        read_trace_csv(path)


def test_quantize_stamp():
    q = quantize_stamp(math.pi)
    assert q == float(f"{math.pi:.12g}")
    assert quantize_stamp(q) == q  # idempotent
    assert quantize_stamp(0.0) == 0.0
    assert quantize_stamp(-1.23456789012345e-7) == pytest.approx(-1.23456789012e-7)


# --------------------------------------------------- machine-level behavior


def test_ss_forgetting_and_fallbacks():
    sc = two_node(protocol="SS", ss_lambda=0.05)
    m = ProtocolMachine(sc)
    assert m.relative_skew(0, 1, 0.0, 0.0) == (1.0, None)  # nothing seen yet
    m.skew_complete(0, 1, 0.0, 0.0, 1.0, 2.0)  # ratio 2
    assert m.ratios[(0, 1)] == 2.0
    m.skew_complete(0, 1, 0.0, 0.0, 1.0, 2.0)
    assert m.ratios[(0, 1)] == pytest.approx(2.0)
    m.skew_complete(0, 1, 0.0, 0.0, 1.0, 4.0)  # ratio 4
    assert m.ratios[(0, 1)] == pytest.approx(0.95 * 2.0 + 0.05 * 4.0)
    assert m.relative_skew(1, 0, 0.0, 0.0)[0] == pytest.approx(1.0 / 2.1)
    assert m.nodal_skew(1, 0.0) == pytest.approx(2.1)  # single link: w = log ratio


@pytest.mark.parametrize("proto, carried, own, skews", [
    ("SS", 1.25, None, (1.25, 0.8)),   # carried; a_ji its reciprocal
    ("SS", 1.25, 0.5, (1.25, 0.5)),    # carried; a_ji the own ratio
    ("SS", None, 0.5, (2.0, 0.5)),     # both from the own ratio
    ("SS", None, None, None),          # no skew yet: no offset
    ("Hybrid", None, None, None),      # the filters need the carried skew
    ("MBCSP", None, None, None),
])
def test_offset_reply_skews(proto, carried, own, skews):
    m = ProtocolMachine(two_node(protocol=proto))
    if own is not None:
        m.ratios[(0, 1)] = own  # the initiator's held ratio on (j, i)
    s_i, r_ij, s_j, r_ji = 1.0, 1.004, 1.006, 1.0101
    tau = m.off_reply_arrived(1, 0, s_i, r_ij, s_j, r_ji, carried)
    if skews is None:
        assert tau is None
        assert m.rel_off.values == {} and m.u_off[1] == 0.0
        return
    want = offset_delay_estimate(s_i, r_ij, s_j, r_ji, *skews)[0]
    assert tau.hex() == want.hex()
    assert m.rel_off.values == {(1, 0): want} and m.u_off[1] == r_ji


def test_out_of_order_counter():
    sc = two_node(protocol="SS")
    m = ProtocolMachine(sc)
    m.skew_complete(0, 1, 0.0, 2.0, 1.0, 1.5)  # receipts step backwards
    assert m.counts["out_of_order"] == 1
    m.skew_complete(0, 1, 0.0, 1.5, 1.0, 2.5)
    assert m.counts == dict(NO_COUNTS, out_of_order=1)
    assert len(m.errors["pred_mae"][1]) == 1  # the second pair's receipt is predicted


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_same_slot_receipts_skip_the_measurement(proto):
    m = ProtocolMachine(two_node(protocol=proto))
    m.skew_complete(0, 1, 0.0, 1.5, 1.0, 1.5)  # SS would take log(0)
    assert m.counts["out_of_order"] == 1
    assert m.completed == {(0, 1)}
    assert m.nodal_skew(1, 1.5) == ProtocolMachine(m.sc).nodal_skew(1, 1.5)


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_equal_send_stamps_skip_the_pair(proto):
    m = ProtocolMachine(two_node(protocol=proto))
    fresh = ProtocolMachine(m.sc)
    m.skew_complete(0, 1, 1.0, 1.2, 1.0, 1.3)  # SS would divide by zero
    assert m.completed == {(0, 1)}
    m.skew_complete(0, 1, 1.0, 1.4, 1.0, 1.5)  # a completed link predicts no receipt
    assert m.errors == ProtocolMachine(m.sc).errors and m.counts == NO_COUNTS
    assert m.nodal_skew(1, 1.6) == fresh.nodal_skew(1, 1.6)
    assert m.relative_skew(0, 1, 1.6, 1.6) == fresh.relative_skew(0, 1, 1.6, 1.6)


def dense_staleness_predict(st, elapsed):
    """``P * outer(g, g) + diag(noise)`` over the whole network filter;
    ``elapsed`` is keyed by node, and node m sits in row m - 1."""
    g, noise = np.ones(st.n), np.zeros(st.n)
    for m, d in elapsed.items():
        k = m - 1
        g[k] = np.exp(-st.alpha * d)
        noise[k] = st.params[m].epsilon ** 2 / (2.0 * st.alpha) * (1.0 - g[k] * g[k])
    return replace(st, x_hat=g * st.x_hat, P=st.P * np.outer(g, g) + np.diag(noise))


def test_mbcsp_readouts_match_the_dense_network_filter():
    ring = SyncGraph(n=4, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)))
    sc = Scenario(graph=ring, alpha=10.0, epsilons=(0.0, 1.0, 0.6, 1.4, 0.8),
                  delay=DELAY, protocol="MBCSP")
    m = ProtocolMachine(sc)
    rng = np.random.default_rng(21)
    t = 0.0
    for _ in range(40):  # correlate the state through distributed updates
        snd, rcv = ring.edges[rng.integers(len(ring.edges))]
        t += rng.uniform(1e-3, 5e-2)
        s1, r0 = t + 4e-3, t + 5e-3
        m.skew_complete(snd, rcv, t, r0, s1, r0 + 4e-3 * rng.uniform(0.99, 1.01))
    net = m.network.state
    assert np.count_nonzero(net.P) > 10

    def dense(now):
        return dense_staleness_predict(net, {
            k: max(0.0, stamp - m.network.last[k]) for k, stamp in now.items() if k != 0})

    for (i, j) in ring.edges + ((3, 1), (0, 2)):
        now_i, now_j = t + rng.uniform(-0.05, 0.05), t + rng.uniform(-0.05, 0.05)
        rel = RelParams(sc.alpha, sc.epsilons[i], sc.epsilons[j])
        moments = link_moments(dense({i: now_i, j: now_j}), i, j, {})
        want = relative_skew_readout(rel, *moments, now_j)
        a_ij, a_sym = m.relative_skew(i, j, now_i, now_j)
        assert a_ij.hex() == want[0].hex()
        assert a_sym.hex() == want[2].hex()
        assert m.reply_payload(i, j, now_i, now_j).hex() == want[2].hex()
    for k in range(1, 5):
        tau = t + rng.uniform(-0.05, 0.05)
        want = nodal_skew_estimate(sc.params[k], *link_moments(dense({k: tau}), 0, k, {}), tau)
        assert m.nodal_skew(k, tau).hex() == want.hex()
    elapsed = {1: 0.03, 3: 0.01}
    slow = dense_staleness_predict(net, elapsed)
    net_predict_rows(net, elapsed)
    np.testing.assert_array_equal(net.P, slow.P)
    np.testing.assert_array_equal(net.x_hat, slow.x_hat)


def test_hybrid_link_filter_is_the_network_filter_on_its_endpoints():
    # On LINE3 the link (1, 2) holds every non-reference node, so the
    # Hybrid filter of that link and the MBCSP network filter see the
    # same state: fed the same pairs, they must agree exactly.
    hyb, net = (ProtocolMachine(Scenario(graph=LINE3, alpha=10.0, epsilons=(0.0, 1.0, 0.6),
                                         delay=DELAY, protocol=proto))
                for proto in ("Hybrid", "MBCSP"))
    rng = np.random.default_rng(5)
    t = 0.0
    for _ in range(20):
        snd, rcv = (1, 2) if rng.uniform() < 0.5 else (2, 1)
        t += rng.uniform(1e-3, 5e-2)
        s1, r0 = t + 4e-3, t + 5e-3
        r1 = r0 + 4e-3 * rng.uniform(0.99, 1.01)
        for m in (hyb, net):
            m.skew_complete(snd, rcv, t, r0, s1, r1)
    link, whole = hyb.filters[(1, 2)].state, net.network.state
    assert np.count_nonzero(whole.P) == 4
    np.testing.assert_array_equal(link.x_hat, whole.x_hat)
    np.testing.assert_array_equal(link.P, whole.P)
    for (i, j) in ((1, 2), (2, 1)):
        now_i, now_j = t + rng.uniform(0, 0.05), t + rng.uniform(0, 0.05)
        want = net.relative_skew(i, j, now_i, now_j)
        got = hyb.relative_skew(i, j, now_i, now_j)
        assert [a.hex() for a in got] == [a.hex() for a in want]


def test_mbcsp_run_updates_one_covariance_buffer(monkeypatch):
    machines = []

    class Recorded(ProtocolMachine):
        def __init__(self, sc):
            super().__init__(sc)
            machines.append((self, self.network.state.P))

    monkeypatch.setattr(simulator, "ProtocolMachine", Recorded)
    sc = Scenario(graph=LINE4, alpha=10.0, epsilons=(0.0, 1.0, 0.6, 1.4), delay=DELAY,
                  horizon=2.0, skew_rate=5.0, protocol="MBCSP", seed=2)
    run_scenario(sc)
    (machine, start), = machines
    assert np.shares_memory(machine.network.state.P, start)
    assert np.count_nonzero(start) == 9  # updated, and correlated across the line


def test_mbcsp_replay_allocates_no_covariance_copy():
    # Replaying a 200-node line adds less than one P to the traced peak:
    # the network filter updates its state in place.
    base = read_scenario(SCENARIOS / "ten-node-line.scenario")
    n = 199
    sc = replace(base, graph=SyncGraph(n=n, edges=[(i, i + 1) for i in range(n)]),
                 epsilons=(0.0,) + (1.0,) * n, horizon=0.2, protocol="MBCSP")
    _, trace = run_scenario(sc)
    machine = ProtocolMachine(sc)
    assert traced_peak(lambda: [machine.deliver(row) for row in trace]) < 200 * 200 * 8
    assert np.count_nonzero(machine.network.state.P) > n


def test_link_values_relax_like_jacobi_step():
    rng = np.random.default_rng(8)
    links = RelativeEstimates()
    for _ in range(30):  # repeated and reversed links included
        i, j = (int(k) for k in rng.choice(6, 2, replace=False))
        links.store((i, j), float(rng.normal()))
    graph = SyncGraph(n=5, edges=tuple(links.values))
    rel = RelativeEstimates(dict(links.values))
    v = rng.normal(size=6)
    for node in range(1, 6):
        want = jacobi_step(node, v, graph, rel)
        links.relax(node, v)
        assert v[node].hex() == want.hex()
    with pytest.raises(ValueError, match=r"estimate on edge \(1, 2\) must be finite"):
        links.store((1, 2), float("nan"))


def test_machine_rejects_unknown_link():
    sc = Scenario(graph=LINE3, alpha=10.0, epsilons=(0.0, 1.0, 1.0),
                  delay=DELAY, protocol="Hybrid")
    m = ProtocolMachine(sc)
    with pytest.raises(ValueError, match="no edge between 0 and 2"):
        m.relative_skew(0, 2, 0.0, 0.0)


# ----------------------------------------------------------------- end-to-end


@pytest.mark.scipy_floor
def test_zero_noise_constant_delay_is_exact():
    sc = two_node(epsilons=(0.0, 0.0),
                  delay=DelayModel(kind="constant", mean=5e-3))
    for proto in PROTOCOLS:
        rep, _ = run_scenario(replace(sc, protocol=proto))
        assert rep.offset_mae[1] < 1e-6, proto
        assert rep.skew_mae[1] < 1e-6, proto
        assert rep.pred_mae[1] < 1e-6, proto
        assert rep.skew_nosync[1] == 0.0
        assert rep.out_of_order == 0


def test_run_is_deterministic(tmp_path):
    sc = two_node(seed=11)
    rep1, tr1 = run_scenario(sc)
    rep2, tr2 = run_scenario(sc)
    assert tr1 == tr2
    assert metrics_csv_bytes(rep1, tmp_path, "a.csv") == \
        metrics_csv_bytes(rep2, tmp_path, "b.csv")
    assert (rep1.collisions, rep1.discarded) == (rep2.collisions, rep2.discarded)
    rep3, tr3 = run_scenario(replace(sc, seed=12))
    assert tr3 != tr1


def test_two_node_hybrid_reduces_to_network_filter(tmp_path):
    sc = two_node(seed=5)
    rep_net, _ = run_scenario(replace(sc, protocol="MBCSP"))
    rep_hyb, _ = run_scenario(replace(sc, protocol="Hybrid"))
    assert metrics_csv_bytes(rep_net, tmp_path, "n.csv") == \
        metrics_csv_bytes(rep_hyb, tmp_path, "h.csv")


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_streamed_clocks_are_the_simulate_clock_paths(proto):
    # The shipped two-node scenario at horizon 1.0 spans many engine chunks.
    sc = replace(read_scenario(SCENARIOS / "two-node.scenario"),
                 horizon=1.0, protocol=proto)
    children = np.random.SeedSequence(sc.seed).spawn(sc.graph.n + 4)
    paths = [simulate_clock(p, sc.horizon, sc.dt, int(c.generate_state(1, np.uint64)[0]))
             for p, c in zip(sc.params, children)]
    _, trace = run_scenario(sc)
    arrivals = [round((row.true_send_t + row.true_delay) / sc.dt) for row in trace]
    assert max(arrivals) > 10 * _CHUNK_STEPS
    for row, slot in zip(trace, arrivals):
        sent = round(row.true_send_t / sc.dt)
        assert row.s_stamp == quantize_stamp(paths[row.src].displays[sent])
        assert row.r_stamp == quantize_stamp(paths[row.dst].displays[slot])


def test_run_memory_does_not_grow_with_the_horizon():
    sc = replace(read_scenario(SCENARIOS / "two-node.scenario"),
                 horizon=12.0, protocol="SS")
    assert traced_peak(lambda: run_scenario(sc)) < 16 * 2**20


def no_drawer(*args):
    """A clock drawer that fails to start: its batch draws in-process."""
    raise OSError("no process to spare")


def batch_chunks(clocks, n_steps, chunk_steps, monkeypatch, can_fork=None):
    """Steps per chunk of a batch of ``clocks`` clocks (one of them
    noiseless) over ``n_steps`` steps asked for at ``chunk_steps``, and
    whether it forks, on this host or on one where ``can_fork`` says
    whether batches may: its drawer fails to start, so the batch draws in
    this process at the width it chose to fork at."""
    params = [ClockParams(10.0, 0.0)] + [ClockParams(10.0, 1.0)] * (clocks - 1)
    started = []

    def drawer(*args):
        started.append(args)
        no_drawer()

    with monkeypatch.context() as patch:
        if can_fork is not None:
            patch.setattr(clocks_module, "_can_fork", lambda: can_fork)
        patch.setattr(clocks_module, "_Drawer", drawer)
        chunks = clock_chunks(params, 1e-3, n_steps, [np.random.default_rng(0)] * clocks,
                              chunk_steps)
        return next(chunks)[0].shape[1], bool(started)  # chunk 0 holds points 0..width-1


@pytest.mark.scipy_floor
@pytest.mark.parametrize("clocks, width, forked_width", [
    (5, 4096, 4096), (10, 4096, 4096), (100, 2621, 1310), (300, 1024, 512)])
def test_engine_chunk_width_in_process_and_forked(monkeypatch, clocks, width, forked_width):
    # The engine asks for about _CHUNK_VALUES values a chunk, 1 024 to
    # 4 096 slots; a forked batch narrows that to about half the values,
    # never below 512 slots, to fit its ring beside them.
    assert _chunk_width(clocks) == width
    for forks, want in ((False, width), (True, forked_width)):
        assert batch_chunks(clocks, 2**20, width, monkeypatch, forks) == (want, forks)


@pytest.mark.scipy_floor
def test_sample_displays_chunk_width_in_process_and_forked(monkeypatch):
    # One clock over 2^20 steps or more: its chunks are 32 768 points
    # wide, forked or not.
    widths = []

    def spy(*args):
        for chunk in clock_chunks(*args):
            widths.append(chunk[1].shape[1])
            yield chunk

    monkeypatch.setattr(clocks_module, "clock_chunks", spy)
    monkeypatch.setattr(clocks_module, "_Drawer", no_drawer)
    for forks in (False, True):
        monkeypatch.setattr(clocks_module, "_can_fork", lambda: forks)
        widths.clear()
        clocks_module.sample_displays(ClockParams(10.0, 1.0), 1.0, 1049, 1e-3, 0)
        assert widths[0] == 32_768 and max(widths) == 32_768


def engine_chunks(clocks, n_slots, monkeypatch):
    """Slots per engine chunk of a run of ``clocks`` clocks (one of them the
    noiseless reference) over ``n_slots`` slots, whether a forked child
    draws its normals, and the bytes of one chunk array and of the
    child's shared ring: its slots of one chunk array each, a carry of one
    value per clock and one split per slot (0 if the run draws them
    in-process)."""
    width, forked = batch_chunks(clocks, n_slots, _chunk_width(clocks), monkeypatch)
    slots = clocks_module._RING_SLOTS
    ring = 8 * (slots * clocks * (width + 1) + clocks + slots) if forked else 0
    return width, forked, clocks * (width + 1) * 8, ring


def own_state_peak(sc, monkeypatch):
    """Traced peak of ``run_scenario(sc)`` with 8-slot engine chunks: the
    run's own state, with next to nothing of its clocks."""
    with monkeypatch.context() as patch:
        patch.setattr(simulator, "_chunk_width", lambda clocks: 8)
        return traced_peak(lambda: run_scenario(sc))


def test_run_holds_at_most_three_chunk_arrays(monkeypatch):
    # 100 clocks over 20 000 slots: the engine asks for chunks of about
    # _CHUNK_VALUES values (100 x 2 622), which a batch whose normals a
    # forked child draws narrows to half that (100 x 1 311).  What they
    # add to the run's own state is three arrays of one chunk in-process,
    # or two and the child's ring forked, with half an array to spare; the
    # whole peak stays below the 7.34 MB of three and a half 100 x 2 622
    # arrays that bounded it before the ring.  A short run first makes the
    # imports of a process's first run, outside the trace.
    sc = line(100, 0.2)
    width, forked, array, ring = engine_chunks(100, 20_000, monkeypatch)
    assert width == (1310 if forked else 2621)
    run_scenario(replace(sc, horizon=1e-3))
    peak = traced_peak(lambda: run_scenario(sc))
    assert peak - own_state_peak(sc, monkeypatch) < (2.5 if forked else 3.5) * array + ring
    assert peak < 7.34e6


def test_run_chunk_memory_does_not_grow_with_the_node_count(monkeypatch):
    # 300 clocks over 5 000 slots: each chunk array is 300 x 1 025 values,
    # at the 1 024-slot floor, not 300 x 4 097; or 300 x 513 at the
    # 512-slot floor of a forked batch, whose ring slots are 300 x 513.
    # It holds three arrays in-process, two and the ring forked.  The
    # whole peak stays below the 8.61 MB of three and a half 300 x 1 025
    # arrays that bounded it before the ring.  A short run first makes the
    # imports of a process's first run, outside the trace.
    sc = line(300, 0.05)
    width, forked, array, ring = engine_chunks(300, 5_000, monkeypatch)
    assert width == (512 if forked else 1024)
    run_scenario(replace(sc, horizon=1e-3))
    peak = traced_peak(lambda: run_scenario(sc))
    assert peak - own_state_peak(sc, monkeypatch) < (2.5 if forked else 3.5) * array + ring
    assert peak < 8.61e6


def run_outputs(sc, tmp_path, name):
    """Trace and metrics CSV bytes and the counters of one run."""
    rep, trace = run_scenario(sc)
    write_trace_csv(trace, tmp_path / name)
    return ((tmp_path / name).read_bytes(), metrics_csv_bytes(rep, tmp_path, name + ".m"),
            rep.collisions, rep.out_of_order, rep.discarded)


@pytest.mark.scipy_floor
@pytest.mark.parametrize("proto", PROTOCOLS)
def test_forked_clocks_give_the_in_process_run(tmp_path, monkeypatch, forks, proto):
    # The recursion split between the processes by the policy, and by
    # each forced schedule.
    two = replace(read_scenario(SCENARIOS / "two-node.scenario"), horizon=1.0, protocol=proto)
    for sc in (line(300, 0.05, proto), two):
        want = in_process(monkeypatch, lambda: run_outputs(sc, tmp_path, "here.csv"))
        for schedule in (None, *SPLIT_SCHEDULES):
            with monkeypatch.context() as patch:
                if schedule:
                    force_splits(patch, schedule)
                assert run_outputs(sc, tmp_path, "forked.csv") == want, schedule
    assert len(forks) == 2 * (1 + len(SPLIT_SCHEDULES)) and no_child_left()


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_run_outputs_do_not_depend_on_the_chunk_width(tmp_path, monkeypatch, proto):
    # A forked batch's 512-slot chunks against 4 096-slot ones, which it
    # narrows only to what its value budget allows.
    sc = line(300, 0.05, proto)
    narrow = run_outputs(sc, tmp_path, "narrow.csv")
    monkeypatch.setattr(simulator, "_chunk_width", lambda clocks: _CHUNK_STEPS)
    monkeypatch.setattr(clocks_module, "_FORK_CHUNK_VALUES", 300 * _CHUNK_STEPS)
    assert run_outputs(sc, tmp_path, "wide.csv") == narrow


def test_trace_rows_are_well_formed():
    # The engine sends each packet as its row, with NaN stamps that the
    # MAC admission and the arrival fill: no traced row keeps one, and
    # no row is traced twice.
    kinds = {"skew-a", "skew-b", "skew-ack", "off-req", "off-rep", "off-ack"}
    for proto in PROTOCOLS:
        sc = two_node(seed=2, protocol=proto)
        _, trace = run_scenario(sc)
        assert trace
        assert len({id(row) for row in trace}) == len(trace)
        for row in trace:
            assert row.kind in kinds
            assert {row.src, row.dst} == {0, 1}
            assert all(map(math.isfinite, (row.s_stamp, row.r_stamp,
                                           row.true_send_t, row.true_delay)))
            assert row.s_stamp == quantize_stamp(row.s_stamp)
            assert row.r_stamp == quantize_stamp(row.r_stamp)
            assert row.true_delay >= sc.dt - 1e-12
            assert row.true_delay / sc.dt == pytest.approx(round(row.true_delay / sc.dt))
            assert 0.0 <= row.true_send_t <= sc.horizon


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_replay_reproduces_predictions(tmp_path, proto):
    sc = two_node(seed=3, protocol=proto)
    live, trace = run_scenario(sc)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    rep = trace_replay(read_trace_csv(path), sc)
    for m in live.pred_mae:
        if math.isnan(live.pred_mae[m]):
            assert math.isnan(rep.pred_mae[m])
        else:
            assert rep.pred_mae[m] == live.pred_mae[m]  # bit-exact
    assert rep.out_of_order == live.out_of_order
    assert all(math.isnan(v) for v in rep.offset_mae.values())


def test_replay_tolerates_empty_and_orphan_rows():
    sc = two_node()
    rep = trace_replay([], sc)
    assert math.isnan(rep.pred_mae[1])
    orphan = [TraceRow("skew-b", 0, 1, 9, 0.0, 0.1),
              TraceRow("off-rep", 1, 0, 8, 0.0, 0.1),
              TraceRow("off-ack", 0, 1, 7, 0.0, 0.1)]
    rep = trace_replay(orphan, sc)
    assert math.isnan(rep.pred_mae[1]) and rep.discarded == 3
    m = ProtocolMachine(sc)
    assert [m.deliver(row) for row in orphan] == [(None, False)] * 3
    assert m.counts == dict(NO_COUNTS, orphans=3)
    with pytest.raises(ValueError, match="unknown packet kind 'sync'"):
        m.deliver(TraceRow("sync", 0, 1, 6, 0.0, 0.1))


@pytest.mark.parametrize("proto", PROTOCOLS)
@pytest.mark.parametrize("src, dst", [(0, 2), (2, 0), (7, 1), (1, 7)])
def test_replay_rejects_rows_off_the_graph(proto, src, dst):
    sc = Scenario(graph=LINE3, alpha=10.0, epsilons=(0.0, 1.0, 1.0), delay=DELAY,
                  protocol=proto)
    rows = [TraceRow(kind, src, dst, 1, 0.0, 0.1) for kind in ("skew-a", "skew-b")]
    with pytest.raises(ValueError, match=f"no edge between {src} and {dst}"):
        trace_replay(rows, sc)
    m = ProtocolMachine(sc)
    for row in rows[::-1]:  # a lone skew-b would count an orphan
        with pytest.raises(ValueError, match="no edge"):
            m.deliver(row)
    assert m.counts == NO_COUNTS


def assert_replay_exact(live, trace, sc, path):
    write_trace_csv(trace, path)
    rep = trace_replay(read_trace_csv(path), sc)
    assert {m: v.hex() for m, v in rep.pred_mae.items()} == \
        {m: v.hex() for m, v in live.pred_mae.items()}
    assert rep.out_of_order == live.out_of_order
    return rep


LINE4 = SyncGraph(n=3, edges=((0, 1), (1, 2), (2, 3)))


# Runs that deliver both packets of one skew pair in the same slot.  SS
# replies differently, so with skew gap 2 and seed 1 it meets no such pair.
SAME_SLOT_RUNS = [(1, 2, p) for p in PROTOCOLS] + [(2, 1, "Hybrid"), (2, 1, "MBCSP")]


@pytest.mark.parametrize("skew_gap, seed, proto", SAME_SLOT_RUNS)
def test_same_slot_receipts_do_not_stop_a_run(tmp_path, skew_gap, seed, proto):
    sc = Scenario(graph=LINE4, alpha=10.0, epsilons=(0.0, 1.0, 1.0, 1.0),
                  delay=DelayModel(kind="truncated-normal", mean=5e-3, spread=3e-3),
                  horizon=2.0, skew_rate=20.0, offset_rate=20.0,
                  skew_gap=skew_gap, seed=seed, protocol=proto)
    live, trace = run_scenario(sc)
    assert live.out_of_order >= 1
    rep = assert_replay_exact(live, trace, sc, tmp_path / "trace.csv")
    # No exchange of these runs times out (delays stay far below the
    # timeout of ten mean delays), so every live discard is an orphan, a
    # skew-b that overtook its skew-a, which the trace keeps.
    assert live.discarded > 0 and rep.discarded == live.discarded
    assert rep.collisions == 0


@pytest.mark.parametrize("proto", PROTOCOLS)
def test_equal_send_stamps_do_not_stop_a_run(tmp_path, proto):
    # Skew stays near e^-27 at two deviations of log-skew (6 / sqrt(0.2)):
    # the sender's display then does not move by one stamp unit between
    # the two packets of a pair.
    base = replace(read_scenario(SCENARIOS / "two-node.scenario"), alpha=0.1,
                   epsilons=(0.0, 6.0), horizon=2.0, protocol=proto)
    equal = 0
    for seed in range(6):
        sc = replace(base, seed=seed)
        live, trace = run_scenario(sc)
        assert_replay_exact(live, trace, sc, tmp_path / "trace.csv")
        first = {row.seq: row.s_stamp for row in trace if row.kind == "skew-a"}
        equal += sum(first.get(row.seq) == row.s_stamp for row in trace if row.kind == "skew-b")
    assert equal > 0


# Scenario accepts epsilon^2/(4 alpha) below 227.04; strategies stay just under it.
_READOUT_BOUND = 227.0


@st.composite
def small_scenarios(draw):
    """Scenarios from across the validated space: up to 7 non-reference
    nodes, alpha 1e-2..1e3, epsilons log-uniform or near the readout
    bound, every delay kind with a mean of 1e-5..1e-1, dt 1e-6..1e-3, any
    packet separations and rates up to the grid limit.  The horizon
    holds at most about 80 exchanges, so that a run stays short."""
    n = draw(st.integers(1, 7))  # non-reference nodes
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n + 1)}  # a tree
    extra = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=3))
    edges |= {(i, j) for i, j in extra if i < j}
    alpha = 10.0 ** draw(st.floats(-2.0, 3.0))
    top = math.sqrt(4.0 * alpha * _READOUT_BOUND)
    eps = st.one_of(st.floats(-6.0, 1.3).map(lambda e: min(10.0**e, top)),
                    st.floats(0.5, 1.0).map(lambda f: top * math.sqrt(f)))
    mean = 10.0 ** draw(st.floats(-5.0, -1.0))
    delay = DelayModel(kind=draw(st.sampled_from(DELAY_KINDS)), mean=mean,
                       spread=mean * draw(st.floats(0.01, 1.0)))
    dt = 10.0 ** draw(st.floats(-6.0, -3.0))
    skew_gap, roundtrip_gap = draw(st.integers(1, 60)), draw(st.integers(1, 40))
    # Chances of a skew exchange and of a roundtrip per slot, up to the limit of 0.5.
    chances = [10.0 ** draw(st.floats(-4.0, math.log10(0.49))) for _ in range(2)]
    # Time for some exchanges to start and then complete.
    exchange = 3.0 * delay.bound + (skew_gap + roundtrip_gap) * dt
    started = draw(st.floats(3.0, 40.0))
    slots = min(started / sum(chances) + exchange / dt, 80.0 / sum(chances), 2e5)
    return Scenario(graph=SyncGraph(n=n, edges=sorted(edges)), alpha=alpha,
                    epsilons=(0.0,) + tuple(draw(eps) for _ in range(n)), delay=delay,
                    dt=dt, horizon=max(1.0, slots) * dt,
                    skew_rate=chances[0] / (2 * len(edges) * dt),
                    offset_rate=chances[1] / (2 * len(edges) * dt),
                    skew_gap=skew_gap, roundtrip_gap=roundtrip_gap,
                    seed=draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sc=small_scenarios())
def test_valid_scenarios_run_and_replay_exactly(tmp_path_factory, sc):
    path = tmp_path_factory.mktemp("replay") / "trace.csv"
    for proto in PROTOCOLS:
        sc_p = replace(sc, protocol=proto)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            live, trace = run_scenario(sc_p)
            assert_replay_exact(live, trace, sc_p, path)


# Values no field range should let through unchecked: zeros, negatives,
# subnormals, the edges of the time ranges, huge values, infinities and NaN.
_ODD_FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, -1.0, 5e-324, sys.float_info.min, 2.0**-500, 2.0**-499,
                     2.0**53, 2.0**499, 2.0**500, 1e300, sys.float_info.max,
                     math.inf, -math.inf, math.nan)),
    st.floats())
_ODD_GAPS = st.one_of(st.integers(-2, 60), st.sampled_from((2**53, 2**64)))
_RING = SyncGraph(n=4, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))


@st.composite
def arbitrary_scenarios(draw):
    """A five-node ring whose grid, noise floor, delay, rates and gaps are
    drawn at a scale where packets flow within a few dozen slots, with one
    to three of these fields, node 1's epsilon among the candidates,
    drawn from anywhere instead: every example draws an odd field, so
    each field sees its extreme magnitudes."""
    odd = draw(st.sets(st.sampled_from(("epsilon_1", "dt", "horizon", "noise_floor", "mean",
                                        "spread", "bound", "skew_rate", "offset_rate",
                                        "skew_gap", "roundtrip_gap")), min_size=1, max_size=3))

    def pick(name, usual):
        return draw((_ODD_GAPS if name.endswith("gap") else _ODD_FLOATS)
                    if name in odd else usual)

    dt = pick("dt", st.floats(1e-7, 1e-2))
    unit = dt if 0 < dt < math.inf else 1e-4  # scales the usual values of the others
    mean = pick("mean", st.floats(0.5, 20.0).map(lambda k: k * unit))
    scale = mean if 0 < mean < math.inf else unit
    delay = DelayModel(
        kind=draw(st.sampled_from(DELAY_KINDS)), mean=mean,
        spread=pick("spread", st.floats(0.0, 1.0).map(lambda k: k * scale)),
        bound=pick("bound", st.none() | st.floats(1.0, 5.0).map(lambda k: k * scale)))
    rate = st.floats(1e-3, 0.49).map(lambda p: p / (2 * len(_RING.edges) * unit))
    return Scenario(graph=_RING, alpha=10.0, delay=delay,
                    epsilons=(0.0, pick("epsilon_1", st.just(1.0)), 1.0, 1.0, 1.0),
                    dt=dt, horizon=pick("horizon", st.floats(1.0, 60.0).map(lambda k: k * unit)),
                    noise_floor=pick("noise_floor", st.floats(1e-12, 1.0)),
                    skew_rate=pick("skew_rate", rate), offset_rate=pick("offset_rate", rate),
                    skew_gap=pick("skew_gap", st.integers(1, 10)),
                    roundtrip_gap=pick("roundtrip_gap", st.integers(1, 10)),
                    seed=draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_scenario_fields_are_rejected_or_run(tmp_path_factory, data):
    # Every scenario either fails validation with ValueError or runs every
    # protocol, warning-free, and replays exactly.
    try:
        sc = data.draw(arbitrary_scenarios())
    except ValueError:
        return
    sc = replace(sc, horizon=min(sc.horizon, 50 * sc.dt))
    path = tmp_path_factory.mktemp("replay") / "trace.csv"
    for proto in PROTOCOLS:
        sc_p = replace(sc, protocol=proto)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            live, trace = run_scenario(sc_p)
            assert_replay_exact(live, trace, sc_p, path)


def test_congested_link_counts_collisions():
    sc = two_node(dt=1e-3, horizon=2.0, skew_rate=100.0, offset_rate=100.0,
                  delay=DelayModel(kind="uniform", mean=5e-3, spread=5e-4),
                  seed=4)
    rep, _ = run_scenario(sc)
    assert rep.collisions > 0


def test_line_of_three_all_protocols_sane():
    sc = Scenario(graph=LINE3, alpha=10.0, epsilons=(0.0, 1.0, 1.0),
                  delay=DELAY, dt=1e-4, horizon=3.0, skew_rate=5.0,
                  offset_rate=6.0, seed=6)
    for proto in PROTOCOLS:
        rep, _ = run_scenario(replace(sc, protocol=proto))
        for node in (1, 2):
            assert 0.0 < rep.skew_mae[node] < 1.0
            assert rep.offset_mae[node] < rep.offset_nosync[node]
