"""Packet-level discrete-event simulation of the synchronization protocols.

The engine advances on a grid of time slots.  It streams the
ground-truth clocks forward along that grid, holding one chunk of
slots at a time, schedules two-packet skew exchanges and offset
roundtrips at random times on random links, arbitrates concurrent
transmissions under a primary-interference MAC (active links must form
a matching), and drives one of three estimation protocols:

* ``SS`` — per-link skew ratios smoothed by exponential forgetting,
  nodal values by spatial smoothing; the model-free baseline.
* ``Hybrid`` — a restricted two-node network filter per link, nodal
  skews by spatial smoothing of the link estimates.
* ``MBCSP`` — the distributed whole-network filter.

All estimator state advances on *local* time-stamp differences only —
no protocol code ever reads reference time.  Live runs and trace replay
share one packet dispatcher, :meth:`ProtocolMachine.deliver`: the engine
appends each arrival to the trace and delivers that row, replay delivers
the recorded rows, so feeding the stamps back reproduces every estimate
bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from clocklab.clocks import ClockParams, clock_chunks, skew_normalizer
from clocklab.measurement import (
    DelayModel,
    StampRecord,
    draw_delay,
    measurement_epoch,
    offset_delay_estimate,
    predict_receipt,
    skew_measurement,
)
from clocklab.network import (
    NetworkFilterState,
    initial_network_state,
    net_update_distributed,
    nodal_skew_estimate,
    relative_skew_readout,
)
from clocklab.smoothing import SyncGraph

# Not called here: the per-layer trace of perfbench/tracing.py wraps these
# names on this module, and a zero call count shows that the machine
# relaxes from its stored adjacency and the engine streams its clocks.
from clocklab.clocks import simulate_clock  # noqa: F401
from clocklab.smoothing import RelativeEstimates, jacobi_step  # noqa: F401

__all__ = [
    "PROTOCOLS",
    "TRACE_HEADER",
    "Scenario",
    "MetricsReport",
    "read_scenario",
    "quantize_stamp",
    "mac_arbitrate",
    "compute_metrics",
    "run_scenario",
    "trace_replay",
    "write_metrics_csv",
    "write_trace_csv",
    "read_trace_csv",
]

PROTOCOLS = ("SS", "Hybrid", "MBCSP")
TRACE_HEADER = "kind,src,dst,seq,s_stamp,r_stamp,true_send_t,true_delay"
STAMP_DIGITS = 12


def quantize_stamp(x: float, digits: int = STAMP_DIGITS) -> float:
    """Quantize a display reading to the stamp resolution (significant digits)."""
    return float(f"{x:.{digits}g}")


# --------------------------------------------------------------------------
# scenario
# --------------------------------------------------------------------------

_SCENARIO_KEYS = {
    "nodes", "edges", "alpha", "dt", "horizon", "protocol", "seed",
    "skew_rate", "offset_rate", "skew_gap", "roundtrip_gap",
    "ss_lambda", "noise_floor",
}
_DELAY_KEYS = {"delay.kind", "delay.mean", "delay.spread", "delay.bound"}


@dataclass(frozen=True)
class Scenario:
    """Complete description of one simulation run.

    Rates are per directed link per unit time; packet separations are
    in grid steps.  The master seed fixes everything: clock paths,
    exchange times, link picks, delays, and MAC tie-breaks.
    """

    graph: SyncGraph
    alpha: float
    epsilons: tuple[float, ...]
    delay: DelayModel
    dt: float = 1e-5
    horizon: float = 12.0
    skew_rate: float = 1.0
    offset_rate: float = 6.0
    skew_gap: int = 40
    roundtrip_gap: int = 20
    protocol: str = "MBCSP"
    seed: int = 0
    ss_lambda: float = 0.05
    noise_floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if len(self.epsilons) != self.graph.n + 1:
            raise ValueError(
                f"need one epsilon per node: got {len(self.epsilons)} "
                f"for {self.graph.n + 1} nodes"
            )
        if self.epsilons[0] != 0.0:
            raise ValueError("reference clock must have zero diffusion (epsilon_0 = 0)")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon!r}")
        if not (self.skew_rate > 0 and self.offset_rate > 0):
            raise ValueError("exchange rates must be positive")
        if not self.graph.is_connected():
            raise ValueError(
                f"graph is not connected: some node has no path to the "
                f"reference node 0 over edges {self.graph.edges}"
            )
        if self.skew_gap < 1 or self.roundtrip_gap < 1:
            raise ValueError("packet separations must be at least one grid step")
        if not 0.0 < self.ss_lambda <= 1.0:
            raise ValueError(f"ss_lambda must be in (0, 1], got {self.ss_lambda!r}")
        n_dir = 2 * len(self.graph.edges)
        for name, rate in (("skew_rate", self.skew_rate), ("offset_rate", self.offset_rate)):
            if rate * n_dir * self.dt >= 0.5:
                raise ValueError(f"{name} too high for the grid step")

    @property
    def params(self) -> tuple[ClockParams, ...]:
        return tuple(ClockParams(alpha=self.alpha, epsilon=e) for e in self.epsilons)

    @property
    def directed_links(self) -> tuple[tuple[int, int], ...]:
        out = []
        for (i, j) in self.graph.edges:
            out.append((i, j))
            out.append((j, i))
        return tuple(out)


def _parse_value(key: str, raw: str):
    if key in ("nodes", "seed", "skew_gap", "roundtrip_gap"):
        return int(raw)
    if key in ("protocol", "delay.kind"):
        return raw
    if key == "edges":
        edges = []
        for part in raw.replace(",", " ").split():
            a, _, b = part.partition("-")
            edges.append((int(a), int(b)))
        return edges
    return float(raw)


def read_scenario(path) -> Scenario:
    """Parse a ``key = value`` scenario file with ``[section]`` headers."""
    values: dict[str, object] = {}
    epsilons: dict[int, float] = {}
    section = ""
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                section = "" if name == "scenario" else name + "."
                continue
            key, eq, val = line.partition("=")
            if not eq:
                raise ValueError(f"line {ln}: expected `key = value`, got {line!r}")
            key = section + key.strip()
            val = val.strip()
            try:
                if key.startswith("epsilon_"):
                    epsilons[int(key[len("epsilon_"):])] = float(val)
                elif key in _SCENARIO_KEYS or key in _DELAY_KEYS:
                    values[key] = _parse_value(key, val)
                else:
                    raise ValueError(f"unknown scenario key {key!r} (line {ln})")
            except ValueError as exc:
                if "unknown scenario key" in str(exc):
                    raise
                raise ValueError(f"line {ln}: bad value for {key!r}: {val!r}") from None
    for req in ("nodes", "edges", "alpha", "delay.kind", "delay.mean"):
        if req not in values:
            raise ValueError(f"missing required scenario key {req!r}")
    n_total = int(values.pop("nodes"))
    if n_total < 2:
        raise ValueError("need at least two nodes (reference plus one)")
    graph = SyncGraph(n=n_total - 1, edges=values.pop("edges"))
    eps = [0.0] * n_total
    for i, e in epsilons.items():
        if not 0 <= i < n_total:
            raise ValueError(f"epsilon_{i} references a node outside 0..{n_total - 1}")
        eps[i] = e
    missing = [i for i in range(1, n_total) if i not in epsilons]
    if missing:
        raise ValueError(f"missing required scenario key 'epsilon_{missing[0]}'")
    delay = DelayModel(
        kind=str(values.pop("delay.kind")),
        mean=float(values.pop("delay.mean")),
        spread=float(values.pop("delay.spread", 0.0)),
        bound=values.pop("delay.bound", None),
    )
    return Scenario(graph=graph, alpha=float(values.pop("alpha")),
                    epsilons=tuple(eps), delay=delay, **values)


# --------------------------------------------------------------------------
# MAC
# --------------------------------------------------------------------------


def mac_arbitrate(pending, rng: np.random.Generator):
    """Admit a matching out of one slot's transmissions.

    ``pending`` is a sequence of objects with ``src``/``dst`` node ids.
    Greedy in uniformly random order: a transmission is admitted iff
    neither endpoint is already busy this slot.  Returns
    ``(admitted, dropped)`` lists.
    """
    if len(pending) <= 1:
        return list(pending), []
    order = rng.permutation(len(pending))
    busy: set[int] = set()
    admitted, dropped = [], []
    for idx in order:
        t = pending[int(idx)]
        if t.src in busy or t.dst in busy:
            dropped.append(t)
        else:
            busy.add(t.src)
            busy.add(t.dst)
            admitted.append(t)
    return admitted, dropped


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """Per-node mean absolute errors plus run counters.

    Keys are non-reference node ids.  Replay reports carry NaN in the
    columns that need ground truth (offset/skew and the no-sync
    baselines) since a trace records only stamps.

    ``out_of_order`` counts completed skew pairs whose receive interval
    is not positive; the same-slot pairs among them (a zero interval)
    are skipped by the filters.  ``discarded`` counts exchanges that
    timed out, plus later legs whose earlier leg never arrived.
    """

    offset_mae: dict[int, float]
    skew_mae: dict[int, float]
    pred_mae: dict[int, float]
    offset_nosync: dict[int, float]
    skew_nosync: dict[int, float]
    collisions: int = 0
    out_of_order: int = 0
    discarded: int = 0


def compute_metrics(ground_truth, estimates, predictions) -> MetricsReport:
    """Assemble per-node MAEs from aligned series.

    ``ground_truth``: {node: (t, tau, skew)} arrays on the evaluation
    grid; ``estimates``: {node: (offset_est, skew_est)} on the same
    grid; ``predictions``: {node: [(predicted, actual), ...]} receipt
    stamps.  The no-sync columns use the zero-offset and unit-skew
    baselines on the same grid.  Prediction errors need no ground
    truth, so a node with empty series still gets its ``pred_mae``.
    """
    offset_mae, skew_mae, pred_mae = {}, {}, {}
    off_ns, skew_ns = {}, {}
    for node, (t, tau, skew) in ground_truth.items():
        pairs = predictions.get(node, [])
        if pairs:
            arr = np.asarray(pairs, dtype=float)
            pred_mae[node] = float(np.mean(np.abs(arr[:, 0] - arr[:, 1])))
        else:
            pred_mae[node] = float("nan")
        t = np.asarray(t, dtype=float)
        tau = np.asarray(tau, dtype=float)
        skew = np.asarray(skew, dtype=float)
        est_off, est_skew = estimates[node]
        est_off = np.asarray(est_off, dtype=float)
        est_skew = np.asarray(est_skew, dtype=float)
        if not (len(t) == len(tau) == len(skew) == len(est_off) == len(est_skew)):
            raise ValueError(f"length mismatch in series for node {node}")
        if len(t) == 0:
            nan = float("nan")
            offset_mae[node] = skew_mae[node] = nan
            off_ns[node] = skew_ns[node] = nan
            continue
        true_off = tau - t
        offset_mae[node] = float(np.mean(np.abs(est_off - true_off)))
        skew_mae[node] = float(np.mean(np.abs(est_skew - skew)))
        off_ns[node] = float(np.mean(np.abs(true_off)))
        skew_ns[node] = float(np.mean(np.abs(skew - 1.0)))
    return MetricsReport(offset_mae=offset_mae, skew_mae=skew_mae,
                         pred_mae=pred_mae, offset_nosync=off_ns,
                         skew_nosync=skew_ns)


def write_metrics_csv(report: MetricsReport, path) -> None:
    """CSV dump: ``node,offset_mae,skew_mae,pred_mae,offset_nosync,skew_nosync``."""
    with open(path, "w") as fh:
        fh.write("node,offset_mae,skew_mae,pred_mae,offset_nosync,skew_nosync\n")
        for node in sorted(report.pred_mae):
            fh.write(
                f"{node},{report.offset_mae.get(node, float('nan')):.17g},"
                f"{report.skew_mae.get(node, float('nan')):.17g},"
                f"{report.pred_mae[node]:.17g},"
                f"{report.offset_nosync.get(node, float('nan')):.17g},"
                f"{report.skew_nosync.get(node, float('nan')):.17g}\n"
            )


# --------------------------------------------------------------------------
# trace I/O
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    kind: str
    src: int
    dst: int
    seq: int
    s_stamp: float
    r_stamp: float
    true_send_t: float | None = None
    true_delay: float | None = None


def write_trace_csv(rows, path) -> None:
    """One row per delivered packet, in arrival-processing order."""
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in rows:
            tail = ""
            if r.true_send_t is not None:
                tail = f"{r.true_send_t:.17g},{r.true_delay:.17g}"
            else:
                tail = ","
            fh.write(f"{r.kind},{r.src},{r.dst},{r.seq},"
                     f"{r.s_stamp:.17g},{r.r_stamp:.17g},{tail}\n")


def read_trace_csv(path) -> list[TraceRow]:
    """Parse a trace; malformed lines raise with their line number."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"line 1: expected trace header {TRACE_HEADER!r}")
        for ln, raw in enumerate(fh, 2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 8:
                raise ValueError(f"line {ln}: expected 8 fields, got {len(parts)}")
            try:
                rows.append(TraceRow(
                    kind=parts[0], src=int(parts[1]), dst=int(parts[2]),
                    seq=int(parts[3]), s_stamp=float(parts[4]),
                    r_stamp=float(parts[5]),
                    true_send_t=float(parts[6]) if parts[6] else None,
                    true_delay=float(parts[7]) if parts[7] else None,
                ))
            except ValueError:
                raise ValueError(f"line {ln}: malformed trace row {line!r}") from None
    return rows


# --------------------------------------------------------------------------
# protocol machine: every estimator decision, driven by stamps alone
# --------------------------------------------------------------------------


def _staleness_predict(st: NetworkFilterState, elapsed: dict[int, float]):
    """Advance selected state rows by their own elapsed local times.

    ``elapsed`` maps state indices (0-based) to nonnegative local-time
    differences.  Each named row decays by its own factor and collects
    its own process noise; unnamed rows are left stale, to be advanced
    when they next participate.

    With ``g`` the decay factors (1 on unnamed rows), named row k
    becomes ``P[k, :] * (g[k] * g)``, is copied onto column k, and then
    ``P[k, k]`` gains the process noise: entry for entry this is
    ``P * outer(g, g) + diag(noise)`` for a symmetric ``P``, at
    O(n * len(elapsed)) arithmetic on top of copying ``P``.
    """
    g = np.ones(st.n)
    noise = {}
    for k in sorted(elapsed):
        decay = np.exp(-st.alpha * elapsed[k])
        g[k] = decay
        e_m = st.params[k + 1].epsilon ** 2 / (2.0 * st.alpha)
        noise[k] = e_m * (1.0 - decay * decay)
    p_new = st.P.copy()
    for k in noise:
        p_new[k, :] = p_new[:, k] = st.P[k, :] * (g[k] * g)
    for k, add in noise.items():
        p_new[k, k] += add
    return replace(st, x_hat=g * st.x_hat, P=p_new)


def _advanced(fs: NetworkFilterState, loc, last, now: dict[int, float]):
    """``fs`` with the rows of the nodes in ``now`` advanced from their
    last update stamps ``last[m]`` to the local stamps ``now[m]``;
    ``loc`` maps node ids to the filter's numbering (0: reference)."""
    return _staleness_predict(fs, {
        loc[m] - 1: max(0.0, stamp - last[m]) for m, stamp in now.items() if loc[m] > 0
    })


class _LinkValues:
    """Relative values per directed link, with each node's links.

    ``incident[node]`` lists the stored links that touch ``node`` in
    the order they were first stored, which is the order in which
    ``SyncGraph(edges=tuple(values))`` would list them.
    """

    def __init__(self) -> None:
        self.values: dict[tuple[int, int], float] = {}
        self.incident: dict[int, list[tuple[int, int]]] = {}

    def store(self, link: tuple[int, int], value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"estimate on edge {link} must be finite, got {value!r}")
        if link not in self.values:
            for node in link:
                self.incident.setdefault(node, []).append(link)
        self.values[link] = value

    def relax(self, node: int, v: np.ndarray) -> None:
        """Set ``v[node]`` to :func:`~clocklab.smoothing.jacobi_step` over
        the stored links: the mean over incident links of the neighbour's
        value plus the link value oriented toward ``node``.  Nodes with
        no stored link, and the reference, keep their value."""
        links = self.incident.get(node)
        if node == 0 or not links:
            return
        total = 0.0
        for (i, j) in links:
            value = self.values[i, j]
            total += v[i] + value if j == node else v[j] - value
        v[node] = total / len(links)


# The leg that each later packet kind completes.
_EARLIER_LEG = {"skew-b": "skew-a", "off-rep": "off-req", "off-ack": "off-rep"}


class ProtocolMachine:
    """All protocol state and decisions, fed by packet-arrival facts.

    The engine and the trace replayer both pass every arrived packet to
    :meth:`deliver` in arrival order; readouts never mutate state, so
    evaluation sampling cannot perturb a run.
    """

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.n = sc.graph.n
        self.params = sc.params
        self.protocol = sc.protocol
        # relative-offset bookkeeping (identical for all protocols)
        self.rel_off = _LinkValues()
        self.v_off = np.zeros(self.n + 1)
        self.u_off = [0.0] * (self.n + 1)
        # prediction records and counters
        self.pred_pairs: dict[int, list[tuple[float, float]]] = {}
        self.completed: dict[tuple[int, int], int] = {}
        self.out_of_order = 0
        # earlier legs of open exchanges, by (sequence number, kind)
        self._legs: dict[tuple[int, str], object] = {}
        self.orphans = 0
        if sc.protocol == "MBCSP":
            self.net = initial_network_state(self.params)
            self.u_node = [0.0] * (self.n + 1)
        elif sc.protocol == "Hybrid":
            # One restricted filter per link.  A link touching the
            # reference is a one-node filter; between two ordinary nodes
            # the filter carries both (their sum stays at its prior —
            # only the difference is ever measured).  ``loc`` maps global
            # node ids to the filter's own node numbering.
            self.links: dict[tuple[int, int], NetworkFilterState] = {}
            self.u_link: dict[tuple[int, int], dict[int, float]] = {}
            self.loc: dict[tuple[int, int], dict[int, int]] = {}
            for (i, j) in sc.graph.edges:
                if 0 in (i, j):
                    other = j if i == 0 else i
                    self.links[(i, j)] = initial_network_state(
                        (self.params[0], self.params[other])
                    )
                    self.loc[(i, j)] = {0: 0, other: 1}
                else:
                    self.links[(i, j)] = initial_network_state(
                        (ClockParams(sc.alpha, 0.0), self.params[i], self.params[j])
                    )
                    self.loc[(i, j)] = {i: 1, j: 2}
                self.u_link[(i, j)] = {i: 0.0, j: 0.0}
            # each node's links, in graph order
            self.links_at: dict[int, list[tuple[int, int]]] = {}
            for edge in self.links:
                for node in edge:
                    self.links_at.setdefault(node, []).append(edge)
            self.rel_logskew = _LinkValues()
            self.w_skew = np.zeros(self.n + 1)
            self.u_skew = [0.0] * (self.n + 1)
        else:  # SS
            self.ratios: dict[tuple[int, int], float] = {}
            self.rel_logskew = _LinkValues()
            self.w_skew = np.zeros(self.n + 1)

    # --------------------------------------------------- packet dispatch

    def deliver(self, row: TraceRow) -> tuple[str | None, bool]:
        """Feed one arrived packet to the estimators.

        Returns the kind of the follow-up packet that ``row.dst`` sends
        back to ``row.src`` (None when it sends none) and whether
        ``row.dst`` refreshed its nodal offset.  A ``skew-b``,
        ``off-rep`` or ``off-ack`` whose earlier leg never arrived is
        an orphan: it is counted in ``orphans`` and changes nothing.
        """
        kind, seq, s, r = row.kind, row.seq, row.s_stamp, row.r_stamp
        if kind == "skew-a":
            self._legs[seq, kind] = (s, r)
            return None, False
        if kind == "off-req":
            self._legs[seq, kind] = (s, r, self.reply_payload(row.src, row.dst, s, r))
            return "off-rep", False
        if kind == "skew-ack":  # bookkeeping only
            return None, False
        if kind not in _EARLIER_LEG:
            raise ValueError(f"unknown packet kind {kind!r}")
        leg = self._legs.pop((seq, _EARLIER_LEG[kind]), None)
        if leg is None:
            self.orphans += 1
            return None, False
        if kind == "skew-b":
            s0, r0 = leg
            self.skew_complete(row.src, row.dst, s0, r0, s, r)
            return "skew-ack", False
        if kind == "off-rep":
            s_i, r_ij, carried = leg
            tau_ij = self.off_reply_arrived(row.dst, row.src, s_i, r_ij, s, r, carried)
            if tau_ij is None:
                return None, False
            self._legs[seq, kind] = tau_ij
            return "off-ack", True
        self.off_ack_arrived(row.src, row.dst, leg, r)
        return None, True

    # ----------------------------------------------------------- helpers

    def _edge_of(self, a: int, b: int) -> tuple[int, int]:
        for e in self.links_at.get(a, ()):
            if e == (a, b) or e == (b, a):
                return e
        raise ValueError(f"no edge between {a} and {b}")

    def _link_state(self, i: int, j: int, now: dict[int, float]):
        """A filter state holding nodes i and j, with the rows of the
        nodes in ``now`` advanced to those local stamps, and ``loc``
        mapping node ids to its own numbering.

        For MBCSP this is the network filter restricted to the two
        nodes: staleness acts entry by entry, so the restriction
        advanced holds the same values as the whole filter advanced, at
        O(1) cost.  For Hybrid it is the filter of the link between them.
        """
        if self.protocol == "Hybrid":
            edge = self._edge_of(i, j)
            loc = self.loc[edge]
            return _advanced(self.links[edge], loc, self.u_link[edge], now), loc
        st = self.net
        nodes = [m for m in (i, j) if m != 0]
        ks = [m - 1 for m in nodes]
        fs = replace(st, x_hat=st.x_hat[ks], P=st.P[ks][:, ks],
                     params=(st.params[0], *(st.params[m] for m in nodes)))
        loc = {0: 0, **{m: r for r, m in enumerate(nodes, 1)}}
        return _advanced(fs, loc, self.u_node, now), loc

    def _relative_skew(self, i: int, j: int, now_i: float, now_j: float,
                       t_proxy: float) -> tuple[float, float, float]:
        fs, loc = self._link_state(i, j, {i: now_i, j: now_j})
        return relative_skew_readout(fs, loc[i], loc[j], t_proxy)

    # --------------------------------------------------- skew estimation

    def directed_skew(self, i: int, j: int, now_i: float, now_j: float,
                      t_proxy: float) -> float:
        """Current estimate of a_ij = a_j/a_i, staleness-adjusted."""
        if self.protocol != "SS":
            return self._relative_skew(i, j, now_i, now_j, t_proxy)[0]
        # SS: held ratio, either direction
        if (i, j) in self.ratios:
            return self.ratios[(i, j)]
        if (j, i) in self.ratios:
            return 1.0 / self.ratios[(j, i)]
        return 1.0

    def symmetric_skew(self, i: int, j: int, now_i: float, now_j: float,
                       t_proxy: float) -> float | None:
        """Symmetrized a_ij estimate (SS: the raw held ratio; None if unset)."""
        if self.protocol != "SS":
            return self._relative_skew(i, j, now_i, now_j, t_proxy)[2]
        if (i, j) in self.ratios:
            return self.ratios[(i, j)]
        if (j, i) in self.ratios:
            return 1.0 / self.ratios[(j, i)]
        return None

    def skew_complete(self, snd: int, rcv: int, s0: float, r0: float,
                      s1: float, r1: float) -> None:
        """Both packets of a skew pair arrived: predict, measure, update."""
        if r1 - r0 <= 0:
            self.out_of_order += 1
        key = (snd, rcv)
        if self.completed.get(key, 0) >= 1:
            a_hat = self.directed_skew(snd, rcv, s0, r0, t_proxy=r0)
            r_hat = predict_receipt(s0, r0, s1, a_hat)
            self.pred_pairs.setdefault(rcv, []).append((r_hat, r1))
        self.completed[key] = self.completed.get(key, 0) + 1
        if r1 == r0:
            return  # same-slot receipts: no receive interval to measure

        rec = StampRecord(link=key, s=(s0, s1), r=(r0, r1), kind="skew-pair")
        if self.protocol == "SS":
            ratio = abs((r1 - r0) / (s1 - s0))
            prev = self.ratios.get(key)
            lam = self.sc.ss_lambda
            self.ratios[key] = ratio if prev is None else (1 - lam) * prev + lam * ratio
            self.rel_logskew.store(key, math.log(self.ratios[key]))
            self.rel_logskew.relax(rcv, self.w_skew)
            return
        m = skew_measurement(
            rec, self.params[snd], self.params[rcv],
            t_k=measurement_epoch(rec), delay_model=self.sc.delay,
            floor=self.sc.noise_floor,
        )
        if self.protocol == "MBCSP":
            # node ids are the network filter's own numbering
            self.net = _advanced(self.net, range(self.n + 1), self.u_node,
                                 {snd: s1, rcv: r1})
            self.net = net_update_distributed(self.net, m)
            if snd != 0:
                self.u_node[snd] = s1
            if rcv != 0:
                self.u_node[rcv] = r1
            return
        # Hybrid: restricted per-link filter, then spatial smoothing of
        # the link estimates into nodal log-skews.
        edge = self._edge_of(snd, rcv)
        fs = _advanced(self.links[edge], self.loc[edge], self.u_link[edge],
                       {snd: s1, rcv: r1})
        fs = net_update_distributed(
            fs, replace(m, link=(self.loc[edge][snd], self.loc[edge][rcv]))
        )
        self.links[edge] = fs
        self.u_link[edge][snd] = s1
        self.u_link[edge][rcv] = r1
        xi, xj = (
            float(fs.x_hat[fid - 1]) if fid > 0 else 0.0
            for fid in (self.loc[edge][edge[0]], self.loc[edge][edge[1]])
        )
        self.rel_logskew.store(edge, xj - xi)
        for node, stamp in ((snd, s1), (rcv, r1)):
            if node != 0:
                self.rel_logskew.relax(node, self.w_skew)
                self.u_skew[node] = stamp

    # -------------------------------------------------- offset estimation

    def reply_payload(self, i: int, j: int, s_i: float, r_ij: float) -> float | None:
        """Skew value node j attaches to its roundtrip reply (snapshotted
        when the request arrives, so replay lands on the same state)."""
        return self.symmetric_skew(i, j, s_i, r_ij, t_proxy=r_ij)

    def off_reply_arrived(self, i: int, j: int, s_i: float, r_ij: float,
                          s_j: float, r_ji: float,
                          carried: float | None) -> float | None:
        """Roundtrip closed at the initiator: estimate offset and delays."""
        if self.protocol == "SS":
            a_ij = carried
            if a_ij is None:
                own = self.ratios.get((j, i))
                a_ij = (1.0 / own) if own else None
            if a_ij is None:
                return None
            own = self.ratios.get((j, i))
            a_ji = own if own is not None else 1.0 / a_ij
        else:
            if carried is None:
                return None
            a_ij, a_ji = carried, 1.0 / carried
        rec = StampRecord(link=(i, j), s=(s_i, s_j), r=(r_ij, r_ji),
                          kind="offset-roundtrip")
        tau_ij, _, _ = offset_delay_estimate(rec, a_ij, a_ji)
        self.rel_off.store((i, j), tau_ij)
        self.rel_off.relax(i, self.v_off)
        if i != 0:
            self.u_off[i] = r_ji
        return tau_ij

    def off_ack_arrived(self, i: int, j: int, tau_ij: float, r_ack: float) -> None:
        """Initiator's ACK reached the replier: mirror the offset."""
        self.rel_off.store((j, i), -tau_ij)
        self.rel_off.relax(j, self.v_off)
        if j != 0:
            self.u_off[j] = r_ack

    # ----------------------------------------------------- metric readouts

    def nodal_skew(self, m: int, tau_now: float) -> float:
        if m == 0:
            return 1.0
        if self.protocol == "MBCSP":
            fs, loc = self._link_state(0, m, {m: tau_now})
            return nodal_skew_estimate(fs, loc[m], tau_now)
        if self.protocol == "Hybrid":
            d = max(0.0, tau_now - self.u_skew[m])
            decay = np.exp(-self.sc.alpha * d)
            variances = []
            for edge in self.links_at.get(m, ()):
                tmp = _advanced(self.links[edge], self.loc[edge], self.u_link[edge],
                                {m: tau_now})
                if 0 in edge:
                    variances.append(float(tmp.P[0, 0]))
                else:
                    variances.append(float(tmp.P[0, 0] + tmp.P[1, 1] - 2 * tmp.P[0, 1]))
            v_m = float(np.mean(variances)) if variances else 0.0
            return float(
                skew_normalizer(tau_now, self.params[m])
                * np.exp(decay * self.w_skew[m] + 0.5 * v_m)
            )
        return float(np.exp(self.w_skew[m]))

    def offset_estimate(self, m: int, tau_now: float, a_m: float) -> float:
        """Smoothed nodal offset, drift-extrapolated by the nodal skew
        ``a_m`` (:meth:`nodal_skew` at ``tau_now``)."""
        if m == 0:
            return 0.0
        elapsed = max(0.0, tau_now - self.u_off[m])
        return float(self.v_off[m] + (1.0 - 1.0 / a_m) * elapsed)


# --------------------------------------------------------------------------
# event engine
# --------------------------------------------------------------------------


@dataclass
class _Send:
    src: int
    dst: int
    kind: str
    xid: int
    payload: tuple = ()


# Slots of ground truth per node that the engine holds at once.
_CHUNK_STEPS = 4096


def run_scenario(sc: Scenario):
    """Run one full simulation; returns ``(MetricsReport, trace rows)``.

    Deterministic in the master seed: independent substreams drive the
    clocks, the two exchange point processes, the delay draws, and the
    MAC tie-breaks, so neither topology nor protocol choice perturbs
    the others' randomness.

    Offset and skew errors are sampled each time a node refreshes its
    nodal estimates (roundtrip completions and their ACKs) — the
    instants at which the protocol actually produces output — and the
    no-sync baselines use the same instants, so the MAE columns compare
    like with like.
    """
    root = np.random.SeedSequence(sc.seed)
    children = root.spawn(sc.graph.n + 4)
    clock_rngs = [np.random.default_rng(int(c.generate_state(1, np.uint64)[0]))
                  for c in children[: sc.graph.n + 1]]
    rng_sched = np.random.default_rng(children[sc.graph.n + 1])
    rng_delay = np.random.default_rng(children[sc.graph.n + 2])
    rng_mac = np.random.default_rng(children[sc.graph.n + 3])

    # Node m's clock is the simulate_clock path of its seed, streamed: the
    # engine reads it only at the current slot, and slots never decrease,
    # so one chunk (slots start..stop-1) is held at a time.
    n_slots = max(1, int(round(sc.horizon / sc.dt)))

    def normals(k):  # each node's own draws, filled in place: no stacked copy
        z = np.empty((len(clock_rngs), k))
        for rng, row in zip(clock_rngs, z):
            rng.standard_normal(out=row)
        return z

    clocks = clock_chunks(sc.params, sc.dt, n_slots, normals, _CHUNK_STEPS)
    start = stop = 0
    dlinks = sc.directed_links
    machine = ProtocolMachine(sc)
    trace: list[TraceRow] = []
    deadlines: dict[int, int] = {}  # open exchange id -> last arrival slot
    collisions = 0
    timeouts = 0
    timeout_slots = max(1, int(round(10.0 * sc.delay.mean / sc.dt)))

    p_skew = sc.skew_rate * len(dlinks) * sc.dt
    p_off = sc.offset_rate * len(dlinks) * sc.dt

    heap: list[tuple[int, int, str, object]] = []
    seq_counter = 0

    def push(slot, kind, data):
        nonlocal seq_counter
        seq_counter += 1
        heapq.heappush(heap, (slot, seq_counter, kind, data))

    xid_counter = 0

    def stamp(node, slot):
        return quantize_stamp(float(displays[node, slot - start]))

    push(int(rng_sched.geometric(p_skew)), "start-skew", None)
    push(int(rng_sched.geometric(p_off)), "start-offset", None)

    samples: dict[int, list[tuple[float, ...]]] = {
        m: [] for m in range(1, sc.graph.n + 1)
    }

    def record_sample(node: int, slot: int) -> None:
        if node == 0:
            return
        tau_now = float(displays[node, slot - start])
        a_node = machine.nodal_skew(node, tau_now)
        samples[node].append((
            slot * sc.dt, tau_now, float(skews[node, slot - start]),
            machine.offset_estimate(node, tau_now, a_node), a_node,
        ))

    def handle_arrival(slot, send: _Send):
        nonlocal timeouts
        deadline = deadlines.get(send.xid)
        if deadline is None:
            return
        if slot > deadline:
            del deadlines[send.xid]
            timeouts += 1
            return
        s_stamp, send_slot, delay_t = send.payload
        row = TraceRow(
            kind=send.kind, src=send.src, dst=send.dst, seq=send.xid,
            s_stamp=s_stamp, r_stamp=stamp(send.dst, slot),
            true_send_t=send_slot * sc.dt, true_delay=delay_t,
        )
        trace.append(row)
        reply, refreshed = machine.deliver(row)
        if refreshed:
            record_sample(row.dst, slot)
        if reply is not None:
            gap = sc.roundtrip_gap if reply == "off-rep" else 1
            push(slot + gap, "send", _Send(row.dst, row.src, reply, row.seq))
        elif row.kind != "skew-a":  # after skew-a, skew-b is still to come
            del deadlines[row.seq]

    while heap:
        slot = heap[0][0]
        if slot > n_slots:
            break
        while slot >= stop:
            _, skews, displays = next(clocks)
            start, stop = stop, stop + displays.shape[1]
        arrivals, sends, starts = [], [], []
        while heap and heap[0][0] == slot:
            _, _, kind, data = heapq.heappop(heap)
            if kind == "arrive":
                arrivals.append(data)
            elif kind == "send":
                sends.append(data)
            else:
                starts.append(kind)
        for send in arrivals:
            handle_arrival(slot, send)
        for kind in starts:
            p_kind = p_skew if kind == "start-skew" else p_off
            src, dst = dlinks[int(rng_sched.integers(len(dlinks)))]
            xid_counter += 1
            deadlines[xid_counter] = slot + timeout_slots
            if kind == "start-skew":
                sends.append(_Send(src, dst, "skew-a", xid_counter))
                push(slot + sc.skew_gap, "send", _Send(src, dst, "skew-b", xid_counter))
            else:
                sends.append(_Send(src, dst, "off-req", xid_counter))
            push(slot + int(rng_sched.geometric(p_kind)), kind, None)
        if sends:
            live = [s for s in sends if s.xid in deadlines]
            admitted, dropped = mac_arbitrate(live, rng_mac)
            collisions += len(dropped)
            for s in dropped:
                del deadlines[s.xid]
            for s in sorted(admitted, key=lambda x: x.xid):
                delay_t = float(draw_delay(sc.delay, rng_delay))
                dslots = max(1, int(round(delay_t / sc.dt)))
                arrive_slot = slot + dslots
                s.payload = (stamp(s.src, slot), slot, dslots * sc.dt)
                if arrive_slot <= n_slots:
                    push(arrive_slot, "arrive", s)

    ground_truth, estimates = {}, {}
    for m, rows in samples.items():
        arr = np.array(rows, dtype=float).reshape(-1, 5)
        ground_truth[m] = (arr[:, 0], arr[:, 1], arr[:, 2])
        estimates[m] = (arr[:, 3], arr[:, 4])
    report = compute_metrics(ground_truth, estimates, machine.pred_pairs)
    report = replace(report, collisions=collisions,
                     out_of_order=machine.out_of_order,
                     discarded=timeouts + machine.orphans)
    return report, trace


# --------------------------------------------------------------------------
# trace replay
# --------------------------------------------------------------------------


def trace_replay(rows, sc: Scenario) -> MetricsReport:
    """Re-run the protocol machine over recorded stamps only.

    Reproduces the live run's estimates and prediction errors exactly
    (the same rows through the same :meth:`ProtocolMachine.deliver`).
    Ground truth is unavailable from a trace, so the offset/skew MAE
    columns are NaN; an empty trace yields an empty report.
    """
    machine = ProtocolMachine(sc)
    for row in rows:
        machine.deliver(row)
    nodes = range(1, sc.graph.n + 1)
    report = compute_metrics({m: ((), (), ()) for m in nodes},
                             {m: ((), ()) for m in nodes}, machine.pred_pairs)
    return replace(report, out_of_order=machine.out_of_order)
