"""Packet-level discrete-event simulation of the synchronization protocols.

The engine advances on a grid of time slots.  It streams the
ground-truth clocks forward along that grid, holding one chunk of
slots at a time, schedules two-packet skew exchanges and offset
roundtrips at random times on random links, arbitrates concurrent
transmissions under a primary-interference MAC (active links must form
a matching), and drives one of three estimation protocols:

* ``SS`` — per-link skew ratios smoothed by exponential forgetting,
  nodal values by spatial smoothing; the model-free baseline.
* ``Hybrid`` — one distributed filter (:class:`_Filter`) per link, over
  the link's endpoints; nodal skews by spatial smoothing of the link
  estimates.
* ``MBCSP`` — one distributed filter of the same type over every node.

All estimator state advances on *local* time-stamp differences only —
no protocol code ever reads reference time.  A filter readout is the
two moments of one link (:func:`clocklab.network.link_moments`) put
through a formula of :mod:`clocklab.network`; no code here reads the
entries of a filter state.  Each filter owns its state, which the
operations of :mod:`clocklab.network` update in place, so a packet
costs O(n) in a filter over n nodes, with no copy of the covariance.
Live runs and trace replay
share one packet dispatcher, :meth:`ProtocolMachine.deliver`: the engine
appends each arrival to the trace and delivers that row, replay delivers
the recorded rows, so feeding the stamps back reproduces every estimate
bit for bit.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

import numpy as np

from clocklab.clocks import ClockParams, RelParams, _check_readout_noise, _forks, clock_chunks
from clocklab.measurement import (
    MAX_TIME,
    DelayModel,
    Measurement,
    draw_delay,
    measurement_epoch,
    offset_delay_estimate,
    predict_receipt,
    skew_measurement,
)
from clocklab.network import (
    initial_network_state,
    link_moments,
    net_predict_rows,
    net_update_distributed,
    nodal_skew_estimate,
    relative_skew_readout,
)
from clocklab.smoothing import RelativeEstimates, SyncGraph

# Not called here: the per-layer trace of perfbench/tracing.py wraps these
# names on this module, and a zero call count shows that the machine
# relaxes over its stored links (RelativeEstimates.relax) and the engine
# streams its clocks.
from clocklab.clocks import simulate_clock  # noqa: F401
from clocklab.smoothing import jacobi_step  # noqa: F401

__all__ = [
    "PROTOCOLS",
    "TRACE_HEADER",
    "Scenario",
    "MetricsReport",
    "TraceRow",
    "ProtocolMachine",
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
# Traces and scenarios are read and written in this encoding, whatever the locale.
_TEXT_ENCODING = "utf-8"


def quantize_stamp(x: float) -> float:
    """Quantize a display reading to ``STAMP_DIGITS`` significant digits."""
    return float(f"{x:.{STAMP_DIGITS}g}")


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if len(self.epsilons) != self.graph.n + 1:
            raise ValueError(
                f"need one epsilon per node: got {len(self.epsilons)} "
                f"for {self.graph.n + 1} nodes"
            )
        if self.epsilons[0] != 0.0:
            raise ValueError("reference clock must have zero diffusion (epsilon_0 = 0)")
        for m, p in enumerate(self.params):
            _check_readout_noise(p, f"node {m}", f"epsilon_{m}")
        if not 1 / MAX_TIME <= self.dt <= MAX_TIME:
            raise ValueError(f"dt must be within 2^-500..2^500, got {self.dt!r}")
        if not 0 < self.horizon <= MAX_TIME:
            raise ValueError(f"horizon must be positive and at most 2^500, got {self.horizon!r}")
        if not self.horizon / self.dt < 2**53:
            raise ValueError(f"horizon/dt = {self.horizon / self.dt!r} grid steps: it must "
                             "stay below 2^53, an exact slot count")
        if not 0 < self.noise_floor < math.inf:
            raise ValueError(f"noise_floor must be positive and finite, got {self.noise_floor!r}")
        if not (self.skew_rate > 0 and self.offset_rate > 0):
            raise ValueError("exchange rates must be positive")
        links = set()
        for (i, j) in self.graph.edges:
            if (j, i) in links or (i, j) in links:
                raise ValueError(f"link ({i}, {j}) is listed twice: list each link once")
            links.add((i, j))
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
            if not rate * n_dir * self.dt > 0:
                raise ValueError(f"{name} too low for the grid step: the chance "
                                 f"of an exchange per slot rounds to 0")

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


def _check_decoded(line: str, ln: int) -> None:
    """Raise ValueError naming line ``ln`` if it held a byte that is not
    UTF-8 (read with ``errors="surrogateescape"``, which keeps such a
    byte as a lone surrogate)."""
    try:
        line.encode(_TEXT_ENCODING)
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"line {ln}: byte 0x{byte:02x} at column {exc.start + 1} "
                         f"is not {_TEXT_ENCODING}") from None


def read_scenario(path) -> Scenario:
    """Parse a ``key = value`` scenario file with ``[section]`` headers,
    in UTF-8; a key set twice raises, naming both lines."""
    values: dict[str, object] = {}
    epsilons: dict[int, float] = {}
    set_on: dict[str | int, int] = {}  # key, or epsilon's node -> line that set it
    section = ""
    with open(path, encoding=_TEXT_ENCODING, errors="surrogateescape") as fh:
        for ln, raw in enumerate(fh, 1):
            if not raw.isascii():
                _check_decoded(raw, ln)
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
            is_epsilon = key.startswith("epsilon_")
            if not (is_epsilon or key in _SCENARIO_KEYS or key in _DELAY_KEYS):
                raise ValueError(f"unknown scenario key {key!r} (line {ln})")
            try:  # an epsilon is set per node: epsilon_01 is epsilon_1
                target = int(key[len("epsilon_"):]) if is_epsilon else key
                value = float(val) if is_epsilon else _parse_value(key, val)
            except ValueError:
                raise ValueError(f"line {ln}: bad value for {key!r}: {val!r}") from None
            if target in set_on:
                raise ValueError(f"line {ln}: key {key!r} already set on line {set_on[target]}")
            set_on[target] = ln
            (epsilons if is_epsilon else values)[target] = value
    for req in ("nodes", "edges", "alpha", "delay.kind", "delay.mean"):
        if req not in values:
            raise ValueError(f"missing required scenario key {req!r}")
    n_total = int(values.pop("nodes"))
    if n_total < 2:
        raise ValueError("need at least two nodes (reference plus one)")
    # The epsilons are checked against nodes before anything of size nodes is built.
    for i in epsilons:
        if not 0 <= i < n_total:
            raise ValueError(f"epsilon_{i} references a node outside 0..{n_total - 1}")
    missing = next((i for i in range(1, n_total) if i not in epsilons), None)
    if missing is not None:
        raise ValueError(f"missing required scenario key 'epsilon_{missing}'")
    graph = SyncGraph(n=n_total - 1, edges=values.pop("edges"))
    eps = [epsilons.get(i, 0.0) for i in range(n_total)]
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

    Each error column holds every non-reference node id, with NaN for a
    node that has no errors in it: replay reports are NaN in the
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


_ERROR_COLUMNS = ("offset_mae", "skew_mae", "pred_mae", "offset_nosync", "skew_nosync")


def compute_metrics(errors, counts) -> MetricsReport:
    """Build a report from a run's ledger (:class:`ProtocolMachine`).

    ``errors`` maps each error column to ``{node: buffer}`` of absolute
    errors, float64 values such as an ``array('d')``; a column's value
    for a node is the mean of its buffer, NaN when the buffer is empty.
    ``counts`` holds ``collisions``, ``timeouts``, ``orphans`` and
    ``out_of_order``; ``discarded`` is timeouts plus orphans.
    """
    return MetricsReport(
        **{col: {m: float(np.mean(buf)) if len(buf) else math.nan for m, buf in bufs.items()}
           for col, bufs in errors.items()},
        collisions=counts["collisions"], out_of_order=counts["out_of_order"],
        discarded=counts["timeouts"] + counts["orphans"])


def write_metrics_csv(report: MetricsReport, path) -> None:
    """CSV dump: ``node,offset_mae,skew_mae,pred_mae,offset_nosync,skew_nosync``."""
    with open(path, "w") as fh:
        fh.write("node,offset_mae,skew_mae,pred_mae,offset_nosync,skew_nosync\n")
        for node in sorted(report.pred_mae):
            fh.write(
                f"{node},{report.offset_mae[node]:.17g},{report.skew_mae[node]:.17g},"
                f"{report.pred_mae[node]:.17g},{report.offset_nosync[node]:.17g},"
                f"{report.skew_nosync[node]:.17g}\n"
            )


# --------------------------------------------------------------------------
# trace I/O
# --------------------------------------------------------------------------


@dataclass(slots=True)
class TraceRow:
    """One delivered packet: its stamps and, in a live run's trace, the
    ground truth (true send time and delay) that replay does not read.

    The live engine sends a packet as its row, with NaN stamps: the MAC
    admission fills ``s_stamp``, ``true_send_t`` and ``true_delay``, and
    the arrival fills ``r_stamp`` and traces the row.  A traced row is
    read-only.  It is not frozen: a frozen dataclass sets each field
    through ``object.__setattr__``, which makes building a row several
    times slower than with plain slots.
    """

    kind: str
    src: int
    dst: int
    seq: int
    s_stamp: float = math.nan
    r_stamp: float = math.nan
    true_send_t: float | None = None
    true_delay: float | None = None


# A trace line with and without its ground truth.
_TRACE_LINE = "%s,%s,%s,%s,%.17g,%.17g,%.17g,%.17g\n"
_STAMPS_LINE = "%s,%s,%s,%s,%.17g,%.17g,,\n"


def write_trace_csv(rows, path) -> None:
    """One row per delivered packet, in arrival-processing order."""
    with open(path, "w", encoding=_TEXT_ENCODING) as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(
            _TRACE_LINE % (r.kind, r.src, r.dst, r.seq, r.s_stamp, r.r_stamp,
                           r.true_send_t, r.true_delay)
            if r.true_send_t is not None else
            _STAMPS_LINE % (r.kind, r.src, r.dst, r.seq, r.s_stamp, r.r_stamp)
            for r in rows
        )


def read_trace_csv(path) -> list[TraceRow]:
    """Parse a trace; malformed lines raise with their line number.

    Blank lines and whitespace around a line or a number are ignored,
    so CRLF files read as written.  The two ground-truth fields are
    both numbers or both empty (read as None).  The file is read as
    UTF-8, whatever the locale (a trace is ASCII).
    """
    rows = []
    with open(path, encoding=_TEXT_ENCODING, errors="surrogateescape") as fh:
        header = fh.readline()
        if not header.isascii():
            _check_decoded(header, 1)
        if header.strip() != TRACE_HEADER:
            raise ValueError(f"line 1: expected trace header {TRACE_HEADER!r}")
        for ln, line in enumerate(fh, 2):  # one line in memory at a time
            if not line.isascii():
                _check_decoded(line, ln)
            fields = line.split(",")
            if len(fields) != 8:
                if line.isspace():
                    continue
                raise ValueError(f"line {ln}: expected 8 fields, got {len(fields)}")
            kind, src, dst, seq, s, r, t, d = fields
            try:
                d = d.rstrip()
                if t and d:
                    t, d = float(t), float(d)
                elif t or d:
                    raise ValueError("one ground-truth field is empty")
                else:
                    t = d = None
                rows.append(TraceRow(kind.lstrip(), int(src), int(dst), int(seq),
                                     float(s), float(r), t, d))
            except ValueError:
                raise ValueError(f"line {ln}: malformed trace row {line.strip()!r}") from None
    return rows


# --------------------------------------------------------------------------
# protocol machine: every estimator decision, driven by stamps alone
# --------------------------------------------------------------------------


class _Filter:
    """A distributed network filter over the reference and ``nodes``.

    ``loc`` maps node ids to the filter's numbering (0: reference) and
    ``last`` holds each node's last update stamp, from which its rows
    advance by its own local time when it next takes part: the elapsed
    times go to :mod:`clocklab.network` keyed by the filter's numbering.
    Reads and updates take ``now``, the nodes to advance and their
    local stamps.  The filter owns its state, and an update writes into
    it: the covariance is never copied.
    """

    def __init__(self, params, nodes) -> None:
        nodes = tuple(nodes)
        self.state = initial_network_state((params[0], *(params[m] for m in nodes)))
        self.loc = {0: 0, **{m: r for r, m in enumerate(nodes, 1)}}
        self.last = dict.fromkeys(nodes, 0.0)

    def _elapsed(self, now: dict[int, float]) -> dict[int, float]:
        return {self.loc[m]: max(0.0, stamp - self.last[m])
                for m, stamp in now.items() if m != 0}

    def moments(self, i: int, j: int, now: dict[int, float]) -> tuple[float, float]:
        """Mean and variance of ``x_j - x_i``, the nodes in ``now``
        advanced (:func:`clocklab.network.link_moments`)."""
        return link_moments(self.state, self.loc[i], self.loc[j], self._elapsed(now))

    def update(self, m: Measurement, now: dict[int, float]) -> None:
        """Advance the link's endpoints to their stamps in ``now``, then
        take the distributed update on ``m``, whose link is in the
        filter's numbering (``loc``)."""
        net_predict_rows(self.state, self._elapsed(now))
        net_update_distributed(self.state, m)
        for node, stamp in now.items():
            if node != 0:
                self.last[node] = stamp


# The leg that each later packet kind completes.
_EARLIER_LEG = {"skew-b": "skew-a", "off-rep": "off-req", "off-ack": "off-rep"}


class ProtocolMachine:
    """All protocol state and decisions, fed by packet-arrival facts.

    The engine and the trace replayer both pass every arrived packet to
    :meth:`deliver` in arrival order; readouts never mutate state, so
    evaluation sampling cannot perturb a run.  A link's relative skew
    is read once per decision, by :meth:`relative_skew`, at the
    receiver's stamp.

    ``errors`` and ``counts`` are the run's ledger for
    :func:`compute_metrics`: the machine records receipt-prediction
    errors, orphans and out-of-order pairs, the engine the rest.
    """

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.n = sc.graph.n
        self.params = sc.params
        self.protocol = sc.protocol
        # each graph link under both of its orientations
        self._edges = {pair: e for e in sc.graph.edges for pair in (e, e[::-1])}
        # relative-offset bookkeeping (identical for all protocols)
        self.rel_off = RelativeEstimates()
        self.v_off = [0.0] * (self.n + 1)
        self.u_off = [0.0] * (self.n + 1)
        self.errors = {col: {m: array("d") for m in range(1, self.n + 1)}
                       for col in _ERROR_COLUMNS}
        self.counts = dict.fromkeys(("collisions", "timeouts", "orphans", "out_of_order"), 0)
        self.completed: set[tuple[int, int]] = set()  # links with a finished pair
        # earlier legs of open exchanges, by (sequence number, kind)
        self._legs: dict[tuple[int, str], object] = {}
        self.network: _Filter | None = None
        if sc.protocol == "MBCSP":
            self.network = _Filter(self.params, range(1, self.n + 1))
        elif sc.protocol == "Hybrid":
            # Between two ordinary nodes a link's filter carries both
            # (their sum stays at its prior: only the difference is measured).
            self.filters = {edge: _Filter(self.params, [m for m in edge if m != 0])
                            for edge in sc.graph.edges}
            self.rel_logskew = RelativeEstimates()
            self.w_skew = [0.0] * (self.n + 1)
            self.u_skew = [0.0] * (self.n + 1)
        else:  # SS
            self.ratios: dict[tuple[int, int], float] = {}
            self.rel_logskew = RelativeEstimates()
            self.w_skew = [0.0] * (self.n + 1)

    # --------------------------------------------------- packet dispatch

    def deliver(self, row: TraceRow) -> tuple[str | None, bool]:
        """Feed one arrived packet to the estimators.

        Returns the kind of the follow-up packet that ``row.dst`` sends
        back to ``row.src`` (None when it sends none) and whether
        ``row.dst`` refreshed its nodal offset.  A ``skew-b``,
        ``off-rep`` or ``off-ack`` whose earlier leg never arrived is
        an orphan: it is counted in ``counts["orphans"]`` and changes
        nothing.  A row between nodes that no graph link joins raises
        ``ValueError`` before any state changes.
        """
        self._edge_of(row.src, row.dst)
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
            self.counts["orphans"] += 1
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
        edge = self._edges.get((a, b))
        if edge is None:
            raise ValueError(f"no edge between {a} and {b}")
        return edge

    def _filter(self, i: int, j: int) -> _Filter:
        """The filter holding nodes i and j: the network filter, or the
        filter of the link between them."""
        if self.network is not None:
            return self.network
        return self.filters[self._edge_of(i, j)]

    # --------------------------------------------------- skew estimation

    def relative_skew(self, i: int, j: int, now_i: float,
                      now_j: float) -> tuple[float, float | None]:
        """Estimates of a_ij = a_j/a_i at j's stamp ``now_j``: the
        directed one, staleness-adjusted, and the symmetrized one.

        The filter protocols advance i and j to their stamps first.  SS
        returns its held ratio, either direction, for both, and
        ``(1.0, None)`` before the link has one.
        """
        if self.protocol == "SS":
            held = self.ratios.get((i, j))
            if held is None and (j, i) in self.ratios:
                held = 1.0 / self.ratios[(j, i)]
            return (1.0, None) if held is None else (held, held)
        mean, var = self._filter(i, j).moments(i, j, {i: now_i, j: now_j})
        rel = RelParams(self.sc.alpha, self.params[i].epsilon, self.params[j].epsilon)
        a_ij, _, a_sym = relative_skew_readout(rel, mean, var, now_j)
        return a_ij, a_sym

    def skew_complete(self, snd: int, rcv: int, s0: float, r0: float,
                      s1: float, r1: float) -> None:
        """Both packets of a skew pair arrived: predict, measure, update.

        A pair with equal send stamps (the sender's display did not move
        by one stamp unit between them) is neither predicted nor
        measured; one with equal receive stamps is not measured.  The
        reference's receipts are not predicted: no report holds them.
        """
        if r1 - r0 <= 0:
            self.counts["out_of_order"] += 1
        key = (snd, rcv)
        if key in self.completed and s1 != s0 and rcv != 0:
            a_hat = self.relative_skew(snd, rcv, s0, r0)[0]
            r_hat = predict_receipt(s0, r0, s1, a_hat)
            self.errors["pred_mae"][rcv].append(abs(r_hat - r1))
        self.completed.add(key)
        if r1 == r0 or s1 == s0:
            return  # no send or receive interval to measure

        if self.protocol == "SS":
            ratio = abs((r1 - r0) / (s1 - s0))
            prev = self.ratios.get(key)
            lam = self.sc.ss_lambda
            self.ratios[key] = ratio if prev is None else (1 - lam) * prev + lam * ratio
            self.rel_logskew.store(key, math.log(self.ratios[key]))
            self.rel_logskew.relax(rcv, self.w_skew)
            return
        f = self._filter(snd, rcv)
        rel = RelParams(self.sc.alpha, self.params[snd].epsilon, self.params[rcv].epsilon)
        m = skew_measurement((f.loc[snd], f.loc[rcv]), s0, r0, s1, r1, rel,
                             t_k=measurement_epoch(snd, s0, r1),
                             delay_model=self.sc.delay, floor=self.sc.noise_floor)
        f.update(m, {snd: s1, rcv: r1})
        if self.protocol != "Hybrid":
            return
        # Hybrid: spatial smoothing of the link estimates into nodal log-skews
        edge = self._edge_of(snd, rcv)
        self.rel_logskew.store(edge, f.moments(*edge, {})[0])
        for node, stamp in ((snd, s1), (rcv, r1)):
            if node != 0:
                self.rel_logskew.relax(node, self.w_skew)
                self.u_skew[node] = stamp

    # -------------------------------------------------- offset estimation

    def reply_payload(self, i: int, j: int, s_i: float, r_ij: float) -> float | None:
        """Skew value node j attaches to its roundtrip reply (snapshotted
        when the request arrives, so replay lands on the same state)."""
        return self.relative_skew(i, j, s_i, r_ij)[1]

    def off_reply_arrived(self, i: int, j: int, s_i: float, r_ij: float,
                          s_j: float, r_ji: float,
                          carried: float | None) -> float | None:
        """Roundtrip closed at the initiator: estimate offset and delays.

        ``carried`` is the replier's :meth:`reply_payload`.  SS falls
        back on the initiator's own held ratio on (j, i), for a_ij when
        nothing was carried and for a_ji always; otherwise a_ji is the
        reciprocal of a_ij.  Returns None when there is no a_ij.
        """
        own = self.ratios.get((j, i)) if self.protocol == "SS" else None
        a_ij = carried if carried is not None else (1.0 / own if own else None)
        if a_ij is None:
            return None
        a_ji = own if own is not None else 1.0 / a_ij
        tau_ij, _, _ = offset_delay_estimate(s_i, r_ij, s_j, r_ji, a_ij, a_ji)
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
            mean, var = self.network.moments(0, m, {m: tau_now})
            return nodal_skew_estimate(self.params[m], mean, var, tau_now)
        if self.protocol == "Hybrid":
            d = max(0.0, tau_now - self.u_skew[m])
            decay = np.exp(-self.sc.alpha * d)
            variances = [self.filters[edge].moments(*edge, {m: tau_now})[1]
                         for edge in self.sc.graph.incident(m)]
            v_m = sum(variances) / len(variances) if variances else 0.0
            return nodal_skew_estimate(self.params[m], decay * self.w_skew[m], v_m, tau_now)
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


# Slots of ground truth per clock in one engine chunk (_chunk_width):
# _CHUNK_STEPS up to 64 clocks; beyond that, fewer, so that a chunk array
# holds about _CHUNK_VALUES values (2 MiB) whatever the node count; and
# never fewer than 1 024 (reached at 256 clocks), below which the
# per-chunk cost shows in the run time.  A batch whose normals a forked
# child draws (see clock_chunks) takes half that, floor included: the
# child's ring holds two more chunk arrays, and the per-row draw loop,
# whose cost grows with the chunk count, runs in the child, as does the
# recursion of a share of the rows that it sets chunk by chunk.  Drawn
# in this process, 300 clocks at the half width ran line300's Hybrid and
# MBCSP 5-8 % slower (0 of 12 alternating rounds faster, one CPU).  So
# 10 clocks take 4 096 slots, 100 clocks 2 621 (1 310 forked), and 300
# or 1 001 clocks 1 024 (512 forked): a 300-clock chunk array is
# 300 x 1 025 values, 2.46 MB, or forked 300 x 513, 1.23 MB, beside a
# ring of 2 x 300 x 513.  The loop keeps no chunk's states, so at most
# three chunk arrays are alive in this process at any time.  No value
# depends on the width (see clock_chunks).
_CHUNK_STEPS = 4096
_CHUNK_VALUES = 2**18
# Delays drawn at once (see draw_delay: any block size gives the same
# values in order); scipy's truncated-normal sampler costs mostly per
# call, not per value.
_DELAY_BLOCK = 256


def _chunk_width(clocks: int, noisy: int, n_slots: int) -> int:
    """Slots per engine chunk for a batch of ``clocks`` clocks, ``noisy``
    of them noisy, over ``n_slots`` slots."""
    forked = min(_CHUNK_STEPS, max(512, _CHUNK_VALUES // 2 // clocks))
    if _forks(noisy, n_slots, forked):
        return forked
    return min(_CHUNK_STEPS, max(1024, _CHUNK_VALUES // clocks))


def _delays(m: DelayModel, rng: np.random.Generator):
    """The delay draws of ``rng``, one per ``next``, drawn in blocks."""
    while True:
        yield from draw_delay(m, rng, size=_DELAY_BLOCK).tolist()


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
    delays = _delays(sc.delay, np.random.default_rng(children[sc.graph.n + 2]))
    rng_mac = np.random.default_rng(children[sc.graph.n + 3])

    # Node m's clock is row m of clock_chunks, streamed: the engine reads
    # it only at the current slot, and slots never decrease, so one chunk
    # (slots start..stop-1) is held at a time.
    n_slots = max(1, int(round(sc.horizon / sc.dt)))

    width = _chunk_width(len(sc.params), sum(p.epsilon > 0 for p in sc.params), n_slots)
    clocks = clock_chunks(sc.params, sc.dt, n_slots, clock_rngs, width)
    start = stop = 0
    dlinks = sc.directed_links
    machine = ProtocolMachine(sc)
    counts, errors = machine.counts, machine.errors
    trace: list[TraceRow] = []
    deadlines: dict[int, int] = {}  # open exchange id -> last arrival slot
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

    def record_sample(node: int, slot: int) -> None:
        if node == 0:
            return
        tau_now = float(displays[node, slot - start])
        skew = float(skews[node, slot - start])
        a_node = machine.nodal_skew(node, tau_now)
        true_off = tau_now - slot * sc.dt
        est_off = machine.offset_estimate(node, tau_now, a_node)
        errors["offset_mae"][node].append(abs(est_off - true_off))
        errors["skew_mae"][node].append(abs(a_node - skew))
        errors["offset_nosync"][node].append(abs(true_off))
        errors["skew_nosync"][node].append(abs(skew - 1.0))

    def handle_arrival(slot, row: TraceRow):
        deadline = deadlines.get(row.seq)
        if deadline is None:
            return
        if slot > deadline:
            del deadlines[row.seq]
            counts["timeouts"] += 1
            return
        row.r_stamp = stamp(row.dst, slot)
        trace.append(row)
        reply, refreshed = machine.deliver(row)
        if refreshed:
            record_sample(row.dst, slot)
        if reply is not None:
            gap = sc.roundtrip_gap if reply == "off-rep" else 1
            push(slot + gap, "send", TraceRow(reply, row.dst, row.src, row.seq))
        elif row.kind != "skew-a":  # after skew-a, skew-b is still to come
            del deadlines[row.seq]

    try:
        while heap:
            slot = heap[0][0]
            if slot > n_slots:
                break
            while slot >= stop:
                skews, displays = next(clocks)[1:]  # the states are never read
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
            for row in arrivals:
                handle_arrival(slot, row)
            for kind in starts:
                p_kind = p_skew if kind == "start-skew" else p_off
                src, dst = dlinks[int(rng_sched.integers(len(dlinks)))]
                xid_counter += 1
                deadlines[xid_counter] = slot + timeout_slots
                if kind == "start-skew":
                    sends.append(TraceRow("skew-a", src, dst, xid_counter))
                    push(slot + sc.skew_gap, "send", TraceRow("skew-b", src, dst, xid_counter))
                else:
                    sends.append(TraceRow("off-req", src, dst, xid_counter))
                push(slot + int(rng_sched.geometric(p_kind)), kind, None)
            if sends:
                live = [row for row in sends if row.seq in deadlines]
                admitted, dropped = mac_arbitrate(live, rng_mac)
                counts["collisions"] += len(dropped)
                for row in dropped:
                    del deadlines[row.seq]
                for row in sorted(admitted, key=lambda r: r.seq):
                    dslots = max(1, int(round(next(delays) / sc.dt)))
                    row.s_stamp = stamp(row.src, slot)
                    row.true_send_t, row.true_delay = slot * sc.dt, dslots * sc.dt
                    if slot + dslots <= n_slots:
                        push(slot + dslots, "arrive", row)
    finally:
        clocks.close()  # on a raise too: a forked clock drawer ends here

    return compute_metrics(errors, counts), trace


# --------------------------------------------------------------------------
# trace replay
# --------------------------------------------------------------------------


def trace_replay(rows, sc: Scenario) -> MetricsReport:
    """Re-run the protocol machine over recorded stamps only.

    Reproduces the live run's estimates, prediction errors, orphans and
    out-of-order pairs exactly (the same rows through the same
    :meth:`ProtocolMachine.deliver`); a trace holds no dropped or
    timed-out packet.  Ground truth is unavailable from a trace, so the
    offset/skew MAE columns are NaN.
    """
    machine = ProtocolMachine(sc)
    for row in rows:
        machine.deliver(row)
    return compute_metrics(machine.errors, machine.counts)
