"""Output checks of the benchmark's operations.

Each check returns a list of problems; an empty list means the output
is correct.  Every check is made against a property the method must
have or against an independent computation, never against a stored
copy of an earlier output.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

FLOAT_EPS = np.finfo(float).eps


def allan_closed_form(T: float, alpha: float, epsilon: float) -> float:
    """Allan variance of linearized OU frequency noise.

    q/(alpha^2 T^2) [2(alpha T - 1 + e^{-alpha T}) - (1 - e^{-alpha T})^2]
    with q = epsilon^2 / (2 alpha).
    """
    q = epsilon * epsilon / (2.0 * alpha)
    x = alpha * T
    e = math.exp(-x)
    return q / (x * x) * (2.0 * (x - 1.0 + e) - (1.0 - e) ** 2)


def _stamp_tolerance(t: float, dt: float, digits: int) -> float:
    """Largest gap allowed between a reference send stamp and true time.

    Half a unit in the last of ``digits`` significant digits (the
    stamp quantization), plus the worst-case rounding of the naive
    running sum of ``t/dt`` grid increments that forms the display.
    """
    if t <= 0:
        return 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(t)) - (digits - 1))
    return half_unit + (t / dt) * FLOAT_EPS * t


def check_run(sc, report, rows, stamp_digits: int) -> list[str]:
    """Properties every live run must have."""
    problems = []
    # Transmissions admitted in one slot form a matching, so the packets
    # of one send slot that reached the trace touch each node at most once.
    busy = defaultdict(set)
    for r in rows:
        slot = round(r.true_send_t / sc.dt)
        nodes = busy[slot]
        if r.src in nodes or r.dst in nodes:
            problems.append(f"slot {slot}: node reused by {r.kind} {r.src}->{r.dst}")
            break
        nodes.update((r.src, r.dst))
    # The reference clock is exact, so its send stamps are true time.
    for r in rows:
        if r.src == 0:
            tol = _stamp_tolerance(r.true_send_t, sc.dt, stamp_digits)
            if abs(r.s_stamp - r.true_send_t) > tol:
                problems.append(
                    f"reference stamp {r.s_stamp!r} is {r.s_stamp - r.true_send_t:.3g} "
                    f"from true send time {r.true_send_t!r} (tolerance {tol:.3g})")
                break
    # Synchronization must beat leaving the clocks free-running, over the
    # network: a single node's no-sync error can be small by chance (a
    # clock that happened to stay near true time), so a per-node
    # comparison fails on some seeds without any fault in the program.
    sampled = [m for m, err in report.offset_mae.items() if math.isfinite(err)]
    err = float(np.mean([report.offset_mae[m] for m in sampled])) if sampled else math.nan
    base = float(np.mean([report.offset_nosync[m] for m in sampled])) if sampled else math.nan
    if not err < base:
        problems.append(f"network offset error {err!r} not below no-sync {base!r}")
    return problems


def known_fault_nodes(live, replayed) -> set[int]:
    """Nodes whose live ``pred_mae`` is NaN only because of the known
    ``compute_metrics`` fault: the node has no offset samples, so the
    live report drops its prediction error, which replay still reports."""
    return {
        m for m, v in live.pred_mae.items()
        if math.isnan(v) and math.isnan(live.offset_mae[m])
        and not math.isnan(replayed.pred_mae.get(m, math.nan))
    }


def check_replay(live, replayed, skip: set[int] = frozenset()) -> list[str]:
    """Stamp-only replay reproduces the live prediction errors bit for bit."""
    problems = []
    if set(live.pred_mae) != set(replayed.pred_mae):
        problems.append("replay reports a different node set")
    for m in sorted(set(live.pred_mae) & set(replayed.pred_mae) - skip):
        a, b = live.pred_mae[m], replayed.pred_mae[m]
        if a.hex() != b.hex():
            problems.append(f"node {m}: live pred_mae {a!r} != replayed {b!r}")
    if live.out_of_order != replayed.out_of_order:
        problems.append(
            f"out_of_order: live {live.out_of_order} != replayed {replayed.out_of_order}")
    return problems


def check_relative(name: str, value: float, truth: float, tol: float) -> list[str]:
    rel = abs(value / truth - 1.0)
    if not rel <= tol:
        return [f"{name}: {value!r} is {rel:.3g} from {truth!r} (tolerance {tol:g})"]
    return []
