"""In-memory span recorder for the traced benchmark run.

Spans are recorded by wrappers installed around public clocklab
functions, looked up where the program calls them (the names bound in
``clocklab.simulator`` and ``clocklab.clocks``, and the methods of
``ProtocolMachine``).  No program file changes: the wrappers replace
module attributes in the benchmark's own process only.

A span is ``(name, start, end, parent)``; ``parent`` is the index of
the enclosing span, or -1.  Self time is a span's duration minus the
durations of its direct children, which are disjoint because the
program runs on one thread.  ``fold`` adds a finished batch of spans to
per-name totals and keeps only that batch, so memory stays bounded by
one round however many rounds a run makes.
"""

from __future__ import annotations

import time
from collections import defaultdict

import clocklab.clocks as clocks
import clocklab.simulator as simulator

# (span name, attribute) of every wrapped callable, per module.
_SIMULATOR_NAMES = (
    ("clocks.simulate_clock", "simulate_clock"),
    ("measurement.skew_measurement", "skew_measurement"),
    ("measurement.draw_delay", "draw_delay"),
    ("measurement.offset_delay_estimate", "offset_delay_estimate"),
    ("measurement.predict_receipt", "predict_receipt"),
    ("network.net_update_distributed", "net_update_distributed"),
    ("network.relative_skew_readout", "relative_skew_readout"),
    ("network.nodal_skew_estimate", "nodal_skew_estimate"),
    ("network.initial_network_state", "initial_network_state"),
    ("smoothing.jacobi_step", "jacobi_step"),
    ("smoothing.SyncGraph", "SyncGraph"),
    ("smoothing.RelativeEstimates", "RelativeEstimates"),
    ("simulator.mac_arbitrate", "mac_arbitrate"),
    ("simulator.quantize_stamp", "quantize_stamp"),
    ("simulator.compute_metrics", "compute_metrics"),
    ("simulator.write_trace_csv", "write_trace_csv"),
    ("simulator.read_trace_csv", "read_trace_csv"),
)
_CLOCKS_NAMES = (
    ("clocks.allan_variance_analytic", "allan_variance_analytic"),
    ("clocks.sample_displays", "sample_displays"),
    ("clocks.fit_params_from_allan", "fit_params_from_allan"),
)
MACHINE_METHODS = (
    "skew_complete", "reply_payload", "off_reply_arrived",
    "off_ack_arrived", "nodal_skew", "offset_estimate",
)


class Tracer:
    """Records spans and clock-table bytes; totals spans per name."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.last: list[tuple[str, float, float, int] | None] = []
        self.totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        self._stack: list[int] = []
        self.table_bytes = 0  # display + skew bytes since the last reset

    def wrap(self, name, fn, label=None, after=None):
        """Return ``fn`` wrapped so that each call records one span.

        ``label(args, kwargs)`` may refine the span name from the call's
        arguments; ``after(result)`` sees each result.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(args, kwargs)}"
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Replace the program's callables with traced ones."""
        for name, attr in _SIMULATOR_NAMES:
            after = self._count_tables if attr == "simulate_clock" else None
            setattr(simulator, attr, self.wrap(name, getattr(simulator, attr), after=after))
        for name, attr in _CLOCKS_NAMES:
            setattr(clocks, attr, self.wrap(name, getattr(clocks, attr)))
        simulator.run_scenario = self.wrap(
            "simulator.run_scenario", simulator.run_scenario, label=_protocol_label)
        simulator.trace_replay = self.wrap(
            "simulator.trace_replay", simulator.trace_replay, label=_protocol_label)
        machine = simulator.ProtocolMachine
        for method in MACHINE_METHODS:
            setattr(machine, method, self.wrap(
                f"simulator.ProtocolMachine.{method}", getattr(machine, method)))

    def _count_tables(self, traj) -> None:
        self.table_bytes += traj.displays.nbytes + traj.skews.nbytes

    def fold(self) -> None:
        """Add the finished spans to ``totals``; keep them as ``last``."""
        child_s = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        for idx, (name, start, end, _) in enumerate(self.spans):
            agg = self.totals[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_s[idx]
        self.last = list(self.spans)
        self.spans.clear()  # the wrappers hold this list

    def write(self, path) -> None:
        """Dump the last batch as CSV: ``index,name,start_s,end_s,parent``."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.last):
                fh.write(f"{idx},{name},{start:.9f},{end:.9f},{parent}\n")


def _protocol_label(args, kwargs) -> str:
    """Protocol of the scenario: the last argument of ``run_scenario(sc)``
    and ``trace_replay(rows, sc)``."""
    return kwargs.get("sc", args[-1]).protocol
