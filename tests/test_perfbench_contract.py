"""The names the benchmark's per-layer trace wraps exist in the program.

``perfbench/tracing.py`` replaces attributes of ``clocklab.simulator``,
``clocklab.clocks`` and ``ProtocolMachine`` by name; a name that a
refactor removes or renames makes ``perfbench/run.py --trace 1`` fail,
and a name the program stops calling reads zero in the per-layer counts.
"""

import importlib.util
from pathlib import Path

import pytest

import clocklab.clocks as clocks
import clocklab.simulator as simulator
from clocklab.measurement import DelayModel
from clocklab.smoothing import SyncGraph

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines names only; installs nothing
    return module


def test_traced_names_resolve_on_the_program():
    tracing = load_tracing()
    for module, names in ((simulator, tracing._SIMULATOR_NAMES),
                          (clocks, tracing._CLOCKS_NAMES)):
        for _, attr in names:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for method in tracing.MACHINE_METHODS:
        assert callable(getattr(simulator.ProtocolMachine, method, None)), method
    for name in ("run_scenario", "trace_replay"):
        assert callable(getattr(simulator, name, None)), name


# The traced simulator names each protocol's machine calls, beyond the
# MACHINE_METHODS and the offset and prediction steps every protocol takes.
_FILTER_CALLS = {"skew_measurement", "relative_skew_readout", "net_update_distributed",
                 "nodal_skew_estimate"}
_PROTOCOL_CALLS = {"SS": set(), "Hybrid": _FILTER_CALLS, "MBCSP": _FILTER_CALLS}
_COMMON_CALLS = {"offset_delay_estimate", "predict_receipt"}


@pytest.mark.parametrize("protocol", simulator.PROTOCOLS)
def test_traced_machine_calls_happen(protocol, monkeypatch):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    watched = _COMMON_CALLS | _PROTOCOL_CALLS["MBCSP"]
    spans = {}
    for span, attr in tracing._SIMULATOR_NAMES:
        if attr in watched:
            monkeypatch.setattr(simulator, attr, tracer.wrap(span, getattr(simulator, attr)))
            spans[attr] = span
    for method in tracing.MACHINE_METHODS:
        span = f"simulator.ProtocolMachine.{method}"
        monkeypatch.setattr(simulator.ProtocolMachine, method,
                            tracer.wrap(span, getattr(simulator.ProtocolMachine, method)))
        spans[method] = span
    assert set(spans) == watched | set(tracing.MACHINE_METHODS)
    sc = simulator.Scenario(
        graph=SyncGraph(n=1, edges=((0, 1),)), alpha=10.0, epsilons=(0.0, 1.0),
        delay=DelayModel(kind="uniform", mean=5e-3, spread=5e-5), dt=1e-4,
        horizon=2.0, skew_rate=5.0, protocol=protocol, seed=1)
    simulator.run_scenario(sc)
    tracer.fold()
    called = {name for name, span in spans.items() if tracer.totals[span]["calls"] > 0}
    assert called == set(tracing.MACHINE_METHODS) | _COMMON_CALLS | _PROTOCOL_CALLS[protocol]


def test_table_counter_reads_a_simulate_clock_result():
    # No traced run calls simulate_clock, so only this pins the counter
    # that `perfbench/run.py --trace 1` installs on it to the result's fields.
    tracer = load_tracing().Tracer()
    traced = tracer.wrap("clocks.simulate_clock", clocks.simulate_clock,
                         after=tracer._count_tables)
    traj = traced(clocks.ClockParams(10.0, 1.0), horizon=0.01, dt=1e-3, seed=0)
    assert traj.displays.nbytes > 0
    assert tracer.table_bytes == traj.displays.nbytes + traj.skews.nbytes
