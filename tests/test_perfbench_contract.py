"""The names the benchmark's per-layer trace wraps exist in the program.

``perfbench/tracing.py`` replaces attributes of ``clocklab.simulator``,
``clocklab.clocks`` and ``ProtocolMachine`` by name; a name that a
refactor removes or renames makes ``perfbench/run.py --trace 1`` fail.
"""

import importlib.util
from pathlib import Path

import clocklab.clocks as clocks
import clocklab.simulator as simulator

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
