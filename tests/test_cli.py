"""Tests for the command-line interface."""

import hashlib
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import replace
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

import clocklab
from conftest import save_trajectory, traced_peak
from clocklab.clocks import ClockParams, allan_variance_analytic, simulate_clock
from clocklab.simulator import read_scenario
from clocklab.smoothing import SyncGraph
from clocklab.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

FAST_SCENARIO = """\
nodes = 2
edges = 0-1
alpha = 10.0
epsilon_1 = 1.0
dt = 1e-4
horizon = 2.0
skew_rate = 5.0
offset_rate = 6.0
seed = 3
delay.kind = uniform
delay.mean = 5e-3
delay.spread = 5e-5
"""


@pytest.fixture
def fast_scenario(tmp_path):
    path = tmp_path / "fast.scenario"
    path.write_text(FAST_SCENARIO)
    return path


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ------------------------------------------------------------------- parsing


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_flag_rejected(fast_scenario, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(fast_scenario), "--out", str(tmp_path), "--frobnicate"])
    assert exc.value.code == 2


def test_console_script_installed():
    """The declared ``clocklab`` console script runs and offers ``simulate``.

    The script is read from ``[project.scripts]`` and run the way pip's
    generated wrapper runs it, against this checkout; a ``clocklab`` found
    on ``PATH`` is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "clocklab" in scripts
    entry = EntryPoint("clocklab", scripts["clocklab"], "console_scripts")
    assert callable(entry.load())

    src = str(Path(clocklab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    wrapper = (f"import sys; from {entry.module} import {entry.attr}; "
               f"sys.exit({entry.attr}())")
    commands = [[sys.executable, "-c", wrapper, "--help"]]
    installed = shutil.which("clocklab")
    if installed:
        commands.append([installed, "--help"])
    for cmd in commands:
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert b"simulate" in proc.stdout, proc.stderr.decode(errors="replace")


_NO_AR1_KERNEL_CHILD = """
import importlib.machinery

find_spec = importlib.machinery.PathFinder.find_spec
importlib.machinery.PathFinder.find_spec = staticmethod(
    lambda name, *rest: None if name == "scipy.signal._sigtools" else find_spec(name, *rest))

from clocklab.cli import main
from clocklab.clocks import ClockParams, sample_displays

try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code == 0, exc.code
try:
    sample_displays(ClockParams(10.0, 1.0), 0.1, 3, 1e-3, 0)
except ImportError as exc:
    print(exc)
"""


def test_only_clock_generation_needs_the_ar1_kernel():
    # A scipy without scipy.signal._sigtools still imports the package and
    # prints the help; generating a clock raises the ImportError.
    src = str(Path(clocklab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _NO_AR1_KERNEL_CHILD],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert b"simulate" in proc.stdout
    assert b"has no scipy.signal._sigtools extension" in proc.stdout


_NO_SCIPY_SIGNAL_CHILD = """
import sys
from dataclasses import replace

import clocklab.cli  # the imports of every subcommand
from clocklab.clocks import ClockParams, sample_displays
from clocklab.simulator import read_scenario, run_scenario, trace_replay

sc = replace(read_scenario(sys.argv[1]), horizon=1.0)
assert sc.delay.kind == "uniform"
for protocol in ("SS", "Hybrid", "MBCSP"):
    run = replace(sc, protocol=protocol)
    rows = run_scenario(run)[1]
    assert rows
    trace_replay(rows, run)
sample_displays(ClockParams(10.0, 1.0), 0.1, 30, 1e-3, 0)
print(" ".join(m for m in sys.modules if m == "scipy.signal" or m.startswith("scipy.stats")))
"""


def test_cli_and_uniform_runs_load_neither_scipy_signal_nor_stats():
    # A fresh process: the test session itself has imported both.
    src = str(Path(clocklab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SIGNAL_CHILD, str(SCENARIOS / "two-node.scenario")],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout.decode().split() == []


# ------------------------------------------------------------------ simulate


def test_simulate_writes_outputs(fast_scenario, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", str(fast_scenario), "--out", str(out)]) == 0
    metrics = out / "fast-seed3-metrics.csv"
    trace = out / "fast-seed3-trace.csv"
    assert metrics.exists() and trace.exists()
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("node,offset_mae")
    assert len(lines) == 2  # header + one non-reference node
    assert str(metrics) in capsys.readouterr().out


def test_simulate_shipped_scenario_row_count(tmp_path):
    assert main(["simulate", str(SCENARIOS / "two-node.scenario"),
                 "--out", str(tmp_path), "--horizon", "2.0"]) == 0
    lines = (tmp_path / "two-node-seed0-metrics.csv").read_text().splitlines()
    assert len(lines) == 2


# SHA-256 of the outputs of `clocklab simulate` on the shipped ten-node
# line with seed 0.  The schedule never reads an estimate, so the trace
# is the same for Hybrid and MBCSP; their metrics depend on rounding in
# the filter arithmetic and are not pinned.
GOLDEN_TEN_NODE_LINE = {
    "SS": ("ecb3b28405dc769e093ca631c8d1597dbe110a7a5232b35c2aed2cfedc392ed1",
           "fbe03a4281467bb1daf70869902130445d3838f396fb052642f55e1cbf146bcd"),
    "Hybrid": ("47520ea81e3395eed4528cb34051de406e3c49d5ee3064d3142724ccfa9b391b", None),
    "MBCSP": ("47520ea81e3395eed4528cb34051de406e3c49d5ee3064d3142724ccfa9b391b", None),
}


@pytest.mark.parametrize("protocol", sorted(GOLDEN_TEN_NODE_LINE))
def test_simulate_ten_node_line_golden_digests(tmp_path, protocol):
    assert main(["simulate", str(SCENARIOS / "ten-node-line.scenario"), "--seed", "0",
                 "--protocol", protocol, "--out", str(tmp_path)]) == 0
    trace_sha, metrics_sha = GOLDEN_TEN_NODE_LINE[protocol]
    digest = {kind: hashlib.sha256(
        (tmp_path / f"ten-node-line-seed0-{kind}.csv").read_bytes()).hexdigest()
        for kind in ("trace", "metrics")}
    assert digest["trace"] == trace_sha
    if metrics_sha is not None:
        assert digest["metrics"] == metrics_sha


# SHA-256 of `clocklab simulate --horizon 4` on the other shipped
# scenarios: the SS trace and metrics, and the Hybrid trace, which is
# MBCSP's too.  Filter metrics stay unpinned, as above.
GOLDEN_HORIZON_4 = {
    ("five-node-ring", 0): (
        "b6db2447b5b5b5233df9484f3accaf3b4737d8ac2a6f6c81713780972d11075f",
        "01ccb477718e1469667edf877f51dff9820487956470b68a4f209fce5c36e1f1",
        "097d2c3bf9cf01ceb7d48df7cf67699b29a1c25381eed53848ef6b8d2e7745f3"),
    ("five-node-ring", 1): (
        "36aac5160afbd24e18b324dea9e1249c0c0bf60cbb47ddc705871b43a6c43d42",
        "664530bd8a4f7becfdfb09021ac658f867cf3176db3850cbf39862479a24e57a",
        "1c1f88354929ca9532a08bb3e5e12827334cf277b20998fa27886f50eb68443d"),
    ("two-node", 0): (
        "ef8150b51bad241d7bfe4b67ed40b704170e355cb7fe0fae3b07c4a616127c56",
        "3793f540205f9d1c3f2a152b3ed0a0bd49b09e4d712d74eda4914cc793532819",
        "740794c1ff70c6cd57c3027bd48f5178521cd50a7a365603b7c3a0ab33b4eb56"),
    ("two-node", 1): (
        "14580d808c2493df413c777dd0adf80e5ec1c9e418c956a77ef63cc39e3a5184",
        "81ac1f80f6edd947470107ab2485f570dd3d5d1916f76251b61c5e2fdf2e0a52",
        "e8af6354b6012f880a0376b7bd5d46bab5afdd82cf107980f2e082ac3791dd0a"),
}


def assert_horizon_4_digests(scenario, seed, tmp_path, golden):
    """``golden`` holds the SS trace and metrics and the Hybrid trace
    digests of ``scenario`` run with ``--horizon 4``."""
    ss_trace, ss_metrics, filter_trace = golden
    digest = {}
    for protocol in ("SS", "Hybrid"):
        out = tmp_path / protocol
        assert main(["simulate", str(scenario), "--seed", str(seed),
                     "--protocol", protocol, "--horizon", "4", "--out", str(out)]) == 0
        for kind in ("trace", "metrics"):
            digest[protocol, kind] = hashlib.sha256(
                (out / f"{scenario.stem}-seed{seed}-{kind}.csv").read_bytes()).hexdigest()
    assert digest["SS", "trace"] == ss_trace
    assert digest["SS", "metrics"] == ss_metrics
    assert digest["Hybrid", "trace"] == filter_trace


@pytest.mark.parametrize("stem, seed", sorted(GOLDEN_HORIZON_4))
def test_simulate_shipped_scenarios_golden_digests(tmp_path, stem, seed):
    assert_horizon_4_digests(SCENARIOS / f"{stem}.scenario", seed, tmp_path,
                             GOLDEN_HORIZON_4[stem, seed])


# The same digests for the shipped ring with truncated-normal delays, the
# one delay kind no shipped scenario uses, at seed 0.  The delays come
# from scipy's truncnorm sampler, so these digests also pin its stream.
GOLDEN_TRUNCATED_NORMAL_RING = (
    "a247227d4e6e8b241b365aeccf057c71a38883245254f42612ede8886a14e5e2",
    "1b06efdba3e1566bcea779b083b1148e825ee1d5ad768fd75bb9a9c0fb319673",
    "8cd22cb4e1daa5107d4c2682962e3e9312bc29264f0d91bc7be6b98b5c9ea579")


def test_simulate_truncated_normal_ring_golden_digests(tmp_path):
    text = (SCENARIOS / "five-node-ring.scenario").read_text()
    assert "kind = uniform" in text
    scenario = tmp_path / "ring.scenario"
    scenario.write_text(text.replace("kind = uniform", "kind = truncated-normal"))
    assert_horizon_4_digests(scenario, 0, tmp_path, GOLDEN_TRUNCATED_NORMAL_RING)


def test_simulate_seed_override_is_deterministic(fast_scenario, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(fast_scenario), "--out", str(a), "--seed", "7"]) == 0
    assert main(["simulate", str(fast_scenario), "--out", str(b), "--seed", "7"]) == 0
    for name in ("fast-seed7-metrics.csv", "fast-seed7-trace.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_multiple_seeds_parallel(fast_scenario, tmp_path):
    out = tmp_path / "multi"
    assert main(["simulate", str(fast_scenario), "--out", str(out),
                 "--seed", "1,2", "--jobs", "2"]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["fast-seed1-metrics.csv", "fast-seed1-trace.csv",
                     "fast-seed2-metrics.csv", "fast-seed2-trace.csv"]


def test_simulate_repeated_seed_exits_two(fast_scenario, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", str(fast_scenario), "--out", str(out),
                 "--seed", "1,2,1", "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count(str(fast_scenario)) == 2 and "fast-seed1" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_simulate_rejects_fewer_than_one_job(fast_scenario, tmp_path, capsys, jobs):
    out = tmp_path / "runs"
    assert main(["simulate", str(fast_scenario), "--out", str(out), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert f"--jobs must be at least 1, got {jobs}" in captured.err
    assert captured.out == "" and not out.exists()


def test_simulate_starts_no_more_workers_than_runs(fast_scenario, tmp_path, monkeypatch):
    started = []

    class InProcessPool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(clocklab.cli, "ProcessPoolExecutor", InProcessPool)
    assert main(["simulate", str(fast_scenario), "--out", str(tmp_path / "runs"),
                 "--seed", "1,2", "--jobs", "64"]) == 0
    assert started == [2]


def test_simulate_shared_stem_exits_two(fast_scenario, tmp_path, capsys):
    other = tmp_path / "other" / "fast.scenario"
    other.parent.mkdir()
    other.write_text(FAST_SCENARIO)
    out = tmp_path / "runs"
    assert main(["simulate", str(fast_scenario), str(other), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(fast_scenario) in err and str(other) in err and "fast-seed3" in err
    assert not out.exists()


def test_simulate_seeds_flag_is_gone(fast_scenario, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(fast_scenario), "--out", str(tmp_path), "--seeds", "1,2"])
    assert exc.value.code == 2
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_auto_seed_names_the_seed_it_drew(fast_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(fast_scenario), "--out", str(out), "--seed", "auto"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("auto seed: ")
    seed = int(err.split()[2])
    assert 0 <= seed < 2**32
    assert sorted(p.name for p in out.iterdir()) == [
        f"fast-seed{seed}-metrics.csv", f"fast-seed{seed}-trace.csv"]


def test_simulate_missing_file_exits_two(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.scenario"),
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_config_error_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text(FAST_SCENARIO + "warp_factor = 9\n")
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2
    assert "warp_factor" in capsys.readouterr().err


def test_simulate_repeated_key_exits_two(tmp_path, capsys):
    bad = tmp_path / "again.scenario"
    bad.write_text(FAST_SCENARIO.replace("alpha = 10.0\n", "alpha = 10.0\nalpha = 0.5\n"))
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2
    assert "line 4: key 'alpha' already set on line 3" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_repeated_link_exits_two(tmp_path, capsys):
    bad = tmp_path / "twice.scenario"
    bad.write_text(FAST_SCENARIO.replace("edges = 0-1", "edges = 0-1, 1-0"))
    assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2
    assert "link (1, 0) is listed twice" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_too_noisy_clock_exits_two(tmp_path, capsys):
    # epsilon_1^2/(4 alpha) = 227.052, just above the readouts' bound, and
    # an epsilon_1 whose square is past the largest float
    for epsilon, value in (("95.3", "227.052"), ("1e160", "inf")):
        bad = tmp_path / "noisy.scenario"
        bad.write_text(FAST_SCENARIO.replace("epsilon_1 = 1.0", f"epsilon_1 = {epsilon}"))
        assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"node 1 is too noisy: epsilon_1^2/(4 alpha) = {value} must stay below 227.037" \
            in err
        assert not list(tmp_path.glob("*.csv"))


# The shipped five-node ring at horizon 0.5, one `key = value` per line.
RING = {"nodes": "5", "edges": "0-1, 1-2, 2-3, 3-4, 4-0", "alpha": "10.0",
        **{f"epsilon_{m}": "1.0" for m in range(1, 5)}, "horizon": "0.5",
        "delay.kind": "uniform", "delay.mean": "5e-3", "delay.spread": "5e-5"}


@pytest.mark.parametrize("changes, field", [
    ({"horizon": "inf"}, "horizon"),
    ({"dt": "1e-320"}, "dt"),
    ({"noise_floor": "-1"}, "noise_floor"),
    ({"noise_floor": "nan"}, "noise_floor"),
    ({"noise_floor": "inf"}, "noise_floor"),
    ({"noise_floor": "0", "delay.kind": "constant"}, "noise_floor"),
    ({"delay.mean": "inf"}, "mean delay"),
    ({"delay.mean": "1e308", "delay.kind": "constant"}, "mean delay"),
    ({"delay.bound": "nan"}, "bound"),
    ({"seed": "-1"}, "seed"),
])
def test_simulate_rejects_values_it_cannot_run(tmp_path, capsys, changes, field):
    # Each of these once passed validation and then failed inside the run.
    bad = tmp_path / "bad.scenario"
    bad.write_text("".join(f"{k} = {v}\n" for k, v in {**RING, **changes}.items()))
    assert main(["simulate", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_huge_node_count_is_rejected_in_little_memory(tmp_path, capsys):
    # A million nodes first: code that is linear in the node count fails
    # there, in a few hundred MB, before it meets 300 million.
    for nodes in (10**6, 300_000_000):
        bad = tmp_path / f"n{nodes}.scenario"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in {**RING, "nodes": nodes}.items()))

        def reject():
            with pytest.raises(ValueError, match="missing required scenario key 'epsilon_5'"):
                read_scenario(bad)

        assert traced_peak(reject) < 2**20
        assert traced_peak(lambda: SyncGraph(n=nodes, edges=((0, 1),))) < 2**20
    assert traced_peak(lambda: SyncGraph(n=10**9, edges=((0, 1),))) < 2**20
    assert main(["simulate", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "epsilon_5" in capsys.readouterr().err


def test_simulate_bad_seed_exits_two(fast_scenario, tmp_path, capsys):
    assert main(["simulate", str(fast_scenario), "--out", str(tmp_path),
                 "--seed", "pi"]) == 2
    assert "seed" in capsys.readouterr().err
    for bad in ("1,pi", "", ","):
        assert main(["simulate", str(fast_scenario), "--out", str(tmp_path),
                     "--seed", bad]) == 2
        assert f"bad seed {bad!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_simulate_rejects_a_negative_seed_before_any_output(fast_scenario, tmp_path, capsys):
    for bad in ("-1", "3,-2"):
        assert main(["simulate", str(fast_scenario), "--out", str(tmp_path / "out"),
                     "--seed", bad]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------------- allan


def test_allan_quiet_clock_is_zero(capsys):
    assert main(["allan", "--intervals", "0.1,0.5", "--alpha", "10",
                 "--epsilon", "0", "--samples", "50"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "T,analytic,empirical"
    for line in out[1:]:
        _, analytic, empirical = (float(v) for v in line.split(","))
        assert analytic == 0.0
        assert abs(empirical) < 1e-20


def test_allan_analytic_tracks_empirical(capsys):
    assert main(["allan", "--intervals", "0.1", "--alpha", "10",
                 "--epsilon", "1", "--samples", "3000", "--seed", "2"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    _, analytic, empirical = (float(v) for v in line.split(","))
    assert empirical == pytest.approx(analytic, rel=0.10)


def test_allan_from_trajectory(tmp_path, capsys):
    traj = simulate_clock(ClockParams(10.0, 1.0), horizon=50.0, dt=1e-2, seed=5)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    assert main(["allan", "--intervals", "0.1", "--trajectory", str(path)]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    _, analytic, empirical = (float(v) for v in line.split(","))
    assert np.isnan(analytic)  # no parameters supplied
    assert 0.0 < empirical < 1.0


def test_allan_argument_errors(tmp_path, capsys):
    assert main(["allan", "--intervals", "0.1"]) == 2
    assert main(["allan", "--intervals", "0.1", "--alpha", "10"]) == 2
    assert main(["allan", "--intervals", "", "--alpha", "10", "--epsilon", "1"]) == 2
    traj = simulate_clock(ClockParams(10.0, 1.0), horizon=1.0, dt=1e-2, seed=5)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    assert main(["allan", "--intervals", "0.015", "--trajectory", str(path)]) == 2
    assert "not a multiple" in capsys.readouterr().err


def test_allan_rejects_a_clock_whose_noise_overflows(capsys):
    # Scenario's bound on epsilon^2/(4 alpha), checked before any output
    for epsilon, value in (("1e10", "2.5e+18"), ("1e300", "inf")):
        assert main(["allan", "--intervals", "0.01", "--alpha", "10", "--epsilon", epsilon,
                     "--samples", "10"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert f"--epsilon is too noisy: epsilon^2/(4 alpha) = {value} must stay below " \
            "227.037" in err


def test_allan_rejects_a_trajectory_step_that_is_not_positive(tmp_path, capsys):
    traj = simulate_clock(ClockParams(10.0, 1.0), horizon=1.0, dt=1e-2, seed=5)
    path = tmp_path / "traj.csv"
    for step in (0.0, -1.0):
        save_trajectory(replace(traj, dt=step), path)
        assert main(["allan", "--intervals", "0.1", "--trajectory", str(path)]) == 2
        assert f"trajectory time step {step!r} must be positive" in capsys.readouterr().err


def test_allan_rejects_a_step_ratio_that_is_not_finite(tmp_path, capsys):
    assert main(["allan", "--intervals", "1e-3", "--alpha", "10", "--epsilon", "1",
                 "--sim-dt", "1e-320"]) == 2
    assert "spacing 0.001 is inf steps of dt 1e-320" in capsys.readouterr().err
    traj = simulate_clock(ClockParams(10.0, 1.0), horizon=1.0, dt=1e-2, seed=5)
    path = tmp_path / "traj.csv"
    save_trajectory(traj, path)
    assert main(["allan", "--intervals", "1e308", "--trajectory", str(path)]) == 2
    assert "interval 1e+308 is not a multiple" in capsys.readouterr().err


def test_allan_rejects_a_path_of_2_to_the_53_steps():
    # In a child with a time limit: a path this long never finishes.
    src = str(Path(clocklab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "clocklab.cli", "allan", "--intervals", "1e300",
         "--samples", "2", "--alpha", "10", "--epsilon", "1"],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr.decode(errors="replace")
    assert b"2 windows of spacing 1e+300 are 2e+303 steps" in proc.stderr


# ----------------------------------------------------------------------- fit


def write_curve(path, params, intervals, header="T,sigma2"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for T in intervals:
            v = allan_variance_analytic(T, params)
            row = f"{T:.17g},{v:.17g}" if header == "T,sigma2" else f"{T:.17g},nan,{v:.17g}"
            fh.write(row + "\n")


def test_fit_recovers_parameters(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    write_curve(curve, ClockParams(66.4, 4.15e-5), np.geomspace(2e-3, 0.2, 8))
    assert main(["fit", str(curve)]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    alpha, epsilon = (float(v) for v in line.split(","))
    assert alpha == pytest.approx(66.4, rel=0.05)
    assert epsilon == pytest.approx(4.15e-5, rel=0.05)


def test_fit_accepts_allan_output_header(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    write_curve(curve, ClockParams(10.0, 1.0), np.geomspace(0.02, 2.0, 6),
                header="T,analytic,empirical")
    assert main(["fit", str(curve), "--starts", "4"]) == 0
    alpha, epsilon = (float(v) for v in capsys.readouterr().out.splitlines()[1].split(","))
    assert alpha == pytest.approx(10.0, rel=0.2)
    assert epsilon == pytest.approx(1.0, rel=0.2)


def test_fit_rejects_malformed_curve(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("频率,噪声\n1,2\n")
    assert main(["fit", str(bad)]) == 2
    bad.write_text("T,sigma2\n0.1,fast\n")
    assert main(["fit", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_fit_rejects_a_start_count_out_of_range_before_allocating(tmp_path, capsys):
    curve = tmp_path / "curve.csv"
    write_curve(curve, ClockParams(10.0, 1.0), np.geomspace(0.02, 2.0, 6))
    for bad, msg in ((-1, "nonnegative"), (2**20 + 1, "at most 1048576")):
        assert main(["fit", str(curve), "--starts", str(bad)]) == 2
        assert f"--starts must be {msg}, got {bad}" in capsys.readouterr().err
    # 10^12 starts, in little memory: an array of 10^12 random starts
    # (7.28 TiB) fails there on MemoryError (exit 1) unless the count is
    # checked first.
    proc = cli_in_little_memory("fit", str(curve), "--starts", str(10**12))
    assert proc.returncode == 2, proc.stderr.decode(errors="replace")
    assert b"--starts must be at most 1048576" in proc.stderr and proc.stdout == b""


# -------------------------------------------------------------------- replay


def test_replay_matches_simulate_bit_exactly(fast_scenario, tmp_path):
    out = tmp_path / "runs"
    assert main(["simulate", str(fast_scenario), "--out", str(out)]) == 0
    replayed = tmp_path / "replay.csv"
    assert main(["replay", str(out / "fast-seed3-trace.csv"),
                 str(fast_scenario), "--out", str(replayed)]) == 0
    live = (out / "fast-seed3-metrics.csv").read_text().splitlines()
    rep = replayed.read_text().splitlines()
    assert live[0] == rep[0]
    for lv, rp in zip(live[1:], rep[1:]):
        assert lv.split(",")[3] == rp.split(",")[3]  # identical pred MAE text
        assert rp.split(",")[1] == "nan"  # no ground truth in a trace


def test_replay_missing_trace_exits_two(fast_scenario, tmp_path):
    assert main(["replay", str(tmp_path / "none.csv"), str(fast_scenario)]) == 2


def test_replay_names_the_line_of_an_undecodable_byte(fast_scenario, tmp_path, capsys):
    out = tmp_path / "runs"
    assert main(["simulate", str(fast_scenario), "--out", str(out)]) == 0
    trace = out / "fast-seed3-trace.csv"
    lines = trace.read_bytes().splitlines(keepends=True)
    assert len(lines) > 3
    lines[2] = lines[2].replace(b",", b",\xff", 1)
    trace.write_bytes(b"".join(lines))
    assert main(["replay", str(trace), str(fast_scenario)]) == 2
    assert "line 3: byte 0xff at column" in capsys.readouterr().err


@pytest.fixture(scope="module")
def ring_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("ring")
    assert main(["simulate", str(SCENARIOS / "five-node-ring.scenario"),
                 "--horizon", "2", "--out", str(out)]) == 0
    return out / "five-node-ring-seed0-trace.csv"


@pytest.mark.parametrize("protocol", ["SS", "Hybrid", "MBCSP"])
@pytest.mark.parametrize("target", ["line", "two-node"])
def test_replay_rejects_a_trace_off_the_scenario_graph(ring_trace, tmp_path, capsys,
                                                       target, protocol):
    # The ring's link 4-0 is in neither graph.
    if target == "line":
        ring = (SCENARIOS / "five-node-ring.scenario").read_text()
        assert "edges = 0-1, 1-2, 2-3, 3-4, 4-0" in ring
        scenario = tmp_path / "line.scenario"
        scenario.write_text(ring.replace("3-4, 4-0", "3-4"))
    else:
        scenario = SCENARIOS / "two-node.scenario"
    out = tmp_path / "replay.csv"
    assert main(["replay", str(ring_trace), str(scenario), "--protocol", protocol,
                 "--out", str(out)]) == 2
    assert "no edge between" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------------- smooth


def test_smooth_consistent_triangle(tmp_path, capsys):
    rel = tmp_path / "rel.csv"
    rel.write_text("i,j,value\n0,1,1.0\n1,2,0.5\n0,2,1.5\n")
    assert main(["smooth", str(rel), "--tol", "1e-12"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    values = {int(float(r.split(",")[0])): float(r.split(",")[1]) for r in rows}
    assert values[0] == 0.0
    assert values[1] == pytest.approx(1.0, abs=1e-9)
    assert values[2] == pytest.approx(1.5, abs=1e-9)


def test_smooth_nonconvergence_exits_one(tmp_path, capsys):
    rel = tmp_path / "rel.csv"
    rel.write_text("0,1,1.0\n1,2,1.0\n2,3,1.0\n")
    assert main(["smooth", str(rel), "--tol", "1e-12", "--max-iter", "1",
                 "--out", str(tmp_path / "nodal.csv")]) == 1
    assert "sweeps" in capsys.readouterr().err
    assert (tmp_path / "nodal.csv").exists()  # partial result still written


def cli_in_little_memory(*args):
    """``clocklab *args`` run in a child process under a 2 GiB
    address-space limit; the completed process."""
    src = str(Path(clocklab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "clocklab.cli", *args], capture_output=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)))


def test_smooth_isolated_node_exits_two_before_allocating(tmp_path, capsys):
    rel = tmp_path / "rel.csv"
    rel.write_text("i,j,value\n0,1,1.0\n1,2,0.5\n0,2,1.5\n")
    assert main(["smooth", str(rel), "--nodes", "5"]) == 2
    captured = capsys.readouterr()
    assert "isolated node 3" in captured.err and captured.out == ""
    # 10^12 nodes, in a child under a 2 GiB address-space limit: an array
    # of one value per node fails there on MemoryError (exit 1).
    proc = cli_in_little_memory("smooth", str(rel), "--nodes", str(10**12))
    assert proc.returncode == 2, proc.stderr.decode(errors="replace")
    assert b"isolated node 3" in proc.stderr and proc.stdout == b""


def test_smooth_malformed_input_exits_two(tmp_path, capsys):
    rel = tmp_path / "rel.csv"
    rel.write_text("0,1\n")
    assert main(["smooth", str(rel)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_smooth_negative_max_iter_exits_two(tmp_path, capsys):
    rel = tmp_path / "rel.csv"
    rel.write_text("0,1,1.0\n")
    assert main(["smooth", str(rel), "--max-iter", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--max-iter must be nonnegative, got -1" in captured.err
    assert "sweeps" not in captured.err and captured.out == ""


# ------------------------------------------------------------------- degrade


def test_degrade_two_node_ratio_is_one(capsys):
    assert main(["degrade", str(SCENARIOS / "two-node.scenario"),
                 "--count", "50"]) == 0
    data = np.array([
        [float(v) for v in line.split(",")]
        for line in capsys.readouterr().out.splitlines()[1:]
    ])
    assert data.shape == (50, 4)
    np.testing.assert_allclose(data[:, 3], 1.0, rtol=1e-9)


def test_degrade_line_distributed_never_beats_optimal(tmp_path):
    out = tmp_path / "degrade.csv"
    assert main(["degrade", str(SCENARIOS / "ten-node-line.scenario"),
                 "--count", "400", "--out", str(out)]) == 0
    data = read_csv(out)
    assert np.isfinite(data).all()
    assert (data[:, 3] >= 1.0 - 1e-12).all()
    assert data[:, 3].max() > 1.0 + 1e-6  # information really is discarded


def test_degrade_bad_period_exits_two(capsys):
    assert main(["degrade", str(SCENARIOS / "two-node.scenario"),
                 "--period", "-1"]) == 2
    assert "period" in capsys.readouterr().err


@pytest.mark.parametrize("period", ["inf", "nan"])
def test_degrade_non_finite_period_exits_two(capsys, period):
    assert main(["degrade", str(SCENARIOS / "two-node.scenario"),
                 "--period", period, "--count", "2"]) == 2
    captured = capsys.readouterr()
    assert "period must be positive and finite" in captured.err and captured.out == ""


def test_degrade_zero_optimal_trace_writes_nan_ratio(tmp_path, capsys):
    # A noiseless clock, and a period so short that the decay rounds to
    # 1, each leave the optimal covariance at zero: no ratio to report.
    quiet = tmp_path / "quiet.scenario"
    quiet.write_text((SCENARIOS / "two-node.scenario").read_text().replace(
        "epsilon_1 = 1.0", "epsilon_1 = 0.0"))
    for args in ([str(quiet)], [str(SCENARIOS / "two-node.scenario"), "--period", "1e-18"]):
        assert main(["degrade", *args, "--count", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            assert row.split(",")[1:] == ["0", "0", "nan"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_degrade_bad_count_names_count(capsys, count):
    assert main(["degrade", str(SCENARIOS / "two-node.scenario"), "--count", count]) == 2
    err = capsys.readouterr().err
    assert f"--count must be at least 1, got {count}" in err
    assert "horizon" not in err


# --------------------------------------------------------------------- hints


def test_gnuplot_hints_on_stderr(capsys):
    assert main(["allan", "--intervals", "0.1", "--alpha", "10", "--epsilon", "0",
                 "--samples", "50", "--gnuplot-hints"]) == 0
    captured = capsys.readouterr()
    assert "gnuplot" in captured.err
    assert "gnuplot" not in captured.out  # stdout stays machine-readable
