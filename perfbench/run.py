#!/usr/bin/env python3
"""Run one clocklab benchmark workload and print its result as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload line10 --seed 0 --seconds 15 --trace 0

Workloads: ``line10``, ``line300``, ``calibrate`` (see README.md).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

The workload runs in a fresh child process with one BLAS/OpenMP thread.
Before it, an untimed import in a throwaway process warms the file
cache, and further set-up-only children give set-up time samples;
``setup_s`` is their median together with the measuring child's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "workload.py"
SETUP_ONLY_SAMPLES = 2   # plus the measuring child's own set-up
DEADLINE_S = 170.0       # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], env: dict[str, str], deadline: float) -> tuple[float, list[str]]:
    """Start a workload child; return (seconds until ``ready``, later stdout lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=env)
    # Kills a child still running at the deadline, which ends the read loop.
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready_s = None
        lines = []
        for line in proc.stdout:
            if ready_s is None and line.strip() == "ready":
                ready_s = time.perf_counter() - start
            elif ready_s is not None:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise ChildFailed(f"workload process {' '.join(args)} exited with code {code}")
    return ready_s, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (Path("src") / "clocklab" / "__init__.py").is_file():
        print("run.py: no clocklab sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    env = child_env()
    # Untimed: load the interpreter, numpy and scipy into the file cache.
    try:
        warm = subprocess.run([sys.executable, "-c", "import clocklab.simulator"], env=env,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        warm = None
    if warm is None or warm.returncode != 0:
        print("run.py: importing clocklab failed", file=sys.stderr)
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = [run_child([*common, "--seconds", "0", "--setup-only"], env, deadline)[0]
                 for _ in range(SETUP_ONLY_SAMPLES)]
        ready_s, lines = run_child(
            [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setup.append(ready_s)
    if not lines:
        print("run.py: the workload printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
