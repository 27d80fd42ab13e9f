"""Command-line front door for the laboratory.

Six subcommands: ``simulate`` runs scenario files and writes metrics and
trace CSVs; ``allan`` prints Allan-variance curves; ``fit`` recovers
clock parameters from such a curve; ``replay`` re-runs the estimators
over a recorded trace; ``smooth`` turns relative link estimates into
nodal values; ``degrade`` compares the optimal and distributed network
covariance updates on one measurement stream.

Everything is plain CSV, every run is pure given its inputs and seed
(``--seed auto`` is the one sanctioned entropy read), and ``--jobs``
parallelizes only across independent (scenario, seed) runs.  Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from clocklab.clocks import (
    AllanPoint,
    ClockParams,
    _check_readout_noise,
    allan_variance_analytic,
    allan_variance_empirical,
    fit_params_from_allan,
    read_trajectory_csv,
    sample_displays,
)
from clocklab.measurement import Measurement, noise_variance
from clocklab.network import (
    initial_network_state,
    net_predict_rows,
    net_update_distributed,
    net_update_optimal,
)
from clocklab.simulator import (
    PROTOCOLS,
    _text_lines,
    read_scenario,
    read_trace_csv,
    run_scenario,
    trace_replay,
    write_metrics_csv,
    write_trace_csv,
)
from clocklab.smoothing import RelativeEstimates, SyncGraph, smooth, write_nodal_csv

__all__ = ["build_parser", "main"]

logger = logging.getLogger(__name__)

_HINTS = {
    "simulate": """\
# gnuplot: per-node error bars from a metrics file
set datafile separator ','
set style data histograms
plot 'metrics.csv' using 2:xtic(1) title 'offset MAE', \\
     '' using 3 title 'skew MAE'""",
    "allan": """\
# gnuplot: analytic vs empirical Allan variance
set datafile separator ','
set logscale xy
plot 'allan.csv' using 1:2 with lines title 'analytic', \\
     'allan.csv' using 1:3 with points title 'empirical'""",
    "replay": """\
# gnuplot: compare replayed prediction errors against the live run
set datafile separator ','
plot 'replay-metrics.csv' using 4:xtic(1) with boxes title 'pred MAE'""",
    "smooth": """\
# gnuplot: smoothed nodal values
set datafile separator ','
plot 'nodal.csv' using 1:2 with linespoints title 'nodal value'""",
    "degrade": """\
# gnuplot: optimal vs distributed covariance traces
set datafile separator ','
plot 'degrade.csv' using 1:2 with lines title 'optimal', \\
     'degrade.csv' using 1:3 with lines title 'distributed'""",
}


def _hints(args) -> None:
    if getattr(args, "gnuplot_hints", False):
        print(_HINTS[args.subcommand], file=sys.stderr)


def _output(spec: str | None):
    """A context manager for the output: ``None`` or ``-`` selects
    stdout, which it leaves open; anything else is a path to write."""
    if spec is None or spec == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(spec, "w")


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        vals = [float(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"bad {what} list {text!r}") from None
    if not vals:
        raise ValueError(f"empty {what} list")
    return vals


# ------------------------------------------------------------------ simulate


def _resolve_seeds(spec: str | None, file_seed: int) -> list[int]:
    if spec is None:
        return [file_seed]
    if spec == "auto":
        seed = int(np.random.SeedSequence().entropy % (2**32))
        print(f"auto seed: {seed}", file=sys.stderr)
        return [seed]
    try:
        seeds = [int(p) for p in spec.replace(",", " ").split()]
    except ValueError:
        seeds = []
    if not seeds:
        raise ValueError(f"bad seed {spec!r} (integer, comma-separated integers or 'auto')")
    return seeds


def _simulate_one(task):
    sc, name, outdir = task
    report, trace = run_scenario(sc)
    metrics = Path(outdir) / f"{name}-metrics.csv"
    tracef = Path(outdir) / f"{name}-trace.csv"
    write_metrics_csv(report, metrics)
    write_trace_csv(trace, tracef)
    return str(metrics), str(tracef), report.collisions, report.discarded


def _cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    outdir = Path(args.out)
    over = {key: value for key, value in (("protocol", args.protocol), ("horizon", args.horizon))
            if value is not None}
    tasks, source = [], {}
    for path in args.scenario:
        sc = read_scenario(path)
        for seed in _resolve_seeds(args.seed, sc.seed):
            # Runs are named by (stem, seed): two with the same name
            # would write the same files.
            name = f"{Path(path).stem}-seed{seed}"
            if name in source:
                raise ValueError(f"{source[name]} and {path} both write the {name} outputs")
            source[name] = path
            # Each run's scenario is validated here, before any output is made.
            tasks.append((replace(sc, seed=seed, **over), name, str(outdir)))
    outdir.mkdir(parents=True, exist_ok=True)
    if args.jobs > 1 and len(tasks) > 1:
        # a fork-started pool starts every worker up front: no idle ones
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            results = list(pool.map(_simulate_one, tasks))
    else:
        results = [_simulate_one(t) for t in tasks]
    for metrics, tracef, collisions, discarded in results:
        print(f"{metrics} {tracef} collisions={collisions} discarded={discarded}")
    _hints(args)
    return 0


# --------------------------------------------------------------------- allan


def _cmd_allan(args) -> int:
    intervals = _parse_floats(args.intervals, "interval")
    params = None
    if (args.alpha is None) != (args.epsilon is None):
        raise ValueError("--alpha and --epsilon must be given together")
    if args.alpha is not None:
        params = ClockParams(alpha=args.alpha, epsilon=args.epsilon)
        _check_readout_noise(params, "--epsilon", "epsilon")
    displays = grid_dt = None
    if args.trajectory is not None:
        cols = read_trajectory_csv(args.trajectory)
        t = cols["t"]
        if len(t) < 3:
            raise ValueError("trajectory too short for Allan estimation")
        displays, grid_dt = cols["display"], float(t[1] - t[0])
        if not (math.isfinite(grid_dt) and grid_dt > 0):
            raise ValueError(f"trajectory time step {grid_dt!r} must be positive and finite")
    elif params is None:
        raise ValueError("need --alpha/--epsilon or --trajectory")

    print("T,analytic,empirical")
    for T in intervals:
        analytic = (allan_variance_analytic(T, params)
                    if params is not None else float("nan"))
        if displays is not None:
            steps = T / grid_dt
            per = int(round(steps)) if math.isfinite(steps) else 0
            if per < 1 or abs(per * grid_dt - T) > 1e-9 * T:
                raise ValueError(
                    f"interval {T!r} is not a multiple of the trajectory grid {grid_dt!r}"
                )
            empirical = allan_variance_empirical(displays[::per], T)
        else:
            samples = sample_displays(params, spacing=T, count=args.samples,
                                      dt=args.sim_dt, seed=args.seed)
            empirical = allan_variance_empirical(samples, T)
        print(f"{T:.17g},{analytic:.17g},{empirical:.17g}")
    _hints(args)
    return 0


# ----------------------------------------------------------------------- fit


def _read_allan_curve(path) -> list[AllanPoint]:
    lines = _text_lines(path)
    header = [c.strip() for c in next(lines, (1, ""))[1].strip().split(",")]
    if header == ["T", "sigma2"]:
        col = 1
    elif header == ["T", "analytic", "empirical"]:
        col = 2
    else:
        raise ValueError(f"unexpected Allan curve header {header!r}")
    points = []
    for ln, line in lines:
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            points.append(AllanPoint(T=float(parts[0]), sigma2=float(parts[col])))
        except (IndexError, ValueError):
            raise ValueError(f"line {ln}: malformed Allan row {line.strip()!r}") from None
    return points


def _cmd_fit(args) -> int:
    points = _read_allan_curve(args.curve)
    try:  # it checks n_starts before it allocates anything
        fitted = fit_params_from_allan(points, n_starts=args.starts, seed=args.seed)
    except ValueError as exc:
        raise ValueError(str(exc).replace("n_starts", "--starts")) from None
    print("alpha,epsilon")
    print(f"{fitted.alpha:.17g},{fitted.epsilon:.17g}")
    return 0


# -------------------------------------------------------------------- replay


def _cmd_replay(args) -> int:
    sc = read_scenario(args.scenario)
    if args.protocol is not None:
        sc = replace(sc, protocol=args.protocol)
    rows = read_trace_csv(args.trace)
    report = trace_replay(rows, sc)
    write_metrics_csv(report, args.out)
    print(f"{args.out} out_of_order={report.out_of_order}")
    _hints(args)
    return 0


# -------------------------------------------------------------------- smooth


def _read_relative_csv(path) -> dict[tuple[int, int], float]:
    values: dict[tuple[int, int], float] = {}
    for ln, line in _text_lines(path):
        line = line.strip()
        if not line or (ln == 1 and line.replace(" ", "") == "i,j,value"):
            continue
        parts = line.split(",")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except (IndexError, ValueError):
            raise ValueError(f"line {ln}: expected `i,j,value`, got {line!r}") from None
        values[(i, j)] = v
    if not values:
        raise ValueError("no relative estimates in input")
    return values


def _cmd_smooth(args) -> int:
    if args.max_iter < 0:  # smooth() rejects it too, by its parameter name
        raise ValueError(f"--max-iter must be nonnegative, got {args.max_iter}")
    values = _read_relative_csv(args.estimates)
    n = args.nodes if args.nodes is not None else max(max(e) for e in values)
    g = SyncGraph(n=n, edges=tuple(values.keys()))
    result = smooth(g, RelativeEstimates(values), tol=args.tol,
                    max_iter=args.max_iter, schedule=args.schedule,
                    seed=args.seed)
    with _output(args.out) as handle:
        write_nodal_csv(result.values, handle)
    _hints(args)
    if not result.converged:
        print(f"smoothing stopped after {result.sweeps} sweeps "
              f"(last change {result.final_delta:.3g} above tol)", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------------- degrade


def _cmd_degrade(args) -> int:
    sc = read_scenario(args.scenario)
    if not (math.isfinite(args.period) and args.period > 0):
        raise ValueError(f"period must be positive and finite, got {args.period!r}")
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    steps = args.count if args.count is not None else int(round(sc.horizon / args.period))
    if steps < 1:
        raise ValueError("horizon shorter than one measurement period")
    sigma2 = noise_variance(sc.skew_gap * sc.dt, sc.delay, sc.noise_floor)
    rng = np.random.default_rng(args.seed)
    opt = initial_network_state(sc.params)
    dist = initial_network_state(sc.params)
    every = dict.fromkeys(range(1, opt.n + 1), args.period)
    edges = sc.graph.edges
    with _output(args.out) as handle:
        handle.write("t,trace_opt,trace_dist,ratio\n")
        for k in range(1, steps + 1):
            t_k = k * args.period
            link = edges[(k - 1) % len(edges)]
            y = float(rng.normal(scale=0.3))
            m = Measurement(link=link, y=y, sigma2=sigma2)
            net_predict_rows(opt, every)
            net_update_optimal(opt, m)
            net_predict_rows(dist, every)
            net_update_distributed(dist, m)
            tr_o, tr_d = float(np.trace(opt.P)), float(np.trace(dist.P))
            ratio = tr_d / tr_o if tr_o else math.nan  # no uncertainty to compare
            handle.write(f"{t_k:.17g},{tr_o:.17g},{tr_d:.17g},{ratio:.17g}\n")
    _hints(args)
    return 0


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clocklab",
        description="Clock-synchronization laboratory: simulate protocols, "
                    "analyze clocks, replay traces.",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log progress details to stderr")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="run scenario files, write metrics + trace CSVs")
    p.add_argument("scenario", nargs="+", help="scenario file(s)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", help="override the scenario seed: an integer, a "
                   "comma-separated list (runs each) or 'auto'")
    p.add_argument("--protocol", choices=PROTOCOLS, help="override the protocol")
    p.add_argument("--horizon", type=float, help="override the horizon")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers across (scenario, seed) runs")
    p.add_argument("--gnuplot-hints", action="store_true",
                   help="print a plotting snippet to stderr")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("allan", help="print an Allan-variance curve as CSV")
    p.add_argument("--intervals", required=True,
                   help="comma-separated averaging intervals")
    p.add_argument("--alpha", type=float, help="mean-reversion rate")
    p.add_argument("--epsilon", type=float, help="diffusion strength")
    p.add_argument("--trajectory", help="trajectory CSV (t,x,skew,display)")
    p.add_argument("--samples", type=int, default=2000,
                   help="windows simulated per interval (params mode)")
    p.add_argument("--sim-dt", type=float, default=1e-3,
                   help="integration step of the simulated windows")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gnuplot-hints", action="store_true")
    p.set_defaults(func=_cmd_allan)

    p = sub.add_parser("fit", help="fit clock parameters to an Allan curve")
    p.add_argument("curve", help="CSV with header T,sigma2 or T,analytic,empirical")
    p.add_argument("--starts", type=int, default=8, help="random restarts after the grid start")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("replay", help="re-run the estimators over a recorded trace")
    p.add_argument("trace", help="trace CSV from simulate")
    p.add_argument("scenario", help="scenario file the trace was recorded under")
    p.add_argument("--protocol", choices=PROTOCOLS, help="override the protocol")
    p.add_argument("--out", default="replay-metrics.csv", help="metrics CSV path")
    p.add_argument("--gnuplot-hints", action="store_true")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("smooth", help="smooth relative link estimates into nodal values")
    p.add_argument("estimates", help="CSV rows `i,j,value` (header optional)")
    p.add_argument("--nodes", type=int, help="highest node id (default: inferred)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--schedule", choices=("sweep", "random"), default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.add_argument("--gnuplot-hints", action="store_true")
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("degrade",
                       help="optimal vs distributed covariance traces on one stream")
    p.add_argument("scenario", help="scenario file (graph and clock parameters)")
    p.add_argument("--period", type=float, default=0.002,
                   help="time between successive measurements")
    p.add_argument("--count", type=int, help="number of measurements "
                   "(default: horizon/period)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.add_argument("--gnuplot-hints", action="store_true")
    p.set_defaults(func=_cmd_degrade)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("unhandled failure")
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
