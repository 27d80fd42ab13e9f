"""Shared Monte Carlo helpers for the test suite."""

from __future__ import annotations

import numpy as np

from clocklab.clocks import ClockParams, clock_chunks


def batch_paths(p: ClockParams, times, n_paths: int, dt: float, seed: int,
                chunk: int = 1000):
    """Sample many clock paths and return their values at selected times.

    Returns a dict ``t -> (states, skews, displays)`` of arrays of length
    ``n_paths``.  Paths are generated in blocks of ``chunk`` by the
    library's own :func:`~clocklab.clocks.clock_chunks`, each block as
    one chunk of the whole grid.
    """
    times = sorted(times)
    n_steps = int(round(times[-1] / dt))
    record = {int(round(t / dt)): t for t in times}
    if len(record) != len(times):
        raise ValueError("requested times collide on the grid")
    rng = np.random.default_rng(seed)
    out = {t: [] for t in times}
    done = 0
    while done < n_paths:
        m = min(chunk, n_paths - done)
        (states, skews, displays), = clock_chunks(
            [p] * m, dt, n_steps, lambda k: rng.standard_normal((m, k)), n_steps + 1)
        for k, t in record.items():
            out[t].append((states[:, k].copy(), skews[:, k].copy(),
                           displays[:, k].copy()))
        done += m
    return {
        t: tuple(np.concatenate(parts) for parts in zip(*chunks))
        for t, chunks in out.items()
    }


def sem(samples) -> float:
    """Standard error of the sample mean."""
    samples = np.asarray(samples)
    return float(samples.std(ddof=1) / np.sqrt(len(samples)))


def var_se(samples) -> float:
    """Approximate standard error of the sample variance (normal theory)."""
    samples = np.asarray(samples)
    return float(samples.var(ddof=1) * np.sqrt(2.0 / (len(samples) - 1)))
