"""Shared Monte Carlo helpers for the test suite."""

from __future__ import annotations

import itertools
import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest

from clocklab import clocks
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
        (states, skews, displays), = clock_chunks([p] * m, dt, n_steps, [rng] * m, n_steps + 1)
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


def save_trajectory(traj, path) -> None:
    """Write a clock path as the ``t,x,skew,display`` CSV that
    ``clocklab allan --trajectory`` reads."""
    t = np.arange(len(traj.states)) * traj.dt
    np.savetxt(path, np.column_stack([t, traj.states, traj.skews, traj.displays]),
               delimiter=",", header="t,x,skew,display", comments="", fmt="%.17g")


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` traces while ``fn()`` runs, plus the
    bytes of every ``mmap`` made meanwhile: ``tracemalloc`` cannot see the
    shared ring of a forked clock batch (see ``clock_chunks``)."""
    mapped, real = [], mmap.mmap

    def recorded(*args, **kwargs):
        m = real(*args, **kwargs)
        mapped.append(len(m))
        return m

    mmap.mmap = recorded
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] + sum(mapped)
    finally:
        tracemalloc.stop()
        mmap.mmap = real


@pytest.fixture
def forks(monkeypatch):
    """Clock batches of any size but one chunk draw their normals in a
    forked child; returns the list of pids that ``os.fork`` gives this
    process."""
    if not clocks._can_fork():
        pytest.skip("clock batches draw in-process here: no os.fork or no second CPU")
    monkeypatch.setattr(clocks, "_FORK_NORMALS", 1)
    pids, real = [], os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def in_process(monkeypatch, fn):
    """``fn()`` with every clock batch drawn in this process."""
    with monkeypatch.context() as patch:
        patch.setattr(clocks, "_FORK_NORMALS", math.inf)
        return fn()


# Splits forced on every chunk of a forked clock batch, as functions of
# the chunk's index i and the batch's row count m: rows that move to the
# child start from the carry of the parent's release, rows that move back
# to the parent from the states the child left in the slot.
SPLIT_SCHEDULES = {
    "none-then-all": lambda i, m, rng: 0 if i == 0 else m,
    "all-then-none": lambda i, m, rng: m if i == 0 else 0,
    "alternating": lambda i, m, rng: m * (i % 2),
    "random": lambda i, m, rng: int(rng.integers(m + 1)),
}


def force_splits(patch, schedule: str) -> None:
    """Make each forked clock drawer split its chunks by
    ``SPLIT_SCHEDULES[schedule]`` in place of the policy; ``patch`` is a
    ``monkeypatch`` or one of its contexts.  A child inherits the
    counter and generator at the fork, which this process never moves,
    so every drawer follows the same splits."""
    split, index, rng = SPLIT_SCHEDULES[schedule], itertools.count(), np.random.default_rng(7)
    patch.setattr(clocks, "_next_split", lambda s, waited, idle, cost, m: split(next(index), m, rng))


def no_child_left() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
