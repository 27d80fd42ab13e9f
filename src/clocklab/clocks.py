"""Ground-truth stochastic clocks and their analytics.

Each hardware clock is modeled by a mean-reverting log-skew state
``X(t)`` (an Ornstein-Uhlenbeck process started at zero), a positive
instantaneous skew ``a(t) = c(t) * exp(X(t))`` whose deterministic
normalizer ``c(t)`` keeps the mean skew at exactly one, and a time
display ``tau(t)`` obtained by integrating the skew.

Every sample path comes from one generator, :func:`clock_chunks`, which
streams a batch of clocks along a fixed grid one chunk at a time.  Its
AR(1) recursion of the log-skew state runs in the C kernel behind
``scipy.signal.lfilter``, loaded on its own (:func:`_load_ar1_kernel`)
so that importing this module never imports ``scipy.signal``.  A large
batch draws its normals in one forked child (:class:`_Drawer`), which
holds the generators' copies, writes each chunk's normals into a ring
of two slots in shared memory, and runs the recursion of the chunk's
first rows there, as many as it has time for; the calling process holds
the chunk buffers, copies the child's rows out of a slot, runs the
recursion of the other rows and hands the slot back with their last
states, then computes the skews and the displays and does the caller's
own work, while the child fills the next chunk into the other slot.
The split moves a step of rows at a time, to whichever side waits less.
The values are the same as in-process, bit for bit, and so are the
generators once the last chunk is out.  The
module also evaluates the closed-form moments and variance bounds of
all three processes, computes the Allan variance of the skew (from its
exact series over the expanded correlation kernel, and from display
samples), fits clock parameters to measured Allan curves by a descent
seeded from a fixed log grid, and models the *relative* clock seen
across a link between two nodes (:class:`RelParams`).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib.machinery
import importlib.util
import itertools
import logging
import math
import mmap
import os
import pickle
import select
import signal
import sys
import time
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "ClockParams",
    "ClockTrajectory",
    "RelParams",
    "AllanPoint",
    "ou_step_exact",
    "ou_step_euler",
    "ou_transition",
    "clock_chunks",
    "simulate_clock",
    "sample_displays",
    "ou_variance",
    "skew_normalizer",
    "skew_moments",
    "skew_autocorrelation",
    "display_variance_bounds",
    "allan_variance_analytic",
    "allan_variance_empirical",
    "fit_params_from_allan",
    "read_trajectory_csv",
]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClockParams:
    """Parameters of one clock.

    Parameters
    ----------
    alpha : float
        Mean-reversion rate of the log-skew state (1/time).  Shared by
        every clock in a network; must be positive.
    epsilon : float
        Diffusion coefficient of the log-skew state (1/sqrt(time)).
        Zero only for the reference clock, which then ticks perfectly.
    """

    alpha: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon!r}")

    @property
    def stationary_state_variance(self) -> float:
        """Long-run variance of the log-skew state, epsilon^2 / (2 alpha)."""
        return self.epsilon**2 / (2.0 * self.alpha)


# Largest stationary log-skew variance v = eps^2/(2 alpha) of a node whose
# readouts stay finite.  The symmetrized readout of a link (i, j) forms
# a_ij/a_ji = c_ij(t)^2 e^(2 mean): |log c_ij(t)| <= |v_j - v_i|/2, and the
# estimate ``mean`` of x_j - x_i is taken to stay within _READOUT_DEVIATIONS
# stationary deviations sqrt(v_i + v_j).  With every v <= V, the log of the
# ratio is then at most V + 2 K sqrt(V) (once V > K^2), which must stay below
# the log of the largest float.  Each directed estimate a_ij has a log of at
# most V + K^2/2, so the ratio bounds both.
_READOUT_DEVIATIONS = 6.0
_MAX_STATE_VARIANCE = (math.sqrt(_READOUT_DEVIATIONS**2 + math.log(sys.float_info.max))
                       - _READOUT_DEVIATIONS) ** 2


def _check_readout_noise(p: ClockParams, node: str, eps_name: str) -> None:
    """Raise ValueError, naming ``node`` and its ``eps_name``, unless the
    clock's v = eps^2/(2 alpha) is below _MAX_STATE_VARIANCE; an eps^2
    past the largest float is rejected, not raised as OverflowError."""
    try:
        v = p.stationary_state_variance
    except OverflowError:
        v = math.inf
    if not v < _MAX_STATE_VARIANCE:
        raise ValueError(
            f"{node} is too noisy: {eps_name}^2/(4 alpha) = {v / 2:.6g} must stay below "
            f"{_MAX_STATE_VARIANCE / 2:.6g}, or its relative-skew readouts overflow")


@dataclass(frozen=True)
class RelParams:
    """The relative clock ``a_ij(t) = a_j(t) / a_i(t)`` of a link (i, j),
    from the endpoints' shared rate and their two diffusions.

    The ratio of two independent clock skews is itself a log-normal
    clock with combined diffusion :attr:`eps_ij` and a deterministic
    normalizer :meth:`c_ij` that converges to :attr:`c_ij_inf`.  Link
    measurements and filter readouts take the link in this one form.
    """

    alpha: float
    eps_i: float
    eps_j: float

    @property
    def eps_ij(self) -> float:
        """Combined diffusion ``sqrt(eps_i^2 + eps_j^2)`` of ``X_j - X_i``."""
        return math.hypot(self.eps_i, self.eps_j)

    @property
    def c_ij_inf(self) -> float:
        """Long-run normalizer ``exp(-(eps_j^2 - eps_i^2) / (4 alpha))``."""
        return math.exp(-(self.eps_j**2 - self.eps_i**2) / (4.0 * self.alpha))

    def c_ij(self, t):
        """Deterministic normalizer of the relative skew at time ``t``, a
        float or an array of them.

        Equals ``c_j(t) / c_i(t)``; starts at 1 and decays to
        ``c_ij_inf`` at rate ``2 alpha``.
        """
        q = (self.eps_j**2 - self.eps_i**2) / self.alpha
        return self.c_ij_inf * np.exp(0.25 * q * np.exp(-2.0 * self.alpha * t))

    def relative_skew_mean(self, t):
        """Mean of the relative skew a_j/a_i at time ``t``.

        Exceeds one whenever the *denominator* clock is noisy: the
        mean equals ``exp(Var X_i(t))`` because 1/a_i is log-normal
        with positive bias while a_j has mean one.
        """
        vi = ou_variance(t, ClockParams(self.alpha, self.eps_i)) if self.eps_i > 0 else 0.0
        return np.exp(vi)


@dataclass(frozen=True)
class AllanPoint:
    """One point (averaging interval T, Allan variance sigma2) of an Allan curve."""

    T: float
    sigma2: float

    def __post_init__(self) -> None:
        if not self.T > 0:
            raise ValueError(f"averaging interval must be positive, got {self.T!r}")
        if self.sigma2 < 0:
            raise ValueError(f"Allan variance must be nonnegative, got {self.sigma2!r}")


@dataclass(frozen=True)
class ClockTrajectory:
    """A ground-truth clock sample path on a uniform reference-time grid.

    Attributes
    ----------
    dt : float
        Grid step in reference time.
    states : numpy.ndarray
        Log-skew state X at grid points; ``states[0] == 0``.
    skews : numpy.ndarray
        Instantaneous skew a at grid points; strictly positive.
    displays : numpy.ndarray
        Time display tau at grid points; ``displays[0] == 0`` and
        strictly increasing.
    seed : int
        RNG seed that produced the path (recorded for reproducibility).
    """

    dt: float
    states: np.ndarray
    skews: np.ndarray
    displays: np.ndarray
    seed: int


# ---------------------------------------------------------------------------
# Single-step transitions
# ---------------------------------------------------------------------------

def ou_transition(p: ClockParams, dt: float) -> tuple[float, float]:
    """Decay factor and noise standard deviation of the exact OU transition.

    Returns ``(exp(-alpha dt), epsilon * sqrt((1 - exp(-2 alpha dt)) / (2 alpha)))``,
    the two coefficients of the distributionally exact one-step recursion.
    """
    if dt < 0:
        raise ValueError(f"step must be nonnegative, got {dt!r}")
    decay = math.exp(-p.alpha * dt)
    noise_std = p.epsilon * math.sqrt((1.0 - decay * decay) / (2.0 * p.alpha))
    return decay, noise_std


def ou_step_exact(x, dt: float, p: ClockParams, z):
    """Advance the log-skew state by one exact-in-distribution step.

    Parameters
    ----------
    x : float or numpy.ndarray
        Current state value(s).
    dt : float
        Positive step size in reference time.
    p : ClockParams
        Clock parameters.
    z : float or numpy.ndarray
        Standard normal draw(s), one per state.

    Returns
    -------
    float or numpy.ndarray
        ``exp(-alpha dt) x + epsilon sqrt((1 - exp(-2 alpha dt)) / (2 alpha)) z``.
        Iterating this recursion reproduces the continuous-time
        transition law exactly at the grid points, for any step size.

    Raises
    ------
    ValueError
        If ``dt <= 0`` or any input is non-finite ("non-finite state").
    """
    if not dt > 0:
        raise ValueError(f"step must be positive, got {dt!r}")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValueError("non-finite state")
    decay, noise_std = ou_transition(p, dt)
    out = decay * x + noise_std * z
    return float(out) if out.ndim == 0 else out


def ou_step_euler(x, dt: float, p: ClockParams, z):
    """Advance the state by one Euler-Maruyama step (strong order 1 here).

    Provided for the convergence comparison against :func:`ou_step_exact`;
    simulation code always uses the exact step.

    Raises
    ------
    ValueError
        If ``alpha * dt >= 1`` ("unstable step") or inputs are non-finite.
    """
    if not dt > 0:
        raise ValueError(f"step must be positive, got {dt!r}")
    if p.alpha * dt >= 1.0:
        raise ValueError(f"unstable step: alpha*dt = {p.alpha * dt:g} >= 1")
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
        raise ValueError("non-finite state")
    out = (1.0 - p.alpha * dt) * x + p.epsilon * math.sqrt(dt) * z
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Path generation
# ---------------------------------------------------------------------------

@functools.cache
def _load_ar1_kernel():
    """``scipy.signal._sigtools._linear_filter``, loaded without running
    ``scipy/signal/__init__.py``, on the first call only.

    ``lfilter(b, a, x, axis)`` with a denominator of two or more taps
    and no initial state hands its arrays straight to this kernel, so
    calling it gives ``lfilter``'s bits; importing ``scipy.signal``
    for it would load some 500 more modules, ``scipy.stats`` among
    them, in every process.  Only :func:`clock_chunks` calls it, so a
    scipy without the extension breaks clock generation and nothing
    else.
    """
    import scipy

    package = importlib.util.find_spec("scipy.signal")  # found, not run
    spec = None if package is None else importlib.machinery.PathFinder.find_spec(
        "scipy.signal._sigtools", package.submodule_search_locations)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no scipy.signal._sigtools "
                          "extension, whose _linear_filter runs the clock recursion")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._linear_filter


def skew_normalizer(t, p: ClockParams):
    """Deterministic factor c(t) = exp(-(eps^2/4 alpha)(1 - exp(-2 alpha t))).

    Multiplying ``exp(X(t))`` by this factor keeps the mean skew at one
    for every ``t``.  A scalar time gives a float, an array an array.
    """
    rate = -0.25 * p.epsilon**2 / p.alpha
    if not isinstance(t, np.ndarray) or t.ndim == 0:
        return float(np.exp(rate * (1.0 - np.exp(-2.0 * p.alpha * float(t)))))
    return np.exp(rate * (1.0 - np.exp(-2.0 * p.alpha * np.asarray(t, dtype=float))))


def _draw_normals(rngs, noisy, out) -> None:
    """Fill row r of ``out`` with the next normals of ``rngs[r]``, rows in
    order, or with 0.0 where ``noisy[r]`` is false (drawing nothing)."""
    for rng, row, draws in zip(rngs, out, noisy):
        if draws:
            rng.standard_normal(out=row)
        else:
            row[:] = 0.0


def _chunk_sizes(n_steps: int, chunk_steps: int):
    """New grid steps in each chunk of :func:`clock_chunks`."""
    done = min(chunk_steps - 1, n_steps)  # chunk 0 also holds point 0
    yield done
    while done < n_steps:
        k = min(chunk_steps, n_steps - done)
        yield k
        done += k


# A batch of two or more chunks that draws at least _FORK_NORMALS normals
# forks one child (_Drawer) that draws them all and runs the recursion of
# as many rows of each chunk as it has time for.  Forking a 30-50 MB
# process takes 1-2 ms, and the parent's first write to each page
# afterwards takes a fault, up to as much again; 2^20 normals take 16-17
# ms to draw and their recursion 5-6 ms more, so the child saves at least
# four times what it costs.  A batch of one chunk never forks: the parent
# could only wait while the child draws it.  With two ring slots the
# child fills one chunk while the parent works through the last; a third
# slot made 300-clock runs no faster, and costs a chunk of memory.
_FORK_NORMALS = 2**20
_RING_SLOTS = 2
# Values per call of the AR(1) kernel in _ar1, which a forked batch's
# two processes run over their shares of a chunk's rows.  Each call
# returns a fresh array, which _ar1 copies out: a block of rows at a time
# keeps it at 128 KiB, while the call's own cost, about 1 us, stays near
# 1 % of the block's 85 us.
_AR1_BLOCK = 2**14


def _ar1(den, u, out):
    """The AR(1) recursion ``x_j = decay x_{j-1} + u[r, j]`` of each row r
    of ``u`` from ``x_0 = u[r, 0]`` (``den = [1, -decay]``), run by the
    kernel of :func:`_load_ar1_kernel` on blocks of about ``_AR1_BLOCK``
    values (one row at least); a row's arithmetic is the same in any
    block.  Written into ``out``, which may be ``u``."""
    ar1, num, rows = _load_ar1_kernel(), np.array([1.0]), max(1, _AR1_BLOCK // u.shape[1])
    for r in range(0, len(u), rows):
        out[r:r + rows] = ar1(num, den, u[r:r + rows], 1)


def _next_split(s: int, parent_waited: bool, child_idle: float, row_cost: float, m: int) -> int:
    """How many rows of its next chunk a drawer runs the recursion of,
    after ``s`` of the ``m`` in its last: one step of ``max(1, m // 8)``
    rows fewer if the parent waited for a chunk since, else one step more
    if the child sat idle on a free slot for longer than the step's rows
    take it at ``row_cost`` seconds a row, else ``s``; within 0..m."""
    step = max(1, m // 8)
    if parent_waited:
        return max(0, s - step)
    if child_idle > step * row_cost:
        return min(m, s + step)
    return s


def _can_fork() -> bool:
    """Whether a batch may fork its drawer here: the platform has
    ``os.fork`` and CPU affinity, more than one CPU is allowed, and this
    process is no ``multiprocessing`` worker (``simulate --jobs``), whose
    sibling workers keep the other CPUs busy."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
            and len(os.sched_getaffinity(0)) > 1):
        return False
    mp = sys.modules.get("multiprocessing")  # a process it started has it loaded
    return mp is None or mp.parent_process() is None


def _forks(noisy: int, n_steps: int, chunk_steps: int) -> bool:
    """Whether :func:`clock_chunks` draws the normals of a batch of
    ``noisy`` noisy clocks over ``n_steps`` steps in a forked child."""
    return n_steps >= chunk_steps and noisy * n_steps >= _FORK_NORMALS and _can_fork()


def _read(fd: int, n: int) -> bytes:
    """``n`` bytes from pipe ``fd``; EOFError if its one writer closes it,
    or exits, before it has written them."""
    data = b""
    while len(data) < n:
        part = os.read(fd, n - len(data))
        if not part:
            raise EOFError
        data += part
    return data


def _write(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _message(kind: bytes, obj) -> bytes:
    body = pickle.dumps(obj)
    return kind + len(body).to_bytes(8, "little") + body


class _Drawer:
    """One forked child that draws a batch's normals, chunk after chunk,
    into a ring of ``_RING_SLOTS`` slots in an anonymous shared ``mmap``,
    and runs the recursion of the first rows of each chunk there.

    A chunk of ``k`` steps fills an ``(m, k + 1)`` slot: row r holds the
    state carried into the chunk in column 0 and the ``k`` normals drawn
    for it after.  The child scales the normals of the chunk's first
    ``s`` rows (its *split*) and overwrites those rows with their states;
    the other rows keep their normals for the parent.  The child writes
    the split into a header beside the ring, and one byte down a pipe,
    per filled slot (:meth:`take`).  The parent runs the recursion of
    the other rows, writes their last states into a carry vector beside
    the ring, and sends one byte up another pipe (:meth:`release`): it
    frees the slot, hands over the carry, and says whether the parent
    waited for the chunk.  The child sets each split by
    :func:`_next_split` from the waiting done on both sides: a step of
    rows goes back to the parent after it waited, and comes to the child
    when the child sat idle on a free slot for longer than the rows
    would take it; rows it takes over start from the carry of the
    parent's release.  A row's recursion is the same kernel call from
    the same carried state on either side, so no split changes a value.

    After the last chunk the child sends each distinct generator's
    ``bit_generator.state``, which the parent adopts, so the generators
    end where drawing in-process leaves them; an exception in the child
    is sent instead and raised in the parent.  Each side holds the only
    write end of the pipe the other reads, so a side that dies closes
    it: the parent then raises, the child exits, neither hangs.  The
    child pins itself to the allowed CPUs other than the one the parent
    runs on at the fork; the parent's own affinity is left alone.
    """

    def __init__(self, rngs, noisy, noise_std, den, n_steps: int, chunk_steps: int):
        # forked batches have two chunks or more: each slot holds one full chunk
        m = len(noisy)
        slot = m * (chunk_steps + 1)
        shared = mmap.mmap(-1, 8 * (_RING_SLOTS * slot + m + _RING_SLOTS))
        self.ring = np.frombuffer(shared, np.float64, _RING_SLOTS * slot).reshape(_RING_SLOTS, slot)
        self.carry = np.frombuffer(shared, np.float64, m, 8 * _RING_SLOTS * slot)
        self.split = np.frombuffer(shared, np.int64, _RING_SLOTS, 8 * (_RING_SLOTS * slot + m))
        self.m, self.taken, self.waited = m, 0, False
        self.carry[:] = 0.0  # the carried state of every row into chunk 0
        self.gens = list({id(g): g for g in rngs}.values())  # a generator may repeat
        cpu = _current_cpu()
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            raise
        if pid == 0:  # the child: draw, report and exit, never return
            code = 1
            try:
                os.close(ready_r)
                os.close(free_w)
                self._draw(rngs, noisy, noise_std, den, n_steps, chunk_steps, cpu,
                           ready_w, free_r)
                code = 0
            finally:
                os._exit(code)
        os.close(ready_w)
        os.close(free_r)
        self.pid, self.ready, self.free = pid, ready_r, free_w
        self.filled = select.poll()
        self.filled.register(ready_r, select.POLLIN)

    def _draw(self, rngs, noisy, noise_std, den, n_steps, chunk_steps, cpu, ready, free) -> None:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
        m, clock = self.m, time.perf_counter
        x = np.zeros(m)  # the states carried into the chunk, of rows 0..s-1
        s, released, waited, row_cost = 0, 0, False, None
        sent = select.poll()
        sent.register(free, select.POLLIN)

        def freed(count: int) -> None:  # read the parent's releases up to ``count``
            nonlocal released, waited
            while released < count:
                waited |= _read(free, 1) == b"w"
                released += 1

        def run(slot, lo: int, hi: int) -> float:  # rows lo..hi-1; the seconds taken
            start = clock()
            rows = slot[lo:hi]
            rows[:, 0] = x[lo:hi]
            rows[:, 1:] *= noise_std[lo:hi]
            _ar1(den, rows, rows)
            x[lo:hi] = rows[:, -1]
            return clock() - start

        try:
            for i, k in enumerate(_chunk_sizes(n_steps, chunk_steps)):
                blocked = clock()
                freed(i - _RING_SLOTS + 1)  # the slot of chunk i - _RING_SLOTS is free
                drawn = clock()
                slot = self._slot(i, k)
                _draw_normals(rngs, noisy, slot[:, 1:])
                if row_cost is None:  # no recursion timed yet: half the draw
                    row_cost = (clock() - drawn) / m / 2
                if released < i and sent.poll(0):  # the last chunk's release is in: its wait too
                    freed(i)
                new = _next_split(s, waited, drawn - blocked, row_cost, m)
                waited = False
                if new:
                    ran = run(slot, 0, min(s, new))
                    if new > s:  # rows the parent ran last chunk: their carry comes with its release
                        freed(i)
                        x[s:new] = self.carry[s:new]
                        ran += run(slot, s, new)
                    row_cost = ran / new
                self.split[i % _RING_SLOTS] = s = new
                _write(ready, b"r")
            msg = _message(b"s", [g.bit_generator.state for g in self.gens])
        except (EOFError, BrokenPipeError):  # the parent is gone
            return
        except BaseException as exc:
            try:
                msg = _message(b"e", exc)
            except Exception:
                msg = _message(b"e", RuntimeError(f"{type(exc).__name__}: {exc}"))
        _write(ready, msg)

    def _slot(self, i: int, k: int) -> np.ndarray:
        return self.ring[i % _RING_SLOTS, :self.m * (k + 1)].reshape(self.m, k + 1)

    def _receive(self, size: int) -> bytes:
        try:
            return _read(self.ready, size)
        except EOFError:
            _, status = os.waitpid(self.pid, 0)
            self.pid = 0
            raise RuntimeError(f"the clock drawer ended with exit code "
                               f"{os.waitstatus_to_exitcode(status)} before its last chunk") from None

    def _expect(self, kind: bytes):
        """Read the child's next message, of ``kind``, or raise the
        exception it sent instead; return a message's object, if any."""
        got = self._receive(1)
        if got == b"r" == kind:
            return None
        obj = pickle.loads(self._receive(int.from_bytes(self._receive(8), "little")))
        if got != kind:
            raise obj
        return obj

    def take(self, k: int, last: bool) -> tuple[int, np.ndarray]:
        """The next chunk's split ``s`` and its ``(m, k + 1)`` slot: rows
        0..s-1 hold their states, the others their normals in columns
        1..k.  The slot is the child's again after :meth:`release`."""
        self.waited = not self.filled.poll(0)
        self._expect(b"r")
        i, self.taken = self.taken, self.taken + 1
        if last:  # the child has filled its last slot: adopt the states, reap it
            for g, state in zip(self.gens, self._expect(b"s")):
                g.bit_generator.state = state
            os.waitpid(self.pid, 0)
            self.pid = 0
        return int(self.split[i % _RING_SLOTS]), self._slot(i, k)

    def release(self, s: int, carry) -> None:
        """Hand the last slot back, with ``carry``, the last states of its
        rows s..m-1."""
        if self.pid:  # a child that has filled its last slot may be gone: no matter
            self.carry[s:] = carry
            with contextlib.suppress(BrokenPipeError):
                _write(self.free, b"w" if self.waited else b"f")

    def close(self) -> None:
        """Kill and reap the child if it is still there; close the pipes."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        os.close(self.ready)
        os.close(self.free)


def _current_cpu() -> int:
    """The CPU this process runs on (field 39 of ``/proc/self/stat``)."""
    with open("/proc/self/stat", "rb") as fh:
        return int(fh.read().rsplit(b")", 1)[1].split()[36])


def clock_chunks(params, dt: float, n_steps: int, rngs, chunk_steps: int):
    """Stream grid points 0..n_steps of a batch of clocks that share ``alpha``.

    Row r follows ``params[r]`` from ``X = 0``, ``a = 1``, ``tau = 0``:
    the exact transition driven by generator ``rngs[r]`` (a chunk of
    ``k`` new steps draws ``k`` normals per row, rows in order; a row
    whose transition noise is 0, such as the reference clock's, draws
    nothing and keeps ``X = +0.0``, ``a = 1.0`` bit for bit), as an
    AR(1) recursion run by the C kernel of ``scipy.signal.lfilter``
    (loaded alone, see :func:`_load_ar1_kernel`); skews ``c(t) exp(X)``,
    a chunk that starts at or past the settle time taking each row's
    limit of c(t), and a noiseless kind (c(t) = 1) skipping the
    multiply before it; displays by the trapezoidal rule.  Yields
    ``(states, skews, displays)``, each ``(m, width)``, with grid point
    g in chunk ``g // chunk_steps`` at column ``g % chunk_steps``.  The
    state, skew and display reached are carried across chunks, and each
    row's arithmetic is the same at any width, so the chunk length
    changes no value, bit for bit.  A chunk array takes
    ``8 m (chunk_steps + 1)`` bytes: callers with many clocks pass a
    narrower chunk to bound it.

    A batch of two chunks or more that draws at least ``_FORK_NORMALS``
    normals, on a platform with ``os.fork`` and more than one allowed
    CPU and outside a ``multiprocessing`` worker, draws them in one
    forked child (:class:`_Drawer`), which also runs the recursion of
    the first rows of each chunk, as many as it has time for, while this
    process runs the rest of the arithmetic and whatever the caller does
    with each chunk; every value is the same either way.  The child is
    reaped once the last chunk is taken, and killed and reaped if the
    generator is closed early or raises.  Nothing else may use ``rngs``
    until the batch is exhausted or closed: a forked batch moves them
    only when its last chunk is taken (then to where drawing in-process
    leaves them), so one closed earlier leaves them unmoved, while an
    in-process batch leaves them after the last chunk it drew.

    Memory: a caller that drops each chunk before asking for the next
    keeps at most three chunk arrays alive in this process.  The
    normals, skews and displays of every chunk are views of two buffers
    of the widest chunk, allocated once (the normals are scaled into one
    of them, and the displays summed in place over them once spent).
    Drawn in-process, the states are the fresh output of one kernel
    call, which the generator drops before it makes the next chunk; a
    forked batch writes them into a third buffer, through a block of
    about ``_AR1_BLOCK`` values at a time.  So asking for the next chunk
    overwrites the skews and displays of the last, and in a forked
    batch its states too: copy what must outlive it.  A forked batch
    adds its shared ``mmap``: ``_RING_SLOTS`` slots of ``m (chunk_steps
    + 1)`` values, a carry vector of ``m`` and a header of one split per
    slot.  The child fills a slot; this process copies the states of the
    child's rows out of it into its own buffer, scales the other rows'
    normals into another, runs their recursion and hands the slot back,
    so the child may fill up to ``_RING_SLOTS`` chunks ahead.  Reusing
    the buffers also keeps the allocator from handing memory back each
    chunk only to fault it in again.
    """
    if chunk_steps < 1:
        raise ValueError(f"chunk_steps must be at least 1, got {chunk_steps!r}")
    if len(rngs) != len(params):
        raise ValueError(f"need one generator per clock: {len(rngs)} for {len(params)}")
    if len({p.alpha for p in params}) != 1:
        raise ValueError("clocks in one batch must share alpha")
    # transition and normalizer once per distinct epsilon
    _, first, row_of = np.unique([p.epsilon for p in params],
                                 return_index=True, return_inverse=True)
    kinds = [params[i] for i in first]
    decay = ou_transition(kinds[0], dt)[0]
    noise_std = np.array([ou_transition(p, dt)[1] for p in kinds])[row_of][:, None]
    noisy = (noise_std[:, 0] > 0).tolist()
    ar1, num, den = _load_ar1_kernel(), np.array([1.0]), np.array([1.0, -decay])
    # From the settle time on exp(-2 alpha t) <= 2^-55, so 1 - exp(-2 alpha t)
    # rounds to 1 and c(t) is its limit exp(-eps^2 / (4 alpha)) bit for bit
    # (numpy's exp, as in the formula: math.exp may differ in the last bit).
    settle = 27.5 * math.log(2.0) / kinds[0].alpha
    limit = np.exp(np.array([-0.25 * p.epsilon**2 / p.alpha for p in kinds]))[row_of][:, None]
    # Before it, c(t) = exp(-0.0) = 1 exactly for a noiseless kind; a noisy
    # kind's c(t) multiplies each run of its consecutive rows in place.
    runs, stop = [], 0
    for r, group in itertools.groupby(row_of.tolist()):
        start, stop = stop, stop + len(list(group))
        if kinds[r].epsilon > 0:
            runs.append((r, start, stop))
    m = len(params)
    # every chunk's skews and displays are contiguous views of these
    size = m * (min(chunk_steps, n_steps) + 1)
    u_buf, skew_buf = np.empty(size), np.empty(size)
    x, a, tau = np.zeros(m), np.ones(m), np.zeros(m)   # grid point 0
    drawer = None
    if _forks(sum(noisy), n_steps, chunk_steps):
        state_buf = np.empty(size)  # a forked batch's states, from both processes' rows
        with contextlib.suppress(OSError):  # no process or memory to spare: draw here
            drawer = _Drawer(rngs, noisy, noise_std, den, n_steps, chunk_steps)
    try:
        done, lead = 0, 0
        for k in _chunk_sizes(n_steps, chunk_steps):
            # column 0 is grid point ``done``, the last one generated
            u = u_buf[:m * (k + 1)].reshape(m, k + 1)
            if drawer is None:
                u[:, 0] = x
                _draw_normals(rngs, noisy, u[:, 1:])
                u[:, 1:] *= noise_std
                # One kernel call, its output kept: running it in blocks
                # into a buffer, as a forked batch must, made in-process
                # line300 runs 2.6-3.4 % slower (10 alternating pairs).
                states = ar1(num, den, u, 1)  # x_j = decay x_{j-1} + u_j
            else:  # the child ran rows 0..s-1
                s, slot = drawer.take(k, done + k >= n_steps)
                np.multiply(slot[s:, 1:], noise_std[s:], out=u[s:, 1:])
                u[s:, 0] = x[s:]
                states = state_buf[:m * (k + 1)].reshape(m, k + 1)
                states[:s] = slot[:s]
                _ar1(den, u[s:], states[s:])
                drawer.release(s, states[s:, -1])
            skews = np.exp(states, out=skew_buf[:m * (k + 1)].reshape(m, k + 1))
            skews[:, 0] = a
            if (done + 1) * dt >= settle:  # the chunk's first time: all of it settled
                skews[:, 1:] *= limit
            else:
                t = (done + 1 + np.arange(k)) * dt
                c = {r: skew_normalizer(t, p) for r, p in enumerate(kinds) if p.epsilon > 0}
                for r, start, stop in runs:
                    skews[start:stop, 1:] *= c[r]
            seg = np.add(skews[:, 1:], skews[:, :-1], out=u[:, 1:])  # u is spent
            seg *= 0.5 * dt
            seg[:, :1] += tau[:, None]  # no column when k == 0
            np.cumsum(seg, axis=1, out=seg)
            u[:, 0] = tau  # u now holds the displays
            x, a, tau = states[:, -1].copy(), skews[:, -1].copy(), u[:, -1].copy()
            yield states[:, lead:], skews[:, lead:], u[:, lead:]
            del states  # an in-process chunk's fresh states go before the next's
            done, lead = done + k, 1
    finally:
        if drawer is not None:
            drawer.close()


def simulate_clock(p: ClockParams, horizon: float, dt: float, seed: int) -> ClockTrajectory:
    """Generate one ground-truth clock path on a uniform grid.

    Parameters
    ----------
    p : ClockParams
        Clock parameters.
    horizon : float
        Final reference time; the grid has ``round(horizon/dt)`` steps.
    dt : float
        Grid step.
    seed : int
        Seed for the path's own random generator; recorded on the
        result, so the path is bit-reproducible.

    Returns
    -------
    ClockTrajectory
        The whole grid of :func:`clock_chunks` as one chunk.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if not dt > 0:
        raise ValueError(f"step must be positive, got {dt!r}")
    n_steps = max(1, int(round(horizon / dt)))
    (states, skews, displays), = clock_chunks(
        [p], dt, n_steps, [np.random.default_rng(seed)], n_steps + 1)
    return ClockTrajectory(dt=dt, states=states[0], skews=skews[0],
                           displays=displays[0], seed=seed)


# Chunk of sample_displays: 32 768 points make each of the three live
# chunk arrays, and each of the two ring slots of a forked batch, 256 KB,
# small enough to stay in cache.  10 000 windows of 1 s at dt = 1e-3 (one
# core of a 2-CPU x86 host) take 0.25-0.26 s in-process, at this width
# or at 65 536 points, and trace a 1.5 MiB peak (3 MiB at 65 536 points,
# 70 MiB at 1 000 000); 4 096-point chunks lost to per-chunk overhead.
# With the normals drawn in a forked child on the second CPU they take
# 0.13-0.17 s, and the ring adds 0.5 MiB: this width keeps the peak below
# that of 65 536 points drawn in-process at no cost in time.
_DISPLAY_CHUNK_STEPS = 32_768


def sample_displays(p: ClockParams, spacing: float, count: int, dt: float,
                    seed: int) -> np.ndarray:
    """Display values tau(0), tau(spacing), ..., tau(count*spacing).

    Streams the path through :func:`clock_chunks`, 32 768 grid points
    at a time, from one generator seeded with ``seed``, so that long
    horizons (used by empirical Allan-variance estimation) never
    materialize the full path.
    ``spacing`` must be an integer multiple of ``dt``, and the path's
    ``count * spacing / dt`` grid steps fewer than 2^53, an exact count.
    """
    if not (spacing > 0 and dt > 0 and count >= 1):
        raise ValueError("spacing, dt must be positive and count >= 1")
    steps = spacing / dt
    if not math.isfinite(steps):
        raise ValueError(f"spacing {spacing!r} is {steps} steps of dt {dt!r}: not a finite count")
    per = int(round(steps))
    if per < 1 or abs(per * dt - spacing) > 1e-9 * spacing:
        raise ValueError(f"spacing {spacing!r} is not a multiple of dt {dt!r}")
    if per * count >= 2**53:
        raise ValueError(f"{count} windows of spacing {spacing!r} are {float(per) * count:.6g} "
                         f"steps of dt {dt!r}: they must stay below 2^53, an exact step count")
    kept, start = [], 0
    for _, _, displays in clock_chunks([p], dt, per * count, [np.random.default_rng(seed)],
                                       _DISPLAY_CHUNK_STEPS):
        kept.append(displays[0, -start % per::per].copy())
        start += displays.shape[1]
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# Closed-form moments and bounds
# ---------------------------------------------------------------------------

def ou_variance(t, p: ClockParams):
    """Variance of the log-skew state: (eps^2 / 2 alpha)(1 - exp(-2 alpha t))."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    out = p.stationary_state_variance * (1.0 - np.exp(-2.0 * p.alpha * t))
    return float(out) if out.ndim == 0 else out


def skew_moments(t, p: ClockParams):
    """Mean and variance of the skew at time ``t``.

    The mean is exactly one by construction; the variance is
    ``exp(Var X(t)) - 1``, nondecreasing in ``t`` and bounded by
    ``exp(eps^2 / 2 alpha) - 1``.
    """
    var = np.exp(ou_variance(t, p)) - 1.0
    mean = np.ones_like(np.asarray(t, dtype=float))
    if mean.ndim == 0:
        return 1.0, float(var)
    return mean, var


def skew_autocorrelation(r, s, p: ClockParams):
    """E[a(r) a(s)] = exp((eps^2/2 alpha)(exp(-alpha |r-s|) - exp(-alpha (r+s)))).

    Symmetric in (r, s); equals 1 + Var a(t) on the diagonal and 1 when
    either argument is 0 (the skew starts deterministically at one).
    """
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(r < 0) or np.any(s < 0):
        raise ValueError("times must be nonnegative")
    q = p.stationary_state_variance
    out = np.exp(q * (np.exp(-p.alpha * np.abs(r - s)) - np.exp(-p.alpha * (r + s))))
    return float(out) if out.ndim == 0 else out


def display_variance_bounds(t, p: ClockParams):
    """Lower and upper bounds on Var tau(t).

    The lower bound ``(exp(h(t)) - 1) t^2`` applies Jensen's inequality
    to the average covariance

        h(t) = (eps^2 / (alpha^2 t^2)) [ t + (1 - exp(-2 alpha t))/(2 alpha)
                                         - (2/alpha)(1 - exp(-alpha t)) ],

    and the upper bound is ``(exp(eps^2 / 2 alpha) - 1) t^2``.  Both
    scale as t^2; the true variance grows close to linearly in between.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("time must be positive")
    a, e2 = p.alpha, p.epsilon**2
    h = e2 / (a**2 * t**2) * (
        t + (1.0 - np.exp(-2.0 * a * t)) / (2.0 * a) - 2.0 / a * (1.0 - np.exp(-a * t))
    )
    lower = np.expm1(h) * t * t
    upper = np.expm1(e2 / (2.0 * a)) * t * t
    if lower.ndim == 0:
        return float(lower), float(upper)
    return lower, upper


# ---------------------------------------------------------------------------
# Allan variance
# ---------------------------------------------------------------------------

# Taylor coefficients of f(x)/x^2 = sum_{n>=3} (-1)^n (4 - 2^n) / n! x^(n-2),
# used for x < 0.1, where the closed form cancels
_ALLAN_TAYLOR = np.array([(-1) ** n * (4 - 2**n) / math.factorial(n) for n in range(3, 13)])
_FIT_GRID = 24  # points per axis of the log grid that seeds the Allan fit
# Most random starts of one Allan fit.  A start's descent takes about 80
# curve evaluations (some 20 ms on one x86 core) and keeps each in the
# fit's cache (about 13 KB a start), so 2^20 starts already run for hours
# and hold some 13 GB; the starts are drawn up front, 16 bytes each.
_MAX_FIT_STARTS = 2**20


def _allan_series(ts: np.ndarray, p: ClockParams) -> np.ndarray:
    """:func:`allan_variance_analytic` at each interval of ``ts``: sum_k
    q^k/k! f(x_k)/x_k^2, x_k = k alpha T, weights in log space, up to the
    last term above e^-40 of the largest (k <= q + 12 sqrt(q) + 45)."""
    q = p.stationary_state_variance
    if q == 0.0:
        return np.zeros(len(ts))
    if q > 709.78:  # e^q overflows a float
        return np.full(len(ts), math.inf)
    k = np.arange(1.0, int(q + 12.0 * math.sqrt(q)) + 46)
    log_w = k * math.log(q) - np.cumsum(np.log(k))
    top = log_w.max()
    k = k[:np.flatnonzero(log_w + np.log(k) >= top - 40.0)[-1] + 1]
    x = np.outer(k * p.alpha, ts)
    xs, xl = np.minimum(x, 0.1), np.maximum(x, 0.1)  # each branch sees only its range
    r = -np.expm1(-xl) / xl
    h = np.where(x < 0.1, xs * (np.power.outer(xs, np.arange(len(_ALLAN_TAYLOR))) @ _ALLAN_TAYLOR),
                 2.0 * (1.0 - r) / xl - r * r)
    return math.exp(top) * (np.exp(log_w[:len(k)] - top) @ h)


def allan_variance_analytic(T: float, p: ClockParams) -> float:
    """Allan variance of the skew over averaging interval ``T > 0``.

    The stationary skew kernel exp(q e^{-alpha |u|}), q = eps^2 / (2 alpha),
    expands as sum_k q^k/k! e^{-k alpha |u|} and integrates term by term
    (D. W. Allan, Proc. IEEE 54(2), 1966) into the exact series

        sigma^2(T) = T^-2 sum_{k>=1} q^k/k! beta_k^-2 f(beta_k T),
        beta_k = k alpha,  f(x) = 2(x - 1 + e^{-x}) - (1 - e^{-x})^2 >= 0;

    its k = 1 term is the linearized Allan variance.  Relative error: a
    few units in the last place for small q, about 6e-14 at q = 100.
    Exactly 0 for a noiseless clock, ``inf`` once e^q overflows.
    """
    if not T > 0:
        raise ValueError(f"averaging interval must be positive, got {T!r}")
    return float(_allan_series(np.array([float(T)]), p)[0])


def allan_variance_empirical(displays, T: float) -> float:
    """Allan variance estimated from display samples spaced ``T`` apart.

    ``displays`` holds tau(0), tau(T), tau(2T), ...; consecutive
    window-averaged skews ``abar_k = (tau(kT) - tau((k-1)T)) / T`` are
    differenced and the estimate is ``sum(diff^2) / (2 * n_diffs)``.

    Raises
    ------
    ValueError
        With fewer than 3 samples ("insufficient samples").
    """
    if not T > 0:
        raise ValueError(f"averaging interval must be positive, got {T!r}")
    displays = np.asarray(displays, dtype=float)
    if displays.ndim != 1 or len(displays) < 3:
        raise ValueError("insufficient samples")
    abar = np.diff(displays) / T
    d = np.diff(abar)
    return float(np.sum(d * d) / (2.0 * len(d)))


def fit_params_from_allan(points, n_starts: int = 8, seed: int = 0) -> ClockParams:
    """Fit clock parameters to an Allan-variance curve.

    Minimizes the mean absolute error between :func:`allan_variance_analytic`
    and ``points`` (at least two, distinct positive intervals) by
    coordinate descent over ``(log alpha, log epsilon)``.  Start 0 is the
    best point of a fixed 24 x 24 log grid (``_FIT_GRID``) over alpha in
    [1e-1, 1e3] and epsilon in [1e-6, 1e1], so every fit is deterministic;
    ``n_starts`` random starts from ``seed`` (0 to ``_MAX_FIT_STARTS``),
    log-uniform over the same box, follow.  Returns the best candidate
    and logs its residual; raises ValueError ("fit failed") if none has
    a finite objective.

    Not identifiable when alpha T << 1 at every interval: the curve then
    sees only the kernel's short-lag behaviour, and (0.5, 2) over
    2e-3..0.2 (alpha T <= 0.1) fits to about (0.15, 1.2).
    """
    if n_starts < 0:
        raise ValueError(f"n_starts must be nonnegative, got {n_starts!r}")
    if n_starts > _MAX_FIT_STARTS:
        raise ValueError(f"n_starts must be at most {_MAX_FIT_STARTS}, got {n_starts!r}")
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two Allan points")
    ts = np.array([q.T for q in pts])
    if np.any(ts <= 0) or len(np.unique(ts)) != len(ts):
        raise ValueError("averaging intervals must be distinct and positive")
    targets = np.array([q.sigma2 for q in pts])

    @functools.cache  # the descent comes back to points it has seen
    def objective(log_a: float, log_e: float) -> float:
        vals = _allan_series(ts, ClockParams(math.exp(log_a), math.exp(log_e)))
        if not np.all(np.isfinite(vals)):  # e^q overflowed; inf - inf would be NaN
            return math.inf
        return float(np.mean(np.abs(vals - targets)))

    lo = (math.log(1e-3), math.log(1e-8))
    hi = (math.log(1e6), math.log(1e3))
    box_a = (math.log(1e-1), math.log(1e3))
    box_e = (math.log(1e-6), math.log(1e1))
    rng = np.random.default_rng(seed)
    random_starts = np.column_stack([rng.uniform(*box_a, n_starts),
                                     rng.uniform(*box_e, n_starts)])
    grid = [(u, v) for u in np.linspace(*box_a, _FIT_GRID) for v in np.linspace(*box_e, _FIT_GRID)]
    best = (math.inf, None)
    for u, v in [min(grid, key=lambda uv: objective(*uv)), *random_starts]:
        f, step = objective(u, v), 1.0
        while step > 1e-4:
            improved = False
            for du, dv in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
                while True:  # a NaN or infinite objective never improves
                    cu = min(max(u + du, lo[0]), hi[0])
                    cv = min(max(v + dv, lo[1]), hi[1])
                    fc = objective(cu, cv)
                    if not fc < f:
                        break
                    u, v, f, improved = cu, cv, fc, True
            if not improved:
                step *= 0.5
        if f < best[0]:
            best = (f, (u, v))
    if best[1] is None:
        raise ValueError("fit failed: no finite-objective candidate")
    u, v = best[1]
    logger.info("Allan fit: alpha=%.6g epsilon=%.6g residual=%.3e",
                math.exp(u), math.exp(v), best[0])
    return ClockParams(math.exp(u), math.exp(v))


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV with header ``t,x,skew,display`` into
    arrays keyed by column name."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    if [c.strip() for c in header] != ["t", "x", "skew", "display"]:
        raise ValueError(f"unexpected trajectory header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}

