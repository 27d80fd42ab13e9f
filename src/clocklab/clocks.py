"""Ground-truth stochastic clocks and their analytics.

Each hardware clock is modeled by a mean-reverting log-skew state
``X(t)`` (an Ornstein-Uhlenbeck process started at zero), a positive
instantaneous skew ``a(t) = c(t) * exp(X(t))`` whose deterministic
normalizer ``c(t)`` keeps the mean skew at exactly one, and a time
display ``tau(t)`` obtained by integrating the skew.

Every sample path comes from one generator, :func:`clock_chunks`, which
streams a batch of clocks along a fixed grid one chunk at a time.  The
module also evaluates the closed-form moments and variance bounds of
all three processes, computes the Allan variance of the skew (from its
exact series over the expanded correlation kernel, and from display
samples), fits clock parameters to measured Allan curves by a descent
seeded from a fixed log grid, and derives the parameters of the
*relative* clock seen across a link between two nodes.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

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
    "relative_params",
    "write_trajectory_csv",
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


@dataclass(frozen=True)
class RelParams:
    """Parameters of the relative clock of a link (i, j).

    The ratio ``a_ij(t) = a_j(t) / a_i(t)`` of two independent clock
    skews is itself a log-normal clock with combined diffusion
    ``eps_ij = sqrt(eps_i^2 + eps_j^2)`` and a deterministic normalizer
    ``c_ij(t)`` that converges to ``c_ij_inf``.
    """

    alpha: float
    eps_i: float
    eps_j: float
    eps_ij: float = field(init=False)
    c_ij_inf: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_ij", math.hypot(self.eps_i, self.eps_j))
        object.__setattr__(
            self, "c_ij_inf", math.exp(-(self.eps_j**2 - self.eps_i**2) / (4.0 * self.alpha))
        )

    def c_ij(self, t):
        """Deterministic normalizer of the relative skew at time ``t``.

        Equals ``c_j(t) / c_i(t)``; starts at 1 and decays to
        ``c_ij_inf`` at rate ``2 alpha``.
        """
        q = (self.eps_j**2 - self.eps_i**2) / self.alpha
        return self.c_ij_inf * np.exp(0.25 * q * np.exp(-2.0 * self.alpha * np.asarray(t, float)))

    def relative_skew_mean(self, t):
        """Mean of the relative skew a_j/a_i at time ``t``.

        Exceeds one whenever the *denominator* clock is noisy: the
        mean equals ``exp(Var X_i(t))`` because 1/a_i is log-normal
        with positive bias while a_j has mean one.
        """
        vi = ou_variance(t, ClockParams(self.alpha, self.eps_i)) if self.eps_i > 0 else 0.0
        return np.exp(vi)

    def combined(self) -> ClockParams:
        """The (alpha, eps_ij) pair driving the relative state X_j - X_i."""
        return ClockParams(self.alpha, self.eps_ij)


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

    @property
    def times(self) -> np.ndarray:
        """Reference-time grid points."""
        return np.arange(len(self.states)) * self.dt


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

def skew_normalizer(t, p: ClockParams):
    """Deterministic factor c(t) = exp(-(eps^2/4 alpha)(1 - exp(-2 alpha t))).

    Multiplying ``exp(X(t))`` by this factor keeps the mean skew at one
    for every ``t``.  Once exp(-2 alpha t) <= 2^-55 (a bit below 2^-54),
    1 - exp(-2 alpha t) rounds to exactly 1, so those times of an array
    take the limit without evaluating the formula, bit for bit the same.
    """
    t = np.asarray(t, dtype=float)
    rate = -0.25 * p.epsilon**2 / p.alpha
    if t.ndim == 0:
        return float(np.exp(rate * (1.0 - np.exp(-2.0 * p.alpha * t))))
    # numpy's exp, as in the formula: math.exp may differ in the last bit
    out = np.full(t.shape, np.exp(np.array([rate]))[0])
    moving = t < 27.5 * math.log(2.0) / p.alpha
    if moving.any():
        out[moving] = np.exp(rate * (1.0 - np.exp(-2.0 * p.alpha * t[moving])))
    return out


def clock_chunks(params, dt: float, n_steps: int, normals, chunk_steps: int):
    """Stream grid points 0..n_steps of a batch of clocks that share ``alpha``.

    Row r follows ``params[r]`` from ``X = 0``, ``a = 1``, ``tau = 0``:
    the exact transition driven by ``normals(k)``, an ``(m, k)`` array
    of standard normals for the next ``k`` steps; skews ``c(t) exp(X)``;
    displays by the trapezoidal rule.  Yields ``(states, skews,
    displays)``, each ``(m, width)``, with grid point g in chunk
    ``g // chunk_steps`` at column ``g % chunk_steps``.  The state, skew
    and display reached are carried across chunks, so the chunk length
    changes no value, bit for bit.
    """
    if chunk_steps < 1:
        raise ValueError(f"chunk_steps must be at least 1, got {chunk_steps!r}")
    if len({p.alpha for p in params}) != 1:
        raise ValueError("clocks in one batch must share alpha")
    # transition and normalizer once per distinct epsilon
    _, first, row_of = np.unique([p.epsilon for p in params],
                                 return_index=True, return_inverse=True)
    kinds = [params[i] for i in first]
    decay = ou_transition(kinds[0], dt)[0]
    noise_std = np.array([ou_transition(p, dt)[1] for p in kinds])[row_of][:, None]
    m = len(params)
    x, a, tau = np.zeros(m), np.ones(m), np.zeros(m)   # grid point 0
    done, lead, k = 0, 0, min(chunk_steps - 1, n_steps)  # chunk 0 also holds point 0
    while True:
        # column 0 is grid point ``done``, the last one generated
        u = np.empty((m, k + 1))
        u[:, 0] = x
        np.multiply(noise_std, normals(k), out=u[:, 1:])
        states = lfilter([1.0], [1.0, -decay], u, axis=1)  # x_j = decay x_{j-1} + u_j
        skews = np.exp(states)
        skews[:, 0] = a
        c = [skew_normalizer((done + 1 + np.arange(k)) * dt, p) for p in kinds]
        for r, c_r in enumerate(c):
            np.multiply(skews[:, 1:], c_r, out=skews[:, 1:], where=(row_of == r)[:, None])
        seg = np.add(skews[:, 1:], skews[:, :-1], out=u[:, 1:])  # u is spent
        seg *= 0.5 * dt
        seg[:, :1] += tau[:, None]  # no column when k == 0
        displays = np.empty((m, k + 1))
        displays[:, 0] = tau
        np.cumsum(seg, axis=1, out=displays[:, 1:])
        x, a, tau = states[:, -1].copy(), skews[:, -1].copy(), displays[:, -1].copy()
        yield states[:, lead:], skews[:, lead:], displays[:, lead:]
        done += k
        if done >= n_steps:
            return
        lead, k = 1, min(chunk_steps, n_steps - done)


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
    rng = np.random.default_rng(seed)
    (states, skews, displays), = clock_chunks(
        [p], dt, n_steps, lambda k: rng.standard_normal((1, k)), n_steps + 1)
    return ClockTrajectory(dt=dt, states=states[0], skews=skews[0],
                           displays=displays[0], seed=seed)


def sample_displays(p: ClockParams, spacing: float, count: int, dt: float, seed: int,
                    chunk_steps: int = 1_000_000) -> np.ndarray:
    """Display values tau(0), tau(spacing), ..., tau(count*spacing).

    Walks the path of :func:`simulate_clock` in chunks of
    ``chunk_steps`` grid points, so that long horizons (used by
    empirical Allan-variance estimation) never materialize the full
    path.  ``spacing`` must be an integer multiple of ``dt``.
    """
    if not (spacing > 0 and dt > 0 and count >= 1):
        raise ValueError("spacing, dt must be positive and count >= 1")
    per = int(round(spacing / dt))
    if per < 1 or abs(per * dt - spacing) > 1e-9 * spacing:
        raise ValueError(f"spacing {spacing!r} is not a multiple of dt {dt!r}")
    rng = np.random.default_rng(seed)
    kept, start = [], 0
    for _, _, displays in clock_chunks([p], dt, per * count,
                                       lambda k: rng.standard_normal((1, k)), chunk_steps):
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


def allan_variance_analytic(T: float, p: ClockParams, quad_steps: int = 256) -> float:
    """Allan variance of the skew over averaging interval ``T > 0``.

    The stationary skew kernel exp(q e^{-alpha |u|}), q = eps^2 / (2 alpha),
    expands as sum_k q^k/k! e^{-k alpha |u|} and integrates term by term
    (D. W. Allan, Proc. IEEE 54(2), 1966) into the exact series

        sigma^2(T) = T^-2 sum_{k>=1} q^k/k! beta_k^-2 f(beta_k T),
        beta_k = k alpha,  f(x) = 2(x - 1 + e^{-x}) - (1 - e^{-x})^2 >= 0;

    its k = 1 term is the linearized Allan variance.  Relative error: a
    few units in the last place for small q, about 6e-14 at q = 100.
    Exactly 0 for a noiseless clock, ``inf`` once e^q overflows.
    ``quad_steps`` (at least 64) is validated but unused: the series is
    exact.
    """
    if not T > 0:
        raise ValueError(f"averaging interval must be positive, got {T!r}")
    if quad_steps < 64:
        raise ValueError(f"quad_steps must be at least 64, got {quad_steps!r}")
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


def fit_params_from_allan(points, quad_steps: int = 128, n_starts: int = 8,
                          seed: int = 0) -> ClockParams:
    """Fit clock parameters to an Allan-variance curve.

    Minimizes the mean absolute error between :func:`allan_variance_analytic`
    and ``points`` (at least two, distinct positive intervals) by
    coordinate descent over ``(log alpha, log epsilon)``.  Start 0 is the
    best point of a fixed 24 x 24 log grid (``_FIT_GRID``) over alpha in
    [1e-1, 1e3] and epsilon in [1e-6, 1e1], so every fit is deterministic;
    ``n_starts >= 0`` random starts from ``seed``, log-uniform over the
    same box, follow.  ``quad_steps`` (at least 64) is validated but
    unused.  Returns the best candidate and logs its residual; raises
    ValueError ("fit failed") if none has a finite objective.

    Not identifiable when alpha T << 1 at every interval: the curve then
    sees only the kernel's short-lag behaviour, and (0.5, 2) over
    2e-3..0.2 (alpha T <= 0.1) fits to about (0.15, 1.2).
    """
    if quad_steps < 64:
        raise ValueError(f"quad_steps must be at least 64, got {quad_steps!r}")
    if n_starts < 0:
        raise ValueError(f"n_starts must be nonnegative, got {n_starts!r}")
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least two Allan points")
    ts = np.array([q.T for q in pts])
    if np.any(ts <= 0) or len(np.unique(ts)) != len(ts):
        raise ValueError("averaging intervals must be distinct and positive")
    targets = np.array([q.sigma2 for q in pts])

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
# Relative (link) parameters
# ---------------------------------------------------------------------------

def relative_params(pi: ClockParams, pj: ClockParams) -> RelParams:
    """Parameters of the relative clock a_j / a_i across a link.

    Both endpoints must share the same mean-reversion rate; the
    relative log-skew ``X_j - X_i`` is again mean-reverting with
    combined diffusion ``sqrt(eps_i^2 + eps_j^2)``.

    Raises
    ------
    ValueError
        If the rates differ ("alpha convention violated").
    """
    if pi.alpha != pj.alpha:
        raise ValueError(
            f"alpha convention violated: {pi.alpha!r} != {pj.alpha!r}"
        )
    return RelParams(alpha=pi.alpha, eps_i=pi.epsilon, eps_j=pj.epsilon)


# ---------------------------------------------------------------------------
# CSV interfaces
# ---------------------------------------------------------------------------

def write_trajectory_csv(traj: ClockTrajectory, path) -> None:
    """Write a trajectory as CSV with header ``t,x,skew,display``."""
    data = np.column_stack([traj.times, traj.states, traj.skews, traj.displays])
    np.savetxt(path, data, delimiter=",", header="t,x,skew,display",
               comments="", fmt="%.17g")


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into arrays keyed by column name."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    if [c.strip() for c in header] != ["t", "x", "skew", "display"]:
        raise ValueError(f"unexpected trajectory header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, k] for k, name in enumerate(header)}

