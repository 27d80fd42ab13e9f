"""Whole-network log-skew estimation.

Two continuous-discrete Kalman filters over the vector of non-reference
log-skew states: the optimal centralized filter, whose gain touches
every node on each link measurement, and a distributed variant whose
gain is truncated to the two nodes actually on the link so that each
node can run its own update from locally stored covariance entries.
The truncation costs variance but never stability; the optimal filter's
total variance is a lower bound at every step.

Node 0 is the reference and is excluded from the state: rows and
columns that would belong to it read as zeros, and measurements against
it reduce to the scalar pairwise update.

Prediction is per node: :func:`net_predict_rows` advances each node
keyed in ``elapsed`` (node ids 1..n; node m sits in row m - 1) by its
own elapsed time, as a distributed node's rows age on its own clock.
A state holds no clock of its own: callers keep the stamps that the
elapsed times are taken from.

Every operation writes into the state it is given and returns
``None``, as a distributed node updates the covariance entries it
stores.  The per-node operations (:func:`net_predict_rows`,
:func:`net_update_distributed`) change only their nodes' rows and
columns, so a step costs O(n) with no copy of ``P``.
Readouts are log-normal formulas of the moments that
:func:`link_moments` reads from a link's endpoint entries, in Python
floats and without building a state: :func:`relative_skew_readout`
takes the link's relative clock (:class:`clocklab.clocks.RelParams`)
and :func:`nodal_skew_estimate` a node's own clock parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from clocklab.clocks import ClockParams, RelParams, skew_normalizer
from clocklab.measurement import Measurement
from clocklab.pairwise import relative_skew_estimate

__all__ = [
    "NetworkFilterState",
    "initial_network_state",
    "link_moments",
    "measurement_selector",
    "net_predict_rows",
    "net_update_optimal",
    "net_update_distributed",
    "nodal_skew_estimate",
    "relative_skew_readout",
]


@dataclass(frozen=True)
class NetworkFilterState:
    """Joint estimate of all non-reference log-skew states.

    ``x_hat[m-1]`` estimates node m's state and ``P`` is the matching
    error covariance; ``params[i]`` holds node i's clock parameters for
    every node *including* the reference at index 0.  The fields are
    fixed, but the arrays are not: every operation writes its result
    into them, so a filter keeps the same buffers for its whole life.
    """

    x_hat: np.ndarray
    P: np.ndarray
    params: tuple[ClockParams, ...]

    @property
    def n(self) -> int:
        """Number of non-reference nodes."""
        return len(self.params) - 1

    @property
    def alpha(self) -> float:
        return self.params[0].alpha


def initial_network_state(params) -> NetworkFilterState:
    """Startup state: every clock begins synchronized, so zeros.

    ``params`` lists one ClockParams per node, reference first; all
    must share the mean-reversion rate and the reference must be
    noiseless.
    """
    params = tuple(params)
    if len(params) < 2:
        raise ValueError("need the reference plus at least one node")
    alphas = {p.alpha for p in params}
    if len(alphas) != 1:
        raise ValueError(f"alpha convention violated: clocks disagree ({sorted(alphas)})")
    if params[0].epsilon != 0.0:
        raise ValueError("reference clock must have zero diffusion")
    n = len(params) - 1
    return NetworkFilterState(x_hat=np.zeros(n), P=np.zeros((n, n)), params=params)


def measurement_selector(link: tuple[int, int], n: int) -> np.ndarray:
    """Selector vector of a link measurement: -1 at i, +1 at j.

    Entries index the non-reference state (node m sits at m-1); a
    reference endpoint contributes nothing.
    """
    i, j = link
    if i == j:
        raise ValueError(f"link endpoints must differ, got {link!r}")
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"link {link!r} references nodes outside 0..{n}")
    sel = np.zeros(n)
    if i != 0:
        sel[i - 1] = -1.0
    if j != 0:
        sel[j - 1] = 1.0
    return sel


def _check_nodes(st: NetworkFilterState, elapsed: dict[int, float]) -> None:
    for m in elapsed:
        if not 1 <= m <= st.n:
            raise ValueError(f"elapsed time for node {m!r}, outside 1..{st.n}")


def _row_decay(st: NetworkFilterState, node: int, dt: float) -> tuple[float, float]:
    """Decay factor of a node's state over ``dt`` and the process noise
    that its variance collects."""
    decay = float(np.exp(-st.alpha * dt))
    return decay, st.params[node].stationary_state_variance * (1.0 - decay * decay)


def net_predict_rows(st: NetworkFilterState, elapsed: dict[int, float]) -> None:
    """Advance selected nodes' states by their own elapsed times, in place.

    ``elapsed`` maps node ids (1..n) to nonnegative time differences;
    another key or a negative time raises ``ValueError``.  Each named
    node's row decays by its own factor and collects its own process
    noise; unnamed rows are left stale, to be advanced when they next
    participate.

    With ``g`` the decay factors (1 on unnamed rows), named row k
    becomes ``P[k, :] * (g[k] * g)``, is copied onto column k, and then
    ``P[k, k]`` gains the process noise: entry for entry this is
    ``P * outer(g, g) + diag(noise)`` for a symmetric ``P``, at
    O(n * len(elapsed)) arithmetic.  The named rows are all computed
    from ``st`` into temporaries before any is written back, which is
    what makes writing them in place correct.
    """
    _check_nodes(st, elapsed)
    g = np.ones(st.n)
    noise = {}
    for m in sorted(elapsed):
        if elapsed[m] < 0:
            raise ValueError(f"time went backwards: node {m} elapsed {elapsed[m]!r}")
        g[m - 1], noise[m - 1] = _row_decay(st, m, elapsed[m])
    rows = {k: st.P[k, :] * (g[k] * g) for k in noise}
    for k, row in rows.items():
        st.P[k, :] = st.P[:, k] = row
    for k, add in noise.items():
        st.P[k, k] += add
        st.x_hat[k] *= g[k]


def _innovation_stats(st: NetworkFilterState, m: Measurement):
    """Endpoint state indices ``ks``, their selector entries, ``P M``,
    ``c_k`` and the innovation.  ``M`` is zero off the link, so ``P M``
    needs only the endpoints' columns: O(n)."""
    sel = measurement_selector(m.link, st.n)
    ks = np.flatnonzero(sel)
    s = sel[ks]
    pm = st.P[:, ks] @ s
    c_k = float(s @ pm[ks]) + m.sigma2
    innovation = m.y - float(s @ st.x_hat[ks])
    return ks, pm, c_k, innovation


def net_update_optimal(st: NetworkFilterState, m: Measurement) -> None:
    """Condition the whole network on one link measurement, in place.

    Gain ``K = P M / c_k`` with ``c_k = M' P M + sigma2``
    (componentwise ``(P_mj - P_mi)/c_k``); the covariance loses the
    rank-one term ``(P M)(P M)'/c_k``, so its trace never increases.
    """
    _, pm, c_k, innovation = _innovation_stats(st, m)
    if c_k <= 0:
        raise ValueError(f"covariance degenerate: c_k={c_k!r}")
    p_new = st.P - np.outer(pm, pm) / c_k
    st.P[...] = 0.5 * (p_new + p_new.T)
    st.x_hat[...] = st.x_hat + pm * (innovation / c_k)


def net_update_distributed(st: NetworkFilterState, m: Measurement) -> None:
    """Link-local update, in place: gain truncated to the link's own endpoints.

    Uses the optimal gain components at i and j and zero elsewhere, so
    each endpoint needs only covariance entries it stores itself.  The
    covariance follows the symmetric (Joseph-type) form
    ``P+ = (I - K M') P (I - K M')' + sigma2 K K'``, valid for any
    gain; diagonal entries at the endpoints can only decrease.

    Expanded, that form is the rank-2 update
    ``P - K pm' - pm K' + c_k K K'`` with ``pm = P M``.  K is zero off
    the link, so only the endpoints' rows and columns change: they are
    all computed from ``st`` into temporaries, in O(n), before any is
    written back onto the rows and columns of ``st``, which keeps ``P``
    exactly symmetric.
    """
    ks, pm, c_k, innovation = _innovation_stats(st, m)
    if c_k <= 0:
        raise ValueError(f"covariance degenerate: c_k={c_k!r}")
    pm_k = pm[ks]
    gain = pm_k / c_k
    rows = st.P[ks, :] - gain[:, None] * pm  # outer products, broadcast
    block = rows[:, ks] - pm_k[:, None] * gain + c_k * (gain[:, None] * gain)
    rows[:, ks] = 0.5 * (block + block.T)
    st.P[ks, :] = rows
    st.P[:, ks] = rows.T
    st.x_hat[ks] += gain * innovation


def _endpoint(st: NetworkFilterState, node: int,
              elapsed: dict[int, float]) -> tuple[float, float, float]:
    """Mean, variance and decay factor of one node's state, advanced by
    its time in ``elapsed`` as :func:`net_predict_rows` advances it; the
    reference reads as zeros."""
    if node == 0:
        return 0.0, 0.0, 1.0
    k = node - 1
    x, p = st.x_hat.item(k), st.P.item(k, k)
    if node not in elapsed:
        return x, p, 1.0
    d, noise = _row_decay(st, node, elapsed[node])
    return d * x, p * (d * d) + noise, d


def link_moments(st: NetworkFilterState, i: int, j: int,
                 elapsed: dict[int, float]) -> tuple[float, float]:
    """Mean and variance of ``x_j - x_i`` in ``net_predict_rows(st, elapsed)``.

    ``i`` and ``j`` are nodes (the reference reads as zero), as are the
    keys of ``elapsed``.  Only their O(1) entries are advanced, by the
    same operations in the same order, so the values are bit for bit
    those of the predicted state.
    """
    n = st.n
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"link ({i}, {j}) references nodes outside 0..{n}")
    _check_nodes(st, elapsed)
    if i == j:
        return 0.0, 0.0
    x_i, p_i, g_i = _endpoint(st, i, elapsed)
    x_j, p_j, g_j = _endpoint(st, j, elapsed)
    p_ij = 0.0 if i == 0 or j == 0 else st.P.item(i - 1, j - 1) * (g_i * g_j)
    return x_j - x_i, p_i + p_j - 2.0 * p_ij


def nodal_skew_estimate(p: ClockParams, mean: float, var: float, t: float) -> float:
    """Conditional-mean estimate ``c(t) e^{mean + var/2}`` of a node's own
    skew at reference time t, from the moments of its log-skew state."""
    return float(skew_normalizer(t, p) * np.exp(mean + 0.5 * var))


def relative_skew_readout(
    rel: RelParams, mean: float, var: float, t: float
) -> tuple[float, float, float]:
    """Directed relative-skew estimates for a link (i, j) plus the symmetrized one.

    ``mean`` and ``var`` are the moments of ``x_j - x_i``
    (:func:`link_moments`) and ``rel`` the link's relative clock; the
    raw conditional means are :func:`clocklab.pairwise.relative_skew_estimate`
    of them, and the symmetrized estimate ``sqrt(a_ij_hat / a_ji_hat)``
    drops the variance inflation so the two directions multiply to one.
    """
    a_ij, a_ji = relative_skew_estimate(rel, mean, var, t)
    # The estimates are numpy scalars, so an overflowing ratio still warns;
    # a square root is correctly rounded, so math.sqrt equals np.sqrt.
    return float(a_ij), float(a_ji), math.sqrt(a_ij / a_ji)
