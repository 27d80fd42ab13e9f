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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from clocklab.clocks import ClockParams, RelParams, skew_normalizer
from clocklab.measurement import Measurement

__all__ = [
    "NetworkFilterState",
    "initial_network_state",
    "measurement_selector",
    "net_predict",
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
    every node *including* the reference at index 0.  Treated as
    immutable: operations return fresh arrays.
    """

    x_hat: np.ndarray
    P: np.ndarray
    t_last: float
    params: tuple[ClockParams, ...]

    @property
    def n(self) -> int:
        """Number of non-reference nodes."""
        return len(self.params) - 1

    @property
    def alpha(self) -> float:
        return self.params[0].alpha


def initial_network_state(params, t0: float = 0.0) -> NetworkFilterState:
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
    return NetworkFilterState(
        x_hat=np.zeros(n), P=np.zeros((n, n)), t_last=t0, params=params
    )


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


def net_predict(st: NetworkFilterState, dt: float) -> NetworkFilterState:
    """Advance the joint state by ``dt`` in closed form.

    Every state decays by ``e^{-alpha dt}``; the covariance contracts
    the same way and picks up independent process noise on the
    diagonal: ``P <- e^{-2 alpha dt} P + (1-e^{-2 alpha dt}) diag(eps_m^2/2 alpha)``.
    """
    if dt < 0:
        raise ValueError(f"time went backwards: dt={dt!r}")
    if dt == 0:
        return st
    decay = np.exp(-st.alpha * dt)
    sq = decay * decay
    ceilings = np.array(
        [p.epsilon**2 / (2.0 * st.alpha) for p in st.params[1:]]
    )
    return replace(
        st,
        x_hat=decay * st.x_hat,
        P=sq * st.P + (1.0 - sq) * np.diag(ceilings),
        t_last=st.t_last + dt,
    )


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


def net_update_optimal(st: NetworkFilterState, m: Measurement) -> NetworkFilterState:
    """Condition the whole network on one link measurement.

    Gain ``K = P M / c_k`` with ``c_k = M' P M + sigma2``
    (componentwise ``(P_mj - P_mi)/c_k``); the covariance loses the
    rank-one term ``(P M)(P M)'/c_k``, so its trace never increases.
    """
    _, pm, c_k, innovation = _innovation_stats(st, m)
    if c_k <= 0:
        raise ValueError(f"covariance degenerate: c_k={c_k!r}")
    p_new = st.P - np.outer(pm, pm) / c_k
    return replace(
        st,
        x_hat=st.x_hat + pm * (innovation / c_k),
        P=0.5 * (p_new + p_new.T),
    )


def net_update_distributed(st: NetworkFilterState, m: Measurement) -> NetworkFilterState:
    """Link-local update: gain truncated to the link's own endpoints.

    Uses the optimal gain components at i and j and zero elsewhere, so
    each endpoint needs only covariance entries it stores itself.  The
    covariance follows the symmetric (Joseph-type) form
    ``P+ = (I - K M') P (I - K M')' + sigma2 K K'``, valid for any
    gain; diagonal entries at the endpoints can only decrease.

    Expanded, that form is the rank-2 update
    ``P - K pm' - pm K' + c_k K K'`` with ``pm = P M``.  K is zero off
    the link, so only the endpoints' rows and columns change: they are
    computed as rows, in O(n), and copied onto the columns, which keeps
    ``P`` exactly symmetric.  The rest of ``P`` is copied unchanged
    into the returned state.
    """
    ks, pm, c_k, innovation = _innovation_stats(st, m)
    if c_k <= 0:
        raise ValueError(f"covariance degenerate: c_k={c_k!r}")
    gain = pm[ks] / c_k
    rows = st.P[ks, :] - np.outer(gain, pm)
    block = rows[:, ks] - np.outer(pm[ks], gain) + c_k * np.outer(gain, gain)
    rows[:, ks] = 0.5 * (block + block.T)
    p_new = st.P.copy()
    p_new[ks, :] = rows
    p_new[:, ks] = rows.T
    x_new = st.x_hat.copy()
    x_new[ks] += gain * innovation
    return replace(st, x_hat=x_new, P=p_new)


def nodal_skew_estimate(st: NetworkFilterState, i: int, t: float) -> float:
    """Conditional-mean estimate of node i's own skew at reference time t.

    ``a_i_hat = c_i(t) e^{x_hat_i + P_ii/2}``; the reference is 1 by
    definition.
    """
    if not 0 <= i <= st.n:
        raise ValueError(f"node {i} outside 0..{st.n}")
    if i == 0:
        return 1.0
    k = i - 1
    return float(
        skew_normalizer(t, st.params[i]) * np.exp(st.x_hat[k] + 0.5 * st.P[k, k])
    )


def relative_skew_readout(
    st: NetworkFilterState, i: int, j: int, t: float
) -> tuple[float, float, float]:
    """Directed relative-skew estimates for (i, j) plus the symmetrized one.

    Raw conditional means use the joint statistics of ``x_j - x_i``
    (variance ``P_ii + P_jj - 2 P_ij``); the symmetrized estimate
    ``sqrt(a_ij_hat / a_ji_hat)`` drops the variance inflation so the
    two directions multiply to one.
    """
    if not (0 <= i <= st.n and 0 <= j <= st.n):
        raise ValueError(f"link ({i}, {j}) references nodes outside 0..{st.n}")
    rel = RelParams(
        alpha=st.alpha, eps_i=st.params[i].epsilon, eps_j=st.params[j].epsilon
    )
    xi = 0.0 if i == 0 else float(st.x_hat[i - 1])
    xj = 0.0 if j == 0 else float(st.x_hat[j - 1])
    pii = 0.0 if i == 0 else float(st.P[i - 1, i - 1])
    pjj = 0.0 if j == 0 else float(st.P[j - 1, j - 1])
    pij = 0.0 if (i == 0 or j == 0) else float(st.P[i - 1, j - 1])
    mean = xj - xi
    var = pii + pjj - 2.0 * pij
    c = rel.c_ij(t)
    a_ij = c * np.exp(mean + 0.5 * var)
    a_ji = (1.0 / c) * np.exp(-mean + 0.5 * var)
    return float(a_ij), float(a_ji), float(np.sqrt(a_ij / a_ji))
