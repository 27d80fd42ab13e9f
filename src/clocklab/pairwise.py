"""Kalman filtering of one link's relative log-skew.

The relative state ``X_ij = X_j - X_i`` of a link is mean-reverting
with combined diffusion ``eps_ij``, and the link measurements are
unbiased with known noise variance, so the conditional mean follows a
scalar continuous-discrete Kalman filter.  Between measurements both
the estimate and the error variance evolve in closed form (no ODE
stepping); at a measurement the standard gain applies.  A suboptimal
variant runs on the receiver's own display instead of reference time —
the only clock it actually has — with an optional gain cap; it stays
stable and bounded for any positive time-rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from clocklab.clocks import RelParams
from clocklab.measurement import Measurement

__all__ = [
    "PairwiseFilterState",
    "SubOptConfig",
    "initial_state",
    "predict",
    "update",
    "kalman_gain",
    "relative_skew_estimate",
    "variance_upper_bound",
    "suboptimal_predict",
    "suboptimal_update",
]

F_MODES = ("unity", "conditional-mean")


@dataclass(frozen=True)
class PairwiseFilterState:
    """Estimate and error variance of one link's relative log-skew.

    It advances by elapsed time alone: reference time for the optimal
    filter (:func:`predict`), the receiver's display for the suboptimal
    one (:func:`suboptimal_predict`).
    """

    x_hat: float
    P: float
    rel: RelParams


@dataclass(frozen=True)
class SubOptConfig:
    """Configuration of the implementable (local-time) filter variant.

    f_mode selects the local rate surrogate: ``unity`` treats the
    receiver's display as running at rate one; ``conditional-mean``
    divides elapsed local time by the filter's own mean relative-skew
    estimate (exactly the receiver's expected rate when the sender is
    the reference node).  ``gain_floor`` caps the applied gain.
    """

    f_mode: str = "unity"
    gain_floor: float = 0.99

    def __post_init__(self) -> None:
        if self.f_mode not in F_MODES:
            raise ValueError(f"unknown f_mode {self.f_mode!r}")
        if not 0.0 <= self.gain_floor <= 1.0:
            raise ValueError(f"gain_floor must be in [0, 1], got {self.gain_floor!r}")


def initial_state(rel: RelParams) -> PairwiseFilterState:
    """Filter state at startup: clocks begin synchronized, so (0, 0)."""
    return PairwiseFilterState(x_hat=0.0, P=0.0, rel=rel)


def predict(st: PairwiseFilterState, dt: float) -> PairwiseFilterState:
    """Advance estimate and variance by ``dt`` with the exact closed forms.

    ``x_hat`` decays by ``e^{-alpha dt}``; the variance relaxes toward
    its stationary ceiling ``eps_ij^2/(2 alpha)`` from below:
    ``P <- e^{-2 alpha dt} P + (eps_ij^2/2 alpha)(1 - e^{-2 alpha dt})``.

    Raises
    ------
    ValueError
        For negative ``dt`` ("time went backwards").
    """
    if dt < 0:
        raise ValueError(f"time went backwards: dt={dt!r}")
    if dt == 0:
        return st
    decay = np.exp(-st.rel.alpha * dt)
    sq = decay * decay
    ceiling = st.rel.eps_ij**2 / (2.0 * st.rel.alpha)
    return replace(
        st,
        x_hat=decay * st.x_hat,
        P=sq * st.P + ceiling * (1.0 - sq),
    )


def kalman_gain(P: float, sigma2: float) -> float:
    """Measurement gain ``P / (P + sigma2)``."""
    return P / (P + sigma2)


def update(st: PairwiseFilterState, m: Measurement) -> PairwiseFilterState:
    """Condition on one measurement with the standard scalar gain.

    ``K = P/(P + sigma2)``, ``x_hat += K (y - x_hat)``,
    ``P <- sigma2 P / (P + sigma2)`` — strictly smaller whenever
    ``P > 0`` and the noise variance is finite.
    """
    gain = kalman_gain(st.P, m.sigma2)
    return replace(
        st,
        x_hat=st.x_hat + gain * (m.y - st.x_hat),
        P=m.sigma2 * st.P / (st.P + m.sigma2),
    )


def relative_skew_estimate(rel: RelParams, mean: float, var: float,
                           t: float) -> tuple[float, float]:
    """Minimum-variance estimates of a link's relative skews in both directions.

    ``mean`` and ``var`` are the conditional moments of the link's
    relative log-skew ``x_j - x_i`` (a filter's ``x_hat`` and ``P``)
    and ``rel`` its relative clock.  The relative skew is log-normal
    given the data, so its conditional mean carries the half-variance
    correction: ``a_ij_hat = c_ij(t) e^{mean + var/2}`` and
    ``a_ji_hat = c_ji(t) e^{-mean + var/2}``.  Their product is exactly
    ``e^var >= 1`` (the two normalizers are reciprocal), a measure of
    the remaining uncertainty.
    """
    c = rel.c_ij(t)
    half = 0.5 * var
    a_ij = c * np.exp(mean + half)
    a_ji = (1.0 / c) * np.exp(-mean + half)
    return a_ij, a_ji


def variance_upper_bound(T_bar: float, Sigma2: float, rel: RelParams) -> float:
    """Steady-state ceiling on the filter error variance.

    With measurements at most ``T_bar`` apart and noise variance at
    most ``Sigma2``, the long-run variance never exceeds

        (1/2) [ -(1-A)(Sigma2 - E) + sqrt((1-A)^2 (Sigma2 - E)^2
                                          + 4 (1-A) E Sigma2) ],

    where ``E = eps_ij^2/(2 alpha)`` is the prior ceiling and
    ``A = e^{-2 alpha T_bar}``.  The bound vanishes as ``T_bar -> 0``
    (continuous observation) and approaches ``E`` as the noise blows
    up (no information).
    """
    if not T_bar > 0:
        raise ValueError(f"inter-measurement gap must be positive, got {T_bar!r}")
    if not Sigma2 > 0:
        raise ValueError(f"noise variance must be positive, got {Sigma2!r}")
    e = rel.eps_ij**2 / (2.0 * rel.alpha)
    a = math.exp(-2.0 * rel.alpha * T_bar)
    gap = (1.0 - a) * (Sigma2 - e)
    return 0.5 * (-gap + math.sqrt(gap * gap + 4.0 * (1.0 - a) * e * Sigma2))


def _rate_surrogate(st: PairwiseFilterState, cfg: SubOptConfig) -> float:
    if cfg.f_mode == "unity":
        return 1.0
    # Conditional mean of the relative skew under the current state;
    # evaluated with the asymptotic normalizer because the receiver has
    # no reference clock to date the exact one with.
    f = st.rel.c_ij_inf * math.exp(st.x_hat + 0.5 * st.P)
    return max(f, 1e-12)


def suboptimal_predict(st: PairwiseFilterState, d_tau: float,
                       cfg: SubOptConfig) -> PairwiseFilterState:
    """Advance using elapsed *local* (receiver display) time ``d_tau``.

    The receiver cannot observe reference time, so the decay and the
    surrogate variance recursion run on ``d_tau / f`` with a positive
    rate surrogate ``f``; stability and bounded error hold for any such
    choice.
    """
    if d_tau < 0:
        raise ValueError(f"time went backwards: d_tau={d_tau!r}")
    return predict(st, d_tau / _rate_surrogate(st, cfg))


def suboptimal_update(st: PairwiseFilterState, m: Measurement,
                      cfg: SubOptConfig) -> PairwiseFilterState:
    """Measurement step with the capped gain.

    Applies ``k = min(P/(P + sigma2), gain_floor)`` (always within
    [0, 1]) to the estimate while the surrogate variance follows the
    standard recursion.
    """
    gain = min(max(kalman_gain(st.P, m.sigma2), 0.0), cfg.gain_floor)
    return replace(
        st,
        x_hat=st.x_hat + gain * (m.y - st.x_hat),
        P=m.sigma2 * st.P / (st.P + m.sigma2),
    )
