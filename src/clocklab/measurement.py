"""Link measurements from time-stamped packet exchanges.

A sender emits two packets carrying its own display values; the
receiver logs its display at each arrival.  The log-ratio of the
receive and send intervals, plus a deterministic correction that
removes the drift of the relative-skew normalizer, is an unbiased noisy
measurement of the relative log-skew across the link.  This module
also models the random per-packet delays, the variance of the induced
measurement noise, the two-way offset/delay estimator, and the
receipt-time prediction used as the protocol-level performance metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from clocklab.clocks import RelParams

__all__ = [
    "DelayModel",
    "Measurement",
    "draw_delay",
    "noise_variance",
    "skew_measurement",
    "measurement_epoch",
    "offset_delay_estimate",
    "predict_receipt",
]

DELAY_KINDS = ("constant", "uniform", "truncated-normal")
# Largest time value of a scenario (a delay field, the grid step, the
# horizon); the grid step is also at least 1/MAX_TIME.  The delay variance
# squares the delay fields and the noise variance divides by a squared
# stamp separation, so each square stays a nonzero finite float.  A
# truncation point lies within MAX_TIME spreads of the mean for the same
# reason.
MAX_TIME = 2.0**500
# Narrowest truncated-normal support (0, bound], in spreads, on which
# scipy's truncnorm keeps its variance within a relative 1e-5 of the uniform
# one that the distribution then is; at 2e-5 spreads it is off by 40 %.
_MIN_TRUNCATED_WIDTH = 1e-3


@dataclass(frozen=True)
class DelayModel:
    """Per-packet communication delay distribution.

    Draws are i.i.d. across packets and links, independent of the clock
    noises, strictly positive, and bounded by ``bound``.

    Parameters
    ----------
    kind : str
        One of ``constant``, ``uniform`` (on [mean-spread, mean+spread])
        or ``truncated-normal`` (normal(mean, spread^2) truncated to
        (0, bound]).
    mean : float
        Central delay value.
    spread : float
        Half-width (uniform) or standard deviation (truncated-normal);
        ignored for constant delays.
    bound : float or None
        Largest possible delay; derived from the other fields when
        omitted.
    """

    kind: str
    mean: float
    spread: float = 0.0
    bound: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in DELAY_KINDS:
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if not 0 < self.mean < MAX_TIME:
            raise ValueError(f"mean delay must be positive and below 2^500, got {self.mean!r}")
        if not 0 <= self.spread < MAX_TIME:
            raise ValueError(f"spread must be nonnegative and below 2^500, got {self.spread!r}")
        if self.kind == "uniform" and self.spread > self.mean:
            raise ValueError("uniform spread may not exceed the mean (delays must stay positive)")
        if self.kind == "truncated-normal" and self.spread == 0:
            raise ValueError("truncated-normal delays need a positive spread")
        if self.bound is None:
            if self.kind == "constant":
                derived = self.mean
            elif self.kind == "uniform":
                derived = self.mean + self.spread
            else:
                derived = self.mean + 4.0 * self.spread
            object.__setattr__(self, "bound", derived)
        if not self.mean <= self.bound < MAX_TIME:
            raise ValueError(f"bound must be at least the mean delay and below 2^500, "
                             f"got {self.bound!r}")
        if self.kind == "truncated-normal":
            if not max(self.mean, self.bound - self.mean) < self.spread * MAX_TIME:
                raise ValueError("truncated-normal delays must be cut within 2^500 "
                                 "spreads of the mean")
            if not self.bound >= _MIN_TRUNCATED_WIDTH * self.spread:
                raise ValueError(f"truncated-normal bound must be at least "
                                 f"{_MIN_TRUNCATED_WIDTH:g} spreads, got {self.bound!r}")

    @cached_property
    def variance(self) -> float:
        """Variance of one delay draw, computed once per (frozen) model:
        a truncated-normal one is a scipy quadrature."""
        if self.kind == "constant":
            return 0.0
        if self.kind == "uniform":
            return self.spread**2 / 3.0
        from scipy.stats import truncnorm  # on demand: scipy.stats is slow to load

        a = (0.0 - self.mean) / self.spread
        b = (self.bound - self.mean) / self.spread
        return float(truncnorm.var(a, b, loc=self.mean, scale=self.spread))


def draw_delay(m: DelayModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """The next ``size`` delays from the model, as an array: bit for bit
    the values, in order, of ``size`` draws of one, leaving ``rng`` in
    the same state."""
    if m.kind == "constant":
        return np.full(size, m.mean)
    if m.kind == "uniform":
        return rng.uniform(m.mean - m.spread, m.mean + m.spread, size)
    from scipy.stats import truncnorm  # on demand, as in DelayModel.variance

    a = (0.0 - m.mean) / m.spread
    b = (m.bound - m.mean) / m.spread
    return truncnorm.rvs(a, b, loc=m.mean, scale=m.spread, size=size, random_state=rng)


@dataclass(slots=True)
class Measurement:
    """One observation of the relative log-skew ``x_j - x_i`` of a link
    (i, j): value y with noise variance sigma2.

    Treated as read-only.  It is not frozen: a frozen dataclass sets
    each field through ``object.__setattr__``, which makes building one,
    as every filter update does, several times slower than with slots.
    """

    link: tuple[int, int]
    y: float
    sigma2: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.y):
            raise ValueError(f"measurement value must be finite, got {self.y!r}")
        if not self.sigma2 > 0:
            raise ValueError(f"noise variance must be positive, got {self.sigma2!r}")


def noise_variance(delta_s: float, m: DelayModel, floor: float) -> float:
    """Modeled variance of the measurement noise for send separation ``delta_s``.

    ``floor + 2 Var(d) / delta_s^2``, ``Var(d)`` that of one draw of
    ``m``: the dominant noise term is the difference of the two packet
    delays divided by the separation, so widening the separation quiets
    the measurement quadratically, down to a floor that accounts for
    stamping granularity and the ignored higher-order terms.
    """
    if not delta_s > 0:
        raise ValueError(f"send separation must be positive, got {delta_s!r}")
    return floor + 2.0 * m.variance / delta_s**2


def skew_measurement(link: tuple[int, int], s0: float, r0: float, s1: float, r1: float,
                     rel: RelParams, t_k: float, delay_model: DelayModel,
                     floor: float) -> Measurement:
    """Relative log-skew measurement from a two-packet exchange.

    Computes ``log |(r1 - r0) / (s1 - s0)| - log c_ij(t_k)``: the raw
    log-ratio estimates the log of the relative skew ``a_j/a_i``, and
    subtracting the log of the deterministic relative normalizer
    ``c_ij(t_k)`` centers the value on the relative state
    ``X_j - X_i``, so the result is unbiased for any pair of diffusion
    coefficients.  The absolute value tolerates out-of-order delivery
    (a receive interval that came out negative).

    Parameters
    ----------
    link : tuple of int
        The link (i, j) the measurement is labelled with; node i sent
        both packets.
    s0, r0, s1, r1 : float
        Send stamp (i's clock) and receive stamp (j's clock) of the
        first packet, then of the second.
    rel : RelParams
        The link's relative clock, i the sender and j the receiver.
    t_k : float
        Measurement epoch (reference time if known, otherwise the
        receiver-clock proxy; see :func:`measurement_epoch`), at which
        ``c_ij`` is taken; the measurement does not keep it.
    delay_model : DelayModel
        Sizes the noise variance (:func:`noise_variance`).
    floor : float
        Variance floor.

    Raises
    ------
    ValueError
        ``"non-increasing send stamps"`` if s1 <= s0;
        ``"degenerate receive stamps"`` if r1 == r0.
    """
    if s1 <= s0:
        raise ValueError(f"non-increasing send stamps: {s0!r} -> {s1!r}")
    if r1 == r0:
        raise ValueError(f"degenerate receive stamps: both {r0!r}")
    y = math.log(abs((r1 - r0) / (s1 - s0))) - math.log(rel.c_ij(t_k))
    sigma2 = noise_variance(s1 - s0, delay_model, floor)
    return Measurement(link=link, y=y, sigma2=sigma2)


def measurement_epoch(sender: int, s0: float, r1: float) -> float:
    """Epoch at which a skew-pair measurement applies.

    The reference node's displays are exact reference time, so when it
    is the ``sender`` the first send stamp ``s0`` is used; otherwise
    the closing receive stamp ``r1`` serves as the receiver-clock proxy.
    """
    return s0 if sender == 0 else r1


def offset_delay_estimate(s_i: float, r_ij: float, s_j: float, r_ji: float,
                          a_ij_hat: float, a_ji_hat: float) -> tuple[float, float, float]:
    """Offset and per-direction delay estimates from one roundtrip.

    Parameters
    ----------
    s_i, r_ij : float
        The forward leg i->j: sent at ``s_i`` by i (i's clock),
        received at ``r_ij`` by j (j's clock).
    s_j, r_ji : float
        The reverse leg j->i: sent at ``s_j`` by j, received at
        ``r_ji`` by i.
    a_ij_hat, a_ji_hat : float
        Current relative-skew estimates for the two directions.

    Returns
    -------
    (tau_ij_hat, d_ji_hat, d_ij_hat)
        Offset of j's display relative to i's, and the two delay
        estimates (reverse leg first, in its receiver's clock units at
        equal skews).  The reverse-leg delay is clamped at zero, and
        the forward estimate is its skew-scaled image; with equal
        constant skews, symmetric constant delays, and exact skew
        estimates the offset is recovered exactly.

    Raises
    ------
    ValueError
        ``"invalid skew estimate"`` for non-positive skew estimates.
    """
    if not (a_ij_hat > 0 and a_ji_hat > 0):
        raise ValueError(
            f"invalid skew estimate: a_ij={a_ij_hat!r}, a_ji={a_ji_hat!r}"
        )
    raw = (r_ji - s_j) + (r_ij - s_i) + (s_j - r_ij) * (1.0 - a_ji_hat)
    d_ji_hat = max(0.0, raw / (2.0 * a_ji_hat))
    d_ij_hat = a_ij_hat * d_ji_hat
    tau_ij_hat = -r_ji + s_j + a_ij_hat * d_ji_hat
    return tau_ij_hat, d_ji_hat, d_ij_hat


def predict_receipt(s0: float, r0: float, s1: float, a_hat: float) -> float:
    """Predicted receive stamp of a follow-up packet sent at ``s1``.

    Extrapolates from the previous (send, receive) pair with the
    current relative-skew estimate: ``r0 + a_hat (s1 - s0)``.  The
    absolute gap to the actual receive stamp is the end-to-end
    synchronization quality metric: with equal constant delays and the
    exact average relative skew the prediction error is zero.
    """
    if not s1 > s0:
        raise ValueError(f"follow-up send stamp must increase: {s0!r} -> {s1!r}")
    if not a_hat > 0:
        raise ValueError(f"invalid skew estimate: {a_hat!r}")
    return r0 + a_hat * (s1 - s0)
