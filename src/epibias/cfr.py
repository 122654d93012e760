"""Case-fatality-rate estimation under delayed observation.

While notifications grow exponentially at rate r, only a fraction of the
deaths (or recoveries) destined to happen among the notified cases has
already been observed.  That fraction is the discounted mass
pi = E[exp(-r*D)] of the notification-to-outcome delay D, which makes the
naive estimator deaths/notified biased low by the factor pi and makes the
resolved-cases estimator deaths/(deaths+recoveries) biased whenever the
death and recovery delays differ.  For Gamma delays every fraction has a
closed form (finite horizons through the incomplete gamma function).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import factorial, gammainc, poch

from .distributions import GammaParams, gamma_from_moments, laplace


class DelayKind(enum.Enum):
    TO_DEATH = "to_death"
    TO_RECOVERY = "to_recovery"


@dataclass(frozen=True)
class DelaySpec:
    """A notification-to-outcome delay distribution with its role label."""

    dist: GammaParams
    label: DelayKind

    @classmethod
    def exponential(cls, mean: float, label: DelayKind) -> "DelaySpec":
        return cls(GammaParams(shape=1.0, rate=1.0 / mean), label)


@dataclass(frozen=True)
class CfrCounts:
    """Observed counts at horizon T of an exponentially growing case series."""

    K: int
    D_obs: int
    R_obs: int
    T: float
    r: float

    def __post_init__(self):
        if min(self.K, self.D_obs, self.R_obs) < 0:
            raise ValueError("counts must be non-negative")
        if self.D_obs + self.R_obs > self.K:
            raise ValueError("resolved cases cannot exceed notified cases")


def pi_infinity(r: float, delay: DelaySpec) -> float:
    """Long-run observed fraction of delayed events, E[exp(-r*D)].

    For an exponential delay with mean m this is 1/(1 + r*m); among Gamma
    delays with a fixed mean it decreases with the shape parameter.
    """
    return laplace(delay.dist, r)


_SERIES_BELOW = 0.05  # |r|*T below which pi_finite sums its series


def pi_finite(T: float, r: float, delay: DelaySpec) -> float:
    """Observed fraction of delayed events at finite horizon T.

    The delay CDF F averaged under the case weight r*exp(-r*u) on [0, T],
    normalized to integrate to one.  For a Gamma(k, lambda) delay, with
    P = scipy.special.gammainc, integration by parts gives
    [(lambda/(lambda+r))**k * P(k, (lambda+r)T) - exp(-rT) * P(k, lambda*T)]
    / (1 - exp(-rT)).  Those terms cancel when |r|*T < 0.05, which instead
    uses P(k, lambda*T) - S/D, with S = sum_{j=1..8} (-r)**(j-1) * M_j / j!
    over the partial moments M_j = (k)_j / lambda**j * P(k+j, lambda*T) and
    D = (1 - exp(-rT))/r, or T at r = 0 (the window average of F); the
    truncation error is below (|r|*T)**8/9! < 1e-16.  Non-decreasing in T,
    with limit :func:`pi_infinity`.  Raises ValueError for T < 0 or
    r <= -lambda, where the tilt (lambda/(lambda+r))**k diverges.  For
    r < 0 the by-parts numerator and denominator are multiplied by exp(rT),
    so exp(-rT) cannot overflow.
    """
    if T < 0:
        raise ValueError(f"horizon must be non-negative, got {T}")
    tilt = laplace(delay.dist, r)
    if T == 0:
        return 0.0
    k, lam = delay.dist.shape, delay.dist.rate
    observed = gammainc(k, lam * T)
    if abs(r) * T >= _SERIES_BELOW:
        shifted = tilt * gammainc(k, (lam + r) * T)
        if r > 0:
            return float((shifted - math.exp(-r * T) * observed) / -math.expm1(-r * T))
        return float((shifted * math.exp(r * T) - observed) / math.expm1(r * T))
    j = np.arange(1, 9)
    partial_moments = poch(k, j) / lam**j * gammainc(k + j, lam * T)
    S = np.sum((-r) ** (j - 1) * partial_moments / factorial(j))
    D = -math.expm1(-r * T) / r if r != 0.0 else T
    return float(observed - S / D)


@dataclass(frozen=True)
class CfrEstimate:
    estimate: float
    raw: float
    correction: float
    clipped: bool


def corrected_naive_cfr(counts: CfrCounts, delay_to_death: DelaySpec) -> CfrEstimate:
    """Correct the naive D_obs/K estimator for not-yet-observed deaths.

    Divides by the observed fraction pi(T); estimates above 1 are clipped
    and flagged rather than silently truncated.
    """
    if counts.K <= 0:
        raise ValueError("no notified cases")
    factor = pi_finite(counts.T, counts.r, delay_to_death)
    if factor <= 0.0:
        raise ValueError("observed fraction is zero at this horizon")
    raw = counts.D_obs / counts.K
    est = raw / factor
    clipped = est > 1.0
    return CfrEstimate(
        estimate=min(est, 1.0), raw=raw, correction=factor, clipped=clipped
    )


def notification_delay(scenario, label: DelayKind) -> DelaySpec:
    """Notification-to-outcome delay implied by a simulation scenario.

    The outcome happens at (latent + infectious + outcome delay) after
    infection while notification happens at u * latent, so the gap is
    (1 - u) * latent + infectious + outcome delay.  Its first two moments
    are matched by a Gamma, which is what the corrections consume.
    """
    outcome = scenario.to_death if label is DelayKind.TO_DEATH else scenario.to_recovery
    lo, hi = scenario.incubation_factor_range
    u_mean = 0.5 * (lo + hi)
    u_var = (hi - lo) ** 2 / 12.0
    ell_sq = scenario.latent.variance() + scenario.latent.mean() ** 2
    stretch_mean = (1.0 - u_mean) * scenario.latent.mean()
    stretch_var = (u_var + (1.0 - u_mean) ** 2) * ell_sq - stretch_mean**2
    mean = stretch_mean + scenario.infectious.mean() + outcome.mean()
    var = stretch_var + scenario.infectious.variance() + outcome.variance()
    return DelaySpec(gamma_from_moments(mean, math.sqrt(var)), label)


def resolved_cfr_bias(
    p: float, r: float, to_death: DelaySpec, to_recovery: DelaySpec
) -> float:
    """Expected value of the resolved-cases estimator D/(D+R).

    Returns p*pi / (p*pi + (1-p)*rho) with pi and rho the observed fractions
    for deaths and recoveries.  Unbiased exactly when pi == rho; recovery
    delays longer than death delays (rho < pi) inflate the estimate.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"true CFR must be in [0, 1], got {p}")
    pi = pi_infinity(r, to_death)
    rho = pi_infinity(r, to_recovery)
    return p * pi / (p * pi + (1.0 - p) * rho)
