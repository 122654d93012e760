"""Case-fatality-rate estimation under delayed observation.

While notifications grow exponentially at rate r, only a fraction of the
deaths (or recoveries) destined to happen among the notified cases has
already been observed.  That fraction is the discounted mass
pi = E[exp(-r*D)] = ``laplace(D, r)`` of the notification-to-outcome delay
D, which makes the
naive estimator deaths/notified biased low by the factor pi and makes the
resolved-cases estimator deaths/(deaths+recoveries) biased whenever the
death and recovery delays differ.  For Gamma delays every fraction has a
closed form (finite horizons through the incomplete gamma function).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import factorial, gammainc, poch

from .distributions import GammaParams, laplace


@dataclass(frozen=True)
class CfrCounts:
    """Observed counts at horizon T of an exponentially growing case series."""

    K: int
    D_obs: int
    T: float
    r: float

    def __post_init__(self):
        if not 0 <= self.D_obs <= self.K:
            raise ValueError("deaths must be between 0 and the notified cases")


_SERIES_BELOW = 0.05  # |r|*T below which pi_finite sums its series


def pi_finite(T: float, r: float, delay: GammaParams) -> float:
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
    with limit ``laplace(delay, r)``.  Raises ValueError for T < 0 or
    r <= -lambda, where the tilt (lambda/(lambda+r))**k diverges.  For
    r < 0 the by-parts numerator and denominator are multiplied by exp(rT),
    so exp(-rT) cannot overflow.
    """
    if T < 0:
        raise ValueError(f"horizon must be non-negative, got {T}")
    tilt = laplace(delay, r)
    if T == 0:
        return 0.0
    k, lam = delay.shape, delay.rate
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
    clipped: bool


def corrected_naive_cfr(counts: CfrCounts, delay_to_death: GammaParams) -> CfrEstimate:
    """Correct the naive D_obs/K estimator for not-yet-observed deaths.

    Divides by the observed fraction pi(T); estimates above 1 are clipped
    and flagged rather than silently truncated.
    """
    if counts.K <= 0:
        raise ValueError("no notified cases")
    factor = pi_finite(counts.T, counts.r, delay_to_death)
    if factor <= 0.0:
        raise ValueError("observed fraction is zero at this horizon")
    est = counts.D_obs / counts.K / factor
    return CfrEstimate(estimate=min(est, 1.0), clipped=est > 1.0)


def resolved_cfr_bias(p: float, pi: float, rho: float) -> float:
    """Expected value of the resolved-cases estimator D/(D+R).

    Returns p*pi / (p*pi + (1-p)*rho) with pi and rho the observed fractions
    for deaths and recoveries, or NaN when no outcome is observed (the
    denominator is 0).  Unbiased exactly when pi == rho; recovery delays
    longer than death delays (rho < pi) inflate the estimate.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"true CFR must be in [0, 1], got {p}")
    resolved = p * pi + (1.0 - p) * rho
    return p * pi / resolved if resolved else math.nan
