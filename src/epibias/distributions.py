"""Gamma distribution algebra used throughout the toolkit.

All duration distributions (generation times, latent/infectious periods,
delays to death or recovery) are parameterized as Gamma(shape, rate) with
mean shape/rate and variance shape/rate**2.  Besides construction, the CDF
and the moments, the module provides the Laplace transform E[exp(-r*T)]
(the workhorse behind every growth-rate and delayed-observation formula)
and discretization to daily probabilities for renewal-equation
computations.  Gamma functions are scipy.special calls in
scipy.stats.gamma's order of operations (x = t / scale), so values match it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincinv


@dataclass(frozen=True)
class GammaParams:
    """Gamma distribution in shape/rate form (rate in 1/day)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive, got {self.rate}")

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape / self.rate**2

    def sd(self) -> float:
        return np.sqrt(self.shape) / self.rate


@dataclass(frozen=True)
class DiscreteDelay:
    """Daily delay probabilities p(s) for s = 1..len(probs).

    ``probs[i]`` is the probability of day ``i + 1``.  Entries are
    non-negative and sum to 1 (within 1e-12).
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if np.any(probs < 0):
            raise ValueError("delay probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"delay probabilities must sum to 1, got {probs.sum()!r}")


def gamma_from_moments(mean: float, sd: float) -> GammaParams:
    """Construct GammaParams with the requested mean and standard deviation.

    Uses shape = mean**2/sd**2 and rate = mean/sd**2.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if sd <= 0:
        raise ValueError(f"sd must be positive, got {sd}")
    var = sd * sd
    return GammaParams(shape=mean * mean / var, rate=mean / var)


def cdf(params: GammaParams, t):
    """Gamma CDF at t (days); t must be finite and non-negative."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("CDF requested at negative time")
    out = gammainc(params.shape, t / (1.0 / params.rate))
    return out if out.ndim else float(out)


def laplace(params: GammaParams, r: float) -> float:
    """Expected value of exp(-r*T) for T ~ Gamma(shape, rate).

    Closed form (rate/(rate + r))**shape, valid for r > -rate.  This is the
    quantity that links incidence growth at rate r to every delayed or
    discounted observation in the toolkit.
    """
    if r <= -params.rate:
        raise ValueError(
            f"transform diverges: need r > {-params.rate}, got {r}"
        )
    return float((params.rate / (params.rate + r)) ** params.shape)


def discretize_centered(params: GammaParams, horizon: int) -> DiscreteDelay:
    """Day-lag probabilities for differences of day-binned event times.

    When both endpoints of a delay T are recorded as calendar days, the
    observed day lag is floor(T) or floor(T)+1 with weights set by the
    fractional part, i.e. the tent-kernel binning
    p(k) = integral of (1 - |t - k|)+ * f(t).  Unlike plain interval binning
    (the mass of (k - 1, k] on day k) this preserves the mean instead of
    shifting it up by half a day, which matters for renewal-equation
    weights.  Lag-0 mass (same-day pairs) is dropped and the weights
    renormalized.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    grid = np.arange(0, horizon + 2, dtype=float)
    cum0 = cdf(params, grid)
    if cum0[horizon] < 0.999:
        raise ValueError(
            f"horizon {horizon} keeps only {cum0[horizon]:.6f} of the mass; extend it"
        )
    # partial first moments: integral of t*f(t) over (a, b] via the shape+1 CDF
    cum1 = params.mean() * gammainc(params.shape + 1.0, grid / (1.0 / params.rate))
    k = np.arange(1, horizon + 1, dtype=float)
    rising = cum1[1:-1] - cum1[:-2] - (k - 1.0) * (cum0[1:-1] - cum0[:-2])
    falling = (k + 1.0) * (cum0[2:] - cum0[1:-1]) - (cum1[2:] - cum1[1:-1])
    probs = np.maximum(rising + falling, 0.0)  # rounding can leave far-tail masses below 0
    return DiscreteDelay(probs=probs / probs.sum())


# Mass that discretization_horizon keeps, and the longest horizon it returns.
HORIZON_MASS = 0.9999
HORIZON_CAP = 500


def discretization_horizon(params: GammaParams) -> int:
    """Smallest whole-day horizon keeping ``HORIZON_MASS``; at most ``HORIZON_CAP`` days."""
    h = int(np.ceil(gammaincinv(params.shape, HORIZON_MASS) * (1.0 / params.rate)))
    return max(1, min(h, HORIZON_CAP))
