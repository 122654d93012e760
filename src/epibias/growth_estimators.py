"""Data-driven growth-rate and reproduction-number estimators.

Five estimators over a daily notification series: log-cumulative regression,
log-daily regression, mean log-ratio of successive cumulatives, a
branching-process ratio estimator, and the Poisson maximum-likelihood
estimator of R0 under the discretized renewal model.  Forward prediction
projects a fitted r or R0 to the cumulative count a fixed horizon ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .distributions import DiscreteDelay


@dataclass(frozen=True)
class CaseSeries:
    """Daily counts n(1..K), day 1 being the day of the first notification.

    Counts are whole numbers for observed data; fractional values are
    accepted so expected-value series (renewal-model output) can be fed
    back through the estimators.
    """

    daily: np.ndarray

    def __post_init__(self):
        daily = np.asarray(self.daily, dtype=float)
        if daily.ndim != 1 or len(daily) == 0:
            raise ValueError("daily counts must be a non-empty 1-d sequence")
        if np.any(~np.isfinite(daily)) or np.any(daily < 0):
            raise ValueError("daily counts must be finite and non-negative")
        daily.flags.writeable = False
        object.__setattr__(self, "daily", daily)

    def __len__(self) -> int:
        return len(self.daily)

    @cached_property
    def cumulative(self) -> np.ndarray:
        cum = np.cumsum(self.daily)
        cum.flags.writeable = False
        return cum


@dataclass(frozen=True)
class PredictionScore:
    """Forecast against realized value; ratio > 1 means overprediction."""

    predicted: float
    actual: float

    def __post_init__(self):
        if self.actual <= 0:
            raise ValueError("actual count must be positive")

    @property
    def ratio(self) -> float:
        return self.predicted / self.actual


def _window_slice(series: CaseSeries, window: int) -> slice:
    if window < 2:
        raise ValueError("window must cover at least two days")
    if window > len(series):
        raise ValueError(f"window {window} exceeds series length {len(series)}")
    return slice(len(series) - window, len(series))


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def est_a_log_cumulative(series: CaseSeries, window: int = 42) -> float:
    """Slope of log cumulative notifications over the last ``window`` days."""
    sl = _window_slice(series, window)
    cum = series.cumulative[sl]
    if np.any(cum <= 0):
        raise ValueError("cumulative counts in the window must be positive")
    days = np.arange(sl.start + 1, sl.stop + 1, dtype=float)
    return _ols_slope(days, np.log(cum))


def est_b_log_daily(series: CaseSeries, window: int = 42) -> float:
    """Slope of log daily notifications over the window; zero-count days dropped."""
    sl = _window_slice(series, window)
    daily = series.daily[sl].astype(float)
    days = np.arange(sl.start + 1, sl.stop + 1, dtype=float)
    keep = daily > 0
    if keep.sum() < 2:
        raise ValueError("window has fewer than two non-zero days")
    return _ols_slope(days[keep], np.log(daily[keep]))


def est_c_mean_ratio(series: CaseSeries, window: int = 42, log_ratio: bool = True) -> float:
    """Mean daily growth from ratios of successive cumulative counts.

    Averages log(c(t)/c(t-1)) over the last ``window`` steps (the default),
    which is exact on geometric series; ``log_ratio=False`` instead averages
    the plain ratios and returns mean(ratio) - 1.
    """
    cum = series.cumulative[_window_slice(series, window + 1)].astype(float)
    if np.any(cum <= 0):
        raise ValueError("cumulative counts in the window must be positive")
    ratios = cum[1:] / cum[:-1]
    if log_ratio:
        return float(np.mean(np.log(ratios)))
    return float(np.mean(ratios) - 1.0)


def est_d_branching(series: CaseSeries, window: int = 42) -> float:
    """Log of the lag-one total ratio within the window.

    The daily multiplication factor exp(r) is estimated by
    (n(2)+...+n(K)) / (n(1)+...+n(K-1)) with day 1 the window's first day.
    """
    sl = _window_slice(series, window)
    daily = series.daily[sl].astype(float)
    num = daily[1:].sum()
    den = daily[:-1].sum()
    if num <= 0 or den <= 0:
        raise ValueError("window endpoints leave an empty numerator or denominator")
    return float(np.log(num / den))


def renewal_pressure(daily: np.ndarray, weights: DiscreteDelay) -> np.ndarray:
    """Lambda(t) = sum_s p(s) * I(t-s) for t = 2..K+1, given ``daily`` = I(1..K).

    Lags reaching before day 1 contribute nothing (no renormalization).
    """
    return np.convolve(daily, weights.probs)[: len(daily)]


def est_e_renewal_R0(series: CaseSeries, weights: DiscreteDelay) -> float:
    """Poisson MLE of a constant R0 under the discretized renewal model.

    With expected incidence R0 * Lambda(t), Lambda(t) = sum_s p(s)*I(t-s),
    the estimator is sum I(t) / sum Lambda(t) over days with Lambda(t) > 0.
    """
    lam = renewal_pressure(series.daily, weights)[:-1]
    obs = series.daily[1:]
    valid = lam > 0
    if not valid.any():
        raise ValueError("renewal weights give zero expectation on every day")
    return float(obs[valid].sum() / lam[valid].sum())


def predict_forward(
    series: CaseSeries,
    method: str,
    estimate: float,
    horizon: int = 42,
    weights: Optional[DiscreteDelay] = None,
) -> float:
    """Predicted cumulative count ``horizon`` days past the series' end.

    ``estimate`` is the fitted value being projected: the growth rate r for
    methods a-d, which multiply the last cumulative count by
    exp(r * horizon), and R0 for the renewal method (e), which iterates the
    model forward on expected values with ``weights``.  Rounding to whole
    cases is left to the caller.
    """
    cum_last = float(series.cumulative[-1])
    if method in ("a", "b", "c", "d"):
        return cum_last * float(np.exp(estimate * horizon))
    if method == "e":
        if weights is None:
            raise ValueError("method 'e' needs renewal weights")
        extended = np.concatenate([series.daily, np.zeros(horizon)])
        rev = weights.probs[::-1]
        L = len(rev)
        for t in range(len(series), len(extended)):
            # Only the last L days reach day t.  Correlating them with the
            # reversed kernel is the one dot product renewal_pressure(extended[:t])[-1]
            # takes, in the same operand order, so the result matches it bit for
            # bit.  np.convolve swaps its operands when the window is the shorter.
            if t >= L:
                extended[t] = estimate * np.correlate(extended[t - L:t], rev, "valid")[0]
            else:
                extended[t] = estimate * np.convolve(extended[:t], weights.probs, "valid")[0]
        return cum_last + float(extended[len(series):].sum())
    raise ValueError(f"unknown method {method!r}")
