"""Independent numerical oracles used by the tests.

These deliberately avoid the library's closed forms: Laplace transforms and
delayed-observation fractions are computed by adaptive quadrature, moment
inversions analytically, renewal sums one day at a time, and expectations
by brute-force Monte Carlo, so a bug in a formula cannot hide behind itself.
"""

import math

import numpy as np
from scipy import integrate, stats

from epibias.distributions import DiscreteDelay


def quad_laplace(shape, rate, r, tol=1e-12):
    """E[exp(-r*T)] for T ~ Gamma(shape, rate) by adaptive quadrature.

    The integrand decays like exp(-(rate+r)*t), so the cutoff is taken from
    the correspondingly tilted distribution's far quantile; the truncated
    mass is a 1e-14 fraction of the integral.
    """
    upper = stats.gamma.ppf(1.0 - 1e-14, a=shape, scale=1.0 / (rate + r))
    val, _ = integrate.quad(
        lambda t: np.exp(-r * t) * stats.gamma.pdf(t, a=shape, scale=1.0 / rate),
        0.0, upper, epsabs=tol, epsrel=tol, limit=300,
    )
    return val


def quad_tilted_mean(shape, rate, mu, tol=1e-10):
    """E[T exp(-mu*T)] / E[exp(-mu*T)] by quadrature."""
    upper = stats.gamma.ppf(1.0 - 1e-13, a=shape, scale=1.0 / rate)
    num, _ = integrate.quad(
        lambda t: t * np.exp(-mu * t) * stats.gamma.pdf(t, a=shape, scale=1.0 / rate),
        0.0, upper, epsabs=tol, epsrel=tol, limit=300,
    )
    den, _ = integrate.quad(
        lambda t: np.exp(-mu * t) * stats.gamma.pdf(t, a=shape, scale=1.0 / rate),
        0.0, upper, epsabs=tol, epsrel=tol, limit=300,
    )
    return num / den


def invert_exposure_moments(EC, VarC, ES, VarS):
    """Analytic inversion of the four exposure-process moment equations.

    With a = (1-p)/p the system reduces to mu = (EC - 1)/ES,
    a = (mu^2*VarS - VarC + EC - 1)/2, then m and v follow linearly.
    """
    mu = (EC - 1.0) / ES
    a = (mu * mu * VarS - VarC + EC - 1.0) / 2.0
    p = 1.0 / (1.0 + a)
    m = ES - a / mu
    v = VarS - a * (a + 2.0) / mu**2
    return p, mu, m, v


def gamma_pdf_fn(shape, rate):
    """Fast scalar Gamma density for quadrature-heavy solver tests."""
    log_norm = shape * math.log(rate) - math.lgamma(shape)

    def f(t):
        if t <= 0.0:
            return 0.0
        return math.exp(log_norm + (shape - 1.0) * math.log(t) - rate * t)

    return f


def quad_pi_finite(shape, rate, T, r):
    """Observed fraction of Gamma-delayed outcomes at horizon T, by quadrature.

    A case notified at a time drawn with density proportional to exp(r*t)
    on [0, T] has its outcome, a delay u later, by T with probability
    expm1(r*(T-u))/expm1(r*T), or (T-u)/T at r = 0; the fraction is that
    weight integrated against the delay density.  Only a relative tolerance
    is set, so tiny fractions are resolved as finely as large ones.
    """
    f = gamma_pdf_fn(shape, rate)
    den = math.expm1(r * T) if r != 0.0 else T

    def integrand(u):
        return f(u) * (math.expm1(r * (T - u)) if r != 0.0 else T - u) / den

    val, _ = integrate.quad(integrand, 0.0, T, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def renewal_expected(series_daily: np.ndarray, weights: DiscreteDelay, t: int) -> float:
    """Expected count on day t (1-based) given days 1..t-1 under the renewal model.

    Sum over lags s of p(s) * I(t-s); lags reaching before day 1 contribute
    nothing (their mass is simply absent, no renormalization).
    """
    s_max = min(weights.horizon, t - 1)
    if s_max < 1:
        return 0.0
    lags = np.arange(1, s_max + 1)
    return float(weights.probs[:s_max] @ series_daily[t - 1 - lags])


def mc_incubation_discount(rng, r, lat_shape, lat_rate, u_lo, u_hi, n=1_000_000):
    """Monte-Carlo E[exp(-r * u * latent)] for the notified/infected ratio."""
    ell = rng.gamma(lat_shape, 1.0 / lat_rate, n)
    u = rng.uniform(u_lo, u_hi, n)
    return float(np.mean(np.exp(-r * u * ell)))
