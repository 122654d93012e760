"""Independent numerical oracles used by the tests.

These deliberately avoid the library's closed forms: Laplace transforms and
delayed-observation fractions are computed by adaptive quadrature, moment
inversions analytically, renewal sums one day at a time, exposure histories
one person at a time, and expectations by brute-force Monte Carlo, so a bug
in a formula cannot hide behind itself.  The exposure-history records and
their builders are test fixtures: the library itself is columnar only.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
from scipy import integrate, stats

from epibias.distributions import DiscreteDelay, GammaParams
from epibias.exposures import ExposureModel, Histories, LogNormalParams
from epibias.rng import stream


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


@dataclass(frozen=True)
class ExposureHistory:
    """One traced case: exposure times and the symptom-onset time."""

    exposures: tuple[float, ...]
    symptom_time: float

    def __post_init__(self):
        if len(self.exposures) < 1:
            raise ValueError("a history needs at least one exposure")
        e = np.asarray(self.exposures, dtype=float)
        if np.any(np.diff(e) < 0):
            raise ValueError("exposure times must be non-decreasing")
        if not self.symptom_time > e[-1]:
            raise ValueError("symptoms must follow the last exposure")


def histories_from_records(records: Iterable[ExposureHistory]) -> Histories:
    """Columnar :class:`Histories` from per-person records."""
    records = list(records)
    counts = np.array([len(r.exposures) for r in records], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    flat = np.concatenate([np.asarray(r.exposures, dtype=float) for r in records])
    sympt = np.array([r.symptom_time for r in records])
    return Histories(offsets, flat, sympt)


def history(histories: Histories, i: int) -> ExposureHistory:
    """Person i of a columnar store as a record."""
    lo, hi = histories.offsets[i], histories.offsets[i + 1]
    return ExposureHistory(
        exposures=tuple(histories.exposures[lo:hi]),
        symptom_time=float(histories.symptom_times[i]),
    )


def calibrate_contact_rate(p: float, single_fraction: float, incubation: GammaParams) -> float:
    """Contact rate mu solving p * E[exp(-mu*T)] = P(single exposure).

    For T ~ Gamma(k, lambda) the left side is p * (lambda/(lambda + mu))**k,
    which decreases from p to 0 as mu grows, so the unique root
    mu = lambda * ((p/single_fraction)**(1/k) - 1) exists whenever
    0 < single_fraction < p.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if not 0.0 < single_fraction < p:
        raise ValueError(
            f"single-exposure fraction must lie in (0, p={p}), got {single_fraction}"
        )
    return incubation.rate * math.expm1(math.log(p / single_fraction) / incubation.shape)


def loop_generate_histories(
    model: ExposureModel,
    n: int,
    incubation_family: str = "gamma",
    seed: Union[int, np.random.Generator] = 0,
) -> Histories:
    """``generate_histories`` one person at a time, with one draw per run.

    Per person, the I - 2 arrivals before the infecting contact are drawn
    first, then the M contacts during incubation; the library draws them
    all at once in the same order and must give the same histories.
    """
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed, 0)
    if n < 1:
        raise ValueError("n must be >= 1")
    if incubation_family == "gamma":
        T = rng.gamma(model.incubation.shape, 1.0 / model.incubation.rate, n)
    elif incubation_family == "lognormal":
        ln = LogNormalParams.from_moments(model.incubation.mean(), model.incubation.sd())
        T = ln.sample(rng, n)
    else:
        raise ValueError(f"unknown incubation family {incubation_family!r}")

    mu = model.contact_rate
    I = rng.geometric(model.p, n)                   # index of the infecting contact
    W = rng.gamma((I - 1).astype(float), 1.0 / mu)  # its arrival time (0 when I=1)
    M = rng.poisson(mu * T)                         # contacts between infection and symptoms
    sympt = W + T

    counts = I + M
    offsets = np.concatenate([[0], np.cumsum(counts)])
    flat = np.empty(int(offsets[-1]))
    for i in range(n):
        seg = flat[offsets[i]:offsets[i + 1]]
        k_pre = I[i]
        seg[0] = 0.0
        if k_pre >= 2:
            if k_pre > 2:
                # Given the infecting contact's arrival time, the earlier
                # arrivals are ordered uniforms on (0, W).
                seg[1:k_pre - 1] = W[i] * np.sort(rng.random(k_pre - 2))
            seg[k_pre - 1] = W[i]
        if M[i]:
            seg[k_pre:] = W[i] + np.sort(T[i] * rng.random(M[i]))
    return Histories(offsets, flat, sympt)
