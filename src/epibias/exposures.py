"""The multiple-potential-infector problem.

A contact-traced case reports exposure times e_1 <= ... <= e_k and a
symptom-onset time s; any of the exposures could have been the infecting
one.  Conditioning on the exposure times, the likelihood of the observed
onset is sum_i p*(1-p)**(i-1) * g(s - e_i), with p the per-contact infection
probability and g the incubation density.  The module generates synthetic
exposure histories, fits (p, incubation mean, incubation sd) by maximum
likelihood or by a four-moment system, and quantifies the bias of the
keep-only-single-exposure shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np
from scipy import optimize
from scipy.special import digamma, expit, gammaln, logit

from .distributions import GammaParams, gamma_from_moments
from .rng import stream


class ConvergenceError(RuntimeError):
    """Optimizer failed; carries the best parameters seen so far."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class MomentFitError(RuntimeError):
    """Moment system has no admissible solution.

    When the root exists but is inadmissible (e.g. a negative variance) it
    rides along in ``raw``, with its equation residuals in ``residuals``, so
    replicate studies can aggregate it; both are None when there is no root.
    """

    def __init__(self, message, residuals=None, raw=None):
        super().__init__(message)
        self.residuals = residuals
        self.raw = raw


@dataclass(frozen=True)
class ExposureModel:
    """Generating process: Poisson(contact_rate) contacts, infection prob p."""

    p: float
    contact_rate: float
    incubation: GammaParams

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {self.p}")
        if self.contact_rate <= 0:
            raise ValueError(f"contact_rate must be positive, got {self.contact_rate}")


@dataclass(frozen=True)
class LogNormalParams:
    """Minimal log-normal (for incubation-misspecification experiments)."""

    mu: float
    sigma: float

    @classmethod
    def from_moments(cls, mean: float, sd: float) -> "LogNormalParams":
        if mean <= 0 or sd <= 0:
            raise ValueError("moments must be positive")
        s2 = math.log1p((sd / mean) ** 2)
        return cls(mu=math.log(mean) - 0.5 * s2, sigma=math.sqrt(s2))

    def mean(self) -> float:
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def sd(self) -> float:
        return math.sqrt((math.exp(self.sigma**2) - 1.0)) * self.mean()

    def sample(self, rng: np.random.Generator, size=None):
        return rng.lognormal(self.mu, self.sigma, size=size)


class Histories:
    """Columnar store of exposure histories (flat times + offsets).

    Person j's exposures are ``exposures[offsets[j]:offsets[j + 1]]``, in
    non-decreasing order, and its onset time is ``symptom_times[j]``.  The
    three arrays are read-only, so the parameter-free layout the likelihood
    needs is computed once, on first use, and stays valid.
    """

    def __init__(self, offsets: np.ndarray, exposures: np.ndarray, symptom_times: np.ndarray):
        self.offsets = _read_only(np.array(offsets, dtype=np.int64))
        self.exposures = _read_only(np.array(exposures, dtype=float))
        self.symptom_times = _read_only(np.array(symptom_times, dtype=float))
        if len(self.offsets) != len(self.symptom_times) + 1:
            raise ValueError("offsets must have one more entry than persons")

    def __len__(self) -> int:
        return len(self.symptom_times)

    @cached_property
    def counts(self) -> np.ndarray:
        """Number of exposures per person."""
        return _read_only(np.diff(self.offsets))

    @cached_property
    def starts(self) -> np.ndarray:
        """Index of each person's first exposure in ``exposures``."""
        return self.offsets[:-1]

    @cached_property
    def position(self) -> np.ndarray:
        """i - 1 for the i-th exposure of its person."""
        return _read_only(np.arange(len(self.exposures)) - np.repeat(self.starts, self.counts))

    @cached_property
    def delta(self) -> np.ndarray:
        """Exposure-to-onset time s - e_i of every exposure.

        Raises:
            ValueError: if an exposure does not precede its person's onset.
        """
        delta = np.repeat(self.symptom_times, self.counts) - self.exposures
        if np.any(delta <= 0):
            raise ValueError("every exposure must precede the symptom time")
        return _read_only(delta)

    @cached_property
    def log_delta(self) -> np.ndarray:
        return _read_only(np.log(self.delta))

    def first_to_symptom(self) -> np.ndarray:
        """Time from first exposure to symptoms for every person."""
        return self.symptom_times - self.exposures[self.starts]

    def last_to_symptom(self) -> np.ndarray:
        return self.symptom_times - self.exposures[self.offsets[1:] - 1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def generate_histories(
    model: ExposureModel,
    n: int,
    incubation_family: str = "gamma",
    seed: Union[int, np.random.Generator] = 0,
) -> Histories:
    """Draw ``n`` synthetic exposure histories from the model.

    Contacts arrive as a Poisson process at the model's contact rate, with
    time zero at the first contact; the infecting contact has a geometric
    index with success probability p; the incubation time is drawn from the
    chosen family (log-normal matches the Gamma's mean and variance); and
    exposures keep accumulating until symptoms appear.
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
    first = offsets[:-1]
    flat = np.empty(int(offsets[-1]))
    flat[first + I - 1] = W  # the infecting contact
    flat[first] = 0.0        # the first contact

    # The other contacts come in two runs per person, drawn in this order:
    # the I - 2 arrivals before the infecting one, which given its arrival
    # time W are ordered uniforms on (0, W); then the M arrivals during
    # incubation, ordered uniforms on (W, W + T).  One draw covers every
    # run, and one sort orders each run within itself.
    run_sizes = np.column_stack([np.maximum(I - 2, 0), M]).ravel()
    run = np.repeat(np.arange(2 * n), run_sizes)  # the run of each draw
    scaled = np.column_stack([W, T]).ravel()[run] * rng.random(len(run))
    scaled = scaled[np.lexsort((scaled, run))]
    shift = np.column_stack([np.zeros(n), W]).ravel()[run]
    # a run's first slot in flat, less its first index among the draws
    to_flat = np.column_stack([first + 1, first + I]).ravel() - (np.cumsum(run_sizes) - run_sizes)
    flat[to_flat[run] + np.arange(len(run))] = shift + scaled
    return Histories(offsets, flat, sympt)


def conditional_log_likelihood(
    histories: Histories,
    p: float,
    g_params: GammaParams,
    gradient: bool = False,
) -> float | tuple[float, np.ndarray]:
    """Log-likelihood of onset times given exposure times.

    Sums log( sum_i p*(1-p)**(i-1) * g(s - e_i) ) over histories.

    With ``gradient`` the return value is ``(ll, grad)``, grad being the
    gradient of the log-likelihood in (logit p, log mean, log sd) of
    the incubation Gamma (k = mean**2/sd**2, rate lam = mean/sd**2).  With
    q_i the responsibility of exposure i (its share of its person's sum):
    d log w_i/d logit p = (1-p) - (i-1)*p; and with A = log lam - digamma(k)
    + log delta, B = k/lam - delta, d log g/d log mean = 2k*A + lam*B and
    d log g/d log sd = -2k*A - 2*lam*B; each summed with weights q_i.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    counts, starts, pos = histories.counts, histories.starts, histories.position
    delta, log_delta = histories.delta, histories.log_delta
    k, lam = g_params.shape, g_params.rate
    log_lam = math.log(lam)
    log_g = (k - 1.0) * log_delta - lam * delta + (k * log_lam - gammaln(k))
    if p < 1.0:
        weight = math.log(p) + pos * math.log1p(-p)
    else:
        weight = np.where(pos == 0, 0.0, -np.inf)
    terms = weight + log_g

    seg_max = np.maximum.reduceat(terms, starts)
    safe_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    scaled = np.exp(terms - np.repeat(safe_max, counts))
    sums = np.add.reduceat(scaled, starts)
    ll = np.where(np.isfinite(seg_max), safe_max + np.log(sums), -np.inf)
    if not gradient:
        return float(ll.sum())

    q = scaled / np.repeat(sums, counts)
    n = len(histories)  # the q of each person sum to 1
    q_A = n * (log_lam - digamma(k)) + q @ log_delta
    q_B = n * k / lam - q @ delta
    grad = np.array([
        n * (1.0 - p) - p * (q @ pos),
        2.0 * k * q_A + lam * q_B,
        -2.0 * k * q_A - 2.0 * lam * q_B,
    ])
    return float(ll.sum()), grad


@dataclass(frozen=True)
class MlFit:
    p: float
    mean: float
    sd: float
    log_likelihood: float
    converged: bool
    n_evaluations: int
    message: str


_LOGIT_CAP = 16.0  # p within 1e-7 of the boundary counts as boundary

# Fewest histories either estimator accepts.
MIN_HISTORIES = 50


def ml_fit(histories: Histories) -> MlFit:
    """Maximum-likelihood fit of (p, incubation mean, incubation sd).

    Searches in (logit p, log mean, log sd) coordinates with a bounded
    quasi-Newton optimizer on the analytic gradient of
    :func:`conditional_log_likelihood`, from three deterministic data-driven
    starts, and keeps the best optimum.  A p estimate at the upper search
    bound is reported as the boundary value 1.

    Raises:
        ConvergenceError: if no start converges; carries the best fit found.
    """
    if len(histories) < MIN_HISTORIES:
        raise ValueError(f"need at least {MIN_HISTORIES} histories, got {len(histories)}")

    def objective(x):
        p = expit(x[0])
        try:
            ll, grad = conditional_log_likelihood(
                histories, p, gamma_from_moments(math.exp(x[1]), math.exp(x[2])),
                gradient=True,
            )
        except (ValueError, OverflowError):
            return 1e12, np.zeros(3)
        if not (np.isfinite(ll) and np.all(np.isfinite(grad))):
            return 1e12, np.zeros(3)
        return -ll, -grad

    lo = histories.last_to_symptom()
    hi = histories.first_to_symptom()
    m_lo, m_hi = float(np.mean(lo)), float(np.mean(hi))
    s_lo = float(np.std(lo, ddof=1))
    starts = [
        (logit(0.5), math.log(m_lo), math.log(max(s_lo, 0.5))),
        (logit(0.8), math.log(max(0.5 * (m_lo + m_hi), 1e-3)), math.log(max(s_lo, 0.5))),
        (logit(0.3), math.log(m_hi), math.log(max(0.5 * (m_lo + m_hi), 0.5))),
    ]
    bounds = [(-_LOGIT_CAP, _LOGIT_CAP), (math.log(1e-3), math.log(1e4)),
              (math.log(1e-3), math.log(1e4))]
    best = None
    any_converged = False
    evaluations = 0
    message = ""
    for x0 in starts:
        res = optimize.minimize(
            objective, x0, method="L-BFGS-B", jac=True, bounds=bounds,
            options={"maxiter": 500},
        )
        evaluations += res.nfev
        if best is None or res.fun < best.fun:
            best = res
            message = str(res.message)
        any_converged = any_converged or res.success
    p_hat = float(expit(best.x[0]))
    if best.x[0] >= _LOGIT_CAP - 1e-6:
        p_hat = 1.0
    fit = MlFit(
        p=p_hat,
        mean=float(math.exp(best.x[1])),
        sd=float(math.exp(best.x[2])),
        log_likelihood=float(-best.fun),
        converged=any_converged,
        n_evaluations=evaluations,
        message=message,
    )
    if not any_converged:
        raise ConvergenceError(f"no start converged: {message}", best=fit)
    return fit


@dataclass(frozen=True)
class MomentFit:
    p: float
    contact_rate: float
    mean: float
    variance: float
    residual: float

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


def sample_moments(histories: Histories) -> tuple[float, float, float, float]:
    """(E(C), Var(C), E(S), Var(S)): contact counts and first-contact-to-symptoms."""
    C = histories.counts.astype(float)
    S = histories.first_to_symptom()
    return (
        float(C.mean()), float(C.var(ddof=1)),
        float(S.mean()), float(S.var(ddof=1)),
    )


def moment_system(params, moments) -> np.ndarray:
    """Residuals of the four moment equations at (p, mu, mean, variance)."""
    p, mu, m, v = params
    EC, VarC, ES, VarS = moments
    a = (1.0 - p) / p
    return np.array([
        1.0 / p + mu * m - EC,
        a / p + mu * m + mu * mu * v - VarC,
        a / mu + m - ES,
        (a + a / p) / mu**2 + v - VarS,
    ])


def moment_fit(histories: Histories) -> MomentFit:
    """Distribution-free moment estimator of (p, contact rate, E(T), Var(T)).

    :func:`invert_moment_system` (whose MomentFitError it raises) at the
    sample mean/variance of the exposure counts and first-contact-to-symptom
    times.
    """
    if len(histories) < MIN_HISTORIES:
        raise ValueError(f"need at least {MIN_HISTORIES} histories, got {len(histories)}")
    return invert_moment_system(sample_moments(histories))


def invert_moment_system(moments) -> MomentFit:
    """Root (p, mu, mean, variance) of :func:`moment_system`, in closed form.

    The system is exactly identified.  With a = (1-p)/p:

        mu = (EC - 1)/ES,  a = (mu**2 * VarS - VarC + EC - 1)/2,
        p = 1/(1 + a),  mean = ES - a/mu,  variance = VarS - a*(a + 2)/mu**2.

    Raises:
        MomentFitError: without ``raw`` when the system has no root with
            p > 0 and mu > 0 (mu <= 0 or 1 + a <= 0); with the root in
            ``raw`` when it is inadmissible, i.e. p > 1 or a variance
            <= 0, which the variance equation can demand in small samples.
    """
    EC, VarC, ES, VarS = moments
    mu = (EC - 1.0) / ES
    a = (mu * mu * VarS - VarC + EC - 1.0) / 2.0
    if not (mu > 0.0 and 1.0 + a > 0.0):
        raise MomentFitError(
            "the moment equations have no root with p > 0 and a positive "
            f"contact rate (mu = {mu:.4g}, 1 + a = {1.0 + a:.4g})"
        )
    p, m, v = 1.0 / (1.0 + a), ES - a / mu, VarS - a * (a + 2.0) / mu**2
    residuals = moment_system((p, mu, m, v), moments)
    fit = MomentFit(
        p=float(p), contact_rate=float(mu), mean=float(m), variance=float(v),
        residual=float(np.max(np.abs(residuals))),
    )
    if not (p <= 1.0 and v > 0.0):
        raise MomentFitError(
            "no admissible solution (needs p in (0, 1], a positive contact "
            "rate, and a positive incubation variance)",
            residuals=residuals,
            raw=fit,
        )
    return fit


def single_exposure_shift(
    model: ExposureModel, gen: GammaParams
) -> tuple[float, GammaParams]:
    """Mean incubation among single-exposure cases, and the distorted
    generation-time distribution it induces.

    Restricting to cases with exactly one possible infector conditions on no
    further contact arriving before symptoms, which tilts the incubation
    density by exp(-mu*t); for a Gamma incubation the conditional mean is
    shape/(rate + mu) < E(T).  Estimates built from such cases shift the
    generation-time mean down by E(T) minus that conditional mean, while the
    standard deviation is taken as unchanged.
    """
    inc = model.incubation
    conditional_mean = inc.shape / (inc.rate + model.contact_rate)
    shift = inc.mean() - conditional_mean
    new_mean = gen.mean() - shift
    if new_mean <= 0:
        raise ValueError("shift exceeds the generation-time mean")
    return float(conditional_mean), gamma_from_moments(new_mean, gen.sd())

