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

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np
from scipy import optimize
from scipy.special import expit, logit

from .distributions import GammaParams, gamma_from_moments, log_pdf
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

    def expected_contacts(self) -> float:
        """E(C) = 1/p + contact_rate * E(incubation)."""
        return 1.0 / self.p + self.contact_rate * self.incubation.mean()


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

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        pos = t > 0
        z = (np.log(t[pos]) - self.mu) / self.sigma
        out[pos] = np.exp(-0.5 * z * z) / (t[pos] * self.sigma * math.sqrt(2 * math.pi))
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.lognormal(self.mu, self.sigma, size=size)


class Histories:
    """Columnar store of exposure histories (flat times + offsets)."""

    def __init__(self, offsets: np.ndarray, exposures: np.ndarray, symptom_times: np.ndarray):
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.exposures = np.asarray(exposures, dtype=float)
        self.symptom_times = np.asarray(symptom_times, dtype=float)
        if len(self.offsets) != len(self.symptom_times) + 1:
            raise ValueError("offsets must have one more entry than persons")

    def __len__(self) -> int:
        return len(self.symptom_times)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def history(self, i: int) -> ExposureHistory:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return ExposureHistory(
            exposures=tuple(self.exposures[lo:hi]),
            symptom_time=float(self.symptom_times[i]),
        )

    def first_to_symptom(self) -> np.ndarray:
        """Time from first exposure to symptoms for every person."""
        return self.symptom_times - self.exposures[self.offsets[:-1]]

    def last_to_symptom(self) -> np.ndarray:
        return self.symptom_times - self.exposures[self.offsets[1:] - 1]

    @classmethod
    def from_records(cls, records: Iterable[ExposureHistory]) -> "Histories":
        records = list(records)
        counts = np.array([len(r.exposures) for r in records], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        flat = np.concatenate([np.asarray(r.exposures, dtype=float) for r in records])
        sympt = np.array([r.symptom_time for r in records])
        return cls(offsets, flat, sympt)


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


def conditional_log_likelihood(
    histories: Histories,
    p: float,
    g_params: GammaParams,
    normalized: bool = False,
) -> float:
    """Log-likelihood of onset times given exposure times.

    Sums log( sum_i p*(1-p)**(i-1) * g(s - e_i) ) over histories.  With
    ``normalized`` the inner sum is divided by 1 - (1-p)**k, conditioning on
    the infection having come from one of the k listed exposures (useful for
    sensitivity runs; the default matches the plain likelihood).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    counts = histories.counts
    starts = histories.offsets[:-1]
    delta = np.repeat(histories.symptom_times, counts) - histories.exposures
    if np.any(delta <= 0):
        raise ValueError("every exposure must precede the symptom time")
    pos = np.arange(len(delta)) - np.repeat(starts, counts)  # i - 1 per person
    if p < 1.0:
        weight = math.log(p) + pos * math.log1p(-p)
    else:
        weight = np.where(pos == 0, 0.0, -np.inf)
    terms = weight + log_pdf(g_params, delta)

    seg_max = np.maximum.reduceat(terms, starts)
    safe_max = np.where(np.isfinite(seg_max), seg_max, 0.0)
    sums = np.add.reduceat(np.exp(terms - np.repeat(safe_max, counts)), starts)
    ll = np.where(np.isfinite(seg_max), safe_max + np.log(sums), -np.inf)
    if normalized:
        if p < 1.0:
            ll = ll - np.log1p(-np.exp(counts * math.log1p(-p)))
        # p == 1: the normalizer is 1 for every k.
    return float(ll.sum())


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


def ml_fit(histories: Histories, min_histories: int = 50) -> MlFit:
    """Maximum-likelihood fit of (p, incubation mean, incubation sd).

    Searches in (logit p, log mean, log sd) coordinates with a bounded
    quasi-Newton optimizer from three deterministic data-driven starts, and
    keeps the best optimum.  A p estimate at the upper search bound is
    reported as the boundary value 1.

    Raises:
        ConvergenceError: if no start converges; carries the best fit found.
    """
    if len(histories) < min_histories:
        raise ValueError(f"need at least {min_histories} histories, got {len(histories)}")

    def objective(x):
        p = expit(x[0])
        try:
            ll = conditional_log_likelihood(
                histories, p, gamma_from_moments(math.exp(x[1]), math.exp(x[2]))
            )
        except (ValueError, OverflowError):
            return 1e12
        return -ll if np.isfinite(ll) else 1e12

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
            objective, x0, method="L-BFGS-B", bounds=bounds,
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


def moment_fit(histories: Histories, min_histories: int = 50) -> MomentFit:
    """Distribution-free moment estimator of (p, contact rate, E(T), Var(T)).

    :func:`invert_moment_system` (whose MomentFitError it raises) at the
    sample mean/variance of the exposure counts and first-contact-to-symptom
    times.
    """
    if len(histories) < min_histories:
        raise ValueError(f"need at least {min_histories} histories, got {len(histories)}")
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


def earliest_exposure_fit(histories: Histories) -> GammaParams:
    """Reference heuristic: pretend the earliest exposure infected (biased long)."""
    d = histories.first_to_symptom()
    return gamma_from_moments(float(d.mean()), float(d.std(ddof=1)))


def latest_exposure_fit(histories: Histories) -> GammaParams:
    """Reference heuristic: pretend the latest exposure infected (biased short)."""
    d = histories.last_to_symptom()
    return gamma_from_moments(float(d.mean()), float(d.std(ddof=1)))


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


def write_histories(histories: Histories, summary_path, long_path) -> None:
    """Two-file CSV export: per-person summary plus long-format exposures."""
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["person_id", "k", "symptom_time"])
        counts = histories.counts
        for i in range(len(histories)):
            w.writerow([i, int(counts[i]), f"{histories.symptom_times[i]:.6f}"])
    with open(long_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["person_id", "exposure_time"])
        counts = histories.counts
        for i in range(len(histories)):
            lo, hi = histories.offsets[i], histories.offsets[i + 1]
            for e in histories.exposures[lo:hi]:
                w.writerow([i, f"{e:.6f}"])


def read_histories(summary_path, long_path) -> Histories:
    with open(summary_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    sympt = np.array([float(r["symptom_time"]) for r in rows])
    counts = np.array([int(r["k"]) for r in rows], dtype=np.int64)
    exposures = [[] for _ in rows]
    with open(long_path, newline="") as fh:
        for r in csv.DictReader(fh):
            exposures[int(r["person_id"])].append(float(r["exposure_time"]))
    lens = np.array([len(e) for e in exposures], dtype=np.int64)
    if not np.array_equal(lens, counts):
        raise ValueError("exposure counts disagree between the two files")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return Histories(offsets, np.concatenate([np.array(e) for e in exposures]), sympt)
