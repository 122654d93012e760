"""The multiple-potential-infector problem.

A contact-traced case reports exposure times e_1 <= ... <= e_k and a
symptom-onset time s; any of the exposures could have been the infecting
one.  Conditioning on the exposure times, the likelihood of the observed
onset is sum_i p*(1-p)**(i-1) * g(s - e_i), with p the per-contact infection
probability and g the incubation density.  The module generates synthetic
exposure histories and fits (p, incubation mean, incubation sd) by maximum
likelihood or by a four-moment system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import digamma, expit, gammaln, logit, zeta

from .distributions import GammaParams, gamma_from_moments


class ConvergenceError(RuntimeError):
    """No start of the likelihood fit converged."""


class MomentFitError(RuntimeError):
    """Moment system has no admissible solution.

    When the root exists but is inadmissible (e.g. a negative variance) it
    rides along in ``raw``, so replicate studies can aggregate it; ``raw`` is
    None when there is no root.
    """

    def __init__(self, message, raw=None):
        super().__init__(message)
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
        if not 0.0 < self.contact_rate < math.inf:
            raise ValueError(f"contact_rate must be positive and finite, got {self.contact_rate}")


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
    def person(self) -> np.ndarray:
        """Index of the person of every exposure."""
        return _read_only(np.repeat(np.arange(len(self)), self.counts))

    @cached_property
    def z(self) -> np.ndarray:
        """Rows (i - 1, log delta, delta) over all exposures, for the i-th
        exposure e_i of a person with onset s and delta = s - e_i.

        The score of each exposure's likelihood term is affine in its column
        (see :func:`conditional_log_likelihood`).

        Raises:
            ValueError: if an exposure does not precede its person's onset.
        """
        delta = np.repeat(self.symptom_times, self.counts) - self.exposures
        if np.any(delta <= 0):
            raise ValueError("every exposure must precede the symptom time")
        position = np.arange(len(self.exposures)) - np.repeat(self.starts, self.counts)
        return _read_only(np.vstack([position, np.log(delta), delta]))

    @cached_property
    def z_person(self) -> np.ndarray:
        """Person index of every entry of ``z`` (flattened), offset by len(self)
        per row, so one ``np.bincount`` sums each row per person."""
        return _read_only((self.person + len(self) * np.arange(3)[:, None]).ravel())

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
    incubation_family: str,
    seed: np.random.Generator,
) -> Histories:
    """Draw ``n`` synthetic exposure histories from the model with the generator ``seed``.

    Contacts arrive as a Poisson process at the model's contact rate, with
    time zero at the first contact; the infecting contact has a geometric
    index with success probability p; the incubation time is drawn from the
    chosen family (log-normal matches the Gamma's mean and variance); and
    exposures keep accumulating until symptoms appear.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if incubation_family == "gamma":
        T = seed.gamma(model.incubation.shape, 1.0 / model.incubation.rate, n)
    elif incubation_family == "lognormal":
        mean, sd = model.incubation.mean(), model.incubation.sd()
        s2 = math.log1p((sd / mean) ** 2)
        T = seed.lognormal(math.log(mean) - 0.5 * s2, math.sqrt(s2), n)
    else:
        raise ValueError(f"unknown incubation family {incubation_family!r}")

    mu = model.contact_rate
    I = seed.geometric(model.p, n)                   # index of the infecting contact
    W = seed.gamma((I - 1).astype(float), 1.0 / mu)  # its arrival time (0 when I=1)
    M = seed.poisson(mu * T)                         # contacts between infection and symptoms
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
    scaled = np.column_stack([W, T]).ravel()[run] * seed.random(len(run))
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
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood of onset times given exposure times, with its derivatives.

    Sums log( sum_i p*(1-p)**(i-1) * g(s - e_i) ) over histories.  Returns
    ``(ll, grad, hess)``: the gradient and Hessian of the log-likelihood in
    (logit p, log mean, log sd) of the incubation Gamma (k = mean**2/sd**2,
    rate lam = mean/sd**2).

    Exposure i's term l_i = log(p*(1-p)**(i-1)) + log g(delta_i) has the
    score c + J z_i, affine in z_i = (i-1, log delta_i, delta_i)
    (``Histories.z``), where with D = log lam - digamma(k)

        c = (1-p, 2k*D + k, -2k*D - 2k),
        J = [[-p, 0, 0], [0, 2k, -lam], [0, -2k, 2*lam]].

    With q_i the responsibility of exposure i (its share of its person's
    sum) and n persons, grad = n*c + J Z'q.  The Hessian is the sum over
    persons of the q-covariance of the scores, J C J' with C = Z'(qZ) - M'M
    and M each person's q-sum of z, plus the q-weighted second derivatives
    of l_i, which need only n, Z'q, digamma(k) and trigamma(k).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    z, person, starts = histories.z, histories.person, histories.starts
    n = len(histories)
    k, lam = g_params.shape, g_params.rate
    log_lam = math.log(lam)
    # l_i less log p + k*log(lam) - log(Gamma(k)), which every person has once
    if p < 1.0:
        terms = np.array([math.log1p(-p), k - 1.0, -lam]) @ z
    else:
        terms = np.where(z[0] == 0.0, (k - 1.0) * z[1] - lam * z[2], -np.inf)
    # Each person's terms relative to its first, which is finite, so every
    # sum is at least 1; relative to its largest where a later term exceeds
    # the first by so much that a sum could overflow.
    shift = terms[starts]
    relative = terms - shift[person]
    if relative.max() > 600.0:
        shift = np.maximum.reduceat(terms, starts)
        relative = terms - shift[person]
    scaled = np.exp(relative)
    sums = np.bincount(person, scaled, n)
    ll = float((shift + np.log(sums)).sum() + n * (math.log(p) + k * log_lam - gammaln(k)))

    q = scaled / sums[person]  # the q of each person sum to 1
    qz = z * q
    per_person = np.bincount(histories.z_person, qz.ravel(), 3 * n).reshape(3, n)
    zq = per_person.sum(axis=1)
    d = log_lam - digamma(k)
    jac = np.array([[-p, 0.0, 0.0], [0.0, 2.0 * k, -lam], [0.0, -2.0 * k, 2.0 * lam]])
    grad = n * np.array([1.0 - p, 2.0 * k * d + k, -2.0 * k * d - 2.0 * k]) + jac @ zq
    hess = jac @ (qz @ z.T - per_person @ per_person.T) @ jac.T
    # The q-weighted second derivatives of l_i, with dk = 2k*(dlog mean -
    # dlog sd) and dlam = lam*(dlog mean - 2*dlog sd).  The q-weighted sums
    # of d log g/dk and d log g/dlam are n*D + (Z'q)[1] and n*k/lam - (Z'q)[2].
    a = 4.0 * k * (n * d + zq[1])
    b = n * k - lam * zq[2]
    kn, trigamma_term = k * n, 4.0 * k * k * n * zeta(2.0, k)  # trigamma(k) = zeta(2, k)
    hess[0, 0] -= p * (1.0 - p) * (n + zq[0])
    hess[1, 1] += a + b + 3.0 * kn - trigamma_term
    hess[2, 2] += a + 4.0 * b + 4.0 * kn - trigamma_term
    hess[1, 2] += -a - 2.0 * b - 4.0 * kn + trigamma_term
    hess[2, 1] = hess[1, 2]
    return ll, grad, hess


@dataclass(frozen=True)
class MlFit:
    p: float
    mean: float
    sd: float
    log_likelihood: float
    n_evaluations: int


_LOGIT_CAP = 16.0  # p within 1e-7 of the boundary counts as boundary

# The search box in (logit p, log mean, log sd).
_LOWER = (-_LOGIT_CAP, math.log(1e-3), math.log(1e-3))
_UPPER = (_LOGIT_CAP, math.log(1e4), math.log(1e4))

# Newton stops when no free coordinate's gradient exceeds _GTOL per history,
# or where the free block is concave and a Newton step would gain at most
# _GAIN_TOL in log-likelihood.
_GTOL = 1e-8
_GAIN_TOL = 1e-10
_MAX_STEPS = 100
_MAX_STEP = 1.0  # longest step in any coordinate
_MAX_HALVINGS = 30

# Fewest histories either estimator accepts.
MIN_HISTORIES = 50


def ml_fit(histories: Histories) -> MlFit:
    """Maximum-likelihood fit of (p, incubation mean, incubation sd).

    Searches in (logit p, log mean, log sd) coordinates with a damped Newton
    iteration on the analytic gradient and Hessian of
    :func:`conditional_log_likelihood`, inside a box that caps |logit p|.
    On histories crowded with exposures the likelihood can have several
    local maxima, and no one start climbs to the highest on every input, so
    the fit climbs from each of three deterministic data-driven starts,
    keeps the highest end point, and counts as converged when any start
    converged.  A p estimate at the cap is reported as the boundary value 1.

    Raises:
        ConvergenceError: if no start converges.
    """
    if len(histories) < MIN_HISTORIES:
        raise ValueError(f"need at least {MIN_HISTORIES} histories, got {len(histories)}")

    lo = histories.last_to_symptom()
    hi = histories.first_to_symptom()
    m_lo, m_hi = float(np.mean(lo)), float(np.mean(hi))
    s_lo = float(np.std(lo, ddof=1))
    starts = [
        (logit(0.5), math.log(m_lo), math.log(max(s_lo, 0.5))),
        (logit(0.8), math.log(max(0.5 * (m_lo + m_hi), 1e-3)), math.log(max(s_lo, 0.5))),
        (logit(0.3), math.log(m_hi), math.log(max(0.5 * (m_lo + m_hi), 0.5))),
    ]
    best = None
    converged = False
    evaluations = 0
    for x0 in starts:
        x, ll, ok, used, message = _newton(histories, x0)
        evaluations += used
        converged = converged or ok
        if best is None or ll > best[1]:
            best = x, ll, message
    x, ll, message = best
    if not converged:
        raise ConvergenceError(f"no start converged: {message}")
    return MlFit(
        p=1.0 if x[0] >= _LOGIT_CAP - 1e-6 else float(expit(x[0])),
        mean=float(math.exp(x[1])),
        sd=float(math.exp(x[2])),
        log_likelihood=ll,
        n_evaluations=evaluations,
    )


def _newton(histories: Histories, x0) -> tuple[list, float, bool, int, str]:
    """Damped Newton ascent of the log-likelihood from ``x0`` inside the box.

    A coordinate at a face of the box whose gradient points out of it is
    held fixed.  The step on the others is Newton's where their Hessian is
    negative definite, and elsewhere Newton's on its absolute eigenvalues,
    so that it ascends; where projecting it onto the box would turn it
    downhill, the gradient scaled by a bound on those eigenvalues takes its
    place.  The step is shortened to at most ``_MAX_STEP`` in every
    coordinate, projected onto the box, and halved until it gains a
    fraction of the ascent the gradient predicts for it.  The 3-vectors are
    plain floats, which cost less than numpy calls at this size.

    Returns:
        (x, ll, converged, evaluations, message).
    """
    tol = _GTOL * len(histories)
    x = [float(v) for v in x0]
    ll, grad, hess = _evaluate(histories, x)
    evaluations = 1
    if grad is None:
        return x, ll, False, evaluations, "the likelihood is not finite at the start"
    for _ in range(_MAX_STEPS):
        free = [i for i in range(3) if not (
            (x[i] >= _UPPER[i] and grad[i] > 0.0) or (x[i] <= _LOWER[i] and grad[i] < 0.0))]
        g = [grad[i] for i in free]
        if max(map(abs, g), default=0.0) <= tol:
            return x, ll, True, evaluations, "projected gradient below tolerance"
        h = [[hess[i][j] for j in free] for i in free]
        newton = _solve_concave(h, g)
        if newton is None:
            w, v = np.linalg.eigh(h)
            along = v.T @ g
            newton = (v @ (along / np.maximum(np.abs(w), 1e-10 * np.abs(w).max()))).tolist()
        elif sum(gi * si for gi, si in zip(g, newton)) <= 2.0 * _GAIN_TOL:
            return x, ll, True, evaluations, "the Newton step gains less than tolerance"
        step = [0.0, 0.0, 0.0]
        for i, si in zip(free, newton):
            step[i] = si
        if _ascent(x, grad, step, 1.0)[1] <= 0.0:
            # every component of a projected gradient step ascends; the
            # largest absolute row sum of h bounds its eigenvalues
            scale = 1.0 / max(sum(map(abs, row)) for row in h)
            step = [grad[i] * scale if i in free else 0.0 for i in range(3)]
        longest = max(map(abs, step))
        if longest > _MAX_STEP:
            step = [s * (_MAX_STEP / longest) for s in step]
        # the slack lets a step near the optimum through when rounding in
        # ll hides its gain
        slack = 1e-13 * abs(ll)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial, ascent = _ascent(x, grad, step, t)
            if ascent > 0.0:
                new = _evaluate(histories, trial)
                evaluations += 1
                if new[0] >= ll + 1e-4 * ascent - slack:
                    break
            t *= 0.5
        else:
            return x, ll, False, evaluations, "the line search found no ascent"
        x, (ll, grad, hess) = trial, new
    return x, ll, False, evaluations, f"no convergence in {_MAX_STEPS} steps"


def _solve_concave(h: list, g: list) -> list | None:
    """The Newton step s with -h s = g for a negative definite 3 x 3 h; else None.

    Sylvester's criterion on -h, then its adjugate: a few dozen float
    operations, where a numpy solver call costs microseconds.
    """
    if len(g) != 3:
        return None
    (a, b, c), (_, d, e), (_, _, f) = h
    a, b, c, d, e, f = -a, -b, -c, -d, -e, -f
    minor = a * d - b * b
    adj00, adj01, adj02 = d * f - e * e, c * e - b * f, b * e - c * d
    det = a * adj00 + b * adj01 + c * adj02
    if not (a > 0.0 and minor > 0.0 and det > 0.0):
        return None
    adj11, adj12 = a * f - c * c, b * c - a * e
    g0, g1, g2 = g
    return [
        (adj00 * g0 + adj01 * g1 + adj02 * g2) / det,
        (adj01 * g0 + adj11 * g1 + adj12 * g2) / det,
        (adj02 * g0 + adj12 * g1 + minor * g2) / det,
    ]


def _ascent(x: list, grad: list, step: list, t: float) -> tuple[list, float]:
    """x + t*step projected onto the box, and the ascent grad predicts for it."""
    trial = [min(max(xi + t * si, lo), hi) for xi, si, lo, hi in zip(x, step, _LOWER, _UPPER)]
    return trial, sum(gi * (yi - xi) for gi, yi, xi in zip(grad, trial, x))


def _evaluate(histories: Histories, x: list) -> tuple:
    """(ll, grad, hess) at x = (logit p, log mean, log sd), as lists; (-inf, None, None) where not finite."""
    try:
        ll, grad, hess = conditional_log_likelihood(
            histories, float(expit(x[0])), gamma_from_moments(math.exp(x[1]), math.exp(x[2])))
    except (ValueError, OverflowError):
        return -math.inf, None, None
    # the sum is finite only if every term is
    if not math.isfinite(ll + grad.sum() + hess.sum()):
        return -math.inf, None, None
    return ll, grad.tolist(), hess.tolist()


@dataclass(frozen=True)
class MomentFit:
    p: float
    contact_rate: float
    mean: float
    variance: float

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
    """Root (p, mu, mean, variance) of the four moment equations, in closed form.

    ``moments`` is (EC, VarC, ES, VarS), as :func:`sample_moments` returns.
    With a = (1-p)/p, contacts at rate mu and an incubation time of the
    given mean and variance, the four equations are

        EC = 1/p + mu*mean,   VarC = a/p + mu*mean + mu**2 * variance,
        ES = a/mu + mean,     VarS = (a + a/p)/mu**2 + variance.

    The system is exactly identified, with the root

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
    fit = MomentFit(p=float(p), contact_rate=float(mu), mean=float(m), variance=float(v))
    if not (p <= 1.0 and v > 0.0):
        raise MomentFitError(
            "no admissible solution (needs p in (0, 1], a positive contact "
            "rate, and a positive incubation variance)",
            raw=fit,
        )
    return fit
