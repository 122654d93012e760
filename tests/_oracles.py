"""Independent numerical oracles used by the tests.

These deliberately avoid the library's closed forms: Laplace transforms and
delayed-observation fractions are computed by adaptive quadrature, growth
rates by quadrature and a bracketing root-finder, moment inversions
analytically, renewal sums one day at a time, exposure histories
one person at a time, likelihood fits by scipy's L-BFGS-B from three
starts, outbreaks one infection at a time from an event queue, per-trace
counts by masking every person, and expectations by brute-force Monte
Carlo, so a bug in a formula cannot hide behind itself.  The
exposure-history records and their builders, the plain interval binning
``discretize``, and ``single_exposure_shift`` (the closed form behind the
paper's single-exposure generation-time mean, which no command computes)
are test fixtures: the library itself is columnar only, bins delays with
``discretize_centered``, and reads that mean from the config.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy import integrate, optimize, stats
from scipy.special import expit, logit

from epibias.distributions import DiscreteDelay, GammaParams, cdf, gamma_from_moments
from epibias.exposures import ExposureModel, Histories, MlFit, conditional_log_likelihood
from epibias import outbreak_sim
from epibias.outbreak_sim import OutbreakTrace, Scenario, SimulationLimitError, TraceSummary
from epibias.rng import stream
from epibias.tracing import TracedPairs, _pairs_of


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


def solve_r_numeric(
    R0: float,
    gen_pdf,
    lower: float = None,
    upper: float = 10.0,
    tol: float = 1e-12,
) -> float:
    """Growth rate from an arbitrary generation-time density, numerically.

    Finds the root of g(r) = R0 * integral(exp(-r*t) * gen_pdf(t)) - 1 with a
    bracketing solver; g is strictly decreasing in r so the root is unique.

    Args:
        R0: reproduction number (> 0).
        gen_pdf: density callback on [0, inf), integrating to 1.
        lower: bracket lower end.  Defaults to 0 for R0 >= 1 and must be
            supplied (above the transform's divergence point) for R0 < 1.
        upper: bracket upper end, per day.

    Raises:
        ValueError: if g does not change sign on [lower, upper].
    """
    if R0 <= 0:
        raise ValueError(f"R0 must be positive, got {R0}")

    def residual(r: float) -> float:
        # Split at t = 1 so a density singular at 0 converges without roundoff.
        val = sum(integrate.quad(lambda t: math.exp(-r * t) * gen_pdf(t), lo, hi,
                                 epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                  for lo, hi in ((0.0, 1.0), (1.0, math.inf)))
        return R0 * val - 1.0

    if lower is None:
        lower = 0.0
    g_lo = residual(lower)
    if abs(g_lo) < tol:
        return lower
    g_hi = residual(upper)
    if g_lo * g_hi > 0:
        raise ValueError(
            f"no sign change on [{lower}, {upper}]: g={g_lo:.3e}, {g_hi:.3e}"
        )
    root = optimize.brentq(residual, lower, upper, xtol=1e-14, rtol=8.9e-16)
    return float(root)


def moment_system(params, moments) -> np.ndarray:
    """Residuals of the four moment equations at (p, mu, mean, variance).

    ``moments`` is (E(C), Var(C), E(S), Var(S)) of the contact count C and
    the first-contact-to-symptom time S; the equations are the exposure
    model's values of those moments.
    """
    p, mu, m, v = params
    EC, VarC, ES, VarS = moments
    a = (1.0 - p) / p
    return np.array([
        1.0 / p + mu * m - EC,
        a / p + mu * m + mu * mu * v - VarC,
        a / mu + m - ES,
        (a + a / p) / mu**2 + v - VarS,
    ])


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
    s_max = min(len(weights.probs), t - 1)
    if s_max < 1:
        return 0.0
    lags = np.arange(1, s_max + 1)
    return float(weights.probs[:s_max] @ series_daily[t - 1 - lags])


def delay_mean(delay: DiscreteDelay) -> float:
    """Mean lag in days of a daily delay, summed one day at a time."""
    return float(sum(s * p for s, p in enumerate(delay.probs, start=1)))


def mc_incubation_discount(rng, r, lat_shape, lat_rate, u_lo, u_hi, n=1_000_000):
    """Monte-Carlo E[exp(-r * u * latent)] for the notified/infected ratio."""
    ell = rng.gamma(lat_shape, 1.0 / lat_rate, n)
    u = rng.uniform(u_lo, u_hi, n)
    return float(np.mean(np.exp(-r * u * ell)))


def quad_interval_variances(scenario: Scenario, tol=1e-10) -> tuple[float, float]:
    """(Var G, Var S) of an infector-infectee pair, from one-dimensional quadratures.

    As the simulator draws them, G = L + X and S = (1 - U)L + X + U'L': L is
    the infector's latent period, X the infection's offset into its
    infectious period D (density P(D > t) / E[D]), U ~ U(lo, hi) its
    incubation factor, and U'L' the infectee's symptom delay.  All of these
    are independent, so each variance is a sum over independent parts whose
    first two moments are integrated one by one.
    """
    def integral(f, lower, upper):
        return integrate.quad(f, lower, upper, epsabs=tol, epsrel=tol, limit=300)[0]

    def moments(density, lower, upper):  # E[T] and E[T**2]
        return [integral(lambda t: t**k * density(t), lower, upper) for k in (1, 2)]

    lo, hi = scenario.incubation_factor_range

    def factor_moments(f):  # E[f(U)] and E[f(U)**2], as U = lo + (hi - lo) * V, V ~ U(0, 1)
        return [integral(lambda v: f(lo + (hi - lo) * v) ** k, 0.0, 1.0) for k in (1, 2)]

    lat, inf = scenario.latent, scenario.infectious
    ell = moments(gamma_pdf_fn(lat.shape, lat.rate), 0.0,
                  stats.gamma.ppf(1.0 - 1e-16, a=lat.shape, scale=1.0 / lat.rate))
    x = moments(lambda t: stats.gamma.sf(t, a=inf.shape, scale=1.0 / inf.rate) / inf.mean(),
                0.0, stats.gamma.ppf(1.0 - 1e-16, a=inf.shape + 2.0, scale=1.0 / inf.rate))
    u = factor_moments(lambda f: f)
    one_minus_u = factor_moments(lambda f: 1.0 - f)

    def var(m):
        return m[1] - m[0] ** 2

    def var_product(a, b):  # Var(AB) for independent A and B
        return a[1] * b[1] - (a[0] * b[0]) ** 2

    var_g = var(ell) + var(x)
    var_s = var_product(one_minus_u, ell) + var(x) + var_product(u, ell)
    return var_g, var_s


def mc_interval_variances(rng, scenario: Scenario, n=1_000_000) -> tuple[float, float]:
    """Monte-Carlo (Var G, Var S) of the infector-infectee pairs of ``n`` infectors.

    Pairs are drawn as the simulator draws them: each infector, infected at
    0, has a Poisson number of infectees at uniform offsets into its
    infectious period, so a long period weighs more.
    """
    lat, inf = scenario.latent, scenario.infectious
    lo, hi = scenario.incubation_factor_range
    ell = rng.gamma(lat.shape, 1.0 / lat.rate, n)
    dur = rng.gamma(inf.shape, 1.0 / inf.rate, n)
    onset = rng.uniform(lo, hi, n) * ell
    src = np.repeat(np.arange(n), rng.poisson(scenario.contact_rate * dur))
    g = ell[src] + dur[src] * rng.random(len(src))
    m = len(src)
    s = g + rng.uniform(lo, hi, m) * rng.gamma(lat.shape, 1.0 / lat.rate, m) - onset[src]
    return float(g.var()), float(s.var())


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


def loop_generate_histories(
    model: ExposureModel,
    n: int,
    incubation_family: str,
    rng: np.random.Generator,
) -> Histories:
    """``generate_histories`` one person at a time, with one draw per run.

    Per person, the I - 2 arrivals before the infecting contact are drawn
    first, then the M contacts during incubation; the library draws them
    all at once in the same order and must give the same histories.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if incubation_family == "gamma":
        T = rng.gamma(model.incubation.shape, 1.0 / model.incubation.rate, n)
    elif incubation_family == "lognormal":  # with the Gamma's mean and sd
        mean, sd = model.incubation.mean(), model.incubation.sd()
        s2 = math.log1p((sd / mean) ** 2)
        T = rng.lognormal(math.log(mean) - 0.5 * s2, math.sqrt(s2), n)
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


def lbfgsb_ml_fit(histories: Histories) -> MlFit:
    """``ml_fit`` by scipy's bounded quasi-Newton optimizer, best of three starts.

    Minimizes the negative log-likelihood in (logit p, log mean, log sd) on
    the analytic gradient of ``conditional_log_likelihood`` with L-BFGS-B,
    from each of the three data-driven starts in turn, and keeps the best
    optimum; a p estimate at the upper search bound is reported as 1.
    """

    def objective(x):
        p = expit(x[0])
        try:
            ll, grad, _ = conditional_log_likelihood(
                histories, p, gamma_from_moments(math.exp(x[1]), math.exp(x[2])))
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
    cap = 16.0
    bounds = [(-cap, cap), (math.log(1e-3), math.log(1e4)), (math.log(1e-3), math.log(1e4))]
    best = None
    evaluations = 0
    for x0 in starts:
        res = optimize.minimize(
            objective, x0, method="L-BFGS-B", jac=True, bounds=bounds,
            options={"maxiter": 500},
        )
        evaluations += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    return MlFit(
        p=1.0 if best.x[0] >= cap - 1e-6 else float(expit(best.x[0])),
        mean=float(math.exp(best.x[1])),
        sd=float(math.exp(best.x[2])),
        log_likelihood=float(-best.fun),
        n_evaluations=evaluations,
    )


def discretize(params: GammaParams, horizon: int) -> DiscreteDelay:
    """Daily probabilities p(s) = CDF(s) - CDF(s-1), s = 1..horizon, renormalized.

    Renewal-estimator fixtures use these weights (the library's pipeline
    uses the mean-preserving ``discretize_centered``).

    Rejects horizons that truncate more than 0.1% of the probability mass,
    so the renormalization is always a small correction.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    grid = np.arange(0, horizon + 1, dtype=float)
    cum = cdf(params, grid)
    total = cum[-1]
    if total < 0.999:
        raise ValueError(
            f"horizon {horizon} keeps only {total:.6f} of the mass; extend it"
        )
    probs = np.diff(cum)
    return DiscreteDelay(probs=probs / probs.sum())


def heap_simulate_outbreak(scenario: Scenario, replicate_index: int) -> Optional[OutbreakTrace]:
    """``simulate_outbreak`` one infection at a time, from an event queue.

    The library's simulator up to version 0.1.0, kept as its law oracle.  It
    draws the same process from the same (seed, replicate) stream, but in
    another order, so the two agree in law, not draw for draw.  Returns None
    if the run dies out before the threshold.
    """
    rng = stream(scenario.master_seed, replicate_index)
    lat_shape, lat_scale = scenario.latent.shape, 1.0 / scenario.latent.rate
    inf_shape, inf_scale = scenario.infectious.shape, 1.0 / scenario.infectious.rate
    die_shape, die_scale = scenario.to_death.shape, 1.0 / scenario.to_death.rate
    rec_shape, rec_scale = scenario.to_recovery.shape, 1.0 / scenario.to_recovery.rate
    u_lo, u_hi = scenario.incubation_factor_range
    contact_rate = scenario.contact_rate
    p_death = scenario.p_death
    threshold = scenario.notify_threshold
    cap = outbreak_sim.PERSON_CAP

    gamma = rng.gamma
    uniform = rng.uniform
    poisson = rng.poisson
    random = rng.random
    heappush, heappop = heapq.heappush, heapq.heappop

    heap = [(0.0, 0, -1)]          # (infection time, tie-break seq, infector id)
    seq = 1
    t_infect_l: list[float] = []
    infector_l: list[int] = []
    t0_l: list[float] = []
    t1_l: list[float] = []
    t_symptom_l: list[float] = []
    died_l: list[bool] = []
    t_outcome_l: list[float] = []

    top = []                       # max-heap (negated) of smallest symptom times
    threshold_time = None
    end_time = math.inf
    n = 0
    while heap:
        t, _, parent = heappop(heap)
        if t > end_time:
            break
        pid = n
        n += 1
        if n > cap:
            raise SimulationLimitError(
                f"person cap {cap} exceeded at replicate {replicate_index}"
            )
        ell = gamma(lat_shape, lat_scale)
        dur = gamma(inf_shape, inf_scale)
        t0 = t + ell
        t1 = t0 + dur
        t_symptom = t + uniform(u_lo, u_hi) * ell
        k = poisson(contact_rate * dur)
        if k:
            for t_child in t0 + dur * random(k):
                if t_child <= end_time:
                    heappush(heap, (t_child, seq, pid))
                    seq += 1
        if random() < p_death:
            died = True
            t_out = t1 + gamma(die_shape, die_scale)
        else:
            died = False
            t_out = t1 + gamma(rec_shape, rec_scale)

        t_infect_l.append(t)
        infector_l.append(parent)
        t0_l.append(t0)
        t1_l.append(t1)
        t_symptom_l.append(t_symptom)
        died_l.append(died)
        t_outcome_l.append(t_out)

        if threshold_time is None:
            if len(top) < threshold:
                heappush(top, -t_symptom)
            elif t_symptom < -top[0]:
                heapq.heapreplace(top, -t_symptom)
            # The threshold moment is final once every unprocessed infection
            # (hence every future notification) lies beyond the current
            # threshold-th smallest symptom time.
            if len(top) == threshold and (not heap or heap[0][0] >= -top[0]):
                threshold_time = -top[0]
                end_time = threshold_time + scenario.followup

    if threshold_time is None:
        return None

    t_infect = np.array(t_infect_l)
    keep = t_infect <= end_time
    if not keep.all():
        # Possible only if infections jumped past the follow-up window while
        # the threshold was still provisional; renumber the survivors.
        idx = np.flatnonzero(keep)
        remap = -np.ones(n, dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        infector = np.array(infector_l, dtype=np.int64)[idx]
        infector = np.where(infector >= 0, remap[infector], -1)
        return OutbreakTrace(
            scenario, threshold_time, end_time,
            t_infect[idx], infector,
            np.array(t0_l)[idx], np.array(t1_l)[idx],
            np.array(t_symptom_l)[idx], np.array(died_l, dtype=bool)[idx],
            np.array(t_outcome_l)[idx],
        )
    return OutbreakTrace(
        scenario, threshold_time, end_time,
        t_infect, np.array(infector_l, dtype=np.int64),
        np.array(t0_l), np.array(t1_l),
        np.array(t_symptom_l), np.array(died_l, dtype=bool),
        np.array(t_outcome_l),
    )


# ---------------------------------------------------------------------------
# Per-trace counts by masking every person.  The library counts with
# ``searchsorted`` on the sorted views of a trace: ``notified_times`` (the
# persons notified by the threshold, sorted once) and ``t_infect`` as
# stored.  These are full-pass versions that mask or stably sort the whole
# column instead.


def mask_daily_series(trace: OutbreakTrace, through: float) -> np.ndarray:
    """Daily notification counts, day 1 anchored at the first notification.

    Notifications after ``through`` are excluded.
    """
    times = trace.t_symptom[trace.t_symptom <= through]
    if len(times) == 0:
        return np.zeros(0, dtype=np.int64)
    t0 = times.min()
    days = np.floor(times - t0).astype(np.int64) + 1
    counts = np.bincount(days)[1:]
    return counts


def mask_summarize_trace(trace: OutbreakTrace, replicate_index: int) -> TraceSummary:
    """Per-trace scalars used by ensemble reports, counted at the threshold time.

    ``resolved`` counts notified persons whose death/recovery had already
    happened; ``unnotified`` counts infections whose symptoms were still to
    come.
    """
    t = trace.threshold_time
    notified = trace.t_symptom <= t
    n_notified = int(notified.sum())
    if n_notified < trace.scenario.notify_threshold:
        raise ValueError("trace did not reach its notification threshold")
    total_infected = int((trace.t_infect <= t).sum())
    resolved = int((notified & (trace.t_outcome <= t)).sum())
    t_first_100 = float(np.sort(trace.t_symptom[notified])[99]) if n_notified >= 100 else math.nan
    return TraceSummary(
        replicate_index=replicate_index,
        threshold_time=t,
        time_to_first_100=t_first_100,
        time_100_to_threshold=t - t_first_100,
        total_infected=total_infected,
        resolved=resolved,
        pending_notified=n_notified - resolved,
        unnotified=total_infected - n_notified,
        notified_over_infected=n_notified / total_infected,
    )


def mask_sample_forward_pairs(trace: OutbreakTrace, margin: float = 60.0) -> TracedPairs:
    """All pairs whose infector could be observed to the end of its course.

    Forward ascertainment: include every offspring of infectors infected at
    least ``margin`` days before the end of the run (and whose infectious
    period closed within the run), so no offspring is cut off by the
    observation window.  This recovers the unbiased generation-time law,
    unlike enumerating every realized pair up to the end of the run.
    Pairs are ordered by infectee id.
    """
    cutoff = trace.end_time - margin
    ok_parent = (trace.t_infect <= cutoff) & (trace.t_inf_end <= trace.end_time)
    parent = trace.infector
    return _pairs_of(trace, np.flatnonzero((parent >= 0) & ok_parent[np.maximum(parent, 0)]))


def full_walk_sample_backward_pairs(trace: OutbreakTrace, n: int, stride: int) -> TracedPairs:
    """Systematic backward sample: every ``stride``-th notified case.

    Walks the notification order (ties broken by person id) one person at a
    time and keeps the person at every ``stride``-th position up to position
    n*stride if it has an infector notified by the threshold time (a
    position held by an index case, or by a case whose infector shows
    symptoms later, forms no pair).

    Raises:
        ValueError: if fewer than n*stride persons are notified by the
            threshold time.
    """
    if n < 1 or stride < 1:
        raise ValueError("n and stride must be positive")
    n_notified = int(np.count_nonzero(trace.t_symptom <= trace.threshold_time))
    if n_notified < n * stride:
        raise ValueError(
            f"trace has {n_notified} persons notified by the threshold; need {n * stride}"
        )
    picked = []
    for position, pid in enumerate(np.argsort(trace.t_symptom, kind="stable"), 1):
        if position > n * stride:
            break
        infector = trace.infector[pid]
        if (position % stride == 0 and infector >= 0
                and trace.t_symptom[infector] <= trace.threshold_time):
            picked.append(pid)
    return _pairs_of(trace, np.array(picked, dtype=np.int64))
