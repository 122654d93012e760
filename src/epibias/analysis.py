"""Per-trace analysis pipeline and ensemble aggregation.

Bundles, for each accepted simulation run, everything the reports need:
the trace's counts at the threshold (its ``TraceSummary``), backward-sampled
interval moments and their Gamma fit, growth-rate estimates from the
notification series, renewal-model R0 estimates under biased and true
weights, forward predictions scored against the realized continuation, and
the corrected case-fatality estimate.  ``REPORTED`` lists which of them the
``estimate`` report summarizes.  Results are small, picklable records so
ensembles can be mapped across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import attrgetter

import numpy as np

from . import cfr, exposures, growth_estimators as ge, tracing
from .distributions import (
    DiscreteDelay,
    GammaParams,
    discretization_horizon,
    discretize_centered,
)
from .growth_math import solve_r
from .outbreak_sim import (
    OutbreakTrace,
    Scenario,
    TraceSummary,
    ensemble_map,
    ordered_map,
    summarize_trace,
)
from .rng import stream


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs for the per-trace pipeline (defaults follow the study design)."""

    n_pairs: int = 500
    stride: int = 9
    window: int = 42
    horizon: int = 42

    def __post_init__(self):
        for name, least in (("n_pairs", 1), ("stride", 1), ("window", 2), ("horizon", 0)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class IntervalStats:
    mean_g: float
    var_g: float
    mean_s: float
    var_s: float
    n: int


@dataclass(frozen=True)
class TraceAnalysis:
    replicate_index: int
    summary: TraceSummary
    backward: IntervalStats
    forward: IntervalStats
    serial_fit: GammaParams
    serial_fit_dropped: int
    r_estimates: dict[str, float]
    R0_backward_weights: float
    R0_true_weights: float
    predictions: dict[str, ge.PredictionScore]
    cfr_raw: float
    cfr_corrected: float
    cfr_clipped: bool


def notification_series(trace: OutbreakTrace) -> tuple[ge.CaseSeries, float, int]:
    """Notification series over complete days before the threshold.

    Day 1 starts at the first notification; the partial day containing the
    threshold moment is dropped so every retained day is fully observed.
    Returns (series, day-1 start time, number of complete days).
    """
    # Only the notifications up to the threshold are read: day d holds the
    # offsets ts - t0 in [d-1, d), and fl(ts - t0) is monotone in ts, so a
    # later notification would fall on day k_complete + 1 or later.
    ts = trace.notified_times
    t0 = float(ts[0]) if len(ts) else trace.threshold_time   # none: no complete day
    k_complete = int(math.floor(trace.threshold_time - t0))
    if k_complete < 2:
        raise ValueError("threshold reached before two complete days of data")
    daily = np.diff(np.searchsorted(ts - t0, np.arange(k_complete + 1), "left"))
    return ge.CaseSeries(daily), t0, k_complete


@lru_cache(maxsize=8)
def true_weights(scenario: Scenario) -> DiscreteDelay:
    """Day-lag weights from the scenario's implied generation-time distribution.

    Uses the mean-preserving centered binning: the series being fitted holds
    day-binned events, so the lag kernel must not carry the half-day shift
    of the plain interval discretization.  Cached per scenario.
    """
    gen = scenario.implied_generation()
    return discretize_centered(gen, discretization_horizon(gen))


class AnalysisError(RuntimeError):
    """A trace that one stage of the per-trace pipeline cannot analyze.

    Raised in place of the stage's ``ValueError``, which depends on the
    simulated data rather than on the configuration; the message names the
    stage and the replicate.
    """


def analyze_trace(
    trace: OutbreakTrace,
    replicate_index: int,
    options: AnalysisOptions = AnalysisOptions(),
) -> TraceAnalysis:
    """Run the full per-trace pipeline on one accepted run.

    Raises:
        AnalysisError: if a stage rejects the trace, e.g. too few notified
            persons for the backward sample or too few complete days.
    """
    try:
        stage = "snapshot"
        summary = summarize_trace(trace, replicate_index)

        stage = "contact tracing"
        pairs = tracing.sample_backward_pairs(trace, options.n_pairs, options.stride)
        backward = IntervalStats(*tracing.interval_moments(pairs), n=len(pairs))
        serial_fit = tracing.fit_gamma_to_intervals(pairs)
        backward_weights = discretize_centered(serial_fit, discretization_horizon(serial_fit))

        stage = "forward sample"
        forward_pairs = tracing.sample_forward_pairs(trace)
        forward = IntervalStats(*tracing.interval_moments(forward_pairs), n=len(forward_pairs))

        stage = "growth fits"
        series, t0, k_complete = notification_series(trace)
        r_estimates = {
            "a": ge.est_a_log_cumulative(series, options.window),
            "b": ge.est_b_log_daily(series, options.window),
            "c": ge.est_c_mean_ratio(series, options.window),
            "c_plain_ratio": ge.est_c_mean_ratio(series, options.window, log_ratio=False),
            "d": ge.est_d_branching(series, options.window),
        }

        stage = "renewal"
        R0_backward = ge.est_e_renewal_R0(series, backward_weights)
        R0_true = ge.est_e_renewal_R0(series, true_weights(trace.scenario))

        stage = "prediction"
        actual = trace.notified_count(t0 + k_complete + options.horizon)
        fitted = {**r_estimates, "e": R0_backward}
        predictions = {}
        for method in ("a", "b", "c", "d", "e"):
            predicted = ge.predict_forward(
                series, method, fitted[method], horizon=options.horizon,
                weights=backward_weights if method == "e" else None,
            )
            predictions[method] = ge.PredictionScore(predicted=predicted, actual=actual)

        stage = "cfr"
        notified = trace.notified
        died_by_T = trace.died[notified] & (trace.t_outcome[notified] <= trace.threshold_time)
        counts = cfr.CfrCounts(
            K=len(notified),
            D_obs=int(np.count_nonzero(died_by_T)),
            T=trace.threshold_time,
            r=r_estimates["a"],
        )
        death_delay = trace.scenario.notification_delay(trace.scenario.to_death)
        corrected = cfr.corrected_naive_cfr(counts, death_delay)
    except ValueError as exc:
        raise AnalysisError(
            f"analysis stage '{stage}' failed at replicate {replicate_index}: {exc}"
        ) from exc

    return TraceAnalysis(
        replicate_index=replicate_index,
        summary=summary,
        backward=backward,
        forward=forward,
        serial_fit=serial_fit,
        serial_fit_dropped=int(np.count_nonzero(pairs.S <= 0)),
        r_estimates=r_estimates,
        R0_backward_weights=R0_backward,
        R0_true_weights=R0_true,
        predictions=predictions,
        cfr_raw=counts.D_obs / counts.K,
        cfr_corrected=corrected.estimate,
        cfr_clipped=corrected.clipped,
    )


@dataclass(frozen=True)
class EnsembleAnalysis:
    scenario: Scenario
    options: AnalysisOptions
    n_attempts: int
    traces: list[TraceAnalysis] = field(repr=False)

    def __len__(self) -> int:
        return len(self.traces)

    def values(self, getter) -> np.ndarray:
        return np.array([getter(t) for t in self.traces])


def analyze_ensemble(
    scenario: Scenario,
    n_accepted: int,
    options: AnalysisOptions = AnalysisOptions(),
    threads: int = 1,
) -> EnsembleAnalysis:
    """Apply the per-trace pipeline to an ensemble of accepted runs."""
    fn = partial(analyze_trace, options=options)
    results, attempts = ensemble_map(scenario, n_accepted, fn, threads=threads)
    return EnsembleAnalysis(
        scenario=scenario, options=options, n_attempts=attempts, traces=results
    )


def summarize(values) -> dict[str, float]:
    """Replicate summary: mean, sd, extremes, and the central 95% range.

    With no values, ``n`` is 0 and every statistic is NaN.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"n": 0, **dict.fromkeys(("mean", "sd", "min", "max", "q025", "q975"), math.nan)}
    q025, q975 = np.quantile(arr, [0.025, 0.975])
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "q025": float(q025),
        "q975": float(q975),
    }


# TraceSummary fields that both ensemble reports summarize.
TRACE_SUMMARY_FIELDS = (
    "threshold_time", "time_to_first_100", "time_100_to_threshold",
    "notified_over_infected", "resolved", "pending_notified", "unnotified",
)


def summarize_traces(summaries: list[TraceSummary]) -> dict[str, dict[str, float]]:
    """:func:`summarize` of each of ``TRACE_SUMMARY_FIELDS`` over the summaries."""
    return {
        name: summarize([getattr(s, name) for s in summaries])
        for name in TRACE_SUMMARY_FIELDS
    }


# Incubation families of the exposure study, in stream order.
EXPOSURE_FAMILIES = ("gamma", "lognormal")
# Replicate rep of family i draws from stream EXPOSURE_FAMILY_STREAMS * (i + 1) + rep.
EXPOSURE_FAMILY_STREAMS = 1_000_000


def exposure_fit(task) -> tuple:
    """(ml fit, moment fit, admissible) of one exposure-study replicate.

    ``task`` is (model, n_persons, family, master_seed, replicate); each
    replicate draws its histories from its own stream.  The ml fit is None
    when it does not converge; an inadmissible moment fit is its raw root,
    or None when there is none.
    """
    model, n_persons, family, master_seed, rep = task
    key = EXPOSURE_FAMILY_STREAMS * (EXPOSURE_FAMILIES.index(family) + 1)
    hist = exposures.generate_histories(model, n_persons, family, stream(master_seed, key + rep))
    try:
        ml = exposures.ml_fit(hist)
    except exposures.ConvergenceError:
        ml = None
    try:
        return ml, exposures.moment_fit(hist), True
    except exposures.MomentFitError as err:
        return ml, err.raw, False


def exposure_study(
    model,
    n_persons: int,
    replicates: int,
    master_seed: int,
    threads: int = 1,
) -> dict:
    """Replicate study of the exposure-history estimators.

    For each of ``EXPOSURE_FAMILIES`` (the model's Gamma incubation, and a
    log-normal with matched moments) runs ``replicates`` independent
    samples of ``n_persons`` histories through both the likelihood fit and
    the moment fit, and summarizes the estimates.  Each replicate is fitted
    by :func:`exposure_fit` on ``threads`` worker processes and draws from
    its own stream, so the result does not depend on ``threads``.

    Moment replicates whose variance equation demands Var(T) <= 0 still
    contribute their raw root to the (p, contact rate, mean, variance)
    summaries -- the raw variance estimate is unbiased, and censoring the
    inadmissible replicates would tilt every moment column upward -- while
    the per-replicate sd is only defined (and summarized) on the admissible
    ones.  ``sd_pooled`` is the square root of the mean variance estimate,
    the study-level point estimate of the incubation sd.  A replicate whose
    likelihood fit does not converge is counted in ``ml_nonconverged`` and
    left out of the ml summaries; its moment fit still runs.
    """
    if replicates > EXPOSURE_FAMILY_STREAMS:
        raise ValueError(f"replicates must be <= {EXPOSURE_FAMILY_STREAMS}, got {replicates}")
    tasks = [(model, n_persons, family, master_seed, rep)
             for family in EXPOSURE_FAMILIES for rep in range(replicates)]
    fits = list(ordered_map(exposure_fit, tasks, threads))
    out = {}
    for gi, family in enumerate(EXPOSURE_FAMILIES):
        family_fits = fits[gi * replicates:(gi + 1) * replicates]
        ml = [m for m, _, _ in family_fits if m is not None]
        mom = [f for _, f, _ in family_fits if f is not None]
        moment = {k: summarize([getattr(f, k) for f in mom])
                  for k in ("p", "mean", "variance", "contact_rate")}
        out[family] = {
            "ml": {k: summarize([getattr(m, k) for m in ml]) for k in ("p", "mean", "sd")},
            "ml_nonconverged": replicates - len(ml),
            "moment": moment,
            "moment_sd_pooled": math.sqrt(max(moment["variance"]["mean"], 0.0)),
            "moment_sd_admissible": summarize([f.sd for _, f, ok in family_fits if ok]),
            "moment_inadmissible": sum(f is not None and not ok for _, f, ok in family_fits),
            "moment_unsolved": replicates - len(mom),
            "replicates": replicates,
            "n_persons": n_persons,
        }
    return out


# The estimate report's summarized quantities: (quantity, group, key, getter on
# TraceAnalysis).  Each is summarized into report[group][key], or report[key]
# when group is None, and written as the CSV row (quantity, key), in this order.
REPORTED = (
    *(("trace", None, name, attrgetter(f"summary.{name}")) for name in TRACE_SUMMARY_FIELDS),
    *(("backward", None, f"backward_{m}", attrgetter(f"backward.{m}"))
      for m in ("mean_g", "var_g", "mean_s", "var_s")),
    *(("r", "growth_estimates", m, lambda t, m=m: t.r_estimates[m])
      for m in ("a", "b", "c", "c_plain_ratio", "d")),
    ("R0", None, "renewal_R0_backward_weights", attrgetter("R0_backward_weights")),
    ("R0", None, "renewal_R0_true_weights", attrgetter("R0_true_weights")),
    *(("prediction_ratio", "prediction_ratios", m, lambda t, m=m: t.predictions[m].ratio)
      for m in ("a", "b", "c", "d", "e")),
    *(("cfr", None, key, attrgetter(key)) for key in ("cfr_raw", "cfr_corrected")),
    ("serial_fit", None, "serial_fit_dropped", attrgetter("serial_fit_dropped")),
)


def ensemble_report(analysis: EnsembleAnalysis) -> dict:
    """JSON-ready summary of an analyzed ensemble: one block per ``REPORTED`` entry."""
    scn = analysis.scenario
    gen = scn.implied_generation()
    r_true = solve_r(scn.R0(), gen)
    report = {
        "n_accepted": len(analysis),
        "n_attempts": analysis.n_attempts,
        "options": {
            "window": analysis.options.window,
            "horizon": analysis.options.horizon,
            "sample_pairs": analysis.options.n_pairs,
            "stride": analysis.options.stride,
            "zero_days": "dropped from log-daily regression",
            "ratio_estimator": "log-ratio (plain-ratio variant under c_plain_ratio)",
            "series": "complete days from first notification to the threshold",
        },
        "true_r": r_true,
        "true_R0": scn.R0(),
        "prediction_factor_true": math.exp(r_true * analysis.options.horizon),
        # Exists only while the outbreak grows; NaN is written as null.
        "deterministic_threshold_time":
            math.log(scn.notify_threshold) / r_true if r_true > 0 else math.nan,
        "cfr_clipped": int(analysis.values(lambda t: t.cfr_clipped).sum()),
    }
    for _, group, key, get in REPORTED:
        (report.setdefault(group, {}) if group else report)[key] = summarize(analysis.values(get))
    return report
