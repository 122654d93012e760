"""Per-trace analysis pipeline and ensemble aggregation.

Bundles, for each accepted simulation run, everything the reports need:
threshold-time and snapshot statistics, backward-sampled interval moments
and their Gamma fit, growth-rate estimates from the notification series,
renewal-model R0 estimates under biased and true weights, forward
predictions scored against the realized continuation, and the corrected
case-fatality estimate.  Results are small, picklable records so ensembles
can be mapped across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import cfr, growth_estimators as ge, tracing
from .distributions import (
    DiscreteDelay,
    GammaParams,
    discretization_horizon,
    discretize_centered,
)
from .outbreak_sim import (
    OutbreakTrace,
    Scenario,
    TraceSummary,
    daily_series,
    ensemble_map,
    summarize_trace,
)


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs for the per-trace pipeline (defaults follow the study design)."""

    n_pairs: int = 500
    stride: int = 9
    window: int = 42
    horizon: int = 42


# Days of each trace's infection series kept for the exponential-phase curve.
EXP_PHASE_DAYS = 200


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
    infection_daily: Optional[np.ndarray] = field(repr=False, default=None)


def notification_series(trace: OutbreakTrace) -> tuple[ge.CaseSeries, float, int]:
    """Notification series over complete days before the threshold.

    Day 1 starts at the first notification; the partial day containing the
    threshold moment is dropped so every retained day is fully observed.
    Returns (series, day-1 start time, number of complete days).
    """
    order = trace.notified_order()
    t0 = float(trace.t_symptom[order[0]])
    k_complete = int(math.floor(trace.threshold_time - t0))
    if k_complete < 2:
        raise ValueError("threshold reached before two complete days of data")
    counts = daily_series(trace, "notification")
    daily = np.zeros(k_complete, dtype=np.int64)
    take = min(k_complete, len(counts))
    daily[:take] = counts[:take]
    return ge.CaseSeries(daily), t0, k_complete


def cumulative_notified_at(trace: OutbreakTrace, t: float) -> int:
    if t > trace.end_time:
        raise ValueError("time lies beyond the simulated window")
    return int((trace.t_symptom <= t).sum())


def true_weights(scenario: Scenario, mass: float = 0.9999) -> DiscreteDelay:
    """Day-lag weights from the scenario's implied generation-time distribution.

    Uses the mean-preserving centered binning: the series being fitted holds
    day-binned events, so the lag kernel must not carry the half-day shift
    of the plain interval discretization.
    """
    gen = scenario.implied_generation()
    return discretize_centered(gen, discretization_horizon(gen, mass))


def analyze_trace(
    trace: OutbreakTrace,
    replicate_index: int,
    options: AnalysisOptions = AnalysisOptions(),
) -> TraceAnalysis:
    """Run the full per-trace pipeline on one accepted run."""
    summary = summarize_trace(trace, replicate_index)

    pairs = tracing.sample_backward_pairs(trace, options.n_pairs, options.stride)
    backward = IntervalStats(*tracing.interval_moments(pairs), n=len(pairs))

    forward_pairs = tracing.sample_forward_pairs(trace)
    forward = IntervalStats(*tracing.interval_moments(forward_pairs), n=len(forward_pairs))

    _, n_dropped = tracing.split_positive(pairs.S)
    serial_fit = tracing.fit_gamma_to_intervals(pairs, "S")
    backward_weights = discretize_centered(serial_fit, discretization_horizon(serial_fit))

    series, t0, k_complete = notification_series(trace)
    r_estimates = {
        "a": ge.est_a_log_cumulative(series, options.window),
        "b": ge.est_b_log_daily(series, options.window),
        "c": ge.est_c_mean_ratio(series, options.window),
        "c_plain_ratio": ge.est_c_mean_ratio(series, options.window, log_ratio=False),
        "d": ge.est_d_branching(series, options.window),
    }
    R0_backward = ge.est_e_renewal_R0(series, backward_weights)
    R0_true = ge.est_e_renewal_R0(series, true_weights(trace.scenario))

    actual = cumulative_notified_at(trace, t0 + k_complete + options.horizon)
    predictions = {}
    for method in ("a", "b", "c", "d", "e"):
        predicted = ge.predict_forward(
            series, method, horizon=options.horizon,
            weights=backward_weights if method == "e" else None,
            window=options.window,
        )
        predictions[method] = ge.PredictionScore(predicted=predicted, actual=actual)

    notified = trace.t_symptom <= trace.threshold_time
    d_obs = int((notified & trace.died & (trace.t_outcome <= trace.threshold_time)).sum())
    counts = cfr.CfrCounts(
        K=summary.total_infected - summary.unnotified,
        D_obs=d_obs,
        R_obs=summary.resolved - d_obs,
        T=trace.threshold_time,
        r=r_estimates["a"],
    )
    death_delay = cfr.notification_delay(trace.scenario, cfr.DelayKind.TO_DEATH)
    corrected = cfr.corrected_naive_cfr(counts, death_delay)

    infection_daily = None
    if trace.end_time >= EXP_PHASE_DAYS:
        infection_daily = daily_series(trace, "infection")[:EXP_PHASE_DAYS].copy()

    return TraceAnalysis(
        replicate_index=replicate_index,
        summary=summary,
        backward=backward,
        forward=forward,
        serial_fit=serial_fit,
        serial_fit_dropped=n_dropped,
        r_estimates=r_estimates,
        R0_backward_weights=R0_backward,
        R0_true_weights=R0_true,
        predictions=predictions,
        cfr_raw=counts.D_obs / counts.K,
        cfr_corrected=corrected.estimate,
        cfr_clipped=corrected.clipped,
        infection_daily=infection_daily,
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
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        "min": float(arr.min()),
        "max": float(arr.max()),
        "q025": float(np.quantile(arr, 0.025)),
        "q975": float(np.quantile(arr, 0.975)),
    }


def exposure_study(
    model,
    n_persons: int,
    replicates: int,
    master_seed: int,
    generators: tuple[str, ...] = ("gamma", "lognormal"),
) -> dict:
    """Replicate study of the exposure-history estimators.

    For each generator family (the model's Gamma incubation, and a
    log-normal with matched moments) runs ``replicates`` independent
    samples of ``n_persons`` histories through both the likelihood fit and
    the moment fit, and summarizes the estimates.

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
    from . import exposures
    from .rng import stream

    out = {}
    for gi, family in enumerate(generators):
        ml = {"p": [], "mean": [], "sd": []}
        mom = {"p": [], "mean": [], "variance": [], "contact_rate": []}
        sd_admissible = []
        ml_nonconverged = 0
        inadmissible = 0
        unsolved = 0
        for rep in range(replicates):
            rng = stream(master_seed, 1_000_000 * (gi + 1) + rep)
            hist = exposures.generate_histories(model, n_persons, family, seed=rng)
            try:
                fit = exposures.ml_fit(hist)
            except exposures.ConvergenceError:
                ml_nonconverged += 1
            else:
                ml["p"].append(fit.p)
                ml["mean"].append(fit.mean)
                ml["sd"].append(fit.sd)
            try:
                mfit = exposures.moment_fit(hist)
                sd_admissible.append(mfit.sd)
            except exposures.MomentFitError as err:
                if err.raw is None:
                    unsolved += 1
                    continue
                mfit = err.raw
                inadmissible += 1
            mom["p"].append(mfit.p)
            mom["mean"].append(mfit.mean)
            mom["variance"].append(mfit.variance)
            mom["contact_rate"].append(mfit.contact_rate)
        mean_variance = float(np.mean(mom["variance"])) if mom["variance"] else float("nan")
        out[family] = {
            "ml": {k: summarize(v) for k, v in ml.items()},
            "ml_nonconverged": ml_nonconverged,
            "moment": {k: summarize(v) for k, v in mom.items()},
            "moment_sd_pooled": math.sqrt(max(mean_variance, 0.0)),
            "moment_sd_admissible": summarize(sd_admissible),
            "moment_inadmissible": inadmissible,
            "moment_unsolved": unsolved,
            "replicates": replicates,
            "n_persons": n_persons,
        }
    return out


def ensemble_report(analysis: EnsembleAnalysis) -> dict:
    """JSON-ready summary of an analyzed ensemble."""
    scn = analysis.scenario
    gen = scn.implied_generation()
    from .growth_math import solve_r

    r_true = solve_r(scn.R0(), gen)
    methods = {
        m: summarize(analysis.values(lambda t, m=m: t.r_estimates[m]))
        for m in ("a", "b", "c", "c_plain_ratio", "d")
    }
    predictions = {
        m: summarize(analysis.values(lambda t, m=m: t.predictions[m].ratio))
        for m in ("a", "b", "c", "d", "e")
    }
    return {
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
        "threshold_time": summarize(analysis.values(lambda t: t.summary.threshold_time)),
        "deterministic_threshold_time": math.log(scn.notify_threshold) / r_true,
        "time_to_first_100": summarize(analysis.values(lambda t: t.summary.time_to_first_100)),
        "time_100_to_threshold": summarize(
            analysis.values(lambda t: t.summary.time_100_to_threshold)
        ),
        "notified_over_infected": summarize(
            analysis.values(lambda t: t.summary.notified_over_infected)
        ),
        "resolved": summarize(analysis.values(lambda t: t.summary.resolved)),
        "pending_notified": summarize(analysis.values(lambda t: t.summary.pending_notified)),
        "unnotified": summarize(analysis.values(lambda t: t.summary.unnotified)),
        "backward_mean_g": summarize(analysis.values(lambda t: t.backward.mean_g)),
        "backward_var_g": summarize(analysis.values(lambda t: t.backward.var_g)),
        "backward_mean_s": summarize(analysis.values(lambda t: t.backward.mean_s)),
        "backward_var_s": summarize(analysis.values(lambda t: t.backward.var_s)),
        "growth_estimates": methods,
        "renewal_R0_backward_weights": summarize(
            analysis.values(lambda t: t.R0_backward_weights)
        ),
        "renewal_R0_true_weights": summarize(analysis.values(lambda t: t.R0_true_weights)),
        "prediction_ratios": predictions,
        "cfr_raw": summarize(analysis.values(lambda t: t.cfr_raw)),
        "cfr_corrected": summarize(analysis.values(lambda t: t.cfr_corrected)),
        "cfr_clipped": int(analysis.values(lambda t: t.cfr_clipped).sum()),
        "serial_fit_dropped": summarize(analysis.values(lambda t: t.serial_fit_dropped)),
    }
