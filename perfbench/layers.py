"""Per-layer metrics and the self-time table, computed from recorded spans.

A layer is an epibias module.  Times per call are medians unless the name
says otherwise; counts are totals over the traced run unless they are
"per" something.  A layer that the workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import END, INFO, NAME, PARENT, START, children, layer_of, self_times

RATE_FITS = {
    "growth_estimators.est_a_log_cumulative", "growth_estimators.est_b_log_daily",
    "growth_estimators.est_c_mean_ratio", "growth_estimators.est_d_branching",
}


def _dur(span) -> float:
    return span[END] - span[START]


def _named(lists, name):
    return [s for spans in lists for s in spans if s[NAME] == name]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    return float(np.quantile(values, 0.9)) if values else 0.0


def _info(span, key):
    return (span[INFO] or {}).get(key)


def outbreak_sim_metrics(lists) -> dict:
    """Simulator cost per accepted trace; ``extinct_s`` is per accepted trace too."""
    sims = _named(lists, "outbreak_sim.simulate_outbreak")
    accepted = [s for s in sims if _info(s, "persons") is not None]
    persons = sum(_info(s, "persons") for s in accepted)
    accepted_s = sum(_dur(s) for s in accepted)
    extinct_s = sum(_dur(s) for s in sims if _info(s, "persons") is None)
    n_acc = len(accepted)
    return {
        "outbreak_sim.simulate_s": _median([_dur(s) for s in accepted]),
        "outbreak_sim.us_per_person": 1e6 * accepted_s / persons if persons else 0.0,
        "outbreak_sim.persons": persons / n_acc if n_acc else 0.0,
        "outbreak_sim.attempts": len(sims),
        "outbreak_sim.accepted": n_acc,
        "outbreak_sim.accept_ratio": n_acc / len(sims) if sims else 0.0,
        "outbreak_sim.extinct_s": extinct_s / n_acc if n_acc else 0.0,
    }


def pool_metrics(pool_lists, pool_wall: float, serial_wall: float, threads: int) -> dict:
    """Worker busy share of the pool step, and its speed-up over the same serial step.

    Busy time is the summed ``_apply`` spans of the workers; the base is
    ``threads`` times the pool step's wall time.
    """
    busy = sum(_dur(s) for s in _named(pool_lists[1:], "outbreak_sim._apply"))
    if not pool_wall:
        return {"outbreak_sim.pool_busy_frac": 0.0, "outbreak_sim.pool_speedup": 0.0}
    return {
        "outbreak_sim.pool_busy_frac": busy / (threads * pool_wall),
        "outbreak_sim.pool_speedup": serial_wall / pool_wall,
    }


def analysis_metrics(lists) -> dict:
    per_trace = {k: [] for k in ("total", "self", "rate", "renewal", "disc", "disc_calls")}
    n_traces = 0
    for spans in lists:
        kids = children(spans)
        selfs = self_times(spans)
        for i, s in enumerate(spans):
            if s[NAME] != "analysis.analyze_trace":
                continue
            n_traces += 1
            sub = [spans[j] for j in kids.get(i, [])]
            per_trace["total"].append(_dur(s))
            per_trace["self"].append(selfs[i])
            per_trace["rate"].append(sum(
                _dur(c) for c in sub
                if c[NAME] in RATE_FITS
                or (c[NAME] == "growth_estimators.predict_forward" and _info(c, "method") != "e")
            ))
            per_trace["renewal"].append(sum(
                _dur(c) for c in sub
                if c[NAME] == "growth_estimators.est_e_renewal_R0"
                or (c[NAME] == "growth_estimators.predict_forward" and _info(c, "method") == "e")
            ))
            disc = [c for c in sub if c[NAME] == "distributions.discretize_centered"]
            per_trace["disc"].append(sum(_dur(c) for c in disc))
            per_trace["disc_calls"].append(len(disc))
    pi = _named(lists, "cfr.pi_finite")
    cfr = _named(lists, "cfr.corrected_naive_cfr")
    ms = lambda values: 1e3 * _median(values)  # noqa: E731
    return {
        "analysis.analyze_trace_ms.p50": ms(per_trace["total"]),
        "analysis.analyze_trace_ms.p90": 1e3 * _p90(per_trace["total"]),
        "analysis.self_ms": ms(per_trace["self"]),
        "tracing.backward_pairs_ms": ms([_dur(s) for s in _named(lists, "tracing.sample_backward_pairs")]),
        "tracing.fit_gamma_ms": ms([_dur(s) for s in _named(lists, "tracing.fit_gamma_to_intervals")]),
        "growth_estimators.rate_fits_ms": ms(per_trace["rate"]),
        "growth_estimators.renewal_ms": ms(per_trace["renewal"]),
        "distributions.discretize_ms": ms(per_trace["disc"]),
        "distributions.discretize_calls": sum(per_trace["disc_calls"]) / n_traces if n_traces else 0.0,
        "cfr.pi_finite_ms": ms([_dur(s) for s in pi]),
        "cfr.pi_finite_calls": len(pi) / n_traces if n_traces else 0.0,
        "cfr.clipped": sum(1 for s in cfr if _info(s, "clipped")),
    }


def exposures_metrics(lists) -> dict:
    fits = 0
    evals_in_fits = 0
    for spans in lists:
        fit_idx = {i for i, s in enumerate(spans) if s[NAME] == "exposures.ml_fit"}
        fits += len(fit_idx)
        evals_in_fits += sum(
            1 for s in spans
            if s[NAME] == "exposures.conditional_log_likelihood" and s[PARENT] in fit_idx
        )
    ml = [_dur(s) for s in _named(lists, "exposures.ml_fit")]
    moment = _named(lists, "exposures.moment_fit")
    return {
        "exposures.generate_ms": 1e3 * _median([_dur(s) for s in _named(lists, "exposures.generate_histories")]),
        "exposures.ml_fit_ms.p50": 1e3 * _median(ml),
        "exposures.ml_fit_ms.p90": 1e3 * _p90(ml),
        "exposures.ll_evals_per_fit": evals_in_fits / fits if fits else 0.0,
        "exposures.ll_us_per_eval": 1e6 * _median(
            [_dur(s) for s in _named(lists, "exposures.conditional_log_likelihood")]),
        "exposures.moment_fit_ms": 1e3 * _median([_dur(s) for s in moment]),
        "exposures.ml_nonconverged": sum(
            1 for s in _named(lists, "exposures.ml_fit") if _info(s, "error") == "ConvergenceError"),
        "exposures.moment_inadmissible": sum(1 for s in moment if _info(s, "raw") is True),
        "exposures.moment_unsolved": sum(1 for s in moment if _info(s, "raw") is False),
    }


def self_time_table(lists) -> tuple[dict[str, tuple[int, float]], float]:
    """{layer: (spans, self seconds)} and their base, the summed self time."""
    table: dict[str, tuple[int, float]] = {}
    for spans in lists:
        for s, own in zip(spans, self_times(spans)):
            n, t = table.get(layer_of(s[NAME]), (0, 0.0))
            table[layer_of(s[NAME])] = (n + 1, t + own)
    return table, sum(t for _, t in table.values())
