"""The benchmark's workloads, their inputs and their output checks.

Every workload uses the package's default configuration (``load_config``
with only the seed overridden), so it measures what ``epibias`` users run.
A workload is built once (``build``) and then advanced one step at a time
(``step``); a step returns its items, its failed items, the SHA-256 digest
of its canonical JSON output and the output checks it failed.  All inputs
derive from the benchmark seed: step ``b`` of seed ``s`` runs with master
seed ``batch_seed(s, b)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from epibias import analysis, outbreak_sim
from epibias.config import load_config
from epibias.growth_math import solve_r


@dataclass(frozen=True)
class Size:
    """How much work one step does.  ``FULL`` is the benchmark; ``SMOKE`` is tiny."""

    batch: int = 2                  # accepted traces per analyze_ensemble call
    pool_traces: int = 3            # traces reanalyzed by `reanalyze`
    exposure_replicates: int = 10   # replicates per family per exposure_study call
    threshold: int | None = None    # None keeps the default scenario's threshold
    n_pairs: int | None = None      # None keeps the default AnalysisOptions
    stride: int | None = None

    def tag(self) -> str:
        return ",".join(f"{k}={v}" for k, v in sorted(dataclasses.asdict(self).items()))


POOL_THREADS = 2   # ensemble_map workers for the pool comparison in traced runs

FULL = Size()
SMOKE = Size(batch=2, pool_traces=1, exposure_replicates=2, threshold=300, n_pairs=50, stride=2)


def batch_seed(seed: int, b: int) -> int:
    return int(seed) * 10_000 + int(b)


def configure(seed: int, size: Size):
    """Default config at ``seed``, with the scenario and options scaled by ``size``."""
    cfg = load_config(seed=seed)
    scenario = cfg.scenario
    if size.threshold is not None:
        scenario = dataclasses.replace(scenario, notify_threshold=size.threshold)
    options = cfg.options
    if size.n_pairs is not None:
        options = dataclasses.replace(options, n_pairs=size.n_pairs, stride=size.stride)
    return cfg, scenario, options


# -- canonical output ------------------------------------------------------


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()


def _numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def _within(problems, label, value, lo, hi):
    if not (math.isfinite(value) and lo <= value <= hi):
        problems.append(f"{label} = {value!r} outside [{lo}, {hi}]")


# -- output checks ---------------------------------------------------------
#
# The bands are wide sanity bands (a factor of two to four around the truth),
# not the acceptance suite's bands: they catch a broken pipeline, not a
# biased estimator.


def check_ensemble_report(rep: dict, n_requested: int, scenario) -> list[str]:
    problems = []
    if rep["n_accepted"] != n_requested:
        problems.append(f"n_accepted = {rep['n_accepted']}, requested {n_requested}")
    if not all(math.isfinite(x) for x in _numbers(rep)):
        problems.append("ensemble report holds a non-finite statistic")
    gen_mean = scenario.implied_generation().mean()
    if not rep["backward_mean_g"]["mean"] < gen_mean:
        problems.append(
            f"backward mean G {rep['backward_mean_g']['mean']!r} is not below "
            f"the generation mean {gen_mean}: no contraction"
        )
    r, R0 = rep["true_r"], rep["true_R0"]
    for m, s in rep["growth_estimates"].items():
        _within(problems, f"growth estimate {m}", s["mean"], 0.25 * r, 4.0 * r)
    for key in ("renewal_R0_backward_weights", "renewal_R0_true_weights"):
        _within(problems, key, rep[key]["mean"], 0.5 * R0, 2.0 * R0)
    for m, s in rep["prediction_ratios"].items():
        _within(problems, f"prediction ratio {m}", s["mean"], 0.2, 5.0)
    _within(problems, "corrected CFR", rep["cfr_corrected"]["mean"], 1e-9, 1.0)
    return problems


def check_trace_analysis(ta, r_true: float, R0_true: float) -> list[str]:
    problems = []
    for m, v in ta.r_estimates.items():
        _within(problems, f"r estimate {m}", v, 0.25 * r_true, 4.0 * r_true)
    _within(problems, "backward mean G", ta.backward.mean_g, 1e-9, 100.0)
    _within(problems, "R0 (backward weights)", ta.R0_backward_weights, 0.5 * R0_true, 2.0 * R0_true)
    _within(problems, "R0 (true weights)", ta.R0_true_weights, 0.5 * R0_true, 2.0 * R0_true)
    for m, score in ta.predictions.items():
        _within(problems, f"prediction ratio {m}", score.ratio, 0.1, 10.0)
    _within(problems, "corrected CFR", ta.cfr_corrected, 1e-9, 1.0)
    return problems


def check_exposure_study(out: dict, model) -> list[str]:
    problems = []
    mean, sd = model.incubation.mean(), model.incubation.sd()
    for family, res in out.items():
        for est in ("ml", "moment"):
            for key, s in res[est].items():
                if s["n"] and not math.isfinite(s["mean"]):
                    problems.append(f"{family} {est} {key} mean is not finite")
        _within(problems, f"{family} ML p", res["ml"]["p"]["mean"], 1e-9, 1.0)
        _within(problems, f"{family} ML mean", res["ml"]["mean"]["mean"], 0.5 * mean, 2.0 * mean)
        _within(problems, f"{family} ML sd", res["ml"]["sd"]["mean"], 0.25 * sd, 4.0 * sd)
        _within(problems, f"{family} moment mean", res["moment"]["mean"]["mean"],
                0.25 * mean, 4.0 * mean)
    return problems


# -- workloads -------------------------------------------------------------


def _report_exception(what: str, exc: BaseException) -> None:
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


class _SeededSteps:
    """A workload whose inputs are just the seed and size; step b derives its own."""

    def build(self, seed: int, size: Size):
        return {"seed": seed, "size": size}

    @staticmethod
    def inputs_digest(ctx) -> str:
        return digest([ctx["seed"], dataclasses.asdict(ctx["size"])])

    @staticmethod
    def label(ctx, b: int) -> str:
        return str(b)


class Ensemble(_SeededSteps):
    """analyze_ensemble + ensemble_report on ``batch`` accepted traces per step.

    An item is an accepted trace that was simulated and analysed.  Any
    exception or failed check fails every item of the step.
    """

    family = "ensemble"

    def __init__(self, threads: int):
        self.threads = threads

    def step(self, ctx, b: int):
        size = ctx["size"]
        _, scenario, options = configure(batch_seed(ctx["seed"], b), size)
        try:
            result = analysis.analyze_ensemble(scenario, size.batch, options, threads=self.threads)
            rep = analysis.ensemble_report(result)
        except Exception as exc:
            _report_exception(f"ensemble step {b}", exc)
            return size.batch, size.batch, None, []
        problems = [f"ensemble step {b}: {p}"
                    for p in check_ensemble_report(rep, size.batch, scenario)]
        return size.batch, size.batch if problems else 0, digest(rep), problems


class Reanalyze:
    """analyze_trace over a pool of traces simulated once, in set-up.

    Steps cycle through (trace, options variant) pairs; the variants differ
    in window and horizon so that work keyed on the options is redone.  An
    item is one analyze_trace call.  Steps are labelled by pair, so each
    pair's output must repeat exactly on every cycle.
    """

    family = "reanalyze"

    def build(self, seed: int, size: Size):
        _, scenario, options = configure(batch_seed(seed, 0), size)
        traces = []
        rep = 0
        while len(traces) < size.pool_traces:
            trace = outbreak_sim.simulate_outbreak(scenario, rep)
            if trace is not None:
                traces.append((rep, trace))
            rep += 1
        variants = [
            options,
            dataclasses.replace(options, window=28, horizon=28),
            dataclasses.replace(options, window=56, horizon=35),
        ]
        gen = scenario.implied_generation()
        return {
            "traces": traces,
            "pairs": [(rep, trace, opt) for rep, trace in traces for opt in variants],
            "r_true": solve_r(scenario.R0(), gen),
            "R0_true": scenario.R0(),
            "gen_mean": gen.mean(),
            "mean_g": [],
        }

    @staticmethod
    def inputs_digest(ctx) -> str:
        cols = ("t_infect", "infector", "t_inf_start", "t_inf_end", "t_symptom",
                "died", "t_outcome")
        return digest([[rep, trace.threshold_time, *(getattr(trace, c) for c in cols)]
                       for rep, trace in ctx["traces"]])

    @staticmethod
    def label(ctx, b: int) -> str:
        return f"pair{b % len(ctx['pairs'])}"

    def step(self, ctx, b: int):
        k = b % len(ctx["pairs"])
        rep, trace, opt = ctx["pairs"][k]
        try:
            ta = analysis.analyze_trace(trace, rep, opt)
        except Exception as exc:
            _report_exception(f"analyze_trace on pair {k}", exc)
            return 1, 1, None, []
        problems = check_trace_analysis(ta, ctx["r_true"], ctx["R0_true"])
        if b < len(ctx["pairs"]):
            ctx["mean_g"].append(ta.backward.mean_g)
            if len(ctx["mean_g"]) == len(ctx["pairs"]):
                pool_mean = float(np.mean(ctx["mean_g"]))
                if not pool_mean < ctx["gen_mean"]:
                    problems.append(f"pool mean backward G {pool_mean!r} is not below "
                                    f"the generation mean {ctx['gen_mean']}")
        problems = [f"analyze_trace on pair {k}: {p}" for p in problems]
        return 1, 1 if problems else 0, digest(ta), problems


class ExposureStudy(_SeededSteps):
    """exposure_study on the default model, ``exposure_replicates`` per family per step.

    An item is one (family, replicate) history set fitted by ml_fit and
    moment_fit.  exposure_study stops at the first exception, and its other
    items produce no output, so an exception fails every item of the step.
    """

    family = "exposure"

    def step(self, ctx, b: int):
        size = ctx["size"]
        cfg, _, _ = configure(batch_seed(ctx["seed"], b), size)
        n_items = 2 * size.exposure_replicates
        try:
            out = analysis.exposure_study(
                cfg.exposure_model, cfg.exposure_n_persons, size.exposure_replicates, cfg.seed
            )
        except Exception as exc:
            _report_exception(f"exposure step {b}", exc)
            return n_items, n_items, None, []
        problems = [f"exposure step {b}: {p}"
                    for p in check_exposure_study(out, cfg.exposure_model)]
        return n_items, n_items if problems else 0, digest(out), problems


WORKLOADS = {
    "ensemble-serial": Ensemble(threads=1),
    "reanalyze": Reanalyze(),
    "exposure-study": ExposureStudy(),
}
