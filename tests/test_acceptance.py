"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a PASS/FAIL line with the
measured values (run with ``-s`` to see them live), and asserts every
sub-check at its stated tolerance.  The heavyweight inputs -- a 200-run
analyzed ensemble and a 200-replicate exposure-estimator study -- are built
once per session.
"""

import json
import math
import time
from functools import partial

import numpy as np
import pytest

from epibias import growth_math
from epibias.analysis import EnsembleAnalysis, analyze_trace, exposure_study
from epibias.cfr import resolved_cfr_bias
from epibias.cli import main
from epibias.config import load_config
from _oracles import gamma_pdf_fn, solve_r_numeric
from epibias.distributions import GammaParams, laplace
from epibias.growth_math import (
    BiasSource, backward_bias, bias_table, serial_interval_bias, solve_r,
)
from epibias.outbreak_sim import Scenario, ensemble_map

N_TRACES = 200
N_EXPOSURE_REPLICATES = 200
# Days of each trace's infection curve kept for criterion 9's exponential phase.
EXP_PHASE_DAYS = 200

# Criterion 7's band for the moment fit's pooled sd, per generator family.
# Each centre is the pooled sd's expectation over 200 replicates of 500
# persons, measured on 5000 independent replicates per family: the moment
# fit's finite-sample bias puts it 4-5% below the true sd of 8.1.  The
# half-width is 3 standard errors at 200 replicates (0.38-0.40) plus 0.1 for
# the error of the measured centre.  CHANGES.md gives the measurements.
MOMENT_SD_POOLED = {"gamma": 7.8, "lognormal": 7.7}
MOMENT_SD_POOLED_HALF_WIDTH = 1.3
# Criterion 7's band for the moment fit's mean incubation is centred on the
# true mean 11.4 for both families.  Measured the same way, its expectation
# is 11.46 (gamma) and 11.41 (log-normal), 1.4 standard errors apart, 11.43
# together; the half-width is 3 standard errors at 200 replicates (0.14)
# plus 0.1, rounded up.
MOMENT_MEAN_HALF_WIDTH = 0.55


@pytest.fixture(scope="session")
def config():
    return load_config()


def infection_curve(trace):
    """Daily infections on the first ``EXP_PHASE_DAYS`` absolute days.

    Day i counts the infection times in [i, i + 1); the index case is
    infected at time 0.  None when the run ends before the last of them.
    """
    if trace.end_time < EXP_PHASE_DAYS:
        return None
    days = np.floor(trace.t_infect).astype(np.int64)
    return np.bincount(days, minlength=EXP_PHASE_DAYS)[:EXP_PHASE_DAYS]


def _analyze_with_curve(trace, rep, options):
    return analyze_trace(trace, rep, options), infection_curve(trace)


@pytest.fixture(scope="session")
def analyzed(config):
    """The analyzed ensemble, the infection curve of each trace, and the wall time."""
    t0 = time.perf_counter()
    fn = partial(_analyze_with_curve, options=config.options)
    results, attempts = ensemble_map(config.scenario, N_TRACES, fn)
    ens = EnsembleAnalysis(scenario=config.scenario, options=config.options,
                           n_attempts=attempts, traces=[ta for ta, _ in results])
    return ens, [curve for _, curve in results], time.perf_counter() - t0


@pytest.fixture(scope="session")
def ensemble(analyzed):
    ens, _, elapsed = analyzed
    return ens, elapsed


@pytest.fixture(scope="session")
def exposure_results(config):
    t0 = time.perf_counter()
    study = exposure_study(
        config.exposure_model,
        config.exposure_n_persons,
        N_EXPOSURE_REPLICATES,
        master_seed=config.seed,
    )
    return study, time.perf_counter() - t0


def check(criterion: str, subchecks: list[tuple[bool, str]]) -> None:
    failed = [label for ok, label in subchecks if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = "; ".join(label for _, label in subchecks)
    print(f"ACCEPTANCE {criterion}: {status} [{detail}]")
    assert not failed, f"criterion {criterion} failed: " + "; ".join(failed)


def test_criterion_1_bias_table_closed_forms(config):
    t0 = time.perf_counter()
    rows = {r.source: r for r in bias_table(config.scenario, config.me_gen,
                                            config.me_biased_gen)}
    elapsed = time.perf_counter() - t0
    bw, si = rows[BiasSource.BACKWARD], rows[BiasSource.SERIAL_INTERVAL]
    me, co = rows[BiasSource.MULTIPLE_EXPOSURE], rows[BiasSource.COMBINED]
    # the backward and serial rows are the simulated outbreak's
    scn = Scenario()
    R0, gen = scn.R0(), scn.implied_generation()
    bw_exact = backward_bias(R0, gen)
    si_exact = serial_interval_bias(R0, gen, scn.serial_cv_factor())
    check("1 (bias table)", [
        (bw.R0_biased == bw_exact.R0_biased,
         f"backward R0 {bw.R0_biased!r} == {bw_exact.R0_biased!r} of the scenario's R0 and G"),
        (si == si_exact, f"serial row from the scenario's c = {scn.serial_cv_factor():.6f}"),
        (abs(100 * bw.R0_rel_bias - (-8)) < 0.5, f"backward R0 {100*bw.R0_rel_bias:+.2f}% vs -8"),
        (abs(100 * bw.r_rel_bias - 19) < 0.5, f"backward r {100*bw.r_rel_bias:+.2f}% vs +19"),
        (abs(100 * si.R0_rel_bias - (-0.2)) < 0.5, f"serial R0 {100*si.R0_rel_bias:+.2f}% vs -0.2"),
        (abs(100 * si.r_rel_bias - 0.5) < 0.5, f"serial r {100*si.r_rel_bias:+.2f}% vs +0.5"),
        (abs(100 * me.R0_rel_bias - (-12)) < 0.5, f"multiple R0 {100*me.R0_rel_bias:+.2f}% vs -12"),
        (abs(100 * me.r_rel_bias - 36) < 0.5, f"multiple r {100*me.r_rel_bias:+.2f}% vs +36"),
        (abs(100 * co.R0_rel_bias - (-20)) < 2.0, f"combined R0 {100*co.R0_rel_bias:+.2f}% vs -20"),
        (abs(100 * co.r_rel_bias - 62) < 2.0, f"combined r {100*co.r_rel_bias:+.2f}% vs +62"),
        (elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"),
    ])


def test_criterion_2_growth_solver_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    done = 0
    while done < 1000:
        gen = GammaParams(rng.uniform(0.3, 10.0), rng.uniform(0.01, 2.0))
        R0 = rng.uniform(1.05, 5.0)
        closed = solve_r(R0, gen)
        if closed > 9.5:
            # outside the solver's documented bracket of 10/day
            continue
        done += 1
        numeric = solve_r_numeric(R0, gamma_pdf_fn(gen.shape, gen.rate))
        worst = max(worst, abs(closed - numeric))
    elapsed = time.perf_counter() - t0
    check("2 (growth-rate solvers)", [
        (worst < 1e-8, f"max |closed - numeric| = {worst:.2e} over 1000 triples"),
        (elapsed < 120.0, f"runtime {elapsed:.1f}s"),
    ])


def test_criterion_3_ensemble_statistics(ensemble):
    ens, elapsed = ensemble
    thr = ens.values(lambda t: t.summary.threshold_time)
    ratio = ens.values(lambda t: t.summary.notified_over_infected)
    p1 = ens.values(lambda t: t.summary.time_to_first_100)
    p2 = ens.values(lambda t: t.summary.time_100_to_threshold)
    qlo, qhi = np.quantile(ratio, 0.025), np.quantile(ratio, 0.975)
    check("3 (ensemble statistics)", [
        (abs(thr.mean() - 200) < 10, f"threshold-time mean {thr.mean():.1f} in 200+-10"),
        (qlo >= 0.66 and qhi <= 0.74, f"ratio 95% range [{qlo:.3f}, {qhi:.3f}] in [0.66, 0.74]"),
        (abs(ratio.mean() - 0.70) < 0.01, f"ratio mean {ratio.mean():.4f} in 0.70+-0.01"),
        (abs(p1.mean() - 102) < 8, f"first-100 mean {p1.mean():.1f} in 102+-8"),
        (abs(p2.mean() - 98) < 4, f"100-to-threshold mean {p2.mean():.1f} in 98+-4"),
        (elapsed < 1800, f"ensemble runtime {elapsed:.0f}s"),
    ])


def test_criterion_4_backward_interval_contraction(ensemble):
    ens, _ = ensemble
    mean_g = ens.values(lambda t: t.backward.mean_g)
    var_g = ens.values(lambda t: t.backward.var_g)
    mean_s = ens.values(lambda t: t.backward.mean_s)
    check("4 (backward intervals)", [
        (abs(mean_g.mean() - 12.6) < 0.4, f"backward mean {mean_g.mean():.2f} in 12.6+-0.4"),
        (abs(var_g.mean() - 52) < 5, f"backward variance {var_g.mean():.1f} in 52+-5"),
        (abs(mean_s.mean() - mean_g.mean()) < 0.5,
         f"|serial - generation| mean gap {abs(mean_s.mean() - mean_g.mean()):.3f} < 0.5"),
    ])


def test_criterion_5_renewal_estimator_bias(ensemble):
    ens, _ = ensemble
    bw = ens.values(lambda t: t.R0_backward_weights)
    true_w = ens.values(lambda t: t.R0_true_weights)
    check("5 (renewal estimator)", [
        (1.55 <= bw.mean() <= 1.58, f"backward-weights mean {bw.mean():.4f} in [1.55, 1.58]"),
        (bw.max() < 1.7, f"backward-weights max {bw.max():.4f} < 1.7"),
        (abs(true_w.mean() - 1.7) < 0.02, f"true-weights mean {true_w.mean():.4f} in 1.7+-0.02"),
    ])


def test_criterion_6_growth_estimators(ensemble, config):
    ens, _ = ensemble
    r_true = solve_r(config.scenario.R0(), config.scenario.implied_generation())
    # Each method's mean must recover the true r within 0.0005 (the allowance
    # for the estimators' small finite-window bias) plus 2 standard errors of
    # a mean over this ensemble (its Monte-Carlo error).  The criterion-6
    # entry in CHANGES.md gives the measurements behind both parts.
    subchecks = []
    for m in ("a", "b", "c", "d"):
        vals = ens.values(lambda t, m=m: t.r_estimates[m])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        tol = 0.0005 + 2 * se
        dev = vals.mean() - r_true
        subchecks.append(
            (abs(dev) < tol,
             f"({m}) mean {vals.mean():.5f} in r_true+-{tol:.5f}, se {se:.5f}, {dev / se:+.1f} se")
        )
    ratios = ens.values(lambda t: t.predictions["a"].ratio)
    qlo, qhi = np.quantile(ratios, 0.025), np.quantile(ratios, 0.975)
    subchecks.append((qhi - qlo <= 0.35, f"(a) prediction 95% width {qhi-qlo:.3f} <= 0.35"))
    subchecks.append((qlo <= 1.0 <= qhi, f"(a) prediction range [{qlo:.3f}, {qhi:.3f}] covers 1.0"))
    check(f"6 (growth estimators, r_true {r_true:.5f}, n {len(ens)})", subchecks)


def test_criterion_7_exposure_estimators(exposure_results):
    study, elapsed = exposure_results
    ml_g = study["gamma"]["ml"]
    ml_ln = study["lognormal"]["ml"]
    subchecks = [
        (abs(ml_g["p"]["mean"] - 0.5) < 0.01, f"ML-gamma p {ml_g['p']['mean']:.4f} in 0.5+-0.01"),
        (abs(ml_g["mean"]["mean"] - 11.4) < 0.2,
         f"ML-gamma mean {ml_g['mean']['mean']:.3f} in 11.4+-0.2"),
        (abs(ml_g["sd"]["mean"] - 8.1) < 0.2, f"ML-gamma sd {ml_g['sd']['mean']:.3f} in 8.1+-0.2"),
        (ml_ln["sd"]["mean"] < 7.0,
         f"ML-lognormal sd {ml_ln['sd']['mean']:.3f} < 7 (misspecification bias)"),
    ]
    for family in ("gamma", "lognormal"):
        mom = study[family]["moment"]
        sd_pooled = study[family]["moment_sd_pooled"]
        centre, half = MOMENT_SD_POOLED[family], MOMENT_SD_POOLED_HALF_WIDTH
        subchecks += [
            (abs(mom["p"]["mean"] - 0.5) < 0.02,
             f"Mom-{family} p {mom['p']['mean']:.4f} in 0.5+-0.02"),
            (abs(mom["mean"]["mean"] - 11.4) < MOMENT_MEAN_HALF_WIDTH,
             f"Mom-{family} mean {mom['mean']['mean']:.3f} in 11.4+-{MOMENT_MEAN_HALF_WIDTH}"),
            (abs(sd_pooled - centre) < half,
             f"Mom-{family} pooled sd {sd_pooled:.3f} in {centre}+-{half}"),
        ]
    subchecks.append((elapsed < 900, f"runtime {elapsed:.0f}s"))
    check("7 (exposure estimators)", subchecks)


def test_criterion_8_cfr_corrections(ensemble, tmp_path):
    # The paper's example: r = 0.0347, CFR 0.7, exponential delays with
    # means 9 and 17 days.
    r, death, recovery = 0.0347, GammaParams(1.0, 1.0 / 9.0), GammaParams(1.0, 1.0 / 17.0)
    pi = laplace(death, r)
    rho = laplace(recovery, r)
    resolved = resolved_cfr_bias(0.7, pi, rho)
    ens, _ = ensemble
    corrected = ens.values(lambda t: t.cfr_corrected)
    qlo, qhi = np.quantile(corrected, 0.025), np.quantile(corrected, 0.975)
    # The simulated outbreak's deaths / (deaths + recoveries) at the threshold
    # against the cfr report's expectation for it.
    deaths = ens.values(lambda t: t.cfr_raw * (t.summary.resolved + t.summary.pending_notified))
    share = deaths / ens.values(lambda t: t.summary.resolved)
    mean, se = share.mean(), share.std(ddof=1) / math.sqrt(len(share))
    assert main(["cfr", "--out", str(tmp_path)]) == 0
    expected = json.loads((tmp_path / "cfr_report.json").read_text())[
        "resolved_estimator_expectation"]
    check("8 (CFR corrections)", [
        (round(pi, 2) == 0.76, f"pi(inf) {pi:.4f} rounds to 0.76"),
        (round(rho, 2) == 0.63, f"rho(inf) {rho:.4f} rounds to 0.63"),
        (abs(resolved - 0.738) < 0.001, f"resolved estimator {resolved:.4f} in 0.738+-0.001"),
        (qlo <= 0.7 <= qhi, f"corrected naive 95% range [{qlo:.3f}, {qhi:.3f}] covers 0.7"),
        (abs(mean - expected) < 0.001 + 2 * se,
         f"resolved share {mean:.5f} +- {se:.5f} within 0.001 + 2 SE of the report's "
         f"{expected:.5f}"),
    ])


def test_criterion_9_property_suite(analyzed, config):
    ens, curves, _ = analyzed
    mean_g = ens.values(lambda t: t.backward.mean_g)
    mean_s = ens.values(lambda t: t.backward.mean_s)
    dvar = ens.values(lambda t: t.forward.var_s - t.forward.var_g)

    # exponential phase: ensemble-mean daily infections on absolute days
    r_true = solve_r(config.scenario.R0(), config.scenario.implied_generation())
    mean_curve = np.mean(np.array([c for c in curves if c is not None]), axis=0)
    days = np.arange(100, 200, dtype=float)
    slope = np.polyfit(days, np.log(mean_curve[100:200]), 1)[0]

    # determinism across worker counts on a reduced scenario
    small = Scenario(notify_threshold=200, followup=10.0, master_seed=config.seed)
    serial, _ = ensemble_map(small, 3, _fingerprint, threads=1)
    parallel, _ = ensemble_map(small, 3, _fingerprint, threads=2)

    check("9 (property suite)", [
        ((mean_g < 15.0).mean() >= 0.99,
         f"backward contraction in {(mean_g < 15.0).mean():.1%} of runs"),
        (abs(np.mean(mean_s - mean_g)) < 0.5,
         f"serial-generation mean gap {np.mean(mean_s - mean_g):+.3f} within +-0.5"),
        (abs(dvar.mean() - 3.99) < 1.25,
         f"forward Var(S)-Var(G) {dvar.mean():.2f} near 3.99"),
        (abs(slope - r_true) < 0.05 * r_true,
         f"exponential-phase slope {slope:.5f} within 5% of {r_true:.5f}"),
        (serial == parallel, "thread-count invariance of ensemble results"),
    ])


def _fingerprint(trace, rep):
    return (rep, float(trace.threshold_time), len(trace),
            float(trace.t_infect.sum()), float(trace.t_symptom.sum()))
