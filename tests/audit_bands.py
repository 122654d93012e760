"""Pass probability and power of the acceptance suite's Monte-Carlo checks.

Not part of the test suite (pytest collects only ``test_*.py`` files).  Run
from the repository root:

    PYTHONPATH=src:tests python tests/audit_bands.py

Part 1 simulates and analyzes ``--traces`` accepted runs of the default
configuration, on the replicate streams that follow the ones the acceptance
ensemble uses, so the two samples are independent.  For every Monte-Carlo
sub-check of acceptance criteria 3, 4, 5, 6, 8 and 9 it draws
``--resamples`` resamples (with replacement) of the suite's 200 traces and
reports:

- the pass probability;
- the power: the probability of failing after the checked statistic is
  shifted by -3% and by +3% of its audit mean, as criterion 6 was audited;
- the joint pass probability per criterion and over all of them.

Part 2 rebuilds the ``TestOffspringLaw`` fixture of ``test_outbreak_sim``
(32 accepted default runs at master seed 77) at ``--law-seeds`` other master
seeds, and reports the distribution of each of the four tests' p-values.
Under a correct simulator each p-value is uniform, so a test at level 0.01
fails about 1% of seeds.

Part 3 runs ``--exposure-replicates`` replicates per generator family of
the exposure study (criterion 7) on the replicate streams that start at
``--exposure-first`` (by default the ones that follow the suite's 200), and
reports the same pass probability, power and joint pass probability over
resamples of the suite's 200 replicates per family.  Here
the shift is applied to the checked statistic itself (for the moment
fit's pooled sd, the square root of the mean variance estimate), which for
a mean is the same as shifting every replicate's value.

About 2 minutes on one core for 1000 traces and 100 law seeds, and 20 s
for 1000 exposure replicates per family.
"""

import argparse
import math
import time

import numpy as np
from scipy import stats

from epibias.analysis import EXPOSURE_FAMILIES, analyze_trace, exposure_fit
from epibias.config import load_config
from epibias.growth_math import solve_r
from epibias.outbreak_sim import Scenario, ensemble_map, simulate_outbreak
from epibias.rng import stream
from test_acceptance import (
    MOMENT_MEAN_HALF_WIDTH, MOMENT_SD_POOLED, MOMENT_SD_POOLED_HALF_WIDTH,
    EXP_PHASE_DAYS, N_EXPOSURE_REPLICATES, N_TRACES, infection_curve,
)

SHIFT = 0.03          # planted shift, as a fraction of the statistic's audit mean
CHUNK = 1000          # resamples evaluated at once


# -- part 1: acceptance bands ---------------------------------------------


def audit_pool(config, n_traces: int):
    """Per-trace statistics of ``n_traces`` accepted runs past the suite's replicates."""
    scenario, options = config.scenario, config.options
    _, suite_attempts = ensemble_map(scenario, N_TRACES, _replicate)
    rows, curves = [], []
    rep = suite_attempts
    while len(rows) < n_traces:
        trace = simulate_outbreak(scenario, rep)
        if trace is not None:
            ta = analyze_trace(trace, rep, options)
            s = ta.summary
            rows.append({
                "thr": s.threshold_time, "ratio": s.notified_over_infected,
                "p1": s.time_to_first_100, "p2": s.time_100_to_threshold,
                "mean_g": ta.backward.mean_g, "var_g": ta.backward.var_g,
                "mean_s": ta.backward.mean_s,
                "bw": ta.R0_backward_weights, "true_w": ta.R0_true_weights,
                **{f"r_{m}": ta.r_estimates[m] for m in "abcd"},
                "pred_a": ta.predictions["a"].ratio, "cfr": ta.cfr_corrected,
                "dvar": ta.forward.var_s - ta.forward.var_g,
            })
            curves.append(infection_curve(trace))
        rep += 1
    pool = {key: np.array([row[key] for row in rows]) for key in rows[0]}
    has_curve = np.array([c is not None for c in curves])
    curve = np.array([np.zeros(EXP_PHASE_DAYS) if c is None else c for c in curves], dtype=float)
    return pool, curve, has_curve, (suite_attempts, rep)


def _replicate(trace, rep):
    return rep


def _mean(x):
    return x.mean(axis=1)


def _q(x, p):
    return np.quantile(x, p, axis=1)


def subchecks(r_true: float):
    """(criterion, label, statistic shifted for the power, check on resamples)."""
    def within(key, centre, half):
        return lambda s: np.abs(_mean(s[key]) - centre) < half

    def r_check(m):
        def check(s):
            x = s[f"r_{m}"]
            se = x.std(axis=1, ddof=1) / math.sqrt(x.shape[1])
            return np.abs(_mean(x) - r_true) < 0.0005 + 2 * se
        return check

    return [
        ("3", "threshold-time mean in 200+-10", "thr", within("thr", 200, 10)),
        ("3", "ratio 95% range in [0.66, 0.74]", "ratio",
         lambda s: (_q(s["ratio"], 0.025) >= 0.66) & (_q(s["ratio"], 0.975) <= 0.74)),
        ("3", "ratio mean in 0.70+-0.01", "ratio", within("ratio", 0.70, 0.01)),
        ("3", "first-100 mean in 102+-8", "p1", within("p1", 102, 8)),
        ("3", "100-to-threshold mean in 98+-4", "p2", within("p2", 98, 4)),
        ("4", "backward mean in 12.6+-0.4", "mean_g", within("mean_g", 12.6, 0.4)),
        ("4", "backward variance in 52+-5", "var_g", within("var_g", 52, 5)),
        ("4", "|serial - generation| mean gap < 0.5", "mean_s",
         lambda s: np.abs(_mean(s["mean_s"]) - _mean(s["mean_g"])) < 0.5),
        ("5", "backward-weights mean in [1.55, 1.58]", "bw",
         lambda s: (_mean(s["bw"]) >= 1.55) & (_mean(s["bw"]) <= 1.58)),
        ("5", "backward-weights max < 1.7", "bw", lambda s: s["bw"].max(axis=1) < 1.7),
        ("5", "true-weights mean in 1.7+-0.02", "true_w", within("true_w", 1.7, 0.02)),
        *[("6", f"({m}) mean in r_true+-(0.0005+2se)", f"r_{m}", r_check(m)) for m in "abcd"],
        ("6", "(a) prediction 95% width <= 0.35", "pred_a",
         lambda s: _q(s["pred_a"], 0.975) - _q(s["pred_a"], 0.025) <= 0.35),
        ("6", "(a) prediction range covers 1.0", "pred_a",
         lambda s: (_q(s["pred_a"], 0.025) <= 1.0) & (_q(s["pred_a"], 0.975) >= 1.0)),
        ("8", "corrected naive 95% range covers 0.7", "cfr",
         lambda s: (_q(s["cfr"], 0.025) <= 0.7) & (_q(s["cfr"], 0.975) >= 0.7)),
        ("9", "backward contraction in >= 99% of runs", "mean_g",
         lambda s: (s["mean_g"] < 15.0).mean(axis=1) >= 0.99),
        ("9", "serial-generation mean gap within +-0.5", "mean_s",
         lambda s: np.abs(_mean(s["mean_s"] - s["mean_g"])) < 0.5),
        ("9", "forward Var(S)-Var(G) in 3.99+-1.25", "dvar", within("dvar", 3.99, 1.25)),
        ("9", "exponential-phase slope within 5% of r_true", "slope",
         lambda s: np.abs(s["slope"][:, 0] - r_true) < 0.05 * r_true),
    ]


def resampled_slopes(idx, curve, has_curve):
    """Criterion 9's slope of log mean daily infections, days 100-199, per resample."""
    weights = np.zeros((len(idx), len(curve)))
    np.add.at(weights, (np.arange(len(idx))[:, None], idx), has_curve[idx].astype(float))
    mean_curve = weights @ curve / weights.sum(axis=1, keepdims=True)
    days = np.arange(100, 200, dtype=float)
    y = np.log(mean_curve[:, 100:200])
    dc = days - days.mean()
    return ((y - y.mean(axis=1, keepdims=True)) @ dc / (dc @ dc))[:, None]


def audit_bands(pool, curve, has_curve, r_true, n_resamples, seed=1):
    checks = subchecks(r_true)
    rng = np.random.default_rng(seed)
    n_pool = len(pool["thr"])
    passes = {c[1]: [] for c in checks}
    fails_shifted = {(c[1], sign): [] for c in checks for sign in (-1, 1)}
    slope_mean = None
    for start in range(0, n_resamples, CHUNK):
        idx = rng.integers(0, n_pool, size=(min(CHUNK, n_resamples - start), N_TRACES))
        sample = {key: values[idx] for key, values in pool.items()}
        sample["slope"] = resampled_slopes(idx, curve, has_curve)
        if slope_mean is None:
            slope_mean = float(sample["slope"].mean())
        for _, label, key, check in checks:
            passes[label].append(check(sample))
            centre = slope_mean if key == "slope" else float(pool[key].mean())
            for sign in (-1, 1):
                shifted = dict(sample)
                shifted[key] = sample[key] + sign * SHIFT * abs(centre)
                fails_shifted[(label, sign)].append(~check(shifted))
    passes = {label: np.concatenate(v) for label, v in passes.items()}
    rows = []
    for crit, label, key, _ in checks:
        rows.append((crit, label, passes[label].mean(),
                     np.concatenate(fails_shifted[(label, -1)]).mean(),
                     np.concatenate(fails_shifted[(label, 1)]).mean()))
    joint = {}
    for crit in sorted({c[0] for c in checks}):
        joint[crit] = np.all([passes[c[1]] for c in checks if c[0] == crit], axis=0).mean()
    joint["all"] = np.all(list(passes.values()), axis=0).mean()
    return rows, joint, slope_mean


# -- part 2: offspring-law tests ------------------------------------------


def offspring_data(master_seed: int):
    """The ``parent_data`` fixture of test_outbreak_sim at another master seed."""
    scn = Scenario(master_seed=master_seed)
    durations, counts, early = [], [], []
    rep = accepted = 0
    while accepted < 32:
        tr = simulate_outbreak(scn, rep)
        rep += 1
        if tr is None:
            continue
        accepted += 1
        done = np.flatnonzero(tr.t_inf_end <= tr.end_time)
        n_off = np.bincount(tr.infector[tr.infector >= 0], minlength=len(tr))
        durations.append((tr.t_inf_end - tr.t_inf_start)[done])
        counts.append(n_off[done])
        early.append(tr.t_infect[done] <= tr.end_time - 60.0)
    return np.concatenate(durations), np.concatenate(counts), np.concatenate(early)


def law_pvalues(d, n, early):
    """Each TestOffspringLaw test's p-value and whether the test passes.

    The mean test is |z| < 3, with the two-sided normal p-value of z.  The
    conditional-rate test is |z| < 4 in every duration decile with at least
    500 parents; its p-value is the Sidak-adjusted one of the largest |z|
    (the deciles are disjoint, so uniform under a correct simulator).
    """
    out = {}
    ne = n[early]
    z = (ne.mean() - 1.7) / (ne.std(ddof=1) / math.sqrt(len(ne)))
    out["mean_offspring"] = (2 * stats.norm.sf(abs(z)), abs(z) < 3)

    m, kmax = 1.7, 18
    probs = (1.0 / (1.0 + m)) * (m / (1.0 + m)) ** np.arange(kmax)
    probs = np.append(probs, 1.0 - probs.sum())
    observed = np.bincount(np.minimum(ne, kmax), minlength=kmax + 1)
    p = stats.chisquare(observed, probs * len(ne)).pvalue
    out["geometric_mixture_chi_square"] = (p, p > 0.01)

    lam = 0.34 * d
    v = stream(7070, 0).random(len(n))
    u = stats.poisson.cdf(n - 1, lam) + v * stats.poisson.pmf(n, lam)
    observed = np.bincount(np.minimum((u * 20).astype(int), 19), minlength=20)
    p = stats.chisquare(observed).pvalue
    out["poisson_given_duration_chi_square"] = (p, p > 0.01)

    de = d[early]
    edges = np.quantile(de, np.linspace(0, 1, 11))
    z = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (de >= lo) & (de < hi) if hi < edges[-1] else (de >= lo)
        if sel.sum() < 500:
            continue
        se = max(ne[sel].std(ddof=1) / math.sqrt(sel.sum()), 1e-3)
        z.append(abs(ne[sel].mean() - 0.34 * de[sel].mean()) / se)
    p = -math.expm1(len(z) * math.log1p(-2 * stats.norm.sf(max(z))))
    out["conditional_rate_by_duration"] = (p, max(z) < 4)
    return out


def audit_law_tests(seeds):
    results = {}
    for seed in seeds:
        for name, value in law_pvalues(*offspring_data(seed)).items():
            results.setdefault(name, []).append(value)
    rows = []
    for name, values in results.items():
        p = np.array([v[0] for v in values])
        passed = np.array([v[1] for v in values])
        rows.append((name, len(p), 1.0 - passed.mean(), np.quantile(p, [0.1, 0.5, 0.9]),
                     stats.kstest(p, "uniform").pvalue))
    return rows


def audit_ensemble(n_traces: int, n_resamples: int) -> None:
    config = load_config()
    r_true = solve_r(config.scenario.R0(), config.scenario.implied_generation())
    t0 = time.perf_counter()
    pool, curve, has_curve, (first, last) = audit_pool(config, n_traces)
    print(f"audit pool: {len(pool['thr'])} accepted traces from replicates {first}-{last - 1} "
          f"of seed {config.seed} ({time.perf_counter() - t0:.0f} s)")
    rows, joint, slope_mean = audit_bands(pool, curve, has_curve, r_true, n_resamples)
    print(f"\n{n_resamples} resamples of {N_TRACES}; power = P(fail) after shifting the "
          f"statistic by -/+{SHIFT:.0%} of its audit mean\n")
    print("| criterion | sub-check | audit mean | pass | power -3% | power +3% |")
    print("| --- | --- | --- | --- | --- | --- |")
    keys = {label: key for _, label, key, _ in subchecks(r_true)}
    for crit, label, p_pass, p_down, p_up in rows:
        key = keys[label]
        centre = slope_mean if key == "slope" else pool[key].mean()
        print(f"| {crit} | {label} | {centre:.5g} | {p_pass:.4f} | {p_down:.4f} | {p_up:.4f} |")
    print("\njoint pass probability: " + ", ".join(
        f"criterion {crit} {p:.4f}" if crit != "all" else f"all {p:.4f}"
        for crit, p in joint.items()))


# -- part 3: exposure-study bands (criterion 7) ----------------------------

def exposure_pool(config, n_replicates: int, first: int):
    """Per-replicate fits of each family, on the streams of replicates ``first`` onward.

    The fits are ``analysis.exposure_fit``, the exposure study's own: a
    replicate whose likelihood fit does not converge has NaN ml values, and
    one whose moment fit is inadmissible keeps its raw root (NaN only when
    unsolved).
    """
    model, n_persons = config.exposure_model, config.exposure_n_persons
    reps = range(first, first + n_replicates)
    nan = (math.nan,) * 3
    pool, counts = {}, {}
    for family in EXPOSURE_FAMILIES:
        fits = [exposure_fit((model, n_persons, family, config.seed, rep)) for rep in reps]
        ml = np.array([nan if m is None else (m.p, m.mean, m.sd) for m, _, _ in fits])
        mom = np.array([nan if f is None else (f.p, f.mean, f.variance) for _, f, _ in fits])
        pool[family] = dict(zip(("ml_p", "ml_mean", "ml_sd", "mom_p", "mom_mean", "mom_var"),
                                [*ml.T, *mom.T]))
        counts[family] = {
            "ml_nonconverged": sum(m is None for m, _, _ in fits),
            "moment_inadmissible": sum(f is not None and not ok for _, f, ok in fits),
            "moment_unsolved": sum(f is None for _, f, _ in fits),
        }
    return pool, counts


def exposure_subchecks():
    """(label, family, statistic per resample, check on the statistic)."""
    def mean_of(key):
        return lambda s: np.nanmean(s[key], axis=1)

    def within(centre, half):
        return lambda x: np.abs(x - centre) < half

    def pooled_sd(s):
        return np.sqrt(np.maximum(np.nanmean(s["mom_var"], axis=1), 0.0))

    checks = [
        ("ML-gamma p mean in 0.5+-0.01", "gamma", mean_of("ml_p"), within(0.5, 0.01)),
        ("ML-gamma mean in 11.4+-0.2", "gamma", mean_of("ml_mean"), within(11.4, 0.2)),
        ("ML-gamma sd mean in 8.1+-0.2", "gamma", mean_of("ml_sd"), within(8.1, 0.2)),
        ("ML-lognormal sd mean < 7", "lognormal", mean_of("ml_sd"), lambda x: x < 7.0),
    ]
    half, mean_half = MOMENT_SD_POOLED_HALF_WIDTH, MOMENT_MEAN_HALF_WIDTH
    for family in EXPOSURE_FAMILIES:
        centre = MOMENT_SD_POOLED[family]
        checks += [
            (f"Mom-{family} p mean in 0.5+-0.02", family, mean_of("mom_p"), within(0.5, 0.02)),
            (f"Mom-{family} mean in 11.4+-{mean_half}", family, mean_of("mom_mean"),
             within(11.4, mean_half)),
            (f"Mom-{family} pooled sd in {centre}+-{half}", family, pooled_sd,
             within(centre, half)),
        ]
    return checks


def audit_exposure_bands(pool, n_resamples, seed=2):
    checks = exposure_subchecks()
    whole = {family: {key: col[None, :] for key, col in cols.items()}
             for family, cols in pool.items()}
    centre = {label: float(stat(whole[family])[0]) for label, family, stat, _ in checks}
    rng = np.random.default_rng(seed)
    passes = {label: [] for label, *_ in checks}
    fails_shifted = {(label, sign): [] for label, *_ in checks for sign in (-1, 1)}
    for start in range(0, n_resamples, CHUNK):
        size = min(CHUNK, n_resamples - start)
        sample = {}
        for family, cols in pool.items():
            idx = rng.integers(0, len(cols["ml_p"]), size=(size, N_EXPOSURE_REPLICATES))
            sample[family] = {key: col[idx] for key, col in cols.items()}
        for label, family, stat, check in checks:
            x = stat(sample[family])
            passes[label].append(check(x))
            for sign in (-1, 1):
                fails_shifted[(label, sign)].append(~check(x + sign * SHIFT * abs(centre[label])))
    passes = {label: np.concatenate(v) for label, v in passes.items()}
    rows = [(label, centre[label], passes[label].mean(),
             np.concatenate(fails_shifted[(label, -1)]).mean(),
             np.concatenate(fails_shifted[(label, 1)]).mean()) for label, *_ in checks]
    return rows, np.all(list(passes.values()), axis=0).mean()


def audit_exposures(n_replicates: int, n_resamples: int, first: int) -> None:
    config = load_config()
    t0 = time.perf_counter()
    pool, counts = exposure_pool(config, n_replicates, first)
    print(f"\nexposure pool: {n_replicates} replicates per family, replicates "
          f"{first}-{first + n_replicates - 1} of seed {config.seed} "
          f"({time.perf_counter() - t0:.0f} s); {counts}")
    rows, joint = audit_exposure_bands(pool, n_resamples)
    print(f"\n{n_resamples} resamples of {N_EXPOSURE_REPLICATES} replicates per family; "
          f"power = P(fail) after shifting the statistic by -/+{SHIFT:.0%} of its audit value\n")
    print("| criterion | sub-check | audit value | pass | power -3% | power +3% |")
    print("| --- | --- | --- | --- | --- | --- |")
    for label, centre, p_pass, p_down, p_up in rows:
        print(f"| 7 | {label} | {centre:.5g} | {p_pass:.4f} | {p_down:.4f} | {p_up:.4f} |")
    print(f"\njoint pass probability: criterion 7 {joint:.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traces", type=int, default=1000,
                        help="accepted traces to analyze (0 skips part 1)")
    parser.add_argument("--resamples", type=int, default=20_000)
    parser.add_argument("--law-seeds", type=int, default=100,
                        help="master seeds for the offspring-law fixture (0 skips part 2)")
    parser.add_argument("--exposure-replicates", type=int, default=1000,
                        help="exposure-study replicates per family (0 skips part 3)")
    parser.add_argument("--exposure-first", type=int, default=N_EXPOSURE_REPLICATES,
                        help="first exposure-study replicate stream; the suite uses 0-199")
    args = parser.parse_args()

    if args.traces:
        audit_ensemble(args.traces, args.resamples)

    if args.law_seeds:
        own = law_pvalues(*offspring_data(77))
        print("\noffspring-law tests at the fixture's own seed 77: " + ", ".join(
            f"{name} p {p:.4f} {'pass' if ok else 'FAIL'}" for name, (p, ok) in own.items()))
        t0 = time.perf_counter()
        seeds = list(range(1000, 1000 + args.law_seeds))   # the fixture's own seed is 77
        law = audit_law_tests(seeds)
        print(f"\noffspring-law tests over {len(seeds)} master seeds "
              f"({seeds[0]}-{seeds[-1]}; {time.perf_counter() - t0:.0f} s)\n")
        print("| test | seeds | fail rate | p 10% / 50% / 90% | KS vs uniform p |")
        print("| --- | --- | --- | --- | --- |")
        for name, n, fail, q, ks in law:
            print(f"| {name} | {n} | {fail:.3f} | {q[0]:.3f} / {q[1]:.3f} / {q[2]:.3f} | {ks:.3f} |")

    if args.exposure_replicates:
        if args.exposure_first < N_EXPOSURE_REPLICATES:
            parser.error("--exposure-first must lie past the suite's replicates")
        audit_exposures(args.exposure_replicates, args.resamples, args.exposure_first)


if __name__ == "__main__":
    main()
