"""Pass probability and power of the acceptance suite's Monte-Carlo checks.

Not part of the test suite (pytest collects only ``test_*.py`` files).  Run
from the repository root:

    PYTHONPATH=src:tests python tests/audit_bands.py

Each Monte-Carlo sub-check is one entry of ``test_acceptance.bands``: the
suite asserts it on its own sample, and this script measures it on
independent ones.  A band added to that table is audited here without a
change to this file.

Part 1 simulates and analyzes ``--traces`` accepted runs of the default
configuration, on the replicate streams that follow the ones the acceptance
ensemble uses, so the two samples are independent.  For every band of
acceptance criteria 3, 4, 5, 6, 8 and 9 it draws ``--resamples`` resamples
(with replacement) of the suite's 200 traces and reports:

- the pass probability;
- the power: the probability of failing after the column the band reads
  is shifted by -3% and by +3% of its audit mean, as criterion 6 was
  audited;
- the joint pass probability per criterion and over all of them.

Part 2 runs ``test_outbreak_sim.offspring_law``, the ``TestOffspringLaw``
checks on 32 accepted default runs, at the fixture's master seed 77 and at
``--law-seeds`` others, and reports the distribution of each of the four
tests' p-values.  Under a correct simulator each p-value is uniform, so a
test at level 0.01 fails about 1% of seeds.

Part 3 runs ``--exposure-replicates`` replicates per generator family of
the exposure study on the replicate streams that start at
``--exposure-first`` (by default the ones that follow the suite's 200), and
reports the same pass probability, power and joint pass probability of the
criterion-7 bands over resamples of the suite's 200 replicates per family.
Here the shift is applied to the checked statistic itself (for the moment
fit's pooled sd, the square root of the mean variance estimate), which for
a mean is the same as shifting every replicate's value.

The default run took 69 s on one core of a 2-vCPU VM: 14 s to simulate
the 1000-trace pool, 46 s for the 100 law seeds and 4 s for 1000 exposure
replicates per family.
"""

import argparse
import contextlib
import io
import tempfile
import time
from pathlib import Path

import numpy as np
from scipy import stats

from epibias.analysis import EXPOSURE_FAMILIES, analyze_trace
from epibias.config import load_config
from epibias.growth_math import solve_r
from epibias.outbreak_sim import ensemble_map, simulate_outbreak
from test_acceptance import (
    N_EXPOSURE_REPLICATES, N_TRACES, bands, exp_phase_slopes, exposure_columns,
    exposure_fits, infection_curve, resolved_expectation, trace_columns,
)
from test_outbreak_sim import OFFSPRING_LAW_SEED, offspring_law

SHIFT = 0.03          # planted shift, as a fraction of the statistic's audit mean
CHUNK = 1000          # resamples evaluated at once


def resample_bands(table, draw, centre, n_resamples, seed, shift_column):
    """Pass probability and power of each band over ``n_resamples`` rows.

    ``draw(rng, size)`` returns ``size`` resampled rows of every column.
    The power shifts by -/+``SHIFT`` of ``centre[label]`` the band's column
    when ``shift_column``, else its statistic.  Returns a row (criterion,
    label, centre, pass, power -, power +) per band and the joint pass
    probability per criterion and over all ("all").
    """
    rng = np.random.default_rng(seed)
    passes = {band.label: [] for band in table}
    fails_shifted = {(band.label, sign): [] for band in table for sign in (-1, 1)}
    for start in range(0, n_resamples, CHUNK):
        sample = draw(rng, min(CHUNK, n_resamples - start))
        for band in table:
            x = sample[band.column]
            stat = band.statistic(x, sample)
            passes[band.label].append(band.passes(stat))
            for sign in (-1, 1):
                shift = sign * SHIFT * abs(centre[band.label])
                shifted = band.statistic(x + shift, sample) if shift_column else stat + shift
                fails_shifted[(band.label, sign)].append(~band.passes(shifted))
    passes = {label: np.concatenate(v) for label, v in passes.items()}
    rows = [(band.criterion, band.label, centre[band.label], passes[band.label].mean(),
             np.concatenate(fails_shifted[(band.label, -1)]).mean(),
             np.concatenate(fails_shifted[(band.label, 1)]).mean()) for band in table]
    joint = {crit: np.all([passes[b.label] for b in table if b.criterion == crit], axis=0).mean()
             for crit in sorted({b.criterion for b in table})}
    joint["all"] = np.all(list(passes.values()), axis=0).mean()
    return rows, joint


def print_bands(rows, joint, n_resamples: int, of: str, noun: str) -> None:
    print(f"\n{n_resamples} resamples of {of}; power = P(fail) after shifting the statistic "
          f"by -/+{SHIFT:.0%} of its audit {noun}\n")
    print(f"| criterion | sub-check | audit {noun} | pass | power -3% | power +3% |")
    print("| --- | --- | --- | --- | --- | --- |")
    for crit, label, centre, p_pass, p_down, p_up in rows:
        print(f"| {crit} | {label} | {centre:.5g} | {p_pass:.4f} | {p_down:.4f} | {p_up:.4f} |")
    print("\njoint pass probability: " + ", ".join(
        f"criterion {crit} {p:.4f}" if crit != "all" else f"all {p:.4f}"
        for crit, p in joint.items()))


# -- part 1: ensemble bands -------------------------------------------------


def audit_pool(config, n_traces: int):
    """Per-trace columns and infection curves of ``n_traces`` accepted runs
    past the suite's replicates."""
    scenario, options = config.scenario, config.options
    _, suite_attempts = ensemble_map(scenario, N_TRACES, lambda trace, rep: rep)
    analyses, curves = [], []
    rep = suite_attempts
    while len(analyses) < n_traces:
        trace = simulate_outbreak(scenario, rep)
        if trace is not None:
            analyses.append(analyze_trace(trace, rep, options))
            curves.append(infection_curve(trace))
        rep += 1
    return trace_columns(analyses), curves, (suite_attempts, rep)


def ensemble_bands(table, pool, curves, n_resamples, seed=1):
    """``resample_bands`` of ``table`` over resamples of ``N_TRACES`` pool traces.

    Each band's column is centred on its pool mean, and criterion 9's slope,
    which exists only per resample, on its mean over the first chunk.
    """
    n_pool = len(curves)

    def draw(rng, size):
        idx = rng.integers(0, n_pool, size=(size, N_TRACES))
        sample = {name: col[idx] for name, col in pool.items()}
        counts = np.zeros((size, n_pool))
        np.add.at(counts, (np.arange(size)[:, None], idx), 1.0)
        sample["slope"] = exp_phase_slopes(counts, curves)[:, None]
        return sample

    first = draw(np.random.default_rng(seed), min(CHUNK, n_resamples))
    centre = {band.label: float((pool if band.column in pool else first)[band.column].mean())
              for band in table}
    return resample_bands(table, draw, centre, n_resamples, seed, shift_column=True)


def audit_ensemble(config, table, n_traces: int, n_resamples: int) -> None:
    t0 = time.perf_counter()
    pool, curves, (first, last) = audit_pool(config, n_traces)
    print(f"audit pool: {len(curves)} accepted traces from replicates {first}-{last - 1} "
          f"of seed {config.seed} ({time.perf_counter() - t0:.0f} s)")
    print_bands(*ensemble_bands(table, pool, curves, n_resamples), n_resamples, N_TRACES, "mean")


# -- part 2: offspring-law tests --------------------------------------------


def audit_offspring_law(n_seeds: int) -> None:
    own = offspring_law(OFFSPRING_LAW_SEED)[2]
    print(f"\noffspring-law tests at the fixture's own seed {OFFSPRING_LAW_SEED}: " + ", ".join(
        f"{name} p {p:.4f} {'pass' if ok else 'FAIL'}" for name, (p, ok) in own.items()))
    t0 = time.perf_counter()
    seeds = list(range(1000, 1000 + n_seeds))
    results = {}
    for seed in seeds:
        for name, value in offspring_law(seed)[2].items():
            results.setdefault(name, []).append(value)
    print(f"\noffspring-law tests over {len(seeds)} master seeds "
          f"({seeds[0]}-{seeds[-1]}; {time.perf_counter() - t0:.0f} s)\n")
    print("| test | seeds | fail rate | p 10% / 50% / 90% | KS vs uniform p |")
    print("| --- | --- | --- | --- | --- |")
    for name, values in results.items():
        p = np.array([v[0] for v in values])
        fail = 1.0 - np.mean([v[1] for v in values])
        q = np.quantile(p, [0.1, 0.5, 0.9])
        print(f"| {name} | {len(p)} | {fail:.3f} | {q[0]:.3f} / {q[1]:.3f} / {q[2]:.3f} | "
              f"{stats.kstest(p, 'uniform').pvalue:.3f} |")


# -- part 3: exposure-study bands (criterion 7) ------------------------------


def exposure_bands(table, pool, n_resamples, seed=2):
    """``resample_bands`` of ``table`` over resamples of ``N_EXPOSURE_REPLICATES``
    pool replicates per family, each band centred on its statistic over the pool."""
    whole = {name: col[None, :] for name, col in pool.items()}
    centre = {band.label: float(band.statistic(whole[band.column], whole)[0]) for band in table}

    def draw(rng, size):
        sample = {}
        for family in EXPOSURE_FAMILIES:
            names = [name for name in pool if name.startswith(f"{family}_")]
            idx = rng.integers(0, len(pool[names[0]]), size=(size, N_EXPOSURE_REPLICATES))
            sample.update({name: pool[name][idx] for name in names})
        return sample

    return resample_bands(table, draw, centre, n_resamples, seed, shift_column=False)


def audit_exposures(config, table, n_replicates: int, n_resamples: int, first: int) -> None:
    t0 = time.perf_counter()
    fits = exposure_fits(config, range(first, first + n_replicates))
    counts = {family: {
        "ml_nonconverged": sum(m is None for m, _, _ in fam),
        "moment_inadmissible": sum(f is not None and not ok for _, f, ok in fam),
        "moment_unsolved": sum(f is None for _, f, _ in fam),
    } for family, fam in fits.items()}
    print(f"\nexposure pool: {n_replicates} replicates per family, replicates "
          f"{first}-{first + n_replicates - 1} of seed {config.seed} "
          f"({time.perf_counter() - t0:.0f} s); {counts}")
    rows, joint = exposure_bands(table, exposure_columns(fits), n_resamples)
    print_bands(rows, {"7": joint["7"]}, n_resamples,
                f"{N_EXPOSURE_REPLICATES} replicates per family", "value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--traces", type=int, default=1000,
                        help="accepted traces to analyze (0 skips part 1)")
    parser.add_argument("--resamples", type=int, default=20_000)
    parser.add_argument("--law-seeds", type=int, default=100,
                        help="master seeds for the offspring-law tests (0 skips part 2)")
    parser.add_argument("--exposure-replicates", type=int, default=1000,
                        help="exposure-study replicates per family (0 skips part 3)")
    parser.add_argument("--exposure-first", type=int, default=N_EXPOSURE_REPLICATES,
                        help="first exposure-study replicate stream; the suite uses 0-199")
    args = parser.parse_args()
    if args.exposure_replicates and args.exposure_first < N_EXPOSURE_REPLICATES:
        parser.error("--exposure-first must lie past the suite's replicates")

    config = load_config()
    r_true = solve_r(config.scenario.R0(), config.scenario.implied_generation())
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        table = bands(r_true, resolved_expectation(Path(tmp)))
    if args.traces:
        audit_ensemble(config, [b for b in table if b.criterion != "7"],
                       args.traces, args.resamples)
    if args.law_seeds:
        audit_offspring_law(args.law_seeds)
    if args.exposure_replicates:
        audit_exposures(config, [b for b in table if b.criterion == "7"],
                        args.exposure_replicates, args.resamples, args.exposure_first)


if __name__ == "__main__":
    main()
