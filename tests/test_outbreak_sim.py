import dataclasses
import itertools
import math
import multiprocessing
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from _oracles import (
    heap_simulate_outbreak,
    mc_incubation_discount,
    mc_interval_variances,
    quad_interval_variances,
)
from epibias.distributions import GammaParams, laplace
from epibias.growth_estimators import CaseSeries, est_a_log_cumulative
from epibias import outbreak_sim
from epibias.analysis import notification_series
from epibias.outbreak_sim import (
    POOL_BLOCK,
    AcceptanceError,
    OutbreakTrace,
    Scenario,
    SimulationLimitError,
    ensemble_map,
    ordered_map,
    simulate_outbreak,
    summarize_trace,
)
from epibias.rng import stream


class TestScenario:
    def test_default_reproduction_number(self):
        assert math.isclose(Scenario().R0(), 1.7, rel_tol=1e-12)

    def test_implied_generation(self):
        g = Scenario().implied_generation()
        assert g.shape == 3.0 and g.rate == 0.2

    def test_implied_generation_needs_equal_rates(self):
        scn = Scenario(latent=GammaParams(2.0, 0.25))
        with pytest.raises(ValueError, match="latent_rate, infectious_rate = 1, 0.25, 0.2"):
            scn.implied_generation()

    def test_implied_generation_needs_an_exponential_infectious_period(self):
        # An infection's offset into a Gamma(2) infectious period is not Gamma(2).
        scn = Scenario(infectious=GammaParams(2.0, 0.2), contact_rate=0.17)
        with pytest.raises(ValueError, match=r"\[scenario\] infectious_shape, .* = 2, 0.2, 0.2"):
            scn.implied_generation()

    def test_serial_cv_factor_exact_cases(self):
        # Var S - Var G = 4 over Var G = 75 at the defaults; without spread in
        # the incubation factor, U = 1, symptoms end the latent period and S ~ G.
        assert math.isclose(Scenario().serial_cv_factor() ** 2, 79 / 75, rel_tol=1e-14)
        assert Scenario(incubation_factor_range=(1.0, 1.0)).serial_cv_factor() == 1.0

    @given(shape=st.floats(0.5, 8.0), rate=st.floats(0.05, 2.0), lo=st.floats(0.0, 2.0),
           width=st.floats(0.0, 1.0))
    def test_serial_cv_factor_matches_quadrature(self, shape, rate, lo, width):
        # Factor ranges from (0, 1) to (2, 3): the mean runs from below 1 to above.
        scn = Scenario(latent=GammaParams(shape, rate), infectious=GammaParams(1.0, rate),
                       incubation_factor_range=(lo, lo + width))
        var_g, var_s = quad_interval_variances(scn)
        closed_var_g = scn.implied_generation().variance()
        assert math.isclose(closed_var_g, var_g, rel_tol=1e-8)
        excess = (scn.serial_cv_factor() ** 2 - 1.0) * closed_var_g
        assert math.isclose(excess, var_s - var_g, rel_tol=1e-7, abs_tol=1e-8 * var_g)

    @pytest.mark.parametrize("factor_range, excess", [((0.8, 1.2), 4.0), ((0.5, 0.7), -23.0)])
    def test_serial_cv_factor_matches_monte_carlo(self, factor_range, excess):
        # ~850,000 pairs: Var S - Var G has a standard error of ~0.3.
        scn = Scenario(incubation_factor_range=factor_range)
        var_g, var_s = mc_interval_variances(np.random.default_rng(26), scn, n=500_000)
        assert math.isclose((scn.serial_cv_factor() ** 2 - 1.0) * 75.0, excess, rel_tol=1e-12)
        assert abs((var_s - var_g) - excess) < 1.5
        assert math.isclose(scn.serial_cv_factor() ** 2, var_s / var_g, rel_tol=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(contact_rate=-0.1)
        with pytest.raises(ValueError):
            Scenario(p_death=1.4)
        for followup in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="followup"):
                Scenario(followup=followup)
        for contact_rate in (math.nan, math.inf):
            with pytest.raises(ValueError, match="contact_rate"):
                Scenario(contact_rate=contact_rate)
        for bounds in ((0.8, math.inf), (math.nan, 1.2), (0.8, math.nan), (-0.1, 1.2)):
            with pytest.raises(ValueError, match="incubation_factor_range"):
                Scenario(incubation_factor_range=bounds)


class TestSimulate:
    def test_no_transmission_goes_extinct(self):
        scn = Scenario(contact_rate=0.0, notify_threshold=5, master_seed=3)
        assert all(simulate_outbreak(scn, rep) is None for rep in range(10))

    def test_deterministic_replay(self, small_scenario):
        a = simulate_outbreak(small_scenario, 1)
        b = simulate_outbreak(small_scenario, 1)
        if a is None:
            assert b is None
        else:
            assert np.array_equal(a.t_infect, b.t_infect)
            assert np.array_equal(a.t_symptom, b.t_symptom)
            assert np.array_equal(a.infector, b.infector)
            assert a.threshold_time == b.threshold_time

    def test_genealogy_is_sound(self, small_trace):
        _assert_sound_genealogy(small_trace)

    def test_ordered_by_infection_time(self, small_trace):
        assert np.all(np.diff(small_trace.t_infect) >= 0)

    def test_threshold_semantics(self, small_trace):
        tr = small_trace
        n_at_threshold = int((tr.t_symptom <= tr.threshold_time).sum())
        assert n_at_threshold == tr.scenario.notify_threshold
        assert tr.end_time == tr.threshold_time + tr.scenario.followup
        assert tr.t_infect.max() <= tr.end_time

    def test_timeline_invariants(self, small_trace):
        tr = small_trace
        assert np.all(tr.t_inf_start >= tr.t_infect)
        assert np.all(tr.t_inf_end >= tr.t_inf_start)
        assert np.all(tr.t_symptom >= tr.t_infect)
        assert np.all(tr.t_outcome >= tr.t_inf_end)

    def test_person_cap(self, monkeypatch):
        scn = Scenario(master_seed=20140801)   # built before the cap falls below its threshold
        monkeypatch.setattr(outbreak_sim, "PERSON_CAP", 50)
        with pytest.raises(SimulationLimitError):
            for rep in range(20):
                simulate_outbreak(scn, rep)

    def test_person_cap_raises_before_the_crossing_batch_is_drawn(self, monkeypatch):
        # Every batch makes one uniform draw of its size; record those sizes.
        batches = []

        class Recording:
            def __init__(self, rng):
                self._rng = rng
                batches.clear()

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def uniform(self, low, high, size):
                batches.append(size)
                return self._rng.uniform(low, high, size)

        monkeypatch.setattr(outbreak_sim, "stream", lambda seed, rep: Recording(stream(seed, rep)))
        scn = Scenario(contact_rate=1.0, notify_threshold=1_000_000, master_seed=3)
        cap = 5000
        monkeypatch.setattr(outbreak_sim, "PERSON_CAP", cap)
        with pytest.raises(SimulationLimitError, match="replicate"):
            for rep in range(20):   # R0 = 5: almost every run grows without bound
                simulate_outbreak(scn, rep)
        assert cap // 5 < sum(batches) <= cap

    def test_single_case_runs_reach_a_threshold_of_one(self):
        # With no transmission every run dies out with one person, which is
        # the threshold, so it is accepted at that person's symptom time,
        # also when that time lies past the first horizon.
        scn = Scenario(contact_rate=0.0, notify_threshold=1, followup=5.0, master_seed=11)
        traces = [simulate_outbreak(scn, rep) for rep in range(20)]
        assert all(len(tr) == 1 for tr in traces)
        assert all(tr.threshold_time == tr.t_symptom[0] for tr in traces)
        assert all(tr.end_time == tr.threshold_time + 5.0 for tr in traces)
        assert any(tr.t_symptom[0] > outbreak_sim.HORIZON_STEP for tr in traces)

    def test_run_that_dies_out_after_the_threshold(self):
        # R0 = 0.5 and a 400-day follow-up: accepted runs are complete, every
        # infectious period ending inside the run.
        scn = Scenario(contact_rate=0.1, notify_threshold=4, followup=400.0, master_seed=12)
        traces = [tr for tr in (simulate_outbreak(scn, rep) for rep in range(300)) if tr]
        assert len(traces) >= 5
        for tr in traces:
            assert tr.t_inf_end.max() < tr.end_time
            assert tr.threshold_time == np.sort(tr.t_symptom)[3]
            assert int((tr.t_symptom <= tr.threshold_time).sum()) == 4
            _assert_sound_genealogy(tr)

    def test_followup_shorter_than_horizon_step(self, small_scenario):
        scn = dataclasses.replace(small_scenario, followup=2.0)
        assert scn.followup < outbreak_sim.HORIZON_STEP
        results, _ = ensemble_map(scn, 5, lambda tr, rep: tr)
        for tr in results:
            assert tr.end_time == tr.threshold_time + 2.0
            assert tr.t_infect.max() <= tr.end_time
            assert int((tr.t_symptom <= tr.threshold_time).sum()) == scn.notify_threshold
            _assert_sound_genealogy(tr)
            _assert_column_layout(tr)

    def test_column_layout(self, ebola_trace):
        _assert_column_layout(ebola_trace)

    def test_peak_memory_within_twice_the_trace(self, ebola_scenario, ebola_rep):
        # numpy reports its buffers to tracemalloc, so the peak is deterministic.
        tracemalloc.start()
        try:
            tr = simulate_outbreak(ebola_scenario, ebola_rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(getattr(tr, name).nbytes for name in COLUMN_DTYPES)
        assert peak <= 2 * kept, peak / kept

    def test_notified_breaks_ties_by_id(self):
        # Many planted ties, where an unstable sort may order them otherwise;
        # the threshold on day 15 leaves the last 4 whole days unnotified.
        n = 2000
        t_symptom = stream(3, 0).integers(0, 20, n).astype(float)
        zeros = np.zeros(n)
        tr = OutbreakTrace(Scenario(), 15.0, 20.0, zeros.copy(), np.full(n, -1),
                           zeros.copy(), zeros.copy(), t_symptom,
                           np.zeros(n, dtype=bool), zeros.copy())
        stable = np.argsort(t_symptom, kind="stable")
        assert np.array_equal(tr.notified, stable[t_symptom[stable] <= 15.0])

    @pytest.mark.parametrize("t", [
        stream(5, 0).uniform(0, 300, 5000),
        np.array([2.0]),
        stream(5, 1).integers(0, 50, 500).astype(float),
        np.array([3.0, -1.0, 2.0, 0.0]),
        # distinct in their last bits only, where the packed keys hold ids
        100.0 + stream(5, 2).permutation(64) * np.spacing(100.0),
    ], ids=["distinct", "one", "tied", "negative", "last-bit-apart"])
    def test_time_order_is_argsort(self, t):
        order, ts = outbreak_sim._time_order(t)
        stable = np.argsort(t, kind="stable")
        assert np.array_equal(order, stable) and np.array_equal(ts, t[order])

    def test_person_view_and_csv(self, small_trace, tmp_path):
        path = tmp_path / "trace.csv"
        small_trace.to_csv(path)
        assert path.read_bytes() == _reference_csv(small_trace)

    @pytest.mark.parametrize("block", [1, 7, outbreak_sim.CSV_BLOCK_ROWS])
    def test_csv_is_the_same_in_any_block_size(self, ebola_trace, tmp_path, monkeypatch, block):
        # 33,309 persons: neither 7 nor the default block size divides them,
        # so the last block is a partial one.
        assert len(ebola_trace) % 7 and len(ebola_trace) % outbreak_sim.CSV_BLOCK_ROWS
        assert len(ebola_trace) > outbreak_sim.CSV_BLOCK_ROWS
        monkeypatch.setattr(outbreak_sim, "CSV_BLOCK_ROWS", block)
        path = tmp_path / "trace.csv"
        ebola_trace.to_csv(path)
        assert path.read_bytes() == _reference_csv(ebola_trace)


def _reference_csv(tr) -> bytes:
    """The trace's CSV file, one row at a time from the definition of each field."""
    pending = tr.t_outcome > tr.end_time
    # the reference must cover both empty-field cases
    assert tr.infector[0] == -1 and tr.t_infect[0] == 0.0
    assert pending.any() and not pending.all()
    rows = ["id,infector_id,t_infect,t_inf_start,t_inf_end,t_symptom,outcome,t_outcome"]
    for i in range(len(tr)):
        outcome = "pending" if pending[i] else ("died" if tr.died[i] else "recovered")
        rows.append(",".join([
            str(i),
            "" if tr.infector[i] < 0 else str(int(tr.infector[i])),
            *(f"{float(col[i]):.6f}" for col in
              (tr.t_infect, tr.t_inf_start, tr.t_inf_end, tr.t_symptom)),
            outcome,
            "" if pending[i] else f"{float(tr.t_outcome[i]):.6f}",
        ]))
    return "".join(r + "\r\n" for r in rows).encode()


COLUMN_DTYPES = {
    "t_infect": np.float64, "infector": np.int64, "t_inf_start": np.float64,
    "t_inf_end": np.float64, "t_symptom": np.float64, "died": np.bool_,
    "t_outcome": np.float64,
}


def _assert_column_layout(tr):
    """Every column has its dtype, one entry per person, and is a read-only,
    C-contiguous array that owns its buffer (not a view of a larger one)."""
    for name, dtype in COLUMN_DTYPES.items():
        col = getattr(tr, name)
        assert col.dtype == dtype and col.shape == (len(tr),), name
        assert col.flags.c_contiguous and col.flags.owndata, name
        assert not col.flags.writeable, name


OFFSPRING_LAW_SEED = 77


def offspring_law(master_seed: int) -> tuple[int, int, dict]:
    """The numbers of parents and early parents, and each offspring-law test's
    (p-value, passes), on 32 accepted default runs at ``master_seed``.

    Parents are completed infectors, whose offspring counts are exact; early
    ones (infected 60+ days before the end) are also free of the
    window-completion selection on durations.  Each p-value is uniform under
    a correct simulator: the mean test's is the two-sided normal one of z,
    and the conditional-rate test's the Sidak-adjusted one of the largest
    |z| over the (disjoint) duration deciles.
    """
    def parents(tr, rep):
        done = np.flatnonzero(tr.t_inf_end <= tr.end_time)
        n_off = np.bincount(tr.infector[tr.infector >= 0], minlength=len(tr))
        return ((tr.t_inf_end - tr.t_inf_start)[done], n_off[done],
                tr.t_infect[done] <= tr.end_time - 60.0)

    per_trace, _ = ensemble_map(Scenario(master_seed=master_seed), 32, parents)
    d, n, early = (np.concatenate(col) for col in zip(*per_trace))
    de, ne = d[early], n[early]
    tests = {}

    z = (ne.mean() - 1.7) / (ne.std(ddof=1) / math.sqrt(len(ne)))
    tests["mean_offspring"] = (2 * stats.norm.sf(abs(z)), abs(z) < 3)

    # Poisson counts over exponential durations pool into a geometric law.
    m, kmax = 1.7, 18
    probs = (1.0 / (1.0 + m)) * (m / (1.0 + m)) ** np.arange(kmax)
    probs = np.append(probs, 1.0 - probs.sum())
    observed = np.bincount(np.minimum(ne, kmax), minlength=kmax + 1)
    p = stats.chisquare(observed, probs * len(ne)).pvalue
    tests["geometric_mixture_chi_square"] = (p, p > 0.01)

    # Randomized PIT: exactly uniform iff counts are Poisson(0.34*d) given
    # each parent's own duration, whatever the duration mix.
    lam = 0.34 * d
    v = stream(7070, 0).random(len(n))
    u = stats.poisson.cdf(n - 1, lam) + v * stats.poisson.pmf(n, lam)
    observed = np.bincount(np.minimum((u * 20).astype(int), 19), minlength=20)
    p = stats.chisquare(observed).pvalue
    tests["poisson_given_duration_chi_square"] = (p, p > 0.01)

    edges = np.quantile(de, np.linspace(0, 1, 11))
    z = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (de >= lo) & (de < hi) if hi < edges[-1] else (de >= lo)
        if sel.sum() < 500:
            continue
        se = max(ne[sel].std(ddof=1) / math.sqrt(sel.sum()), 1e-3)
        z.append(abs(ne[sel].mean() - 0.34 * de[sel].mean()) / se)
    p = -math.expm1(len(z) * math.log1p(-2 * stats.norm.sf(max(z))))
    tests["conditional_rate_by_duration"] = (p, max(z) < 4)
    return len(n), len(ne), tests


@pytest.fixture(scope="module")
def offspring():
    return offspring_law(OFFSPRING_LAW_SEED)


class TestOffspringLaw:
    # Each asserts one test of offspring_law; the message gives all the p-values.
    def test_mean_offspring(self, offspring):
        _, n_early, tests = offspring
        assert n_early >= 100_000 and tests["mean_offspring"][1], tests

    def test_geometric_mixture_chi_square(self, offspring):
        assert offspring[2]["geometric_mixture_chi_square"][1], offspring[2]

    def test_poisson_given_duration_chi_square(self, offspring):
        n_parents, _, tests = offspring
        assert n_parents >= 100_000 and tests["poisson_given_duration_chi_square"][1], tests

    def test_conditional_rate_by_duration(self, offspring):
        assert offspring[2]["conditional_rate_by_duration"][1], offspring[2]


# Two-sample checks of the simulator against the event-queue oracle: each is
# a test at level LAW_ALPHA, so a correct simulator fails one of the six
# with probability at most 6 * LAW_ALPHA = 0.6%.
LAW_TRACES = 200     # accepted traces per simulator
LAW_ALPHA = 0.001


def _law_sample(simulate, scenario):
    """Per-trace (threshold time, persons, notified/infected at the threshold,
    mean generation interval after early completed parents), their pooled
    offspring counts, and the attempts made.

    Early completed parents were infected 60+ days before the end of the run
    and were no longer infectious at its end, so all their children are in it.
    """
    per_trace, offspring = [], []
    rep = 0
    while len(per_trace) < LAW_TRACES:
        tr = simulate(scenario, rep)
        rep += 1
        if tr is None:
            continue
        early = (tr.t_inf_end <= tr.end_time) & (tr.t_infect <= tr.end_time - 60.0)
        child = 1 + np.flatnonzero(early[tr.infector[1:]])
        generation = tr.t_infect[child] - tr.t_infect[tr.infector[child]]
        per_trace.append((tr.threshold_time, len(tr),
                          summarize_trace(tr, rep).notified_over_infected, generation.mean()))
        offspring.append(np.bincount(tr.infector[1:], minlength=len(tr))[early])
    return np.array(per_trace), np.concatenate(offspring), rep


@pytest.fixture(scope="module")
def law_samples(small_scenario):
    # The oracle runs at another master seed: at equal seeds both simulators
    # start with the same draws, and the samples would not be independent.
    oracle = dataclasses.replace(small_scenario, master_seed=small_scenario.master_seed + 1)
    return (_law_sample(simulate_outbreak, small_scenario),
            _law_sample(heap_simulate_outbreak, oracle))


class TestAgainstHeapOracle:
    @pytest.mark.parametrize("col,name", [
        (0, "threshold time"), (1, "persons"), (2, "notified/infected at the threshold"),
        (3, "mean generation interval"),
    ])
    def test_per_trace_law(self, law_samples, col, name):
        (new, _, _), (old, _, _) = law_samples
        result = stats.ks_2samp(new[:, col], old[:, col])
        assert result.pvalue > LAW_ALPHA, (name, result)

    def test_early_offspring_law(self, law_samples):
        (_, new, _), (_, old, _) = law_samples
        assert min(len(new), len(old)) >= 10_000
        kmax = 12      # pooled tail: every cell expects well over 5 parents
        table = np.array([np.bincount(np.minimum(x, kmax), minlength=kmax + 1)
                          for x in (new, old)])
        result = stats.chi2_contingency(table)
        assert result.pvalue > LAW_ALPHA, result

    def test_acceptance_rate(self, law_samples):
        (_, _, new), (_, _, old) = law_samples
        table = [[LAW_TRACES, new - LAW_TRACES], [LAW_TRACES, old - LAW_TRACES]]
        assert stats.fisher_exact(table).pvalue > LAW_ALPHA, (new, old)


class TestFullSizeTrace:
    def test_forward_generation_interval(self, ebola_trace):
        from epibias.tracing import sample_forward_pairs

        pairs = sample_forward_pairs(ebola_trace, margin=60.0)
        g, s = pairs.G, pairs.S
        assert len(g) > 2000
        assert abs(g.mean() - 15.0) < 0.5
        assert abs(g.std(ddof=1) - math.sqrt(75.0)) < 0.6
        assert abs(s.mean() - g.mean()) < 0.5

    def test_snapshot_counts(self, ebola_trace):
        summary = summarize_trace(ebola_trace, 0)
        notified = summary.total_infected - summary.unnotified
        assert notified == 4500
        assert summary.resolved + summary.pending_notified == notified
        assert summary.total_infected == int(
            (ebola_trace.t_infect <= ebola_trace.threshold_time).sum()
        )
        assert summary.notified_over_infected == notified / summary.total_infected
        assert 0.66 < summary.notified_over_infected < 0.75

    def test_summary_rejects_trace_short_of_threshold(self, small_trace):
        tr = small_trace
        scn = dataclasses.replace(tr.scenario, notify_threshold=tr.scenario.notify_threshold + 1)
        short = dataclasses.replace(tr, scenario=scn)
        with pytest.raises(ValueError, match="did not reach its notification threshold"):
            summarize_trace(short, 0)

    def test_times_to_the_100th_are_undefined_below_100(self):
        # Replicate 0 of the default seed at threshold 50: its 100th
        # notification falls 24.8 days after the threshold, inside a 42-day
        # follow-up, where an observer at the threshold cannot see it.
        scn = Scenario(notify_threshold=50, followup=42.0, master_seed=20140801)
        tr = simulate_outbreak(scn, 0)
        assert np.count_nonzero(tr.t_symptom <= tr.end_time) >= 100
        summary = summarize_trace(tr, 0)
        assert math.isnan(summary.time_to_first_100)
        assert math.isnan(summary.time_100_to_threshold)

    def test_snapshot_matches_discount_theory(self, ebola_trace):
        # notified/infected at the threshold is the discounted incubation mass
        summary = summarize_trace(ebola_trace, 0)
        scn = ebola_trace.scenario
        r = scn.infectious.rate * (scn.R0() ** (1.0 / 3.0) - 1.0)
        theory = mc_incubation_discount(
            stream(123, 0), r, scn.latent.shape, scn.latent.rate, 0.8, 1.2, n=500_000
        )
        assert abs(summary.notified_over_infected - theory) < 0.025

    def test_resolved_fraction_matches_delay_theory(self, ebola_trace):
        # resolved/notified at the threshold is the mixture of the discounted
        # notification-to-outcome masses for deaths and recoveries
        summary = summarize_trace(ebola_trace, 0)
        scn = ebola_trace.scenario
        r = scn.infectious.rate * (scn.R0() ** (1.0 / 3.0) - 1.0)
        theory = (
            scn.p_death * laplace(scn.notification_delay(scn.to_death), r)
            + (1 - scn.p_death) * laplace(scn.notification_delay(scn.to_recovery), r)
        )
        notified = summary.total_infected - summary.unnotified
        assert abs(summary.resolved / notified - theory) < 0.03

    def test_log_cumulative_slope_near_growth_rate(self, ebola_trace):
        series, _, _ = notification_series(ebola_trace)
        slope = est_a_log_cumulative(series, 42)
        assert 0.027 < slope < 0.052


class TestDailySeries:
    def test_notification_sum_at_threshold(self, small_trace):
        series, t0, k_complete = notification_series(small_trace)
        assert series.daily.sum() == np.count_nonzero(small_trace.t_symptom < t0 + k_complete)

    def test_infections_lead_notifications(self, small_trace):
        tr = small_trace
        grid = np.linspace(0.0, tr.end_time, 50)
        for t in grid:
            assert (tr.t_infect <= t).sum() >= (tr.t_symptom <= t).sum()


class TestEnsemble:
    def test_accepts_first_nonextinct_in_order(self, small_scenario):
        reps = []
        results, attempts = ensemble_map(
            small_scenario, 5, lambda tr, rep: reps.append(rep) or rep
        )
        assert results == sorted(results)
        assert attempts == results[-1] + 1
        direct = [rep for rep in range(attempts)
                  if simulate_outbreak(small_scenario, rep) is not None]
        assert results == direct[:5]

    def test_parallel_matches_serial(self, small_scenario):
        serial, at_s = ensemble_map(
            small_scenario, 3, _threshold_of, threads=1
        )
        parallel, at_p = ensemble_map(
            small_scenario, 3, _threshold_of, threads=2
        )
        assert serial == parallel
        assert at_s == at_p
        assert not multiprocessing.active_children()

    def test_ensemble_stats_summaries(self, small_scenario):
        summaries, attempts = ensemble_map(small_scenario, 4, summarize_trace)
        assert len(summaries) == 4 and attempts >= 4
        times = np.array([s.threshold_time for s in summaries])
        ratios = np.array([s.notified_over_infected for s in summaries])
        assert np.all(times > 0)
        assert np.all((ratios > 0.5) & (ratios < 1.0))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_thread_count_never_changes_outcome(self, monkeypatch, threads):
        # Only replicate 99 survives, so it is accepted exactly at the
        # acceptance floor (1 of 100); replicates the pool runs past it
        # must not count against the floor.
        monkeypatch.setattr(outbreak_sim, "simulate_outbreak", _only_replicate_99)
        monkeypatch.setattr(outbreak_sim, "MAX_ATTEMPTS", 100)
        scn = Scenario(master_seed=5)
        assert ensemble_map(scn, 1, _rep_of, threads=threads) == ([99], 100)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_error_past_the_last_accepted_replicate_is_not_reached(self, monkeypatch, threads):
        # Replicate 2 raises in the same block as the accepted 0 and 1; the
        # map stops at replicate 1 on any worker count, so it never sees it.
        monkeypatch.setattr(outbreak_sim, "simulate_outbreak", _every_replicate)
        scn = Scenario(master_seed=5)
        assert ensemble_map(scn, 2, _fail_at_replicate_2, threads=threads) == ([0, 1], 2)
        assert not multiprocessing.active_children()

    def test_hopeless_scenario_raises(self, monkeypatch):
        monkeypatch.setattr(outbreak_sim, "MAX_ATTEMPTS", 300)
        scn = Scenario(contact_rate=0.01, notify_threshold=100, master_seed=5)
        with pytest.raises(AcceptanceError):
            ensemble_map(scn, 1, lambda tr, rep: rep)


class TestOrderedMap:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_results_in_task_order(self, threads):
        # Tasks of even blocks sleep, so on two workers later blocks finish
        # first; the longer map spans several blocks and ends in a partial one.
        for n_tasks in (9, 3 * POOL_BLOCK + 5):
            squares = list(ordered_map(_square, range(n_tasks), threads))
            assert squares == [x * x for x in range(n_tasks)]
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_task_exception_propagates(self, threads):
        # Task 3 raises mid-block: the block's earlier results come first.
        outcomes = ordered_map(_fail_at_3, range(20), threads)
        assert [next(outcomes) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(ValueError, match="task 3") as raised:
            next(outcomes)
        if threads > 1:  # the worker's traceback is the cause
            assert "_fail_at_3" in str(raised.value.__cause__)
        assert not multiprocessing.active_children()

    def test_closing_an_endless_map_stops_the_pool(self):
        outcomes = ordered_map(_square, itertools.count(), 2)
        assert [next(outcomes) for _ in range(3)] == [0, 1, 4]
        outcomes.close()
        assert not multiprocessing.active_children()


def _square(x):
    time.sleep(0.005 * (x // POOL_BLOCK % 2 == 0))
    return x * x


def _fail_at_3(x):
    if x == 3:
        raise ValueError("task 3 failed")
    return x


def _assert_sound_genealogy(tr):
    """One index case at time 0; every other infector is an earlier person
    of the trace, infectious at the moment of the infection."""
    assert tr.infector[0] == -1 and tr.t_infect[0] == 0.0
    assert np.all(np.diff(tr.t_infect) >= 0)
    child = np.arange(1, len(tr))
    parents = tr.infector[1:]
    assert np.all((parents >= 0) & (parents < child))
    assert np.all(tr.t_infect[child] >= tr.t_inf_start[parents])
    assert np.all(tr.t_infect[child] <= tr.t_inf_end[parents])


def _threshold_of(trace, rep):
    return (rep, trace.threshold_time, len(trace))


def _only_replicate_99(scenario, rep):
    return "trace" if rep == 99 else None


def _every_replicate(scenario, rep):
    return rep


def _fail_at_replicate_2(trace, rep):
    if rep == 2:
        raise ValueError("replicate 2 failed")
    return rep


def _rep_of(trace, rep):
    return rep
