import math

import numpy as np
import pytest
from scipy import stats

from _oracles import mc_incubation_discount
from epibias.distributions import GammaParams
from epibias.growth_estimators import CaseSeries, est_a_log_cumulative
from epibias import outbreak_sim
from epibias.outbreak_sim import (
    AcceptanceError,
    Scenario,
    SimulationLimitError,
    daily_series,
    ensemble_map,
    run_ensemble,
    simulate_outbreak,
    snapshot_ratios,
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
        with pytest.raises(ValueError):
            scn.implied_generation()

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(contact_rate=-0.1)
        with pytest.raises(ValueError):
            Scenario(p_death=1.4)


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
        tr = small_trace
        child = np.flatnonzero(tr.infector >= 0)
        parents = tr.infector[child]
        assert np.all(tr.t_infect[child] >= tr.t_inf_start[parents])
        assert np.all(tr.t_infect[child] <= tr.t_inf_end[parents])
        assert tr.infector[0] == -1 and tr.t_infect[0] == 0.0

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

    def test_person_cap(self):
        scn = Scenario(person_cap=50, master_seed=20140801)
        with pytest.raises(SimulationLimitError):
            for rep in range(20):
                simulate_outbreak(scn, rep)

    def test_person_view_and_csv(self, small_trace, tmp_path):
        tr = small_trace
        pending = tr.t_outcome > tr.end_time
        # the reference below must cover both empty-field cases
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
        path = tmp_path / "trace.csv"
        tr.to_csv(path)
        assert path.read_bytes() == "".join(r + "\r\n" for r in rows).encode()


@pytest.fixture(scope="module")
def parent_data():
    """Pooled (duration, offspring, early-flag) for fully observed infectors.

    Completed parents have their whole infectious period inside the run, so
    their offspring counts are exact; the early subset (infected 60+ days
    before the end) is additionally free of the window-completion selection
    on durations.
    """
    scn = Scenario(master_seed=77)
    durations, counts, early = [], [], []
    rep = 0
    accepted = 0
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
    return (np.concatenate(durations), np.concatenate(counts),
            np.concatenate(early))


class TestOffspringLaw:
    def test_mean_offspring(self, parent_data):
        _, n, early = parent_data
        n = n[early]
        assert len(n) >= 100_000
        se = n.std(ddof=1) / math.sqrt(len(n))
        assert abs(n.mean() - 1.7) < 3 * se

    def test_geometric_mixture_chi_square(self, parent_data):
        # Poisson counts over exponential durations pool into a geometric law.
        _, n, early = parent_data
        n = n[early]
        m = 1.7
        kmax = 18
        probs = (1.0 / (1.0 + m)) * (m / (1.0 + m)) ** np.arange(kmax)
        probs = np.append(probs, 1.0 - probs.sum())
        observed = np.bincount(np.minimum(n, kmax), minlength=kmax + 1)
        chi2 = stats.chisquare(observed, probs * len(n))
        assert chi2.pvalue > 0.01

    def test_poisson_given_duration_chi_square(self, parent_data):
        # Randomized PIT: exactly uniform iff counts are Poisson(0.34*d)
        # given each parent's own duration, whatever the duration mix.
        d, n, _ = parent_data
        assert len(n) >= 100_000
        lam = 0.34 * d
        v = stream(7070, 0).random(len(n))
        u = stats.poisson.cdf(n - 1, lam) + v * stats.poisson.pmf(n, lam)
        observed = np.bincount(np.minimum((u * 20).astype(int), 19), minlength=20)
        chi2 = stats.chisquare(observed)
        assert chi2.pvalue > 0.01

    def test_conditional_rate_by_duration(self, parent_data):
        d, n, early = parent_data
        d, n = d[early], n[early]
        edges = np.quantile(d, np.linspace(0, 1, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (d >= lo) & (d < hi) if hi < edges[-1] else (d >= lo)
            if sel.sum() < 500:
                continue
            expected = 0.34 * d[sel].mean()
            se = n[sel].std(ddof=1) / math.sqrt(sel.sum())
            assert abs(n[sel].mean() - expected) < 4 * max(se, 1e-3)


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
        snap = snapshot_ratios(ebola_trace)
        assert snap.notified == 4500
        assert snap.resolved + snap.pending_notified == snap.notified
        assert snap.total_infected == snap.notified + snap.unnotified
        assert 0.66 < snap.notified_over_infected < 0.75

    def test_snapshot_matches_discount_theory(self, ebola_trace):
        # notified/infected at the threshold is the discounted incubation mass
        snap = snapshot_ratios(ebola_trace)
        scn = ebola_trace.scenario
        r = scn.infectious.rate * (scn.R0() ** (1.0 / 3.0) - 1.0)
        theory = mc_incubation_discount(
            stream(123, 0), r, scn.latent.shape, scn.latent.rate, 0.8, 1.2, n=500_000
        )
        assert abs(snap.notified_over_infected - theory) < 0.025

    def test_resolved_fraction_matches_delay_theory(self, ebola_trace):
        # resolved/notified at the threshold is the mixture of the discounted
        # notification-to-outcome masses for deaths and recoveries
        from epibias.cfr import DelayKind, notification_delay, pi_infinity

        snap = snapshot_ratios(ebola_trace)
        scn = ebola_trace.scenario
        r = scn.infectious.rate * (scn.R0() ** (1.0 / 3.0) - 1.0)
        theory = (
            scn.p_death * pi_infinity(r, notification_delay(scn, DelayKind.TO_DEATH))
            + (1 - scn.p_death)
            * pi_infinity(r, notification_delay(scn, DelayKind.TO_RECOVERY))
        )
        assert abs(snap.resolved / snap.notified - theory) < 0.03

    def test_log_cumulative_slope_near_growth_rate(self, ebola_trace):
        from epibias.analysis import notification_series

        series, _, _ = notification_series(ebola_trace)
        slope = est_a_log_cumulative(series, 42)
        assert 0.027 < slope < 0.052


class TestDailySeries:
    def test_notification_sum_at_threshold(self, small_trace):
        counts = daily_series(small_trace, "notification", through=small_trace.threshold_time)
        assert counts.sum() == small_trace.scenario.notify_threshold

    def test_infections_lead_notifications(self, small_trace):
        tr = small_trace
        grid = np.linspace(0.0, tr.end_time, 50)
        for t in grid:
            assert (tr.t_infect <= t).sum() >= (tr.t_symptom <= t).sum()

    def test_unknown_kind_rejected(self, small_trace):
        with pytest.raises(ValueError):
            daily_series(small_trace, "sneezes")

    def test_death_and_recovery_partition(self, small_trace):
        tr = small_trace
        d = daily_series(tr, "death").sum()
        r = daily_series(tr, "recovery").sum()
        assert d + r == int((tr.t_outcome <= tr.end_time).sum())


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

    def test_run_ensemble_summaries(self, small_scenario):
        stats_ = run_ensemble(small_scenario, 4)
        assert stats_.n_accepted == 4 and len(stats_.summaries) == 4
        assert np.all(stats_.threshold_times() > 0)
        assert np.all((stats_.ratios() > 0.5) & (stats_.ratios() < 1.0))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_thread_count_never_changes_outcome(self, monkeypatch, threads):
        # Only replicate 99 survives, so it is accepted exactly at the
        # acceptance floor (1 of 100); replicates the pool runs past it
        # must not count against the floor.
        monkeypatch.setattr(outbreak_sim, "simulate_outbreak", _only_replicate_99)
        scn = Scenario(master_seed=5)
        assert ensemble_map(scn, 1, _rep_of, threads=threads, max_attempts=100) == ([99], 100)

    def test_hopeless_scenario_raises(self):
        scn = Scenario(contact_rate=0.01, notify_threshold=100, master_seed=5)
        with pytest.raises(AcceptanceError):
            ensemble_map(scn, 1, lambda tr, rep: rep, max_attempts=300)


def _threshold_of(trace, rep):
    return (rep, trace.threshold_time, len(trace))


def _only_replicate_99(scenario, rep):
    return "trace" if rep == 99 else None


def _rep_of(trace, rep):
    return rep
