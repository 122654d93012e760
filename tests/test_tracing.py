import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from epibias.distributions import GammaParams, gamma_from_moments
from epibias.growth_math import backward_dist, solve_r
from epibias.outbreak_sim import OutbreakTrace, Scenario
from epibias.rng import stream
from epibias.tracing import (
    TracedPairs,
    fit_gamma_to_intervals,
    interval_moments,
    sample_backward_pairs,
    sample_forward_pairs,
)


@pytest.fixture(scope="module")
def backward_pairs(ebola_trace):
    return sample_backward_pairs(ebola_trace, n=500, stride=9)


def _pairs(g, s):
    """Pairs with the given intervals; infectee i+1 of infector 0."""
    g, s = np.broadcast_arrays(np.asarray(g, dtype=float), np.asarray(s, dtype=float))
    return TracedPairs(np.arange(1, len(g) + 1), np.zeros(len(g), dtype=np.int64),
                       g.copy(), s.copy())


class TestBackwardSampling:
    def test_sample_size_and_links(self, ebola_trace, backward_pairs):
        tr = ebola_trace
        assert len(backward_pairs) == 500
        assert np.all(backward_pairs.G > 0)
        assert np.array_equal(tr.infector[backward_pairs.infectee], backward_pairs.infector)
        assert np.array_equal(backward_pairs.G, tr.t_infect[backward_pairs.infectee]
                              - tr.t_infect[backward_pairs.infector])
        assert np.array_equal(backward_pairs.S, tr.t_symptom[backward_pairs.infectee]
                              - tr.t_symptom[backward_pairs.infector])

    def test_single_pick_is_strideth_notified(self, ebola_trace):
        pairs = sample_backward_pairs(ebola_trace, n=1, stride=9)
        assert pairs.infectee.tolist() == [ebola_trace.notified[8]]

    def test_matches_notification_order_walk(self, ebola_trace):
        # Reference: walk notified cases in order and keep every 9th until
        # 500 are kept; the index case, notified first, is never one of them.
        picked = []
        for position, pid in enumerate(ebola_trace.notified, 1):
            if position % 9 == 0:
                assert ebola_trace.infector[pid] >= 0
                picked.append(int(pid))
                if len(picked) == 500:
                    break
        assert sample_backward_pairs(ebola_trace, 500, 9).infectee.tolist() == picked

    @given(stride=st.integers(1, 12), n=st.integers(1, 4500))
    @example(stride=9, n=500)   # the study's sample, which fills the threshold
    def test_picks_notified_by_the_threshold(self, ebola_trace, stride, n):
        tr = ebola_trace
        n = min(n, tr.scenario.notify_threshold // stride)
        pairs = sample_backward_pairs(tr, n, stride)
        # The index case is notified first: a pick position only at stride 1.
        assert len(pairs) == n - (stride == 1)
        assert np.all(tr.t_symptom[pairs.infectee] <= tr.threshold_time)

    def test_deterministic(self, ebola_trace):
        a = sample_backward_pairs(ebola_trace, 100, 9)
        b = sample_backward_pairs(ebola_trace, 100, 9)
        for col in ("infectee", "infector", "G", "S"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_columns_read_only(self, backward_pairs):
        with pytest.raises(ValueError):
            backward_pairs.G[0] = 0.0

    def test_insufficient_persons_rejected(self, small_trace):
        with pytest.raises(ValueError):
            sample_backward_pairs(small_trace, n=10_000, stride=9)

    @staticmethod
    def _planted(threshold_time, end_time=30.0):
        """Index case 0 infects persons 1-9 at 0.5-day steps, all inside the
        run; each person is notified 5 days after infection."""
        t_infect = 0.5 * np.arange(10)
        t_symptom = t_infect + 5.0
        infector = np.array([-1] + [0] * 9)
        return OutbreakTrace(Scenario(), threshold_time, end_time, t_infect, infector, t_infect,
                             t_infect + 5.0, t_symptom, np.zeros(10, dtype=bool),
                             t_symptom + 20.0)

    @pytest.mark.parametrize("end_time", [7.25, 30.0])
    def test_counts_only_persons_notified_by_the_threshold(self, end_time):
        # Picks 2 and 5 need person 5, notified on day 7.5: a run that goes
        # on past it does not let an observer at the threshold trace it.
        with pytest.raises(ValueError, match="5 persons notified by the threshold; need 6"):
            sample_backward_pairs(self._planted(7.25, end_time), n=2, stride=3)
        assert sample_backward_pairs(self._planted(7.5), n=2, stride=3).infectee.tolist() == [2, 5]

    def test_index_case_on_a_pick_position_forms_no_pair(self):
        # Notified first, the index case holds the first pick position at
        # stride 1; the picks stay among the first n notified persons.
        # The threshold on day 10 follows every notification.
        tr = self._planted(10.0)
        assert sample_backward_pairs(tr, n=3, stride=1).infectee.tolist() == [1, 2]
        # Notified third (order 1, 2, 0, 3, ...), it holds position 3 of stride 3.
        t_symptom = tr.t_symptom.copy()
        t_symptom[0] = 6.2
        late = dataclasses.replace(tr, t_symptom=t_symptom)
        assert late.notified[:4].tolist() == [1, 2, 0, 3]
        assert sample_backward_pairs(late, n=2, stride=3).infectee.tolist() == [5]

    def test_contraction_on_one_trace(self, backward_pairs):
        mean_g, var_g, mean_s, var_s = interval_moments(backward_pairs)
        assert abs(mean_g - 12.6) < 1.0
        assert abs(var_g - 52.7) < 15.0
        assert abs(mean_s - mean_g) < 1.5
        assert mean_g < 15.0


class TestForwardSampling:
    def test_unbiased_generation_times(self, ebola_trace):
        pairs = sample_forward_pairs(ebola_trace, margin=60.0)
        assert abs(pairs.G.mean() - 15.0) < 0.5

    def test_every_offspring_of_observed_infectors(self, ebola_trace):
        # Reference: the infectees, in id order, of infectors infected 60+
        # days before the end whose infectious period closed in the run.
        tr = ebola_trace
        cutoff = tr.end_time - 60.0
        expected = [pid for pid in range(len(tr))
                    if tr.infector[pid] >= 0
                    and tr.t_infect[tr.infector[pid]] <= cutoff
                    and tr.t_inf_end[tr.infector[pid]] <= tr.end_time]
        pairs = sample_forward_pairs(tr, margin=60.0)
        assert pairs.infectee.tolist() == expected
        assert np.array_equal(pairs.infector, tr.infector[pairs.infectee])

    def test_serial_variance_exceeds_generation_variance(self, ebola_trace):
        # The symptom-time wobble adds variance to serial intervals (+4 here).
        pairs = sample_forward_pairs(ebola_trace, margin=60.0)
        _, var_g, _, var_s = interval_moments(pairs)
        assert abs((var_s - var_g) - 4.0) < 3.0


class TestIntervalMoments:
    def test_constant_pairs(self):
        mg, vg, ms, vs = interval_moments(_pairs([5.0] * 5, 4.0))
        assert (mg, vg, ms, vs) == (5.0, 0.0, 4.0, 0.0)

    def test_theory_target(self):
        gen = GammaParams(3.0, 0.2)
        assert abs(backward_dist(gen, solve_r(1.7, gen)).mean() - 12.57) < 0.01

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            interval_moments(_pairs([5.0], 4.0))

    @given(st.lists(st.tuples(st.floats(-1e100, 1e100), st.floats(-1e100, 1e100)), min_size=2))
    @example([(-1e100, 3.5), (1e100, -2.25), (0.5, 7.0)])
    def test_bit_identical_to_numpy(self, rows):
        g, s = np.array(rows).T
        moments = interval_moments(_pairs(g, s))
        assert moments == (g.mean(), g.var(ddof=1), s.mean(), s.var(ddof=1))


class TestGammaFit:
    def test_recovers_known_distribution(self):
        draws = stream(21, 0).gamma(3.0, 1.0 / 0.2, size=100_000)
        fit = fit_gamma_to_intervals(_pairs(draws, draws))
        assert abs(fit.shape - 3.0) < 0.06
        assert abs(fit.rate - 0.2) < 0.004

    def test_constant_data_rejected(self):
        with pytest.raises(ValueError):
            fit_gamma_to_intervals(_pairs([5.0] * 20, 5.0))

    @given(used=st.lists(st.floats(1e-3, 1e4), min_size=10), dropped=st.lists(st.floats(-1e4, 0.0)))
    def test_bit_identical_to_numpy_moments(self, used, dropped):
        used = np.array(used)
        sd = used.std(ddof=1)
        pairs = _pairs(np.ones(len(used) + len(dropped)), np.concatenate([dropped, used]))
        if sd == 0:
            with pytest.raises(ValueError, match="constant"):
                fit_gamma_to_intervals(pairs)
        else:
            assert fit_gamma_to_intervals(pairs) == gamma_from_moments(used.mean(), sd)

    def test_too_few_usable_rejected(self):
        with pytest.raises(ValueError):
            fit_gamma_to_intervals(_pairs(5.0 + np.arange(20), -1.0))

    def test_backward_fit_near_theory(self, backward_pairs):
        mean_g, var_g, _, _ = interval_moments(backward_pairs)
        fit = gamma_from_moments(mean_g, math.sqrt(var_g))
        assert abs(fit.shape - 3.0) < 0.7
        assert abs(fit.rate - 0.2387) < 0.05
