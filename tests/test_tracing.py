import math

import numpy as np
import pytest

from epibias.distributions import GammaParams, sample
from epibias.growth_math import GrowthLink, backward_dist
from epibias.rng import stream
from epibias.tracing import (
    TracedPairs,
    fit_gamma_to_intervals,
    interval_moments,
    pairs_to_csv,
    sample_backward_pairs,
    sample_forward_pairs,
    split_positive,
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

    def test_single_pick_is_strideth_eligible(self, ebola_trace):
        pairs = sample_backward_pairs(ebola_trace, n=1, stride=9)
        order = ebola_trace.notified_order()
        eligible = [int(pid) for pid in order if ebola_trace.infector[pid] >= 0]
        assert pairs.infectee.tolist() == [eligible[8]]

    def test_matches_notification_order_walk(self, ebola_trace):
        # Reference: walk notified cases in order, count those with an
        # infector, keep every 9th until 500 are kept.
        picked, eligible = [], 0
        for pid in ebola_trace.notified_order():
            if ebola_trace.infector[pid] < 0:
                continue
            eligible += 1
            if eligible % 9 == 0:
                picked.append(int(pid))
                if len(picked) == 500:
                    break
        assert sample_backward_pairs(ebola_trace, 500, 9).infectee.tolist() == picked

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
        link = GrowthLink.from_R0(1.7, GammaParams(3.0, 0.2))
        assert abs(backward_dist(link).mean() - 12.57) < 0.01

    def test_needs_two_pairs(self):
        with pytest.raises(ValueError):
            interval_moments(_pairs([5.0], 4.0))


class TestGammaFit:
    def test_recovers_known_distribution(self):
        draws = sample(GammaParams(3.0, 0.2), stream(21, 0), size=100_000)
        fit = fit_gamma_to_intervals(_pairs(draws, draws), "G")
        assert abs(fit.shape - 3.0) < 0.06
        assert abs(fit.rate - 0.2) < 0.004

    def test_constant_data_rejected(self):
        with pytest.raises(ValueError):
            fit_gamma_to_intervals(_pairs([5.0] * 20, 5.0), "G")

    def test_too_few_usable_rejected(self):
        with pytest.raises(ValueError):
            fit_gamma_to_intervals(_pairs(5.0 + np.arange(20), -1.0), "S")

    def test_backward_fit_near_theory(self, ebola_trace):
        fit = fit_gamma_to_intervals(sample_backward_pairs(ebola_trace, 500, 9), "G")
        assert abs(fit.shape - 3.0) < 0.7
        assert abs(fit.rate - 0.2387) < 0.05

    def test_which_validated(self):
        with pytest.raises(ValueError):
            fit_gamma_to_intervals(_pairs([5.0] * 20, 4.0), "X")


class TestHelpers:
    def test_split_positive_accounting(self):
        values = np.array([3.0, -1.0, 0.0, 2.5, 4.0])
        used, dropped = split_positive(values)
        assert len(used) + dropped == len(values)
        assert dropped == 2
        assert np.all(used > 0)

    def test_csv_export(self, tmp_path):
        pairs = TracedPairs(np.array([1, 2]), np.array([0, 1]),
                            np.array([5.0, 6.25]), np.array([4.5, -0.5]))
        path = tmp_path / "pairs.csv"
        pairs_to_csv(pairs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "infectee_id,infector_id,gen_time,serial_interval"
        assert len(lines) == 3
        assert lines[2] == "2,1,6.250000,-0.500000"
