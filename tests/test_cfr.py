import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate

from _oracles import quad_laplace, quad_pi_finite
from epibias.cfr import (
    CfrCounts,
    DelayKind,
    DelaySpec,
    corrected_naive_cfr,
    notification_delay,
    pi_finite,
    pi_infinity,
    resolved_cfr_bias,
)
from epibias.distributions import GammaParams, cdf, gamma_from_moments
from epibias.outbreak_sim import Scenario
from epibias.rng import stream

DEATH = DelaySpec.exponential(9.0, DelayKind.TO_DEATH)
RECOVERY = DelaySpec.exponential(17.0, DelayKind.TO_RECOVERY)
R_DOUBLING_20 = 0.0347


class TestPiInfinity:
    def test_death_multiplier(self):
        pi = pi_infinity(R_DOUBLING_20, DEATH)
        assert math.isclose(pi, 1.0 / (1.0 + R_DOUBLING_20 * 9.0), rel_tol=1e-14)
        assert round(pi, 2) == 0.76

    def test_no_growth_no_bias(self):
        assert pi_infinity(0.0, DelaySpec(GammaParams(2.7, 0.31), DelayKind.TO_DEATH)) == 1.0

    def test_recovery_multiplier(self):
        assert round(pi_infinity(R_DOUBLING_20, RECOVERY), 2) == 0.63

    def test_decreasing_in_r(self):
        vals = [pi_infinity(r, DEATH) for r in np.linspace(0.0, 0.3, 50)]
        assert np.all(np.diff(vals) < 0)

    def test_shape_effect_at_fixed_mean(self):
        # Exponential delays are the most observable; higher shapes hide more.
        last = math.inf
        for shape in [0.5, 1.0, 2.0, 4.0, 8.0]:
            val = pi_infinity(0.05, DelaySpec(GammaParams(shape, shape / 9.0), DelayKind.TO_DEATH))
            assert val < last or shape == 0.5
            if shape > 0.5:
                assert val < last
            last = val

    def test_matches_quadrature(self):
        g = GammaParams(4.0 / 9.0, 1.0 / 9.0)
        spec = DelaySpec(g, DelayKind.TO_DEATH)
        assert abs(pi_infinity(0.0387, spec) - quad_laplace(g.shape, g.rate, 0.0387)) < 1e-8


class TestPiFinite:
    def test_zero_horizon(self):
        assert pi_finite(0.0, R_DOUBLING_20, DEATH) == 0.0

    def test_converges_to_limit(self):
        assert abs(pi_finite(300.0, R_DOUBLING_20, DEATH)
                   - pi_infinity(R_DOUBLING_20, DEATH)) < 1e-4

    def test_monotone_in_horizon(self):
        vals = [pi_finite(T, R_DOUBLING_20, DEATH) for T in np.linspace(1.0, 250.0, 40)]
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] <= pi_infinity(R_DOUBLING_20, DEATH)

    def test_zero_growth_limit(self):
        # Without growth the observed fraction is the window average of the CDF.
        val = pi_finite(500.0, 0.0, DEATH)
        expected = integrate.quad(lambda u: cdf(DEATH.dist, u), 0, 500)[0] / 500.0
        assert math.isclose(val, expected, rel_tol=1e-10)
        assert val > 0.98


# Delay shapes from heavy-tailed (0.44, the default death delay) to nearly
# fixed (20); every delay has mean 9 days.
GRID_SHAPES = [0.44, 1.0, 1.29, 4.0, 20.0]
GRID_R = [0.0, 1e-10, -1e-10, 1e-7, -1e-7, 1e-4, -1e-4, 0.0387, -0.0387, 0.3, -0.3]
GRID_T = [0.1, 1.0, 9.0, 217.0, 1000.0]


def mean_9_delay(shape):
    return DelaySpec(GammaParams(shape, shape / 9.0), DelayKind.TO_DEATH)


class TestPiFiniteClosedForm:
    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_matches_quadrature_oracle(self, shape):
        delay = mean_9_delay(shape)
        checked = 0
        for r in GRID_R:
            if r <= -0.5 * delay.dist.rate:
                continue
            for T in GRID_T:
                oracle = quad_pi_finite(shape, delay.dist.rate, T, r)
                val = pi_finite(T, r, delay)
                assert abs(val / oracle - 1.0) < 1e-11, (shape, r, T, val, oracle)
                checked += 1
        assert checked >= 40

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_falling_incidence_stays_a_fraction(self, shape):
        # Down to r = -0.9 lambda over horizons where exp(-r*T) overflows.
        delay = mean_9_delay(shape)
        for r in (-0.9 * delay.dist.rate, -0.5 * delay.dist.rate, -0.1 * delay.dist.rate, -0.01):
            for T in GRID_T + [2000.0, 3000.0]:
                val = pi_finite(T, r, delay)
                assert 0.0 <= val <= 1.0, (shape, r, T, val)
                oracle = quad_pi_finite(shape, delay.dist.rate, T, r)
                assert abs(val / oracle - 1.0) < 1e-11, (shape, r, T, val, oracle)

    def test_rejects_divergent_growth_rate(self):
        with pytest.raises(ValueError):
            pi_finite(10.0, -DEATH.dist.rate, DEATH)

    @given(
        shape=st.sampled_from(GRID_SHAPES), mean=st.floats(1.0, 30.0),
        r=st.floats(-0.3, 0.3), T1=st.floats(0.1, 1000.0), T2=st.floats(0.1, 1000.0),
    )
    def test_monotone_in_horizon_and_bounded_by_limit(self, shape, mean, r, T1, T2):
        delay = DelaySpec(gamma_from_moments(mean, mean / math.sqrt(shape)), DelayKind.TO_DEATH)
        assume(r > -0.5 * delay.dist.rate)
        lo, hi = pi_finite(min(T1, T2), r, delay), pi_finite(max(T1, T2), r, delay)
        assert 0.0 <= lo <= hi * (1.0 + 1e-12)
        assert hi <= pi_infinity(r, delay) * (1.0 + 1e-12)

    @given(
        shape=st.sampled_from(GRID_SHAPES), T=st.floats(0.1, 1000.0),
        log10_rT=st.floats(-12.0, -1.4), sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_continuous_as_growth_vanishes(self, shape, T, log10_rT, sign):
        # d pi / d r = -Cov(U, F(U)) for the notification time U on [0, T],
        # so |pi(T, r) - pi(T, 0)| <= |r| * T / 4.
        delay = mean_9_delay(shape)
        r = sign * 10.0**log10_rT / T
        assume(r > -0.5 * delay.dist.rate)
        at_zero = pi_finite(T, 0.0, delay)
        assert abs(pi_finite(T, r, delay) - at_zero) <= abs(r) * T / 4.0 + 1e-13 * at_zero

    @given(shape=st.sampled_from(GRID_SHAPES), T=st.floats(0.1, 1000.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_continuous_across_series_switch(self, shape, T, sign):
        delay = mean_9_delay(shape)
        r_lo, r_hi = sign * 0.05 * (1.0 - 1e-9) / T, sign * 0.05 * (1.0 + 1e-9) / T
        assume(min(r_lo, r_hi) > -0.5 * delay.dist.rate)
        lo, hi = pi_finite(T, r_lo, delay), pi_finite(T, r_hi, delay)
        assert abs(hi - lo) <= abs(r_hi - r_lo) * T / 4.0 + 1e-12 * max(lo, hi)


class TestCorrectedNaive:
    def test_recovers_true_rate(self):
        counts = CfrCounts(K=1000, D_obs=532, R_obs=100, T=500.0, r=R_DOUBLING_20)
        est = corrected_naive_cfr(counts, DEATH)
        assert abs(est.estimate - 0.70) < 0.005
        assert not est.clipped

    def test_zero_deaths(self):
        counts = CfrCounts(K=1000, D_obs=0, R_obs=10, T=100.0, r=R_DOUBLING_20)
        assert corrected_naive_cfr(counts, DEATH).estimate == 0.0

    def test_no_growth_large_horizon_is_identity(self):
        counts = CfrCounts(K=1000, D_obs=700, R_obs=300, T=5000.0, r=0.0)
        est = corrected_naive_cfr(counts, DEATH)
        assert abs(est.correction - 1.0) < 2e-3
        assert abs(est.estimate - 0.7) < 2e-3

    def test_clipping_flagged(self):
        counts = CfrCounts(K=100, D_obs=90, R_obs=0, T=30.0, r=0.2)
        est = corrected_naive_cfr(counts, DEATH)
        assert est.clipped and est.estimate == 1.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            CfrCounts(K=10, D_obs=8, R_obs=5, T=10.0, r=0.05)


class TestResolvedEstimator:
    def test_study_value(self):
        val = resolved_cfr_bias(0.7, R_DOUBLING_20, DEATH, RECOVERY)
        assert abs(val - 0.7387) < 1e-3
        assert 0.04 < val / 0.7 - 1.0 < 0.07

    def test_equal_delays_unbiased(self):
        val = resolved_cfr_bias(0.42, 0.05, DEATH, DelaySpec(DEATH.dist, DelayKind.TO_RECOVERY))
        assert math.isclose(val, 0.42, rel_tol=1e-14)

    def test_fast_recovery_underestimates(self):
        fast_rec = DelaySpec.exponential(9.0, DelayKind.TO_RECOVERY)
        slow_death = DelaySpec.exponential(17.0, DelayKind.TO_DEATH)
        assert resolved_cfr_bias(0.1, R_DOUBLING_20, slow_death, fast_rec) < 0.1

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            resolved_cfr_bias(1.2, 0.05, DEATH, RECOVERY)


class TestNotificationDelay:
    def test_moments_match_monte_carlo(self):
        scn = Scenario()
        spec = notification_delay(scn, DelayKind.TO_DEATH)
        rng = stream(99, 0)
        n = 1_000_000
        ell = rng.gamma(2.0, 5.0, n)
        dur = rng.gamma(1.0, 5.0, n)
        u = rng.uniform(0.8, 1.2, n)
        d = rng.gamma(4.0 / 9.0, 9.0, n)
        delay = (1.0 - u) * ell + dur + d
        assert abs(spec.dist.mean() - delay.mean()) < 3 * delay.std() / math.sqrt(n)
        assert abs(spec.dist.variance() - delay.var()) < 0.5
        assert abs(spec.dist.mean() - 9.0) < 1e-12

    def test_recovery_mean(self):
        spec = notification_delay(Scenario(), DelayKind.TO_RECOVERY)
        assert abs(spec.dist.mean() - 17.0) < 1e-12
