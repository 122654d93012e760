import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammainc

from _oracles import quad_laplace
from epibias.distributions import (
    DiscreteDelay,
    GammaParams,
    cdf,
    discretization_horizon,
    discretize,
    gamma_from_moments,
    laplace,
    log_pdf,
    pdf,
    sample,
)
from epibias.rng import stream


class TestGammaParams:
    def test_moments(self):
        g = GammaParams(3.0, 0.2)
        assert g.mean() == 15.0
        assert math.isclose(g.variance(), 75.0, rel_tol=1e-14)
        assert math.isclose(g.sd(), math.sqrt(75.0))
        assert math.isclose(g.cv(), 1.0 / math.sqrt(3.0))

    @pytest.mark.parametrize("shape,rate", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_nonpositive(self, shape, rate):
        with pytest.raises(ValueError):
            GammaParams(shape, rate)

    def test_shape_scale_constructor(self):
        g = GammaParams.from_shape_scale(2.0, 5.0)
        assert g.rate == 0.2
        assert g.mean() == 10.0


class TestFromMoments:
    def test_study_generation_time(self):
        g = gamma_from_moments(15.0, math.sqrt(75.0))
        assert math.isclose(g.shape, 3.0, rel_tol=1e-12)
        assert math.isclose(g.rate, 0.2, rel_tol=1e-12)

    def test_exponential_case(self):
        g = gamma_from_moments(1.0, 1.0)
        assert g.shape == 1.0 and g.rate == 1.0

    def test_incubation_roundtrip(self):
        g = gamma_from_moments(11.4, 8.1)
        assert math.isclose(g.mean(), 11.4, rel_tol=1e-14)
        assert math.isclose(g.variance(), 8.1**2, rel_tol=1e-14)

    def test_roundtrip_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            mean = rng.uniform(0.1, 50.0)
            sd = rng.uniform(0.05, 30.0)
            g = gamma_from_moments(mean, sd)
            assert math.isclose(g.mean(), mean, rel_tol=1e-12)
            assert math.isclose(math.sqrt(g.variance()), sd, rel_tol=1e-12)

    @pytest.mark.parametrize("mean,sd", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_rejects_bad_moments(self, mean, sd):
        with pytest.raises(ValueError):
            gamma_from_moments(mean, sd)


class TestDensity:
    def test_exponential_at_origin(self):
        assert pdf(GammaParams(1.0, 1.0), 0.0) == 1.0

    def test_cdf_at_zero(self):
        assert cdf(GammaParams(3.0, 0.2), 0.0) == 0.0

    def test_density_integrates_to_one(self):
        g = GammaParams(3.0, 0.2)
        val = quad_laplace(g.shape, g.rate, 0.0)
        assert abs(val - 1.0) < 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            pdf(GammaParams(2.0, 1.0), -0.5)
        with pytest.raises(ValueError):
            cdf(GammaParams(2.0, 1.0), -0.5)

    def test_cdf_monotone(self):
        g = GammaParams(2.5, 0.3)
        grid = np.linspace(0, 40, 200)
        vals = cdf(g, grid)
        assert np.all(np.diff(vals) >= 0)
        assert vals[-1] < 1.0 and cdf(g, 1e4) > 1 - 1e-12


# Shapes below, at and above 1 (density infinite, finite and zero at t = 0).
SHAPES = st.one_of(st.just(1.0), st.floats(0.1, 0.99), st.floats(1.01, 50.0))
RATES = st.floats(0.02, 5.0)


class TestAgainstScipyStats:
    """The scipy.special formulas against scipy.stats.gamma, kept as the reference."""

    @given(shape=SHAPES, rate=RATES, t=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=20))
    def test_density_and_cdf(self, shape, rate, t):
        g = GammaParams(shape, rate)
        t = np.array([0.0] + t)
        ref = dict(a=shape, scale=1.0 / rate)
        np.testing.assert_array_max_ulp(pdf(g, t), stats.gamma.pdf(t, **ref), maxulp=2)
        np.testing.assert_array_max_ulp(log_pdf(g, t), stats.gamma.logpdf(t, **ref), maxulp=2)
        np.testing.assert_array_max_ulp(cdf(g, t), stats.gamma.cdf(t, **ref), maxulp=2)
        for fn in (pdf, log_pdf, cdf):
            assert type(fn(g, float(t[-1]))) is float

    @given(shape=SHAPES, rate=RATES, mass=st.floats(0.5, 1.0 - 1e-12))
    def test_horizon(self, shape, rate, mass):
        g = GammaParams(shape, rate)
        q = stats.gamma.ppf(mass, a=shape, scale=1.0 / rate)
        assert discretization_horizon(g, mass) == max(1, min(int(np.ceil(q)), 500))


class TestLaplace:
    def test_study_value(self):
        # At the growth rate induced by R0 = 1.7 the transform equals 1/1.7.
        g = GammaParams(3.0, 0.2)
        r = 0.2 * (1.7 ** (1.0 / 3.0) - 1.0)
        assert math.isclose(laplace(g, r), 1.0 / 1.7, rel_tol=1e-14)

    def test_at_zero(self):
        assert laplace(GammaParams(4.2, 0.37), 0.0) == 1.0

    def test_notified_fraction_value(self):
        val = laplace(GammaParams(2.0, 0.2), 0.0387)
        assert abs(val - 0.702) < 1e-3

    def test_divergent_rejected(self):
        with pytest.raises(ValueError):
            laplace(GammaParams(2.0, 0.5), -0.5)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            shape = rng.uniform(0.3, 10.0)
            rate = rng.uniform(0.01, 2.0)
            r = rng.uniform(-0.5 * rate, 2.0)
            val = laplace(GammaParams(shape, rate), r)
            assert abs(val - quad_laplace(shape, rate, r)) < 1e-8 * max(1.0, val)

    @given(log_shape=st.floats(-2.0, 3.0), log_rate=st.floats(-3.0, 1.0),
           r_over_rate=st.floats(-0.9, 3.0))
    def test_matches_quadrature_oracle(self, log_shape, log_rate, r_over_rate):
        shape, rate = math.exp(log_shape), math.exp(log_rate)
        r = r_over_rate * rate
        val = laplace(GammaParams(shape, rate), r)
        assert abs(val / quad_laplace(shape, rate, r) - 1.0) < 1e-8

    def test_strictly_decreasing_in_r(self):
        for g in [GammaParams(3.0, 0.2), GammaParams(0.5, 1.0), GammaParams(8.0, 0.9)]:
            vals = [laplace(g, r) for r in np.linspace(-0.4 * g.rate, 3.0, 60)]
            assert np.all(np.diff(vals) < 0)


class TestSample:
    def test_exponential_mean(self):
        draws = sample(GammaParams(1.0, 1.0), stream(7, 0), size=1_000_000)
        assert abs(draws.mean() - 1.0) < 0.003
        assert draws.min() >= 0

    def test_generation_time_mean(self):
        draws = sample(GammaParams(3.0, 0.2), stream(7, 1), size=1_000_000)
        assert abs(draws.mean() - 15.0) < 0.03
        assert abs(draws.std() - math.sqrt(75.0)) < 0.05

    def test_deterministic_stream(self):
        a = sample(GammaParams(2.3, 0.7), stream(11, 5), size=100)
        b = sample(GammaParams(2.3, 0.7), stream(11, 5), size=100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [4.0 / 9.0, 1.0, 2.0, 3.0, 4.0])
    def test_goodness_of_fit(self, shape):
        g = GammaParams(shape, 0.6)
        draws = sample(g, stream(13, int(shape * 1000)), size=100_000)
        stat = stats.kstest(draws, lambda t: cdf(g, t)).statistic
        # 1% critical value of the Kolmogorov statistic for n = 1e5
        assert stat < 1.628 / math.sqrt(100_000)


class TestDiscretize:
    def test_sums_to_one(self):
        d = discretize(GammaParams(3.0, 0.2), 60)
        assert abs(d.probs.sum() - 1.0) < 1e-12
        assert np.all(d.probs >= 0)

    def test_mean_close_to_continuous(self):
        # Assigning the mass of (s-1, s] to day s shifts the mean up by ~half a day.
        d = discretize(GammaParams(3.0, 0.2), 60)
        assert abs(d.mean() - 15.0) <= 0.6

    def test_exponential_first_day(self):
        d = discretize(GammaParams(1.0, 1.0), 20)
        expected = (1.0 - math.exp(-1.0)) / (1.0 - math.exp(-20.0))
        assert math.isclose(d.probs[0], expected, rel_tol=1e-12)
        assert abs(expected - 0.632) < 1e-3

    def test_truncating_horizon_rejected(self):
        with pytest.raises(ValueError):
            discretize(GammaParams(3.0, 0.2), 20)

    def test_sum_property_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = GammaParams(rng.uniform(0.4, 8.0), rng.uniform(0.05, 2.0))
            d = discretize(g, discretization_horizon(g))
            assert abs(d.probs.sum() - 1.0) < 1e-12
            assert np.all(d.probs >= 0)


class TestDiscretizeCentered:
    def test_preserves_mean(self):
        from epibias.distributions import discretize_centered

        d = discretize_centered(GammaParams(3.0, 0.2), 80)
        assert abs(d.mean() - 15.0) < 0.02
        assert abs(d.probs.sum() - 1.0) < 1e-12
        assert np.all(d.probs >= 0)

    def test_discounted_mass_matches_transform(self):
        # day-lag weights must reproduce E[exp(-r*T)] when discounted,
        # which is what renewal-equation fits rely on
        from epibias.distributions import discretize_centered

        g = GammaParams(3.0, 0.2)
        r = 0.2 * (1.7 ** (1.0 / 3.0) - 1.0)
        d = discretize_centered(g, 80)
        discounted = float(np.exp(-r * np.arange(1, 81)) @ d.probs)
        assert abs(discounted - laplace(g, r)) < 2e-4

    @given(shape=st.floats(0.3, 20.0), mean=st.floats(1.0, 40.0))
    def test_mean_preserved_up_to_dropped_lag_zero(self, shape, mean):
        # The tent binning keeps E[G] over lags 0, 1, 2, ...; dropping lag 0
        # (mass p0 = P(k, lambda) - E[G] * P(k+1, lambda)) and renormalizing
        # divides the mean by 1 - p0.  The horizon reaches 1e-12 of the tail
        # (up to ~3,200 days here), where the masses are differences of CDF
        # values near 1; their rounding moves the mean by up to ~2e-9.
        from epibias.distributions import discretize_centered

        g = GammaParams(shape, shape / mean)
        d = discretize_centered(g, discretization_horizon(g, 1.0 - 1e-12, cap=100_000))
        p0 = gammainc(shape, g.rate) - g.mean() * gammainc(shape + 1.0, g.rate)
        assert abs(d.mean() * (1.0 - p0) / g.mean() - 1.0) < 1e-8

    def test_truncating_horizon_rejected(self):
        from epibias.distributions import discretize_centered

        with pytest.raises(ValueError):
            discretize_centered(GammaParams(3.0, 0.2), 20)


class TestDiscreteDelay:
    def test_validates_sum(self):
        with pytest.raises(ValueError):
            DiscreteDelay(probs=np.array([0.5, 0.4]), horizon=2)

    def test_validates_sign(self):
        with pytest.raises(ValueError):
            DiscreteDelay(probs=np.array([1.2, -0.2]), horizon=2)

    def test_mean(self):
        d = DiscreteDelay(probs=np.array([0.25, 0.75]), horizon=2)
        assert d.mean() == 1.75
