import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from _oracles import invert_exposure_moments, quad_tilted_mean
from epibias.distributions import GammaParams, gamma_from_moments, laplace
from epibias.exposures import (
    ExposureHistory,
    ExposureModel,
    Histories,
    LogNormalParams,
    MomentFitError,
    calibrate_contact_rate,
    conditional_log_likelihood,
    earliest_exposure_fit,
    generate_histories,
    invert_moment_system,
    latest_exposure_fit,
    ml_fit,
    moment_fit,
    moment_system,
    read_histories,
    sample_moments,
    single_exposure_shift,
    write_histories,
)
from epibias.rng import stream

MODEL = ExposureModel(
    p=0.5, contact_rate=0.0725, incubation=gamma_from_moments(11.4, 8.1)
)


def model_population_moments(model):
    return population_moments(
        model.p, model.contact_rate, model.incubation.mean(), model.incubation.variance()
    )


def population_moments(p, mu, m, v):
    a = (1.0 - p) / p
    EC = 1.0 / p + mu * m
    VarC = a / p + mu * m + mu * mu * v
    ES = a / mu + m
    VarS = (a + a / p) / mu**2 + v
    return EC, VarC, ES, VarS


class TestHistoryTypes:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExposureHistory(exposures=(), symptom_time=3.0)
        with pytest.raises(ValueError):
            ExposureHistory(exposures=(0.0, 2.0, 1.0), symptom_time=5.0)
        with pytest.raises(ValueError):
            ExposureHistory(exposures=(0.0, 2.0), symptom_time=1.5)

    def test_columnar_roundtrip(self):
        records = [
            ExposureHistory((0.0,), 4.0),
            ExposureHistory((0.0, 1.5, 2.0), 9.0),
        ]
        hist = Histories.from_records(records)
        assert len(hist) == 2
        assert list(hist.counts) == [1, 3]
        assert hist.history(1) == records[1]
        assert list(hist.first_to_symptom()) == [4.0, 9.0]
        assert list(hist.last_to_symptom()) == [4.0, 7.0]


@pytest.fixture(scope="module")
def big_sample():
    return generate_histories(MODEL, 1_000_000, "gamma", seed=stream(31, 0))


@pytest.fixture(scope="module")
def gamma_sample():
    return generate_histories(MODEL, 2000, "gamma", seed=stream(36, 0))


class TestGenerator:
    def test_moments_match_closed_forms(self, big_sample):
        EC, VarC, ES, VarS = model_population_moments(MODEL)
        n = len(big_sample)
        C = big_sample.counts.astype(float)
        S = big_sample.first_to_symptom()
        for sample_val, target, spread in [
            (C.mean(), EC, C.std()),
            (S.mean(), ES, S.std()),
        ]:
            assert abs(sample_val - target) < 3 * spread / math.sqrt(n)
        # variance SEs from the empirical fourth moments
        for x, target in [(C, VarC), (S, VarS)]:
            m4 = stats.moment(x, 4)
            se = math.sqrt((m4 - x.var() ** 2) / n)
            assert abs(x.var(ddof=1) - target) < 3 * se

    def test_expected_contacts_value(self):
        assert abs(MODEL.expected_contacts() - 2.83) < 0.01

    def test_single_exposure_fraction(self, big_sample):
        frac = float((big_sample.counts == 1).mean())
        theory = MODEL.p * laplace(MODEL.incubation, MODEL.contact_rate)
        assert abs(frac - theory) < 3 * math.sqrt(theory * (1 - theory) / len(big_sample))

    def test_certain_infection_at_first_contact(self):
        model = ExposureModel(p=1.0, contact_rate=0.1, incubation=MODEL.incubation)
        hist = generate_histories(model, 5000, "gamma", seed=stream(32, 0))
        first = hist.exposures[hist.offsets[:-1]]
        assert np.all(first == 0.0)
        target = 1.0 + model.contact_rate * model.incubation.mean()
        assert abs(hist.counts.mean() - target) < 0.1

    def test_exposures_strictly_before_symptoms(self):
        hist = generate_histories(MODEL, 2000, "gamma", seed=stream(33, 0))
        delta = np.repeat(hist.symptom_times, hist.counts) - hist.exposures
        assert np.all(delta > 0)

    def test_lognormal_family_matches_moments(self):
        hist = generate_histories(MODEL, 400_000, "lognormal", seed=stream(34, 0))
        # first-contact-to-symptom mean is family independent
        _, _, ES, _ = model_population_moments(MODEL)
        S = hist.first_to_symptom()
        assert abs(S.mean() - ES) < 3 * S.std() / math.sqrt(len(S))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate_histories(MODEL, 10, "weibull", seed=0)


class TestLogNormal:
    def test_moment_matching(self):
        ln = LogNormalParams.from_moments(11.4, 8.1)
        assert math.isclose(ln.mean(), 11.4, rel_tol=1e-12)
        assert math.isclose(ln.sd(), 8.1, rel_tol=1e-12)

    def test_density_integrates(self):
        from scipy import integrate

        ln = LogNormalParams.from_moments(11.4, 8.1)
        val, _ = integrate.quad(ln.pdf, 0, np.inf, limit=200)
        assert abs(val - 1.0) < 1e-8

    def test_sampler_moments(self):
        ln = LogNormalParams.from_moments(5.0, 2.0)
        draws = ln.sample(stream(35, 0), 400_000)
        assert abs(draws.mean() - 5.0) < 0.02


class TestLikelihood:
    def test_single_exposure(self):
        hist = Histories.from_records([ExposureHistory((0.0,), 6.0)])
        g = gamma_from_moments(11.4, 8.1)
        expected = math.log(0.4) + math.log(
            stats.gamma.pdf(6.0, a=g.shape, scale=1.0 / g.rate)
        )
        assert math.isclose(
            conditional_log_likelihood(hist, 0.4, g), expected, rel_tol=1e-12
        )

    def test_certain_infection_limit(self):
        hist = Histories.from_records([ExposureHistory((0.0, 2.0, 3.0), 7.0)])
        g = gamma_from_moments(11.4, 8.1)
        expected = math.log(stats.gamma.pdf(7.0, a=g.shape, scale=1.0 / g.rate))
        assert math.isclose(conditional_log_likelihood(hist, 1.0, g), expected, rel_tol=1e-12)

    def test_two_exposure_hand_value(self):
        # exponential incubation: log(0.5*exp(-(s-e1)) + 0.25*exp(-(s-e2)))
        hist = Histories.from_records([ExposureHistory((0.0, 1.0), 3.0)])
        g = GammaParams(1.0, 1.0)
        expected = math.log(0.5 * math.exp(-3.0) + 0.25 * math.exp(-2.0))
        assert math.isclose(conditional_log_likelihood(hist, 0.5, g), expected, rel_tol=1e-12)

    def test_symptoms_before_exposure_rejected(self):
        hist = Histories(
            offsets=np.array([0, 2]), exposures=np.array([0.0, 5.0]),
            symptom_times=np.array([4.0]),
        )
        with pytest.raises(ValueError):
            conditional_log_likelihood(hist, 0.5, gamma_from_moments(11.4, 8.1))

    def test_invalid_p_rejected(self):
        hist = Histories.from_records([ExposureHistory((0.0,), 6.0)])
        with pytest.raises(ValueError):
            conditional_log_likelihood(hist, 0.0, gamma_from_moments(11.4, 8.1))

    def test_normalized_variant_single_exposure(self):
        # with k = 1 the normalizer removes the p factor entirely
        hist = Histories.from_records([ExposureHistory((0.0,), 6.0)])
        g = gamma_from_moments(11.4, 8.1)
        val = conditional_log_likelihood(hist, 0.3, g, normalized=True)
        expected = math.log(stats.gamma.pdf(6.0, a=g.shape, scale=1.0 / g.rate))
        assert math.isclose(val, expected, rel_tol=1e-12)


class TestMlFit:
    def test_recovers_truth(self, gamma_sample):
        fit = ml_fit(gamma_sample)
        assert fit.converged
        assert abs(fit.p - 0.5) < 0.05
        assert abs(fit.mean - 11.4) < 0.8
        assert abs(fit.sd - 8.1) < 0.8

    def test_fit_beats_generating_parameters(self, gamma_sample):
        fit = ml_fit(gamma_sample)
        at_truth = conditional_log_likelihood(gamma_sample, 0.5, MODEL.incubation)
        assert fit.log_likelihood >= at_truth - 1e-4

    def test_boundary_p(self):
        model = ExposureModel(p=1.0, contact_rate=0.0725, incubation=MODEL.incubation)
        hist = generate_histories(model, 800, "gamma", seed=stream(37, 0))
        keep = hist.counts == 1
        singles = Histories.from_records(
            [hist.history(i) for i in np.flatnonzero(keep)]
        )
        fit = ml_fit(singles)
        assert fit.p > 0.999
        # with k = 1 throughout, the incubation part is a plain Gamma MLE
        durations = singles.first_to_symptom()
        shape, _, scale = stats.gamma.fit(durations, floc=0)
        assert abs(fit.mean - shape * scale) / (shape * scale) < 0.01

    def test_needs_enough_histories(self):
        hist = generate_histories(MODEL, 10, "gamma", seed=stream(38, 0))
        with pytest.raises(ValueError):
            ml_fit(hist)


class TestMomentFit:
    def test_exact_population_moments_inverted(self):
        moments = model_population_moments(MODEL)
        oracle = invert_exposure_moments(*moments)
        assert abs(oracle[0] - MODEL.p) < 1e-12

        hist = generate_histories(MODEL, 200, "gamma", seed=stream(39, 0))
        fit = moment_fit(hist)
        sample = sample_moments(hist)
        expected = invert_exposure_moments(*sample)
        assert abs(fit.p - expected[0]) < 1e-8
        assert abs(fit.contact_rate - expected[1]) < 1e-8
        assert abs(fit.mean - expected[2]) < 1e-8
        assert abs(fit.variance - expected[3]) < 1e-6

    def test_residuals_vanish_at_solution(self):
        hist = generate_histories(MODEL, 500, "gamma", seed=stream(40, 0))
        fit = moment_fit(hist)
        resid = moment_system(
            (fit.p, fit.contact_rate, fit.mean, fit.variance), sample_moments(hist)
        )
        assert np.max(np.abs(resid)) < 1e-8

    def test_reasonable_estimates(self):
        hist = generate_histories(MODEL, 20_000, "gamma", seed=stream(41, 0))
        fit = moment_fit(hist)
        assert abs(fit.p - 0.5) < 0.04
        assert abs(fit.mean - 11.4) < 1.0
        assert abs(fit.sd - 8.1) < 1.5

    # p stops short of 1: there a = 0 and rounding decides whether p <= 1.
    @given(p=st.floats(0.1, 0.999), mu=st.floats(0.02, 1.0), mean=st.floats(1.0, 30.0),
           cv=st.floats(0.3, 2.0))
    def test_inversion_round_trip(self, p, mu, mean, cv):
        variance = (cv * mean) ** 2
        moments = population_moments(p, mu, mean, variance)
        fit = invert_moment_system(moments)
        _, _, ES, VarS = moments
        assert math.isclose(fit.p, p, rel_tol=1e-12)
        assert math.isclose(fit.contact_rate, mu, rel_tol=1e-12)
        # mean and variance are differences of terms as large as ES and VarS
        assert math.isclose(fit.mean, mean, rel_tol=1e-12, abs_tol=1e-13 * ES)
        assert math.isclose(fit.variance, variance, rel_tol=1e-12, abs_tol=1e-13 * VarS)
        assert fit.residual < 1e-12 * max(moments)

    @pytest.mark.parametrize("moments", [
        (0.9, 0.5, 10.0, 20.0),   # EC < 1: contact rate mu <= 0
        (2.0, 4.0, 10.0, 10.0),   # 1 + a < 0: p would be negative
    ])
    def test_no_root_with_positive_p_and_rate(self, moments):
        with pytest.raises(MomentFitError) as err:
            invert_moment_system(moments)
        assert err.value.raw is None

    @pytest.mark.parametrize("moments, field", [
        ((2.0, 2.0, 10.0, 10.0), "p"),           # -1 < a < 0: p > 1
        ((2.0, 0.5, 10.0, 100.0), "variance"),   # variance equation demands Var(T) < 0
    ])
    def test_inadmissible_root_rides_along(self, moments, field):
        with pytest.raises(MomentFitError) as err:
            invert_moment_system(moments)
        raw = err.value.raw
        assert raw.p > 1.0 if field == "p" else raw.variance < 0.0
        assert np.max(np.abs(err.value.residuals)) < 1e-12 * max(moments)
        assert raw.residual == np.max(np.abs(err.value.residuals))

    def test_inadmissible_moments_raise(self):
        hist = generate_histories(MODEL, 200, "gamma", seed=stream(42, 0))
        hist.symptom_times = hist.symptom_times * 0 + np.linspace(30, 31, len(hist))
        with pytest.raises(MomentFitError) as err:
            moment_fit(hist)
        assert err.value.residuals is not None or err.value.raw is not None


class TestCalibrateContactRate:
    def test_study_value(self):
        mu = calibrate_contact_rate(0.5, 0.25, MODEL.incubation)
        assert abs(mu - 0.0725) < 1e-3
        assert abs(0.5 * laplace(MODEL.incubation, mu) - 0.25) < 1e-12

    def test_constructed_inverse(self):
        target = 0.5 * laplace(MODEL.incubation, 0.1)
        assert abs(calibrate_contact_rate(0.5, target, MODEL.incubation) - 0.1) < 1e-10

    def test_high_fraction_small_rate(self):
        mu = calibrate_contact_rate(0.5, 0.49, MODEL.incubation)
        assert 0 < mu < 0.01
        assert abs(0.5 * laplace(MODEL.incubation, mu) - 0.49) < 1e-10

    def test_infeasible_fraction_rejected(self):
        with pytest.raises(ValueError):
            calibrate_contact_rate(0.5, 0.6, MODEL.incubation)


class TestSingleExposureShift:
    GEN = gamma_from_moments(15.3, 9.3)

    def test_study_values(self):
        cond_mean, biased = single_exposure_shift(MODEL, self.GEN)
        assert abs(cond_mean - 8.1) < 0.15
        assert abs(biased.mean() - 12.0) < 0.1
        assert abs(math.sqrt(biased.variance()) - 9.3) < 1e-9

    def test_no_competition_no_shift(self):
        model = ExposureModel(p=0.5, contact_rate=1e-9, incubation=MODEL.incubation)
        cond_mean, biased = single_exposure_shift(model, self.GEN)
        assert abs(cond_mean - 11.4) < 1e-6
        assert abs(biased.mean() - 15.3) < 1e-6

    def test_matches_quadrature(self):
        inc = MODEL.incubation
        cond_mean, _ = single_exposure_shift(MODEL, self.GEN)
        oracle = quad_tilted_mean(inc.shape, inc.rate, MODEL.contact_rate)
        assert abs(cond_mean - oracle) < 1e-8

    def test_always_below_unconditional_mean(self):
        for mu in [0.01, 0.05, 0.2, 1.0]:
            model = ExposureModel(p=0.5, contact_rate=mu, incubation=MODEL.incubation)
            cond_mean, _ = single_exposure_shift(model, self.GEN)
            assert cond_mean < MODEL.incubation.mean()


class TestHeuristics:
    def test_direction_of_bias(self):
        hist = generate_histories(MODEL, 50_000, "gamma", seed=stream(43, 0))
        assert earliest_exposure_fit(hist).mean() > 11.4
        assert latest_exposure_fit(hist).mean() < 11.4


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path):
        hist = generate_histories(MODEL, 50, "gamma", seed=stream(44, 0))
        summary, long = tmp_path / "histories.csv", tmp_path / "exposures.csv"
        write_histories(hist, summary, long)
        back = read_histories(summary, long)
        assert np.array_equal(back.offsets, hist.offsets)
        assert np.allclose(back.exposures, hist.exposures, atol=1e-6)
        assert np.allclose(back.symptom_times, hist.symptom_times, atol=1e-6)
