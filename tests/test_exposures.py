import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit, logit

from _oracles import (
    ExposureHistory,
    calibrate_contact_rate,
    histories_from_records,
    history,
    invert_exposure_moments,
    lbfgsb_ml_fit,
    loop_generate_histories,
    moment_system,
    quad_tilted_mean,
    single_exposure_shift,
)
from epibias import exposures
from epibias.analysis import EXPOSURE_FAMILIES
from epibias.config import load_config
from epibias.distributions import GammaParams, gamma_from_moments, laplace
from epibias.exposures import (
    ConvergenceError,
    ExposureModel,
    Histories,
    MomentFitError,
    conditional_log_likelihood,
    generate_histories,
    invert_moment_system,
    ml_fit,
    moment_fit,
    sample_moments,
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
    """(E(C), Var(C), E(S), Var(S)): the moments at which the system's residuals vanish."""
    return tuple(moment_system((p, mu, m, v), np.zeros(4)).tolist())


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
        hist = histories_from_records(records)
        assert len(hist) == 2
        assert list(hist.counts) == [1, 3]
        assert history(hist, 1) == records[1]
        assert list(hist.first_to_symptom()) == [4.0, 9.0]
        assert list(hist.last_to_symptom()) == [4.0, 7.0]

    def test_arrays_are_read_only(self):
        offsets, times, onsets = np.array([0, 1, 3]), np.array([0.0, 0.0, 1.5]), np.array([4.0, 9.0])
        hist = Histories(offsets, times, onsets)
        offsets[1] = 2  # the store keeps its own copy of the caller's arrays
        assert list(hist.counts) == [1, 2]
        for name in ("offsets", "exposures", "symptom_times", "counts", "z"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(hist, name)[0] = 1.0

    def test_exposure_at_onset_rejected(self):
        hist = Histories(np.array([0, 1, 3]), np.array([0.0, 0.0, 9.0]), np.array([4.0, 9.0]))
        with pytest.raises(ValueError, match="precede the symptom time"):
            hist.z


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
        EC, _, _, _ = model_population_moments(MODEL)
        assert abs(EC - 2.83) < 0.01

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
            generate_histories(MODEL, 10, "weibull", seed=stream(44, 0))

    @pytest.mark.parametrize("family", ["gamma", "lognormal"])
    @pytest.mark.parametrize("model", [
        MODEL,
        ExposureModel(p=0.05, contact_rate=2.0, incubation=MODEL.incubation),
        ExposureModel(p=1.0, contact_rate=0.0725, incubation=MODEL.incubation),
    ])
    def test_bit_identical_to_loop_oracle(self, model, family):
        for rep in range(5):
            rng, oracle_rng = stream(45, rep), stream(45, rep)
            hist = generate_histories(model, 300, family, seed=rng)
            ref = loop_generate_histories(model, 300, family, oracle_rng)
            assert np.array_equal(hist.offsets, ref.offsets)
            assert np.array_equal(hist.exposures, ref.exposures)
            assert np.array_equal(hist.symptom_times, ref.symptom_times)
            # both consumed the same stretch of the stream
            assert rng.random() == oracle_rng.random()


def _single_exposure_only(hist):
    keep = hist.counts == 1
    return Histories(
        np.arange(keep.sum() + 1), hist.exposures[hist.starts[keep]], hist.symptom_times[keep]
    )


GRADIENT_SETS = {
    "default": generate_histories(MODEL, 60, "gamma", seed=stream(46, 0)),
    "crowded": generate_histories(
        ExposureModel(p=0.05, contact_rate=2.0, incubation=MODEL.incubation), 20, "gamma",
        seed=stream(46, 1),
    ),
    "single": _single_exposure_only(generate_histories(MODEL, 200, "gamma", seed=stream(46, 2))),
}


# Points of the derivative checks in (logit p, log mean, log sd): logit p
# spans the fit's cap of +-16 (p within 1.2e-7 of 0 or 1), and cv > 1 is a
# Gamma shape below 1.
DERIVATIVE_POINTS = given(
    data=st.sampled_from(sorted(GRADIENT_SETS)),
    logit_p=st.floats(-16.0, 16.0),
    log_mean=st.floats(0.0, math.log(60.0)),
    log_cv=st.floats(math.log(0.1), math.log(4.0)),
)


def ll_at(data, x):
    """(ll, grad, hess) of ``GRADIENT_SETS[data]`` at x = (logit p, log mean, log sd)."""
    g = gamma_from_moments(math.exp(x[1]), math.exp(x[2]))
    return conditional_log_likelihood(GRADIENT_SETS[data], expit(x[0]), g)


def central_difference(f, x, j):
    """Five-point stencil for df/dx_j: truncation error O(h**4)."""
    e = np.zeros(3)
    e[j] = 1e-3 if j == 0 else 1e-4
    return (8 * (f(x + e) - f(x - e)) - (f(x + 2 * e) - f(x - 2 * e))) / (12 * e[j])


class TestLikelihood:
    def test_single_exposure(self):
        hist = histories_from_records([ExposureHistory((0.0,), 6.0)])
        g = gamma_from_moments(11.4, 8.1)
        expected = math.log(0.4) + math.log(
            stats.gamma.pdf(6.0, a=g.shape, scale=1.0 / g.rate)
        )
        assert math.isclose(
            conditional_log_likelihood(hist, 0.4, g)[0], expected, rel_tol=1e-12
        )

    def test_certain_infection_limit(self):
        hist = histories_from_records([ExposureHistory((0.0, 2.0, 3.0), 7.0)])
        g = gamma_from_moments(11.4, 8.1)
        expected = math.log(stats.gamma.pdf(7.0, a=g.shape, scale=1.0 / g.rate))
        assert math.isclose(conditional_log_likelihood(hist, 1.0, g)[0], expected, rel_tol=1e-12)

    def test_two_exposure_hand_value(self):
        # exponential incubation: log(0.5*exp(-(s-e1)) + 0.25*exp(-(s-e2)))
        hist = histories_from_records([ExposureHistory((0.0, 1.0), 3.0)])
        g = GammaParams(1.0, 1.0)
        expected = math.log(0.5 * math.exp(-3.0) + 0.25 * math.exp(-2.0))
        assert math.isclose(conditional_log_likelihood(hist, 0.5, g)[0], expected, rel_tol=1e-12)

    def test_later_exposure_far_likelier_than_the_first(self):
        # The second exposure's term exceeds the first's by ~985, more than
        # exp can scale a sum by, so each person's terms are taken relative
        # to its largest; the persons with one exposure stay as they are.
        hist = histories_from_records(
            [ExposureHistory((0.0, 99.0), 100.0), ExposureHistory((0.0,), 0.3)]
        )
        g = GammaParams(2.0, 10.0)
        log_g = stats.gamma(a=2.0, scale=0.1).logpdf
        expected = np.logaddexp(math.log(0.5) + log_g(100.0), math.log(0.25) + log_g(1.0))
        expected += math.log(0.5) + log_g(0.3)
        assert math.isclose(conditional_log_likelihood(hist, 0.5, g)[0], expected, rel_tol=1e-12)

    def test_symptoms_before_exposure_rejected(self):
        hist = Histories(
            offsets=np.array([0, 2]), exposures=np.array([0.0, 5.0]),
            symptom_times=np.array([4.0]),
        )
        with pytest.raises(ValueError):
            conditional_log_likelihood(hist, 0.5, gamma_from_moments(11.4, 8.1))

    def test_invalid_p_rejected(self):
        hist = histories_from_records([ExposureHistory((0.0,), 6.0)])
        with pytest.raises(ValueError):
            conditional_log_likelihood(hist, 0.0, gamma_from_moments(11.4, 8.1))

    @DERIVATIVE_POINTS
    @example(data="default", logit_p=16.0, log_mean=math.log(11.4), log_cv=-0.34)
    @example(data="crowded", logit_p=-16.0, log_mean=math.log(11.4), log_cv=-0.34)
    @example(data="single", logit_p=16.0, log_mean=math.log(11.4), log_cv=math.log(2.0))
    def test_gradient_matches_central_differences(self, data, logit_p, log_mean, log_cv):
        x = np.array([logit_p, log_mean, log_mean + log_cv])
        value, grad, _ = ll_at(data, x)
        for j in range(3):
            fd = central_difference(lambda y: ll_at(data, y)[0], x, j)
            assert abs(fd - grad[j]) <= 1e-5 * abs(grad[j]) + 1e-10 * abs(value), j

    @DERIVATIVE_POINTS
    @example(data="default", logit_p=16.0, log_mean=math.log(11.4), log_cv=-0.34)
    @example(data="default", logit_p=12.0, log_mean=math.log(11.4), log_cv=-0.34)
    @example(data="crowded", logit_p=16.0, log_mean=math.log(30.0), log_cv=0.5)
    @example(data="crowded", logit_p=-16.0, log_mean=math.log(11.4), log_cv=-0.34)
    @example(data="single", logit_p=16.0, log_mean=math.log(11.4), log_cv=math.log(2.0))
    def test_hessian_matches_central_differences(self, data, logit_p, log_mean, log_cv):
        # Each Hessian column against central differences of the analytic
        # gradient, which the test above checks.
        def grad(y):
            return ll_at(data, y)[1]

        x = np.array([logit_p, log_mean, log_mean + log_cv])
        value, _, hess = ll_at(data, x)
        for j in range(3):
            fd = central_difference(grad, x, j)
            tol = 1e-5 * np.abs(hess[:, j]) + 1e-8 * (np.max(np.abs(hess)) + abs(value))
            assert np.all(np.abs(fd - hess[:, j]) <= tol), (j, fd, hess[:, j])


class TestMlFit:
    def test_recovers_truth(self, gamma_sample):
        fit = ml_fit(gamma_sample)
        assert abs(fit.p - 0.5) < 0.05
        assert abs(fit.mean - 11.4) < 0.8
        assert abs(fit.sd - 8.1) < 0.8

    def test_fit_beats_generating_parameters(self, gamma_sample):
        fit = ml_fit(gamma_sample)
        at_truth = conditional_log_likelihood(gamma_sample, 0.5, MODEL.incubation)[0]
        assert fit.log_likelihood >= at_truth - 1e-4

    def test_boundary_p(self):
        model = ExposureModel(p=1.0, contact_rate=0.0725, incubation=MODEL.incubation)
        hist = generate_histories(model, 800, "gamma", seed=stream(37, 0))
        keep = hist.counts == 1
        singles = histories_from_records(
            [history(hist, i) for i in np.flatnonzero(keep)]
        )
        fit = ml_fit(singles)
        assert fit.p > 0.999
        # with k = 1 throughout, the incubation part is a plain Gamma MLE
        durations = singles.first_to_symptom()
        shape, _, scale = stats.gamma.fit(durations, floc=0)
        assert abs(fit.mean - shape * scale) / (shape * scale) < 0.01

    def test_every_evaluation_is_counted(self, monkeypatch):
        # Each Newton step evaluates the likelihood, its gradient and its
        # Hessian in one call through the module-level name, and so does
        # each halving of a step, so wrapping that name counts them all.
        # From each of the three starts Newton needs 6-7 calls on this set.
        hist = generate_histories(MODEL, 500, "gamma", seed=stream(47, 0))
        calls = []
        likelihood = exposures.conditional_log_likelihood

        def counted(*args):
            calls.append(args)
            return likelihood(*args)

        monkeypatch.setattr(exposures, "conditional_log_likelihood", counted)
        fit = ml_fit(hist)
        assert len(calls) == fit.n_evaluations <= 25

    @pytest.mark.parametrize("failing", [1, 2, 3])
    def test_every_start_climbs_and_the_best_is_kept(self, monkeypatch, failing):
        # The first `failing` solves report failure.  All three starts climb
        # all the same, every solve's evaluations are counted, the fit keeps
        # the highest end point, and when all three fail it raises.
        hist = generate_histories(MODEL, 500, "gamma", seed=stream(47, 0))
        newton = exposures._newton
        solves = []

        def fails_first(histories, x0):
            x, ll, converged, used, message = newton(histories, x0)
            solves.append((x0, ll, used))
            if len(solves) <= failing:
                return x, ll, False, used, f"forced failure {len(solves)}"
            return x, ll, converged, used, message

        monkeypatch.setattr(exposures, "_newton", fails_first)
        if failing == 3:
            with pytest.raises(ConvergenceError, match="no start converged: forced failure"):
                ml_fit(hist)
        else:
            fit = ml_fit(hist)
            assert fit.n_evaluations == sum(used for _, _, used in solves)
            assert fit.log_likelihood == max(ll for _, ll, _ in solves)
        assert len(solves) == 3
        assert len({tuple(x0) for x0, _, _ in solves}) == 3

    @pytest.mark.parametrize("family", EXPOSURE_FAMILIES)
    def test_matches_lbfgsb_best_of_three_on_study_streams(self, family):
        # The exposure study's own history sets: the best of three Newton
        # solves reaches the optimum that the best of three L-BFGS-B runs
        # reaches.
        config = load_config()
        gi = EXPOSURE_FAMILIES.index(family)
        for rep in range(150):
            rng = stream(config.seed, 1_000_000 * (gi + 1) + rep)
            hist = generate_histories(
                config.exposure_model, config.exposure_n_persons, family, seed=rng
            )
            fit, ref = ml_fit(hist), lbfgsb_ml_fit(hist)
            assert fit.log_likelihood >= ref.log_likelihood - 1e-9, rep
            x, x_ref = (np.array([logit(f.p), math.log(f.mean), math.log(f.sd)])
                        for f in (fit, ref))
            assert np.allclose(x, x_ref, rtol=0.0, atol=2e-4), (rep, x, x_ref)

    def test_matches_lbfgsb_best_of_three_on_crowded_histories(self):
        # Many exposures per person give the likelihood several local
        # maxima: from the first start alone Newton climbs to p = 0.13, 372
        # log-likelihood units below the maximum at p = 0.80 that the best
        # of three L-BFGS-B runs reaches.
        model = ExposureModel(p=0.98, contact_rate=0.34, incubation=gamma_from_moments(24.0, 41.0))
        hist = generate_histories(model, 2000, "lognormal", seed=stream(1, 0))
        fit, ref = ml_fit(hist), lbfgsb_ml_fit(hist)
        assert fit.log_likelihood >= ref.log_likelihood - 1e-9
        assert abs(fit.p - ref.p) < 1e-3 and abs(fit.p - 0.80) < 0.01

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
        # Admissible parameters -> the oracle system's moments -> the closed
        # form recovers the parameters, and its root solves the system.
        variance = (cv * mean) ** 2
        moments = population_moments(p, mu, mean, variance)
        fit = invert_moment_system(moments)
        _, _, ES, VarS = moments
        assert math.isclose(fit.p, p, rel_tol=1e-12)
        assert math.isclose(fit.contact_rate, mu, rel_tol=1e-12)
        # mean and variance are differences of terms as large as ES and VarS
        assert math.isclose(fit.mean, mean, rel_tol=1e-12, abs_tol=1e-13 * ES)
        assert math.isclose(fit.variance, variance, rel_tol=1e-12, abs_tol=1e-13 * VarS)
        root = (fit.p, fit.contact_rate, fit.mean, fit.variance)
        assert np.max(np.abs(moment_system(root, moments))) < 1e-12 * max(moments)

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
        resid = moment_system((raw.p, raw.contact_rate, raw.mean, raw.variance), moments)
        assert np.max(np.abs(resid)) < 1e-12 * max(moments)

    def test_inadmissible_moments_raise(self):
        hist = generate_histories(MODEL, 200, "gamma", seed=stream(42, 0))
        hist.symptom_times = hist.symptom_times * 0 + np.linspace(30, 31, len(hist))
        with pytest.raises(MomentFitError) as err:
            moment_fit(hist)
        assert err.value.raw is not None


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

    def test_matches_generated_single_exposure_cases(self):
        # A single-exposure person was infected at its only contact and met
        # no one before symptoms, so its first-contact-to-symptom time is the
        # incubation time tilted by exp(-mu*t).
        hist = generate_histories(MODEL, 100_000, "gamma", seed=stream(48, 0))
        S = hist.first_to_symptom()[hist.counts == 1]
        cond_mean, _ = single_exposure_shift(MODEL, self.GEN)
        assert abs(S.mean() - cond_mean) < 3 * S.std(ddof=1) / math.sqrt(len(S))


class TestHeuristics:
    def test_direction_of_bias(self):
        # pretending the earliest (latest) exposure infected biases the
        # incubation mean long (short)
        hist = generate_histories(MODEL, 50_000, "gamma", seed=stream(43, 0))
        assert hist.first_to_symptom().mean() > 11.4
        assert hist.last_to_symptom().mean() < 11.4
