import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import discretize, renewal_expected
from epibias.distributions import (
    GammaParams,
    discretization_horizon,
    discretize_centered,
    gamma_from_moments,
)
from epibias.growth_estimators import (
    CaseSeries,
    PredictionScore,
    est_a_log_cumulative,
    est_b_log_daily,
    est_c_mean_ratio,
    est_d_branching,
    est_e_renewal_R0,
    predict_forward,
    renewal_pressure,
)


def doubling_series(days: int) -> CaseSeries:
    # daily counts 1, 1, 2, 4, ... give exactly cumulative 2^t
    daily = np.concatenate([[1], 2 ** np.arange(0, days - 1)])
    return CaseSeries(daily)


def rounded_exponential_series(r: float, days: int, base: float = 5.0) -> CaseSeries:
    cum = np.round(base * np.exp(r * np.arange(1, days + 1))).astype(np.int64)
    return CaseSeries(np.diff(np.concatenate([[0], cum])))


class TestGeometricExactness:
    def test_all_four_exact_on_doubling(self):
        series = doubling_series(30)
        r = math.log(2.0)
        assert abs(est_a_log_cumulative(series, 20) - r) < 1e-12
        assert abs(est_b_log_daily(series, 20) - r) < 1e-12
        assert abs(est_c_mean_ratio(series, 20) - r) < 1e-12
        assert abs(est_d_branching(series, 20) - r) < 1e-12

    def test_rounded_exponential(self):
        series = rounded_exponential_series(0.0387, 120, base=50.0)
        for est in (est_a_log_cumulative, est_b_log_daily, est_c_mean_ratio, est_d_branching):
            assert abs(est(series, 42) - 0.0387) < 1e-3

    def test_scale_invariance(self):
        series = rounded_exponential_series(0.05, 100, base=40.0)
        scaled = CaseSeries(series.daily * 7)
        for est in (est_a_log_cumulative, est_b_log_daily, est_c_mean_ratio, est_d_branching):
            assert math.isclose(est(series, 30), est(scaled, 30), rel_tol=1e-12)


class TestDegenerateSeries:
    def test_no_new_cases_gives_zero_slope(self):
        series = CaseSeries(np.array([5, 0, 0, 0, 0, 0]))
        assert abs(est_a_log_cumulative(series, 6)) < 1e-15

    def test_constant_daily_counts(self):
        series = CaseSeries(np.full(20, 7))
        assert abs(est_b_log_daily(series, 12)) < 1e-15

    def test_two_equal_days(self):
        series = CaseSeries(np.array([4, 4]))
        assert est_d_branching(series, 2) == 0.0

    def test_single_ratio_window(self):
        series = CaseSeries(np.array([10, 10]))
        # cumulative 10 -> 20: one doubling step
        assert math.isclose(est_c_mean_ratio(series, 1), math.log(2.0), rel_tol=1e-12)

    def test_plain_ratio_variant(self):
        series = doubling_series(12)
        assert math.isclose(est_c_mean_ratio(series, 8, log_ratio=False), 1.0, rel_tol=1e-12)

    def test_zero_days_dropped_in_b(self):
        daily = np.array([3, 6, 0, 24, 48, 96])
        series = CaseSeries(daily)
        # with the zero dropped the remaining points sit exactly on a doubling line
        assert abs(est_b_log_daily(series, 6) - math.log(2.0)) < 1e-12

    def test_window_validation(self):
        series = doubling_series(10)
        with pytest.raises(ValueError):
            est_a_log_cumulative(series, 11)
        with pytest.raises(ValueError):
            est_c_mean_ratio(series, 10)

    def test_case_series_validation(self):
        with pytest.raises(ValueError):
            CaseSeries(np.array([1, -2, 3]))
        with pytest.raises(ValueError):
            CaseSeries(np.array([]))


@pytest.fixture(scope="module")
def renewal_setup():
    weights = discretize_centered(GammaParams(3.0, 0.2), 80)
    daily = np.zeros(160)
    daily[0] = 5.0
    R0 = 2.0
    for t in range(2, 161):
        daily[t - 1] = R0 * renewal_expected(daily, weights, t)
    return CaseSeries(daily), weights, R0


class TestRenewalPressure:
    @given(
        daily=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=200),
        mean=st.floats(1.0, 40.0), cv=st.floats(0.2, 1.5),
    )
    def test_matches_per_day_sum(self, daily, mean, cv):
        g = gamma_from_moments(mean, cv * mean)
        weights = discretize_centered(g, discretization_horizon(g))
        daily = np.array(daily)
        expected = [renewal_expected(daily, weights, t) for t in range(2, len(daily) + 2)]
        np.testing.assert_allclose(renewal_pressure(daily, weights), expected, rtol=1e-12, atol=0)

    def test_single_day_and_horizon_past_the_series(self, renewal_setup):
        _, weights, _ = renewal_setup
        assert len(weights.probs) == 80
        assert renewal_pressure(np.array([5.0]), weights).tolist() == [5.0 * weights.probs[0]]
        daily = np.arange(1.0, 31.0)
        expected = [renewal_expected(daily, weights, t) for t in range(2, 32)]
        np.testing.assert_allclose(renewal_pressure(daily, weights), expected, rtol=1e-12, atol=0)


class TestRenewalEstimator:
    def test_matches_per_day_estimator(self):
        weights = discretize_centered(GammaParams(3.0, 0.2), 80)
        series = rounded_exponential_series(0.0387, 120, base=5.0)
        daily = series.daily
        lam = np.array([renewal_expected(daily, weights, t) for t in range(2, len(daily) + 1)])
        expected = daily[1:][lam > 0].sum() / lam[lam > 0].sum()
        assert math.isclose(est_e_renewal_R0(series, weights), expected, rel_tol=1e-12)

    def test_self_consistency(self, renewal_setup):
        series, weights, R0 = renewal_setup
        assert abs(est_e_renewal_R0(series, weights) - R0) < 1e-9

    def test_self_consistency_other_weights(self):
        weights = discretize(GammaParams(2.0, 0.25), 60)
        daily = np.zeros(120)
        daily[0] = 1.0
        for t in range(2, 121):
            daily[t - 1] = 1.5 * renewal_expected(daily, weights, t)
        assert abs(est_e_renewal_R0(CaseSeries(daily), weights) - 1.5) < 1e-9

    def test_scale_invariance(self, renewal_setup):
        series, weights, _ = renewal_setup
        scaled = CaseSeries(series.daily * 3)
        assert math.isclose(
            est_e_renewal_R0(series, weights), est_e_renewal_R0(scaled, weights),
            rel_tol=1e-12,
        )

    def test_degenerate_series_rejected(self, renewal_setup):
        _, weights, _ = renewal_setup
        with pytest.raises(ValueError):
            est_e_renewal_R0(CaseSeries(np.array([5])), weights)


class TestPrediction:
    def test_growth_methods_multiply_last_cumulative(self):
        series = doubling_series(30)
        predicted = predict_forward(series, "a", est_a_log_cumulative(series, 20), horizon=10)
        expected = float(series.cumulative[-1]) * 2.0**10
        assert math.isclose(predicted, expected, rel_tol=1e-9)

    def test_renewal_method_continues_recursion(self, renewal_setup):
        series, weights, R0 = renewal_setup
        predicted = predict_forward(series, "e", R0, horizon=5, weights=weights)
        daily = series.daily.astype(float)
        extended = np.concatenate([daily, np.zeros(5)])
        for t in range(len(daily) + 1, len(daily) + 6):
            extended[t - 1] = R0 * renewal_expected(extended, weights, t)
        assert math.isclose(predicted, series.cumulative[-1] + extended[-5:].sum(), rel_tol=1e-12)

    @given(
        daily=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=200),
        mean=st.floats(1.0, 40.0), cv=st.floats(0.2, 1.5),
        R0=st.floats(0.0, 5.0), horizon=st.integers(0, 60),
    )
    # a 3-day series under a 48-day kernel, and a 60-day one under a 6-day kernel
    @example(daily=[1.0, 4.0, 9.0], mean=12.0, cv=0.5, R0=1.7, horizon=42)
    @example(daily=list(np.arange(1.0, 61.0)), mean=2.0, cv=0.3, R0=1.2, horizon=10)
    def test_renewal_method_is_the_convolution_recursion(self, daily, mean, cv, R0, horizon):
        g = gamma_from_moments(mean, cv * mean)
        weights = discretize_centered(g, discretization_horizon(g))
        probs = weights.probs
        extended = np.concatenate([daily, np.zeros(horizon)])
        for t in range(len(daily), len(extended)):
            extended[t] = R0 * np.convolve(extended[max(0, t - len(probs)):t], probs, "valid")[0]
        expected = float(np.cumsum(daily)[-1]) + float(extended[len(daily):].sum())
        assert predict_forward(CaseSeries(daily), "e", R0, horizon, weights) == expected

    def test_method_e_needs_weights(self, renewal_setup):
        series, _, R0 = renewal_setup
        with pytest.raises(ValueError):
            predict_forward(series, "e", R0, horizon=5)

    def test_unknown_method(self, renewal_setup):
        series, _, _ = renewal_setup
        with pytest.raises(ValueError):
            predict_forward(series, "z", 0.03)

    def test_prediction_score(self):
        score = PredictionScore(predicted=110.0, actual=100.0)
        assert math.isclose(score.ratio, 1.1)
        with pytest.raises(ValueError):
            PredictionScore(predicted=10.0, actual=0.0)

    def test_true_42_day_factor(self):
        r = 0.2 * (1.7 ** (1.0 / 3.0) - 1.0)
        assert abs(math.exp(42 * r) - 5.07973) < 2e-3
