import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning

from _oracles import gamma_pdf_fn
from epibias.distributions import GammaParams, gamma_from_moments, pdf
from epibias.growth_math import (
    BiasScenario,
    BiasSource,
    GrowthLink,
    backward_bias,
    backward_dist,
    bias_table,
    inflated_dist,
    multiple_exposure_bias,
    serial_inflation_bias,
    solve_R0,
    solve_r,
    solve_r_numeric,
)

GEN = GammaParams(3.0, 0.2)
ME_GEN = gamma_from_moments(15.3, 9.3)
ME_BIASED = gamma_from_moments(12.0, 9.3)


class TestSolveR:
    def test_study_parameters(self):
        assert abs(solve_r(1.7, GEN) - 0.0387) < 5e-5

    def test_criticality(self):
        assert solve_r(1.0, GammaParams(2.7, 0.31)) == 0.0

    def test_single_exposure_setting(self):
        assert abs(solve_r(1.7, ME_BIASED) - 0.0522) < 2e-4

    def test_rejects_nonpositive_R0(self):
        with pytest.raises(ValueError):
            solve_r(0.0, GEN)


class TestSolveR0:
    def test_study_parameters(self):
        assert abs(solve_R0(0.0387, GEN) - 1.7) < 1e-3

    def test_zero_rate(self):
        assert solve_R0(0.0, GammaParams(5.0, 1.3)) == 1.0

    def test_serial_interval_setting(self):
        assert abs(solve_R0(0.0383, ME_GEN) - 1.7) < 1e-2

    def test_rejects_divergent(self):
        with pytest.raises(ValueError):
            solve_R0(-0.25, GammaParams(1.0, 0.2))

    @given(shape=st.floats(0.3, 10.0), rate=st.floats(0.01, 2.0), R0=st.floats(0.2, 5.0),
           r_over_rate=st.floats(-0.9, 3.0))
    def test_solvers_are_inverses(self, shape, rate, R0, r_over_rate):
        g = GammaParams(shape, rate)
        assert math.isclose(solve_R0(solve_r(R0, g), g), R0, rel_tol=1e-12)
        r = r_over_rate * rate
        assert abs(solve_r(solve_R0(r, g), g) - r) <= 1e-12 * (rate + abs(r))

    def test_roundtrip_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            g = GammaParams(rng.uniform(0.3, 10.0), rng.uniform(0.01, 2.0))
            R0 = rng.uniform(1.05, 5.0)
            assert abs(solve_R0(solve_r(R0, g), g) - R0) < 1e-10 * R0


class TestSolveRNumeric:
    def test_matches_closed_form(self):
        r = solve_r_numeric(1.7, lambda t: pdf(GEN, t))
        assert abs(r - solve_r(1.7, GEN)) < 1e-8

    def test_critical_root(self):
        r = solve_r_numeric(1.0, lambda t: pdf(GEN, t))
        assert abs(r) < 1e-10

    def test_markov_sir(self):
        # Exponential generation time at rate gamma: r = gamma * (R0 - 1).
        g = GammaParams(1.0, 0.2)
        r = solve_r_numeric(2.0, lambda t: pdf(g, t))
        assert abs(r - 0.2) < 1e-8

    def test_no_sign_change_errors(self):
        with pytest.raises(ValueError):
            solve_r_numeric(0.5, lambda t: pdf(GEN, t))

    def test_singular_density_converges_quietly(self):
        # Shape < 1: the density is infinite at t = 0 (one of criterion 2's
        # random triples); the quadrature must converge without a warning.
        g = GammaParams(0.512, 1.315)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            r = solve_r_numeric(1.817, gamma_pdf_fn(g.shape, g.rate))
        assert abs(r - solve_r(1.817, g)) < 1e-12

    def test_grid_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            g = GammaParams(rng.uniform(0.4, 8.0), rng.uniform(0.05, 1.5))
            R0 = rng.uniform(1.05, 4.0)
            assert abs(solve_r_numeric(R0, gamma_pdf_fn(g.shape, g.rate))
                       - solve_r(R0, g)) < 1e-8


class TestGrowthLink:
    def test_consistency_enforced(self):
        with pytest.raises(ValueError):
            GrowthLink(R0=1.7, r=0.05, gen=GEN)

    def test_constructors_agree(self):
        a = GrowthLink.from_R0(1.7, GEN)
        b = GrowthLink.from_r(a.r, GEN)
        assert math.isclose(a.R0, b.R0, rel_tol=1e-12)


class TestBackward:
    def test_distribution(self):
        link = GrowthLink.from_R0(1.7, GEN)
        b = backward_dist(link)
        assert b.shape == 3.0
        assert math.isclose(b.rate, 0.2 + link.r, rel_tol=1e-14)
        assert abs(b.mean() - 12.57) < 0.01
        assert abs(b.variance() - 52.7) < 0.1

    def test_unchanged_at_criticality(self):
        link = GrowthLink.from_R0(1.0, GEN)
        assert backward_dist(link) == GEN

    def test_mean_contracts_for_supercritical(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = GammaParams(rng.uniform(0.3, 10.0), rng.uniform(0.01, 2.0))
            link = GrowthLink.from_R0(rng.uniform(1.01, 5.0), g)
            assert backward_dist(link).mean() < g.mean()

    def test_bias_values(self):
        link = GrowthLink.from_R0(1.7, GEN)
        rep = backward_bias(link)
        assert abs(rep.r_biased - 0.0462) < 2e-4
        assert abs(100 * rep.r_rel_bias - 19.0) < 0.5
        assert abs(rep.R0_biased - 1.57) < 5e-3
        assert abs(100 * rep.R0_rel_bias - (-8.0)) < 0.5

    def test_zero_bias_at_criticality(self):
        rep = backward_bias(GrowthLink.from_R0(1.0, GEN))
        assert rep.r_rel_bias == 0.0
        assert rep.R0_rel_bias == 0.0

    def test_markov_sir_identity(self):
        # Exponential generation times: the biased rate is exactly R0 * r.
        link = GrowthLink.from_R0(2.0, GammaParams(1.0, 0.2))
        rep = backward_bias(link)
        assert math.isclose(rep.r_biased, link.R0 * link.r, rel_tol=1e-12)

    def test_consistent_with_generic_solvers(self):
        for R0 in (1.2, 1.7, 3.0):
            link = GrowthLink.from_R0(R0, GEN)
            b = backward_dist(link)
            rep = backward_bias(link)
            assert math.isclose(rep.r_biased, solve_r(R0, b), rel_tol=1e-12)
            assert math.isclose(rep.R0_biased, solve_R0(link.r, b), rel_tol=1e-12)


class TestSerialInflation:
    def test_no_inflation_no_bias(self):
        rep = serial_inflation_bias(GrowthLink.from_R0(1.7, GEN), 1.0)
        assert abs(rep.r_rel_bias) < 1e-14
        assert abs(rep.R0_rel_bias) < 1e-14

    @pytest.mark.parametrize(
        "c,expected_R0_pct,expected_r_pct",
        [(1.1, -0.9, 1.9), (1.2, -1.8, 4.1), (1.5, -4.8, 12.3), (2.0, -9.6, 32.9)],
    )
    def test_ladder(self, c, expected_R0_pct, expected_r_pct):
        rep = serial_inflation_bias(GrowthLink.from_R0(1.7, GEN), c)
        assert abs(100 * rep.R0_rel_bias - expected_R0_pct) < 0.15
        assert abs(100 * rep.r_rel_bias - expected_r_pct) < 0.15

    def test_small_inflation(self):
        rep = serial_inflation_bias(GrowthLink.from_R0(1.7, GEN), 1.026)
        assert abs(100 * rep.R0_rel_bias - (-0.2)) < 0.1
        assert abs(100 * rep.r_rel_bias - 0.5) < 0.1

    def test_inflated_dist_preserves_mean(self):
        d = inflated_dist(GEN, 1.7)
        assert math.isclose(d.mean(), GEN.mean(), rel_tol=1e-14)
        assert math.isclose(d.cv(), 1.7 * GEN.cv(), rel_tol=1e-14)

    def test_monotone_in_c(self):
        link = GrowthLink.from_R0(1.7, GEN)
        cs = np.linspace(1.0, 3.0, 41)
        r_vals = [serial_inflation_bias(link, c).r_biased for c in cs]
        R_vals = [serial_inflation_bias(link, c).R0_biased for c in cs]
        assert np.all(np.diff(r_vals) > 0)
        assert np.all(np.diff(R_vals) < 0)

    def test_rejects_deflation(self):
        with pytest.raises(ValueError):
            serial_inflation_bias(GrowthLink.from_R0(1.7, GEN), 0.9)


class TestMultipleExposure:
    def test_study_values(self):
        link = GrowthLink.from_R0(1.7, ME_GEN)
        rep = multiple_exposure_bias(link, ME_BIASED)
        assert abs(rep.r_biased - 0.0522) < 2e-4
        assert abs(100 * rep.r_rel_bias - 36.0) < 0.5
        assert abs(rep.R0_biased - 1.50) < 5e-3
        assert abs(100 * rep.R0_rel_bias - (-12.0)) < 0.5

    def test_no_distortion_no_bias(self):
        link = GrowthLink.from_R0(1.7, ME_GEN)
        rep = multiple_exposure_bias(link, ME_GEN)
        assert abs(rep.r_rel_bias) < 1e-14
        assert abs(rep.R0_rel_bias) < 1e-14

    def test_against_numeric_solver(self):
        link = GrowthLink.from_R0(1.7, GEN)
        biased = gamma_from_moments(12.6, math.sqrt(75.0))
        rep = multiple_exposure_bias(link, biased)
        assert abs(rep.r_biased - solve_r_numeric(1.7, lambda t: pdf(biased, t))) < 1e-8


class TestBiasTable:
    def test_study_rows(self):
        rows = {r.source: r for r in bias_table(BiasScenario())}
        assert abs(100 * rows[BiasSource.BACKWARD].R0_rel_bias - (-8)) < 0.5
        assert abs(100 * rows[BiasSource.BACKWARD].r_rel_bias - 19) < 0.5
        assert abs(100 * rows[BiasSource.SERIAL_INFLATION].R0_rel_bias - (-0.2)) < 0.1
        assert abs(100 * rows[BiasSource.SERIAL_INFLATION].r_rel_bias - 0.5) < 0.1
        assert abs(100 * rows[BiasSource.MULTIPLE_EXPOSURE].R0_rel_bias - (-12)) < 0.5
        assert abs(100 * rows[BiasSource.MULTIPLE_EXPOSURE].r_rel_bias - 36) < 0.5

    def test_combined_is_product(self):
        rows = bias_table(BiasScenario())
        r_prod = (1 + rows[0].r_rel_bias) * (1 + rows[1].r_rel_bias) * (1 + rows[2].r_rel_bias)
        assert math.isclose(1 + rows[3].r_rel_bias, r_prod, rel_tol=1e-12)
        assert abs(100 * rows[3].r_rel_bias - 63) < 1.0
        assert abs(100 * rows[3].R0_rel_bias - (-19)) < 1.0

    def test_neutral_scenario_vanishes(self):
        neutral = BiasScenario(R0=1.0, serial_cv_factor=1.0, me_biased_gen=ME_GEN)
        for row in bias_table(neutral):
            assert abs(row.r_rel_bias) < 1e-12
            assert abs(row.R0_rel_bias) < 1e-12

    def test_bias_directions(self):
        rows = bias_table(BiasScenario())
        for row in rows:
            assert row.R0_rel_bias <= 0
            assert row.r_rel_bias >= 0
