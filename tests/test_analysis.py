import math

import numpy as np
import pytest

from epibias.analysis import (
    AnalysisOptions,
    analyze_trace,
    cumulative_notified_at,
    exposure_study,
    notification_series,
    summarize,
    true_weights,
)
from epibias import exposures
from epibias.exposures import ExposureModel, MomentFit, MomentFitError
from epibias.distributions import gamma_from_moments


class TestNotificationSeries:
    def test_complete_days_only(self, ebola_trace):
        series, t0, k_complete = notification_series(ebola_trace)
        assert len(series) == k_complete
        assert t0 + k_complete <= ebola_trace.threshold_time
        assert ebola_trace.threshold_time < t0 + k_complete + 1
        # all counted notifications happened at or before the threshold
        assert series.cumulative[-1] <= ebola_trace.scenario.notify_threshold

    def test_day_one_holds_first_notification(self, ebola_trace):
        series, _, _ = notification_series(ebola_trace)
        assert series.daily[0] >= 1

    def test_cumulative_accessor(self, ebola_trace):
        t = ebola_trace.threshold_time
        assert cumulative_notified_at(ebola_trace, t) == 4500
        with pytest.raises(ValueError):
            cumulative_notified_at(ebola_trace, ebola_trace.end_time + 1.0)


class TestTrueWeights:
    def test_mean_preserved(self, ebola_scenario):
        w = true_weights(ebola_scenario)
        assert abs(w.mean() - 15.0) < 0.02
        assert abs(w.probs.sum() - 1.0) < 1e-12


@pytest.fixture(scope="module")
def analysis(ebola_trace):
    return analyze_trace(ebola_trace, 0)


class TestAnalyzeTrace:
    def test_growth_estimates_plausible(self, analysis):
        for m in ("a", "b", "c", "d"):
            assert 0.025 < analysis.r_estimates[m] < 0.055

    def test_renewal_estimates_ordered(self, analysis):
        assert analysis.R0_backward_weights < analysis.R0_true_weights
        assert 1.4 < analysis.R0_backward_weights < 1.7
        assert 1.5 < analysis.R0_true_weights < 1.9

    def test_backward_sample_size(self, analysis):
        assert analysis.backward.n == 500
        assert analysis.backward.mean_g < 15.0

    def test_predictions_scored(self, analysis):
        for m in ("a", "b", "c", "d", "e"):
            assert 0.5 < analysis.predictions[m].ratio < 2.0

    def test_cfr_pipeline(self, analysis):
        assert 0.45 < analysis.cfr_raw < 0.60
        assert 0.6 < analysis.cfr_corrected < 0.8

    def test_infection_series_captured(self, analysis, ebola_trace):
        if ebola_trace.end_time >= 200:
            assert analysis.infection_daily is not None
            assert len(analysis.infection_daily) == 200


class TestEnsembleReport:
    def test_report_keys_and_benchmark(self, ebola_scenario, analysis):
        from epibias.analysis import EnsembleAnalysis, ensemble_report

        ens = EnsembleAnalysis(
            scenario=ebola_scenario, options=AnalysisOptions(), n_attempts=1,
            traces=[analysis],
        )
        report = ensemble_report(ens)
        # the closed-form benchmark rides along with the observed summaries
        assert abs(report["deterministic_threshold_time"] - 217.4) < 0.5
        assert abs(report["prediction_factor_true"] - 5.0797) < 1e-3
        assert set(report["growth_estimates"]) == {"a", "b", "c", "c_plain_ratio", "d"}
        assert report["threshold_time"]["n"] == 1


class TestSummarize:
    def test_fields(self):
        stats = summarize(np.arange(1, 101, dtype=float))
        assert stats["n"] == 100
        assert math.isclose(stats["mean"], 50.5)
        assert stats["min"] == 1.0 and stats["max"] == 100.0
        assert stats["q025"] < stats["q975"]

    def test_empty_input(self):
        stats = summarize([])
        assert stats["n"] == 0
        assert set(stats) == set(summarize([1.0]))
        assert all(math.isnan(v) for k, v in stats.items() if k != "n")


class TestExposureStudy:
    def test_structure_and_determinism(self):
        model = ExposureModel(
            p=0.5, contact_rate=0.0725, incubation=gamma_from_moments(11.4, 8.1)
        )
        a = exposure_study(model, 200, 3, master_seed=11, generators=("gamma",))
        b = exposure_study(model, 200, 3, master_seed=11, generators=("gamma",))
        assert a == b
        block = a["gamma"]
        assert set(block) >= {"ml", "moment", "moment_sd_pooled", "moment_inadmissible"}
        assert block["ml"]["p"]["n"] == 3
        assert 0.2 < block["ml"]["p"]["mean"] < 0.8

    def test_nonconverged_ml_fit_is_counted(self, monkeypatch):
        # One replicate's likelihood fit fails; the study completes without
        # it, and that replicate's moment fit still runs.
        ml_fit = exposures.ml_fit
        calls = []

        def fails_once(hist, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise exposures.ConvergenceError("no start converged", best=None)
            return ml_fit(hist, *args, **kwargs)

        monkeypatch.setattr(exposures, "ml_fit", fails_once)
        model = ExposureModel(
            p=0.5, contact_rate=0.0725, incubation=gamma_from_moments(11.4, 8.1)
        )
        block = exposure_study(model, 200, 3, master_seed=11, generators=("gamma",))["gamma"]
        assert block["ml_nonconverged"] == 1
        assert all(block["ml"][k]["n"] == 2 for k in ("p", "mean", "sd"))
        moment_fits = block["moment"]["p"]["n"] + block["moment_unsolved"]
        assert moment_fits == block["replicates"] == 3

    def test_every_moment_fit_inadmissible(self, monkeypatch):
        # A family whose moment fits are all inadmissible still summarizes:
        # the raw roots feed the moment columns, the admissible sd is empty.
        raw = MomentFit(p=0.4, contact_rate=0.07, mean=11.0, variance=-3.0, residual=0.0)

        def inadmissible(hist, min_histories=50):
            raise MomentFitError("no admissible solution", raw=raw)

        monkeypatch.setattr(exposures, "moment_fit", inadmissible)
        model = ExposureModel(
            p=0.5, contact_rate=0.0725, incubation=gamma_from_moments(11.4, 8.1)
        )
        block = exposure_study(model, 200, 3, master_seed=11, generators=("gamma",))["gamma"]
        assert block["moment_inadmissible"] == block["replicates"] == 3
        assert block["moment"]["variance"]["n"] == 3
        assert block["moment_sd_admissible"]["n"] == 0
        assert math.isnan(block["moment_sd_admissible"]["mean"])
        assert block["moment_sd_pooled"] == 0.0
