import hashlib
import json
import math
import multiprocessing
from collections import Counter

import numpy as np
import pytest

from epibias.analysis import (
    AnalysisError,
    AnalysisOptions,
    analyze_trace,
    exposure_study,
    notification_series,
    summarize,
    true_weights,
)
from epibias import analysis as analysis_mod, cfr, exposures, growth_estimators, tracing
from epibias.exposures import ExposureModel, MomentFit, MomentFitError
from epibias.distributions import gamma_from_moments
from epibias.rng import stream
from epibias.outbreak_sim import POOL_BLOCK, OutbreakTrace, Scenario, simulate_outbreak
from epibias.tracing import sample_backward_pairs
from golden import load_golden, platform_key
from _oracles import delay_mean


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
        assert ebola_trace.notified_count(t) == 4500
        with pytest.raises(ValueError):
            ebola_trace.notified_count(ebola_trace.end_time + 1.0)


class TestTrueWeights:
    def test_mean_preserved(self, ebola_scenario):
        w = true_weights(ebola_scenario)
        assert abs(delay_mean(w) - 15.0) < 0.02
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

    def test_serial_fit_drops_nonpositive_serials(self):
        # The fit leaves out the backward sample's serial intervals <= 0,
        # which a Gamma cannot take, and reports how many it left out.  A
        # wide incubation factor lets infectees show symptoms first.
        scenario = Scenario(incubation_factor_range=(0.0, 2.0), notify_threshold=300,
                            followup=20.0, master_seed=20140801)
        trace = simulate_outbreak(scenario, 0)
        options = AnalysisOptions(n_pairs=100, stride=3, window=20, horizon=20)
        result = analyze_trace(trace, 0, options)
        S = sample_backward_pairs(trace, 100, 3).S
        assert result.serial_fit_dropped == np.count_nonzero(S <= 0) > 0
        kept = S[S > 0]
        assert result.serial_fit == gamma_from_moments(kept.mean(), kept.std(ddof=1))

    def test_predictions_scored(self, analysis):
        for m in ("a", "b", "c", "d", "e"):
            assert 0.5 < analysis.predictions[m].ratio < 2.0

    def test_cfr_pipeline(self, analysis):
        assert 0.45 < analysis.cfr_raw < 0.60
        assert 0.6 < analysis.cfr_corrected < 0.8

    def test_fits_each_estimator_once(self, monkeypatch, ebola_trace):
        # The prediction stage projects the fitted r and R0 rather than
        # refitting them: c runs for the log and plain ratio, e for the
        # backward and the true weights.
        calls = Counter()
        for name in ("est_a_log_cumulative", "est_b_log_daily", "est_c_mean_ratio",
                     "est_d_branching", "est_e_renewal_R0"):
            def counted(*args, _fn=getattr(growth_estimators, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(growth_estimators, name, counted)
        analyze_trace(ebola_trace, 0)
        assert calls == {"est_a_log_cumulative": 1, "est_b_log_daily": 1,
                         "est_c_mean_ratio": 2, "est_d_branching": 1, "est_e_renewal_R0": 2}

    def test_data_error_names_stage_and_replicate(self, small_trace):
        # a threshold of 300 cannot give the default 500 pairs at stride 9
        with pytest.raises(AnalysisError, match="'contact tracing' failed at replicate 7"):
            analyze_trace(small_trace, 7)

    # each stage's first callee, reached through the module analyze_trace calls it on
    @pytest.mark.parametrize("stage, module, callee", [
        ("snapshot", analysis_mod, "summarize_trace"),
        ("contact tracing", tracing, "sample_backward_pairs"),
        ("forward sample", tracing, "sample_forward_pairs"),
        ("growth fits", analysis_mod, "notification_series"),
        ("renewal", growth_estimators, "est_e_renewal_R0"),
        ("prediction", OutbreakTrace, "notified_count"),
        ("cfr", cfr, "corrected_naive_cfr"),
    ])
    def test_every_stage_names_itself(self, ebola_trace, monkeypatch, stage, module, callee):
        cause = ValueError("injected")

        def fail(*args, **kwargs):
            raise cause

        monkeypatch.setattr(module, callee, fail)
        with pytest.raises(AnalysisError) as err:
            analyze_trace(ebola_trace, 4)
        assert str(err.value) == f"analysis stage '{stage}' failed at replicate 4: injected"
        assert err.value.__cause__ is cause

    def test_runtime_error_passes_through(self, ebola_trace, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("not a data error")

        monkeypatch.setattr(growth_estimators, "est_e_renewal_R0", fail)
        with pytest.raises(RuntimeError, match="not a data error") as err:
            analyze_trace(ebola_trace, 4)
        assert type(err.value) is RuntimeError


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

    @pytest.mark.parametrize("contact_rate", [0.2, 0.1], ids=["critical", "subcritical"])
    def test_no_threshold_time_without_growth(self, contact_rate, analysis):
        # R0 = 1 gives r = 0 and R0 < 1 a negative r: no deterministic time exists.
        from epibias.analysis import EnsembleAnalysis, ensemble_report

        ens = EnsembleAnalysis(
            scenario=Scenario(contact_rate=contact_rate), options=AnalysisOptions(),
            n_attempts=1, traces=[analysis],
        )
        report = ensemble_report(ens)
        assert report["true_r"] <= 0.0
        assert math.isnan(report["deterministic_threshold_time"])


class TestSummarize:
    def test_fields(self):
        stats = summarize(np.arange(1, 101, dtype=float))
        assert stats["n"] == 100
        assert math.isclose(stats["mean"], 50.5)
        assert stats["min"] == 1.0 and stats["max"] == 100.0
        assert stats["q025"] < stats["q975"]

    def test_quantiles_are_numpy_quantiles(self):
        x = stream(5, 0).normal(size=37)
        stats = summarize(x)
        assert stats["q025"] == np.quantile(x, 0.025)
        assert stats["q975"] == np.quantile(x, 0.975)

    def test_empty_input(self):
        stats = summarize([])
        assert stats["n"] == 0
        assert set(stats) == set(summarize([1.0]))
        assert all(math.isnan(v) for k, v in stats.items() if k != "n")


# SHA-256 of the JSON of exposure_study(model, 200, 5, master_seed=11), key
# order included; compared only on the platform golden.json was recorded on.
STUDY_DIGEST = "38e75ebeee3b538d98f4510552af487fff3ce1166bf29d97ba17f603f7d22742"


class TestExposureStudy:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_structure_and_determinism(self, threads):
        model = ExposureModel(
            p=0.5, contact_rate=0.0725, incubation=gamma_from_moments(11.4, 8.1)
        )
        # On workers, 2 x (POOL_BLOCK + 1) tasks make three blocks, the last
        # partial, and the second holds the boundary between the families.
        replicates = 5 if threads == 1 else POOL_BLOCK + 1
        a = exposure_study(model, 200, replicates, master_seed=11, threads=threads)
        b = exposure_study(model, 200, replicates, master_seed=11, threads=1)
        assert json.dumps(a) == json.dumps(b)
        assert not multiprocessing.active_children()
        if threads == 1 and load_golden()["key"] == platform_key():
            assert hashlib.sha256(json.dumps(a).encode()).hexdigest() == STUDY_DIGEST
        assert list(a) == ["gamma", "lognormal"]
        block = a["gamma"]
        assert set(block) >= {"ml", "moment", "moment_sd_pooled", "moment_inadmissible"}
        assert block["ml"]["p"]["n"] == replicates
        assert 0.2 < block["ml"]["p"]["mean"] < 0.8

    def test_nonconverged_ml_fit_is_counted(self, monkeypatch):
        # One replicate's likelihood fit fails; the study completes without
        # it, and that replicate's moment fit still runs.
        ml_fit = exposures.ml_fit
        calls = []

        def fails_once(hist):
            calls.append(None)
            if len(calls) == 2:
                raise exposures.ConvergenceError("no start converged")
            return ml_fit(hist)

        monkeypatch.setattr(exposures, "ml_fit", fails_once)
        model = ExposureModel(
            p=0.5, contact_rate=0.0725, incubation=gamma_from_moments(11.4, 8.1)
        )
        block = exposure_study(model, 200, 3, master_seed=11)["gamma"]
        assert block["ml_nonconverged"] == 1
        assert all(block["ml"][k]["n"] == 2 for k in ("p", "mean", "sd"))
        moment_fits = block["moment"]["p"]["n"] + block["moment_unsolved"]
        assert moment_fits == block["replicates"] == 3

    def test_every_moment_fit_inadmissible(self, monkeypatch):
        # A family whose moment fits are all inadmissible still summarizes:
        # the raw roots feed the moment columns, the admissible sd is empty.
        raw = MomentFit(p=0.4, contact_rate=0.07, mean=11.0, variance=-3.0)

        def inadmissible(hist):
            raise MomentFitError("no admissible solution", raw=raw)

        monkeypatch.setattr(exposures, "moment_fit", inadmissible)
        model = ExposureModel(
            p=0.5, contact_rate=0.0725, incubation=gamma_from_moments(11.4, 8.1)
        )
        block = exposure_study(model, 200, 3, master_seed=11)["gamma"]
        assert block["moment_inadmissible"] == block["replicates"] == 3
        assert block["moment"]["variance"]["n"] == 3
        assert block["moment_sd_admissible"]["n"] == 0
        assert math.isnan(block["moment_sd_admissible"]["mean"])
        assert block["moment_sd_pooled"] == 0.0

    def test_replicates_past_one_familys_streams_rejected(self, monkeypatch):
        # A fourth replicate would draw the next family's stream 0; the call
        # fails before it fits anything.
        monkeypatch.setattr(analysis_mod, "EXPOSURE_FAMILY_STREAMS", 3)
        fits = []
        monkeypatch.setattr(analysis_mod, "exposure_fit", fits.append)
        model = ExposureModel(
            p=0.5, contact_rate=0.0725, incubation=gamma_from_moments(11.4, 8.1)
        )
        with pytest.raises(ValueError, match="replicates must be <= 3, got 4"):
            exposure_study(model, 200, 4, master_seed=11)
        assert fits == []
