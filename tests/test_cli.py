import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epibias
from epibias import outbreak_sim
from epibias.cli import main
from epibias.config import ConfigError, DEFAULT_CONFIG, load_config

SMALL_RUN_CONFIG = """
[scenario]
notify_threshold = 150

[estimate]
sample_pairs = 30
stride = 3
window = 20

[exposures]
n_persons = 100
replicates = 2

[run]
replicates = 2
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_RUN_CONFIG)
    return path


class TestConfig:
    def test_defaults_parse(self):
        cfg = load_config()
        assert cfg.seed == 20140801
        assert math.isclose(cfg.scenario.R0(), 1.7, rel_tol=1e-12)
        assert cfg.bias.serial_cv_factor == 1.026
        assert len(cfg.config_hash) == 64

    def test_override_precedence(self, small_config):
        cfg = load_config(path=str(small_config), seed=7, replicates=5)
        assert cfg.seed == 7
        assert cfg.replicates == 5
        assert cfg.scenario.notify_threshold == 150
        # untouched sections keep their defaults
        assert cfg.cfr_r == 0.0347

    def test_hash_tracks_content(self, small_config):
        assert (
            load_config().config_hash
            != load_config(path=str(small_config)).config_hash
        )

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config(path="/nonexistent/config.ini")

    def test_missing_seed(self, tmp_path):
        path = tmp_path / "noseed.ini"
        path.write_text("[run]\nseed =\n")
        with pytest.raises(ConfigError):
            load_config(path=str(path))

    @pytest.mark.parametrize("section,key,value", [
        ("run", "threads", 0),
        ("run", "threads", -2),
        ("run", "replicates", 0),
        ("exposures", "replicates", 0),
    ])
    def test_counts_must_be_positive(self, tmp_path, section, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be >= 1"):
            load_config(path=str(path))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_invalid_scenario_value(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\ncontact_rate = -1\n")
        with pytest.raises(ConfigError):
            load_config(path=str(path))


class TestCliCommands:
    def test_default_config_printed(self, capsys):
        assert main(["default-config"]) == 0
        assert capsys.readouterr().out == DEFAULT_CONFIG

    def test_bias_table_json(self, tmp_path):
        assert main(["bias-table", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "bias_table.json").read_text())
        rows = {r["source"]: r for r in payload["rows"]}
        assert abs(rows["backward"]["R0_bias_pct"] - (-7.68)) < 0.1
        assert abs(rows["multiple_exposure"]["r_bias_pct"] - 35.9) < 0.2
        assert abs(rows["combined"]["r_bias_pct"] - 63.0) < 1.0
        assert rows["combined"]["note"]
        assert payload["meta"]["seed"] == 20140801
        assert "config_hash" in payload["meta"]

    def test_bias_table_csv(self, tmp_path):
        assert main(["bias-table", "--out", str(tmp_path), "--format", "csv"]) == 0
        lines = (tmp_path / "bias_table.csv").read_text().splitlines()
        assert lines[0].startswith("source,")
        assert len(lines) == 5

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["bias-table", "--out", str(out)]) == 0
        assert (out1 / "bias_table.json").read_bytes() == (out2 / "bias_table.json").read_bytes()

    def test_cfr_values(self, tmp_path):
        assert main(["cfr", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "cfr_report.json").read_text())
        assert round(payload["observed_death_fraction"], 2) == 0.76
        assert round(payload["observed_recovery_fraction"], 2) == 0.63
        assert abs(payload["resolved_estimator_expectation"] - 0.7387) < 1e-3

    def test_simulate_small(self, tmp_path, small_config):
        assert main([
            "simulate", "--config", str(small_config), "--out", str(tmp_path),
            "--write-traces",
        ]) == 0
        payload = json.loads((tmp_path / "ensemble_summary.json").read_text())
        assert payload["n_accepted"] == 2
        assert payload["threshold_time"]["mean"] > 0
        traces = sorted((tmp_path / "traces").glob("trace_*.csv"))
        assert len(traces) == 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_simulate_writes_each_accepted_trace_once(
        self, tmp_path, small_config, monkeypatch, threads
    ):
        calls = []
        simulate = outbreak_sim.simulate_outbreak

        def counted(scenario, rep):
            calls.append(rep)
            return simulate(scenario, rep)

        monkeypatch.setattr(outbreak_sim, "simulate_outbreak", counted)
        assert main([
            "simulate", "--config", str(small_config), "--out", str(tmp_path),
            "--write-traces", "--threads", str(threads),
        ]) == 0
        payload = json.loads((tmp_path / "ensemble_summary.json").read_text())
        if threads == 1:
            assert len(calls) == payload["n_attempts"]
        assert not (tmp_path / "traces.partial").exists()
        written = sorted((tmp_path / "traces").iterdir())
        assert len(written) == payload["n_accepted"]
        scenario = load_config(path=str(small_config)).scenario
        for path in written:
            rep = int(path.stem.removeprefix("trace_"))
            simulate(scenario, rep).to_csv(tmp_path / "reference.csv")
            assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_estimate_small(self, tmp_path, small_config):
        assert main([
            "estimate", "--config", str(small_config), "--out", str(tmp_path),
        ]) == 0
        payload = json.loads((tmp_path / "estimates.json").read_text())
        assert set(payload["growth_estimates"]) >= {"a", "b", "c", "d"}
        assert payload["renewal_R0_backward_weights"]["n"] == 2
        assert payload["serial_fit_dropped"]["n"] == 2
        assert payload["cfr_clipped"] in (0, 1, 2)
        assert "meta" in payload

    def test_exposures_small(self, tmp_path, small_config):
        assert main([
            "exposures", "--config", str(small_config), "--out", str(tmp_path),
        ]) == 0
        payload = json.loads((tmp_path / "exposure_estimates.json").read_text())
        assert payload["truth"]["p"] == 0.5
        assert "gamma" in payload["study"] and "lognormal" in payload["study"]

    def test_config_error_exit_code(self, tmp_path):
        assert main(["bias-table", "--config", "/no/such/file.ini",
                     "--out", str(tmp_path)]) == 2

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = tmp_path / "hopeless.ini"
        cfg.write_text("[scenario]\ncontact_rate = 0.01\nnotify_threshold = 100\n"
                       "[run]\nreplicates = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.special is the package's one Gamma implementation; scipy.stats
    # stays a test-only reference (and costs about half the import time).
    paths = [str(Path(epibias.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    code = "import sys, epibias, epibias.config, epibias.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
