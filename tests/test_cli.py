import configparser
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import epibias
from epibias import outbreak_sim
from epibias.analysis import REPORTED, TRACE_SUMMARY_FIELDS, AnalysisOptions
from epibias.cli import REPORTS, STAGING, main
from epibias.config import ConfigError, DEFAULT_CONFIG, load_config
from epibias.outbreak_sim import Scenario

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


def _default_keys() -> dict[str, list[str]]:
    """Every key of the built-in config by section, spelled as written there."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    parser.read_string(DEFAULT_CONFIG)
    return {section: list(parser[section]) for section in parser.sections()}


SETTABLE_KEYS = [(section, key) for section, keys in _default_keys().items() for key in keys]


def _snapshot(directory: Path) -> dict[str, bytes]:
    """Every file under ``directory``, by relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture()
def two_cpus(monkeypatch):
    """The process may use two CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


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
        # the bias table's serial factor, derived from the scenario, is the
        # 1.026 that the config once stated
        assert round(cfg.scenario.serial_cv_factor(), 3) == 1.026
        assert len(cfg.config_hash) == 64

    def test_builtin_config_matches_dataclass_defaults(self):
        # The acceptance suite builds these from the dataclass defaults, and
        # the commands from the built-in config: both must be one scenario.
        cfg = load_config()
        assert cfg.scenario == Scenario(master_seed=cfg.seed)
        assert cfg.options == AnalysisOptions()

    def test_default_config_has_no_bias_table_section(self):
        # The backward and serial rows are built from [scenario], and the
        # multiple-exposure row is the paper's fixed example.
        keys = _default_keys()
        assert list(keys) == ["run", "scenario", "estimate", "exposures"]
        assert sum(map(len, keys.values())) == 27

    def test_override_precedence(self, small_config):
        cfg = load_config(path=str(small_config), seed=7, replicates=5)
        assert cfg.seed == 7
        assert cfg.replicates == 5
        assert cfg.scenario.notify_threshold == 150
        # untouched sections keep their defaults
        assert cfg.exposure_model == load_config().exposure_model

    def test_hash_tracks_content(self, small_config):
        assert (
            load_config().config_hash
            != load_config(path=str(small_config)).config_hash
        )

    def test_hash_ignores_worker_count(self, small_config, two_cpus):
        one = load_config(path=str(small_config), threads=1)
        two = load_config(path=str(small_config), threads=2)
        assert one.threads == 1 and two.threads == 2
        assert one.config_hash == two.config_hash
        assert two.config_hash != load_config(threads=2).config_hash
        assert two.config_hash != load_config(path=str(small_config), seed=7, threads=2).config_hash

    def test_worker_count_is_capped_at_the_usable_cpus(self, tmp_path, two_cpus):
        # A pool starts every worker it is given at once; more than the CPUs only queue.
        path = tmp_path / "many.ini"
        path.write_text("[run]\nthreads = 10000\n")
        flag, file = load_config(threads=10_000), load_config(path=str(path))
        assert flag.threads == file.threads == 2
        assert flag.config_hash == file.config_hash == load_config(threads=1).config_hash

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

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match=r"\[run\] seed must be >= 0"):
            load_config(seed=-1)

    @pytest.mark.parametrize("section, key", SETTABLE_KEYS)
    def test_unparsable_value_names_its_key(self, tmp_path, section, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = abc\n")
        with pytest.raises(ConfigError) as err:
            load_config(path=str(path))
        assert str(err.value).startswith(f"[{section}] {key} = abc"), err.value

    @pytest.mark.parametrize("section, key", SETTABLE_KEYS)
    def test_nan_value_names_its_key(self, tmp_path, section, key):
        # Every settable key is read and checked: NaN is refused by name,
        # alone or with the key it makes a law with.
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = nan\n")
        with pytest.raises(ConfigError) as err:
            load_config(path=str(path))
        names = str(err.value).split(" = ", 1)[0]
        assert names.startswith(f"[{section}] "), err.value
        assert key in names.removeprefix(f"[{section}] ").split(", "), err.value

    def test_invalid_scenario_value(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\ncontact_rate = -1\n")
        with pytest.raises(ConfigError):
            load_config(path=str(path))

    @pytest.mark.parametrize("text, words", [
        (b"seed = 5\n[run]\n", ["no section headers", "line: 1"]),
        (b"[run]\nseed = 5\nseed = 6\n", ["[line  3]", "option 'seed' in section 'run'"]),
        (b"[run]\nseed\n", ["parsing errors", "[line  2]"]),
        (b"[run]\nseed = 5\xff\n", ["can't decode byte 0xff"]),
    ], ids=["key-before-section", "duplicate-key", "key-without-equals", "invalid-utf-8"])
    def test_malformed_file_is_a_config_error(self, tmp_path, capsys, text, words):
        path, out = tmp_path / "bad.ini", tmp_path / "out"
        path.write_bytes(text)
        assert main(["cfr", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}: "), err
        assert all(w in err for w in words), err
        assert not out.exists()

    def test_directory_is_not_reported_missing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["cfr", "--config", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {tmp_path}: "), err
        assert not out.exists()

    @pytest.mark.parametrize("text, name", [
        ("[scenario]\nnotfy_threshold = 150\n", "unknown key [scenario] notfy_threshold"),
        ("[estimat]\nwindow = 5\n", "unknown section [estimat]"),
        ("[unused]\n", "unknown section [unused]"),
        # configparser copies [DEFAULT] keys into every section
        ("[DEFAULT]\nseed = 5\n", "unknown key [DEFAULT] seed"),
        # keys are compared after configparser's lower-casing: Seed is seed
        ("[run]\nSeed = 5\nSeed1 = 2\n", "unknown key [run] seed1"),
        ("[run]\nformat = csv\n", "unknown key [run] format"),
        # the bias table's R0, generation law and serial factor are the
        # scenario's, and its multiple-exposure row is the paper's example
        ("[bias_table]\nme_gen_mean = 15.3\n", "unknown section [bias_table]"),
    ], ids=["misspelled-key", "misspelled-section", "empty-section", "default-section",
            "upper-case-key", "run-format", "bias-table-section"])
    def test_unknown_setting_is_a_config_error(self, tmp_path, capsys, text, name):
        path, out = tmp_path / "bad.ini", tmp_path / "out"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {name}")):
            load_config(path=str(path))
        assert main(["cfr", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {path}: {name}\n" == capsys.readouterr().err
        assert not out.exists()


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
        assert main(["bias-table", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bias_table.csv").read_text().splitlines()
        assert lines[0].startswith("source,")
        assert len(lines) == 5

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["bias-table", "--out", str(out)]) == 0
        assert (out1 / "bias_table.json").read_bytes() == (out2 / "bias_table.json").read_bytes()

    def test_bias_table_takes_a_serial_factor_below_one(self, tmp_path):
        # Symptoms at 0.5-0.7 of the latent period: Var S - Var G = -23 and
        # c = 0.833, so serial intervals bias R0 up and r down.
        cfg = tmp_path / "early.ini"
        cfg.write_text("[scenario]\nincubation_factor_min = 0.5\nincubation_factor_max = 0.7\n")
        assert main(["bias-table", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "bias_table.json").read_text())
        serial = {r["source"]: r for r in payload["rows"]}["serial_interval"]
        assert serial["R0_bias_pct"] > 0 > serial["r_bias_pct"]

    def test_config_ini_reruns_the_bundle_byte_for_byte(self, tmp_path, small_config):
        # The written config leaves out the worker count, as the hash does.
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["reproduce-paper", "--config", str(small_config), "--out", str(first),
                     "--threads", "2"]) == 0
        assert main(["reproduce-paper", "--config", str(first / "config.ini"),
                     "--out", str(second)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert "config.ini" in names and names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # a run that fails after writing some reports (window = 200 fails at
        # the estimate stage) leaves the earlier bundle as it found it
        before = _snapshot(first)
        small_config.write_text(SMALL_RUN_CONFIG.replace("window = 20", "window = 200"))
        assert main(["reproduce-paper", "--config", str(small_config), "--out", str(first)]) == 3
        assert _snapshot(first) == before

    def test_failed_command_keeps_an_earlier_config_ini(self, tmp_path, small_config):
        # bias-table fails before writing a report, on a scenario without a
        # closed-form generation time
        out = tmp_path / "out"
        assert main(["bias-table", "--config", str(small_config), "--out", str(out)]) == 0
        before = _snapshot(out)
        assert "config.ini" in before
        small_config.write_text(SMALL_RUN_CONFIG.replace(
            "[scenario]\n", "[scenario]\ninfectious_shape = 2\n"))
        assert main(["bias-table", "--config", str(small_config), "--out", str(out)]) == 2
        assert _snapshot(out) == before

    def test_config_file_in_out_is_never_removed_or_rewritten(self, tmp_path):
        # Re-running from an edited DIR/config.ini into DIR keeps the edit.
        cfg = tmp_path / "config.ini"
        text = ("# early symptoms\n[scenario]\n"
                "incubation_factor_min = 0.5\nincubation_factor_max = 0.7\n")
        cfg.write_text(text + "infectious_shape = 2\n")
        argv = ["--config", str(cfg), "--out", str(tmp_path)]
        assert main(["bias-table", *argv]) == 2
        assert cfg.read_text() == text + "infectious_shape = 2\n"
        cfg.write_text(text)
        assert main(["bias-table", *argv]) == 0
        assert cfg.read_text() == text
        assert (tmp_path / "bias_table.json").exists()

    def test_cfr_values(self, tmp_path):
        # The report describes the default scenario: r = solve_r(1.7, Gamma(3, 0.2)),
        # CFR p_death = 0.7, and a notification-to-outcome delay (1 - U) L + I + D
        # of variance 2 + 25 + 36 = 63 and mean 9 to death or 17 to recovery,
        # moment-matched by a Gamma of shape mean^2/63 and rate mean/63.
        assert main(["cfr", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "cfr_report.json").read_text())
        r = 0.2 * (1.7 ** (1 / 3) - 1)
        pi, rho = ((m / 63 / (m / 63 + r)) ** (m * m / 63) for m in (9, 17))
        resolved = 0.7 * pi / (0.7 * pi + 0.3 * rho)
        expected = {
            "r": r, "true_cfr": 0.7,
            "observed_death_fraction": pi, "observed_recovery_fraction": rho,
            "naive_estimator_expectation": 0.7 * pi, "naive_correction_factor": 1 / pi,
            "resolved_estimator_expectation": resolved,
            "resolved_relative_bias": resolved / 0.7 - 1,
        }
        assert payload.keys() == {"meta", *expected}
        for key, value in expected.items():
            assert payload[key] == pytest.approx(value, rel=1e-12), key
        assert round(pi, 4) == 0.7348

    def test_cfr_without_deaths(self, tmp_path):
        # No one dies: a valid scenario, whose resolved estimator has no
        # relative bias to report (NaN, written as null).
        cfg = tmp_path / "no-deaths.ini"
        cfg.write_text("[scenario]\np_death = 0\n")
        assert main(["cfr", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "cfr_report.json").read_text())
        assert payload["true_cfr"] == payload["resolved_estimator_expectation"] == 0.0
        assert payload["resolved_relative_bias"] is None
        assert "resolved_relative_bias,nan" in (tmp_path / "cfr_report.csv").read_text()

    def test_cfr_without_resolved_cases(self, tmp_path):
        # No deaths, and growth so fast that the observed recovery fraction
        # underflows to 0: no outcome is resolved, so the resolved-cases
        # estimator has no expectation (NaN, written as null).
        cfg = tmp_path / "nothing-resolved.ini"
        cfg.write_text("[scenario]\np_death = 0\ncontact_rate = 1e300\n")
        assert main(["cfr", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "cfr_report.json").read_text())
        assert payload["observed_recovery_fraction"] == 0.0
        assert payload["resolved_estimator_expectation"] is None
        assert payload["resolved_relative_bias"] is None

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
        # an earlier run with more replicates leaves traces this run replaces
        assert main([
            "simulate", "--config", str(small_config), "--out", str(tmp_path),
            "--write-traces", "--replicates", "4",
        ]) == 0
        calls.clear()
        assert main([
            "simulate", "--config", str(small_config), "--out", str(tmp_path),
            "--write-traces", "--threads", str(threads),
        ]) == 0
        payload = json.loads((tmp_path / "ensemble_summary.json").read_text())
        if threads == 1:
            assert len(calls) == payload["n_attempts"]
        assert not (tmp_path / STAGING).exists()
        written = sorted((tmp_path / "traces").iterdir())
        assert len(written) == payload["n_accepted"]
        scenario = load_config(path=str(small_config)).scenario
        for path in written:
            rep = int(path.stem.removeprefix("trace_"))
            simulate(scenario, rep).to_csv(tmp_path / "reference.csv")
            assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_simulate_csv(self, tmp_path, small_config):
        assert main(["simulate", "--config", str(small_config), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "ensemble_summary.json").read_text())
        with open(tmp_path / "ensemble_summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["quantity", "mean", "sd", "q025", "q975"]
        assert [row[0] for row in rows[1:]] == list(TRACE_SUMMARY_FIELDS)
        for name, *values in rows[1:]:
            stats = payload[name]
            assert values == [f"{stats[k]:.6g}" for k in ("mean", "sd", "q025", "q975")]

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

    def test_estimate_reports_each_table_entry_once(self, tmp_path, small_config):
        # Every summary block of estimates.json comes from one REPORTED entry,
        # and the CSV holds one row per entry with the block's statistics.
        assert main(["estimate", "--config", str(small_config), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "estimates.json").read_text())
        blocks = {}

        def collect(obj, path):
            if set(obj) == {"n", "mean", "sd", "min", "max", "q025", "q975"}:
                blocks[path] = obj
            for key, value in obj.items():
                if isinstance(value, dict):
                    collect(value, (*path, key))

        collect(payload, ())
        paths = [(group, key) if group else (key,) for _, group, key, _ in REPORTED]
        assert sorted(blocks) == sorted(paths) and len(set(paths)) == len(paths) == 26
        with open(tmp_path / "estimates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["quantity", "method", "mean", "sd", "q025", "q975"]
        assert [row[:2] for row in rows[1:]] == [[q, key] for q, _, key, _ in REPORTED]
        for path, (_, _, *values) in zip(paths, rows[1:]):
            stats = blocks[path]
            assert values == [f"{stats[k]:.6g}" for k in ("mean", "sd", "q025", "q975")]

    def test_json_reports_write_undefined_statistics_as_null(self, tmp_path):
        # Below 100 notifications by the threshold the times to and from the
        # 100th are undefined, also when the follow-up holds a 100th; a
        # strict parser must still read the report.
        def strict(token):
            raise ValueError(f"{token} is not JSON")

        for followup in (0, 42):
            out = tmp_path / f"followup-{followup}"
            cfg = tmp_path / "run.ini"
            cfg.write_text(f"[scenario]\nnotify_threshold = 50\nfollowup = {followup}\n"
                           "[run]\nreplicates = 3\n")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            text = (out / "ensemble_summary.json").read_text()
            payload = json.loads(text, parse_constant=strict)
            for name in ("time_to_first_100", "time_100_to_threshold"):
                stats = payload[name]
                assert stats["n"] == 3
                assert all(stats[k] is None for k in ("mean", "sd", "min", "max", "q025", "q975"))
            assert payload["threshold_time"]["mean"] > 0

    def test_exposures_small(self, tmp_path, small_config):
        assert main([
            "exposures", "--config", str(small_config), "--out", str(tmp_path),
        ]) == 0
        payload = json.loads((tmp_path / "exposure_estimates.json").read_text())
        assert payload["truth"]["p"] == 0.5
        assert "gamma" in payload["study"] and "lognormal" in payload["study"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["bias-table", "--config", "/no/such/file.ini",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: config file not found: /no/such/file.ini\n"

    @pytest.mark.parametrize("command, old, new, code, words", [
        # a 200-day window is longer than the complete days before the
        # threshold: the simulated trace, not the config, fails the analysis
        ("estimate", "window = 20", "window = 200", 3,
         ["runtime error", "stage 'growth fits'", "replicate 0", "window 200 exceeds"]),
        # the backward sample suffices, but a run without follow-up ends
        # within the forward sample's 60-day margin, so that sample is empty
        ("estimate", "notify_threshold = 150\n\n[estimate]\nsample_pairs = 30\nstride = 3\n"
         "window = 20", "notify_threshold = 50\nfollowup = 0\n\n[estimate]\nsample_pairs = 20\n"
         "stride = 2\nwindow = 10\nhorizon = 0", 3,
         ["runtime error", "stage 'forward sample'", "replicate 0", "need at least two pairs"]),
        ("estimate", "[scenario]\n", "[scenario]\np_death = 1.5\n", 2,
         ["config error", "p_death"]),
        # [estimate] values that no trace can satisfy fail before any simulation
        ("estimate", "window = 20", "window = 1", 2, ["config error", "window must be >= 2"]),
        ("estimate", "stride = 3", "stride = 0", 2, ["config error", "stride must be >= 1"]),
        ("estimate", "sample_pairs = 30", "sample_pairs = 0", 2,
         ["config error", "[estimate] sample_pairs = 0: n_pairs must be >= 1"]),
        ("estimate", "window = 20", "window = 20\nhorizon = 60", 2,
         ["config error", "[estimate] horizon (60)", "[scenario] followup (42)"]),
        ("reproduce-paper", "window = 20", "window = 20\nhorizon = 60", 2,
         ["config error", "[estimate] horizon (60)", "[scenario] followup (42)"]),
        ("estimate", "window = 20", "window = 20\nhorizon = -5", 2,
         ["config error", "horizon must be >= 0"]),
        # a threshold of 150 cannot give 500 backward pairs at stride 9
        ("estimate", "sample_pairs = 30\nstride = 3", "sample_pairs = 500\nstride = 9", 2,
         ["config error", "[estimate] sample_pairs, stride = 500, 9",
          "[scenario] notify_threshold = 150"]),
        # the estimators need a closed-form generation time, checked before
        # anything is simulated or written
        ("estimate", "[scenario]\n", "[scenario]\ninfectious_shape = 2\ncontact_rate = 0.17\n", 2,
         ["config error", "[scenario] infectious_shape, latent_rate, infectious_rate = 2, "]),
        ("reproduce-paper", "[scenario]\n",
         "[scenario]\ninfectious_shape = 2\ncontact_rate = 0.17\n", 2,
         ["config error", "[scenario] infectious_shape, latent_rate, infectious_rate = 2, "]),
        ("estimate", "[scenario]\n", "[scenario]\nlatent_rate = 0.25\n", 2,
         ["config error", "infectious_shape, latent_rate, infectious_rate = 1, 0.25, 0.2"]),
        ("reproduce-paper", "[scenario]\n", "[scenario]\nlatent_rate = 0.25\n", 2,
         ["config error", "infectious_shape, latent_rate, infectious_rate = 1, 0.25, 0.2"]),
        # the cfr report's r, CFR and delays are the scenario's: [cfr] is gone,
        # and r needs R0 > 0, a closed-form generation time and an outbreak
        # that declines no faster than the delays' tails thin
        ("cfr", "[run]\n", "[cfr]\nr = 0.0347\n[run]\n", 2,
         ["config error", "unknown section [cfr]"]),
        ("cfr", "[scenario]\n", "[scenario]\ninfectious_shape = 2\ncontact_rate = 0.17\n", 2,
         ["config error", "[scenario] infectious_shape, latent_rate, infectious_rate = 2, "]),
        ("cfr", "[scenario]\n", "[scenario]\ncontact_rate = 0\n", 2,
         ["config error", "[scenario] contact_rate = 0: the cfr report needs R0 > 0"]),
        # a finite contact rate whose R0 overflows
        ("cfr", "[scenario]\n", "[scenario]\ncontact_rate = 1e308\n", 2,
         ["config error", "[scenario] contact_rate = 1e+308: the cfr report needs R0 > 0 and "
          "finite, got inf"]),
        ("cfr", "[scenario]\n",
         "[scenario]\ncontact_rate = 0.01\nto_death_shape = 0.1\nto_death_rate = 0.001\n", 2,
         ["config error", "[scenario] contact_rate = 0.01: growth rate -0.126", "diverges"]),
        # [exposures] values fail before the first report is written
        ("reproduce-paper", "n_persons = 100", "n_persons = 10", 2,
         ["config error", "[exposures] n_persons must be >= 50"]),
        # more replicates than one family's streams would reuse the next family's
        ("reproduce-paper", "n_persons = 100\nreplicates = 2",
         "n_persons = 100\nreplicates = 1000001", 2,
         ["config error", "[exposures] replicates must be <= 1000000", "got 1000001"]),
        # the bias table's backward and serial rows need the scenario's
        # closed-form generation time, as the estimators do, and a positive R0
        ("bias-table", "[scenario]\n", "[scenario]\ninfectious_shape = 2\ncontact_rate = 0.17\n",
         2, ["config error", "[scenario] infectious_shape, latent_rate, infectious_rate = 2, "]),
        ("bias-table", "[scenario]\n", "[scenario]\ncontact_rate = 0\n", 2,
         ["config error", "[scenario] contact_rate = 0: the bias table needs R0 > 0"]),
        # R0 = 0.1: r = -0.107 is below -lambda/2 = -0.1, where the backward
        # row's re-solved R0 diverges
        ("bias-table", "[scenario]\n", "[scenario]\ncontact_rate = 0.02\n", 2,
         ["config error", "[scenario] contact_rate = 0.02: growth rate -0.107", "need r >"]),
        # a negative seed fails before the first report is written
        ("reproduce-paper", "[run]\n", "[run]\nseed = -1\n", 2,
         ["config error", "[run] seed must be >= 0"]),
        ("simulate", "[scenario]\n", "[scenario]\nincubation_factor_max = inf\n", 2,
         ["config error", "incubation_factor_range must be finite", "got (0.8, inf)"]),
        ("simulate", "[scenario]\n", "[scenario]\ncontact_rate = nan\n", 2,
         ["config error", "contact_rate must be finite and non-negative, got nan"]),
        ("exposures", "n_persons = 100", "n_persons = 100\ncontact_rate = nan", 2,
         ["config error", "contact_rate must be positive and finite, got nan"]),
        # a value that a check rejects names its section and key
        ("exposures", "n_persons = 100", "n_persons = 100\ncontact_rate = 0", 2,
         ["config error", "[exposures] contact_rate = 0: contact_rate must be positive"]),
        ("simulate", "[scenario]\n", "[scenario]\nincubation_factor_min = 2\n", 2,
         ["config error", "[scenario] incubation_factor_min, incubation_factor_max = 2, 1.2: "]),
        ("simulate", "notify_threshold = 150", "notify_threshold = 0", 2,
         ["config error", "[scenario] notify_threshold = 0: notify_threshold must be >= 1"]),
        # a Gamma law the config cannot make names its section and keys
        ("simulate", "[scenario]\n", "[scenario]\nlatent_shape = nan\n", 2,
         ["config error", "[scenario] latent_shape, latent_rate = nan, 0.2"]),
        ("simulate", "[scenario]\n", "[scenario]\nto_death_rate = inf\n", 2,
         ["config error", "[scenario] to_death_shape, to_death_rate = 0.444", ", inf: rate"]),
        ("exposures", "n_persons = 100", "n_persons = 100\nincubation_sd = inf", 2,
         ["config error", "[exposures] incubation_mean, incubation_sd = 11.4, inf"]),
    ], ids=["analysis-error", "forward-sample-error", "config-value-error", "window-too-short",
            "stride-zero", "no-pairs", "horizon-past-followup",
            "reproduce-horizon-past-followup", "horizon-negative",
            "backward-sample-past-threshold", "estimate-infectious-shape-2",
            "reproduce-infectious-shape-2", "estimate-unequal-rates", "reproduce-unequal-rates",
            "cfr-section", "cfr-infectious-shape-2", "cfr-contact-rate-zero", "cfr-R0-infinite",
            "cfr-declining-past-delay",
            "exposures-too-few-persons", "exposures-replicates-past-streams",
            "bias-table-infectious-shape-2", "bias-table-contact-rate-zero",
            "bias-table-declining-past-backward-rate", "seed-negative",
            "incubation-factor-infinite", "contact-rate-nan", "exposures-contact-rate-nan",
            "exposures-contact-rate-zero", "incubation-factor-min-above-max",
            "notify-threshold-zero",
            "latent-shape-nan", "to-death-rate-infinite", "incubation-sd-infinite"])
    def test_error_exit_codes(self, tmp_path, capsys, command, old, new, code, words):
        cfg, out = tmp_path / "run.ini", tmp_path / "out"
        cfg.write_text(SMALL_RUN_CONFIG.replace(old, new))
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert all(w in err for w in words), err
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("name, flags, link", [
        (STAGING, [], False), (STAGING, [], True), ("traces", ["--write-traces"], False),
    ], ids=["staging", "staging-link", "traces"])
    def test_file_in_place_of_a_directory_is_a_config_error(
        self, tmp_path, small_config, capsys, monkeypatch, name, flags, link
    ):
        def fail(scenario, rep):
            raise AssertionError("simulated before the output directory was checked")

        monkeypatch.setattr(outbreak_sim, "simulate_outbreak", fail)
        if link:   # the staging directory is removed and remade, so a link is in the way
            (tmp_path / name).symlink_to(tmp_path, target_is_directory=True)
        else:
            (tmp_path / name).write_text("a file\n")
        before = _snapshot(tmp_path)
        argv = ["simulate", "--config", str(small_config), "--out", str(tmp_path), *flags]
        assert main(argv) == 2
        assert f"config error: {tmp_path / name} is in the way" in capsys.readouterr().err
        assert _snapshot(tmp_path) == before

    @pytest.mark.parametrize("command, flags, name", [
        ("bias-table", [], "bias_table.json"),
        ("estimate", [], "estimates.csv"),
        ("reproduce-paper", [], "bundle.json"),
        ("cfr", [], "config.ini"),
        ("simulate", ["--write-traces"], "traces/trace_0000.csv"),
    ], ids=["report", "estimate-csv", "bundle", "config-ini", "trace"])
    def test_directory_in_place_of_a_file_is_a_config_error(
        self, tmp_path, small_config, capsys, monkeypatch, command, flags, name
    ):
        def fail(scenario, rep):
            raise AssertionError("simulated before the output directory was checked")

        # Found before the command runs: nothing is simulated, moved or removed.
        monkeypatch.setattr(outbreak_sim, "simulate_outbreak", fail)
        (tmp_path / name).mkdir(parents=True)
        (tmp_path / "traces").mkdir(exist_ok=True)
        (tmp_path / "traces" / "trace_0001.csv").write_text("an earlier run's trace\n")
        before = _snapshot(tmp_path)
        argv = [command, "--config", str(small_config), "--out", str(tmp_path), *flags]
        assert main(argv) == 2
        assert f"config error: {tmp_path / name} is in the way" in capsys.readouterr().err
        assert _snapshot(tmp_path) == before and (tmp_path / name).is_dir()
        assert not (tmp_path / STAGING).exists()

    def test_threshold_past_the_person_cap_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        def fail(scenario, rep):
            raise AssertionError("simulated a run that cannot reach its threshold")

        # No run may pass PERSON_CAP persons, so none could notify more.
        monkeypatch.setattr(outbreak_sim, "simulate_outbreak", fail)
        cfg, out = tmp_path / "run.ini", tmp_path / "out"
        cfg.write_text(SMALL_RUN_CONFIG.replace("notify_threshold = 150",
                                                "notify_threshold = 10000001"))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert ("config error: [scenario] notify_threshold = 10000001: notify_threshold must be "
                "<= 10000000") in capsys.readouterr().err
        assert list(out.glob("*")) == []

    def test_simulate_reads_no_estimate_value(self, tmp_path, small_config):
        # The default horizon of 42 is past a follow-up of 0, which only the
        # estimators score their predictions on.
        small_config.write_text(SMALL_RUN_CONFIG.replace("[scenario]\n",
                                                         "[scenario]\nfollowup = 0\n"))
        argv = ["--config", str(small_config), "--out", str(tmp_path)]
        assert main(["estimate", *argv]) == 2
        assert main(["simulate", *argv]) == 0

    @pytest.mark.parametrize("command, names", [
        ("bias-table", ["bias_table"]), ("cfr", ["cfr_report"]),
        ("simulate", ["ensemble_summary"]), ("exposures", ["exposure_estimates"]),
        ("estimate", ["estimates"]),
        ("reproduce-paper", ["bias_table", "cfr_report", "estimates", "exposure_estimates"]),
    ], ids=["bias-table", "cfr", "simulate", "exposures", "estimate", "reproduce-paper"])
    def test_each_report_is_written_as_json_and_csv(self, tmp_path, small_config,
                                                    command, names):
        assert main([command, "--config", str(small_config), "--out", str(tmp_path / "out")]) == 0
        # the bundle index has no rows, so it is the one report without a CSV
        expected = [f"{n}.{ext}" for n in names for ext in ("csv", "json")] + ["config.ini"]
        if command == "reproduce-paper":
            expected.append("bundle.json")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(expected)
        # the table the check before the run reads names the same reports
        assert sorted(REPORTS[command]) == sorted(names)

    def test_simulate_takes_any_infectious_period(self, tmp_path, small_config):
        # Only the estimators need a closed-form generation time.
        small_config.write_text(SMALL_RUN_CONFIG.replace(
            "[scenario]\n", "[scenario]\ninfectious_shape = 2\ncontact_rate = 0.17\n"))
        assert main(["simulate", "--config", str(small_config), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, flag", [
        ("bias-table", "--replicates"), ("bias-table", "--threads"),
        ("cfr", "--replicates"), ("cfr", "--threads"), ("exposures", "--replicates"),
        # every report is written as JSON and CSV: there is no output format to choose
        ("simulate", "--format"), ("reproduce-paper", "--format"),
    ])
    def test_flag_a_command_does_not_read_is_rejected(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main([command, flag, "1", "--out", str(out)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = tmp_path / "hopeless.ini"
        cfg.write_text("[scenario]\ncontact_rate = 0.01\nnotify_threshold = 100\n"
                       "[run]\nreplicates = 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.special is the package's one scipy module: scipy.stats (about
    # half the import time), scipy.integrate and scipy.optimize stay
    # test-only references, and the exposure fits run their own Newton solve.
    paths = [str(Path(epibias.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    unloaded = ["scipy.stats", "scipy.integrate", "scipy.optimize"]
    for modules in ["epibias", "epibias, epibias.config, epibias.cli"]:
        code = f"import sys, {modules}; print([m for m in {unloaded!r} if m in sys.modules])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]", modules
