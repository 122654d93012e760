"""Run configuration: a flat INI file with one section per analysis area.

The checked-in defaults reproduce the Ebola-like study setup end to end, so
``epibias reproduce-paper`` needs no arguments beyond an output directory.
Seeds are always explicit (there is no wall-clock fallback) and every report
embeds the SHA-256 hash of the canonical configuration text that produced
it.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass

from .analysis import AnalysisOptions
from .distributions import GammaParams, gamma_from_moments
from .exposures import ExposureModel
from .growth_math import BiasScenario
from .outbreak_sim import Scenario


class ConfigError(ValueError):
    """Bad or missing configuration values (CLI exit code 2)."""


DEFAULT_CONFIG = """\
[run]
seed = 20140801
replicates = 1000
threads = 1
format = json

[scenario]
contact_rate = 0.34
latent_shape = 2
latent_rate = 0.2
infectious_shape = 1
infectious_rate = 0.2
incubation_factor_min = 0.8
incubation_factor_max = 1.2
p_death = 0.7
to_death_shape = 0.4444444444444444
to_death_rate = 0.1111111111111111
to_recovery_shape = 4
to_recovery_rate = 0.3333333333333333
notify_threshold = 4500
followup = 42

[bias_table]
R0 = 1.7
gen_shape = 3
gen_rate = 0.2
serial_cv_factor = 1.026
me_gen_mean = 15.3
me_gen_sd = 9.3
me_biased_mean = 12.0
me_biased_sd = 9.3

[estimate]
window = 42
horizon = 42
sample_pairs = 500
stride = 9

[exposures]
p = 0.5
contact_rate = 0.0725
incubation_mean = 11.4
incubation_sd = 8.1
n_persons = 500
replicates = 1000

[cfr]
r = 0.0347
death_delay_mean = 9
recovery_delay_mean = 17
true_cfr = 0.7
"""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: scenario, analysis knobs, run controls."""

    seed: int
    replicates: int
    threads: int
    out_format: str
    scenario: Scenario
    bias: BiasScenario
    options: AnalysisOptions
    exposure_model: ExposureModel
    exposure_n_persons: int
    exposure_replicates: int
    cfr_r: float
    cfr_death_delay_mean: float
    cfr_recovery_delay_mean: float
    cfr_true: float
    canonical_text: str

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text.encode()).hexdigest()

    def metadata(self) -> dict:
        from . import __version__

        return {
            "seed": self.seed,
            "version": __version__,
            "config_hash": self.config_hash,
        }


def _canonical(parser: configparser.ConfigParser) -> str:
    buf = io.StringIO()
    for section in sorted(parser.sections()):
        buf.write(f"[{section}]\n")
        for key in sorted(parser[section]):
            buf.write(f"{key} = {parser[section][key]}\n")
    return buf.getvalue()


def load_config(
    path: str | None = None,
    seed: int | None = None,
    replicates: int | None = None,
    threads: int | None = None,
    out_format: str | None = None,
) -> RunConfig:
    """Parse a config file (defaults when ``path`` is None) with CLI overrides."""
    parser = configparser.ConfigParser()
    parser.read_string(DEFAULT_CONFIG)
    if path is not None:
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
    if seed is not None:
        parser["run"]["seed"] = str(int(seed))
    if replicates is not None:
        parser["run"]["replicates"] = str(int(replicates))
    if threads is not None:
        parser["run"]["threads"] = str(int(threads))
    if out_format is not None:
        parser["run"]["format"] = out_format

    try:
        return _build(parser)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _build(parser: configparser.ConfigParser) -> RunConfig:
    run = parser["run"]
    if "seed" not in run or run["seed"].strip() == "":
        raise ConfigError("a seed is required; set [run] seed or pass --seed")
    seed = int(run["seed"])
    out_format = run.get("format", "json").strip().lower()
    if out_format not in ("json", "csv"):
        raise ConfigError(f"format must be json or csv, got {out_format!r}")

    scn = parser["scenario"]
    scenario = Scenario(
        contact_rate=scn.getfloat("contact_rate"),
        latent=GammaParams(scn.getfloat("latent_shape"), scn.getfloat("latent_rate")),
        infectious=GammaParams(
            scn.getfloat("infectious_shape"), scn.getfloat("infectious_rate")
        ),
        incubation_factor_range=(
            scn.getfloat("incubation_factor_min"),
            scn.getfloat("incubation_factor_max"),
        ),
        p_death=scn.getfloat("p_death"),
        to_death=GammaParams(scn.getfloat("to_death_shape"), scn.getfloat("to_death_rate")),
        to_recovery=GammaParams(
            scn.getfloat("to_recovery_shape"), scn.getfloat("to_recovery_rate")
        ),
        notify_threshold=scn.getint("notify_threshold"),
        followup=scn.getfloat("followup"),
        master_seed=seed,
    )

    bt = parser["bias_table"]
    bias = BiasScenario(
        R0=bt.getfloat("R0"),
        gen=GammaParams(bt.getfloat("gen_shape"), bt.getfloat("gen_rate")),
        serial_cv_factor=bt.getfloat("serial_cv_factor"),
        me_gen=gamma_from_moments(bt.getfloat("me_gen_mean"), bt.getfloat("me_gen_sd")),
        me_biased_gen=gamma_from_moments(
            bt.getfloat("me_biased_mean"), bt.getfloat("me_biased_sd")
        ),
    )

    est = parser["estimate"]
    options = AnalysisOptions(
        n_pairs=est.getint("sample_pairs"),
        stride=est.getint("stride"),
        window=est.getint("window"),
        horizon=est.getint("horizon"),
    )

    exp = parser["exposures"]
    exposure_model = ExposureModel(
        p=exp.getfloat("p"),
        contact_rate=exp.getfloat("contact_rate"),
        incubation=gamma_from_moments(
            exp.getfloat("incubation_mean"), exp.getfloat("incubation_sd")
        ),
    )

    replicates, threads = int(run["replicates"]), int(run["threads"])
    exposure_replicates = exp.getint("replicates")
    for name, value in (("[run] replicates", replicates), ("[run] threads", threads),
                        ("[exposures] replicates", exposure_replicates)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")

    cfr_sec = parser["cfr"]
    return RunConfig(
        seed=seed,
        replicates=replicates,
        threads=threads,
        out_format=out_format,
        scenario=scenario,
        bias=bias,
        options=options,
        exposure_model=exposure_model,
        exposure_n_persons=exp.getint("n_persons"),
        exposure_replicates=exposure_replicates,
        cfr_r=cfr_sec.getfloat("r"),
        cfr_death_delay_mean=cfr_sec.getfloat("death_delay_mean"),
        cfr_recovery_delay_mean=cfr_sec.getfloat("recovery_delay_mean"),
        cfr_true=cfr_sec.getfloat("true_cfr"),
        canonical_text=_canonical(parser),
    )
