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
import math
from dataclasses import dataclass

from . import __version__
from .analysis import EXPOSURE_FAMILY_STREAMS, AnalysisOptions
from .distributions import GammaParams, gamma_from_moments
from .exposures import MIN_HISTORIES, ExposureModel
from .outbreak_sim import Scenario


class ConfigError(ValueError):
    """Bad or missing configuration values (CLI exit code 2)."""


DEFAULT_CONFIG = """\
[run]
seed = 20140801
replicates = 1000
threads = 1

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
"""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: scenario, analysis knobs, run controls."""

    seed: int
    replicates: int
    threads: int
    scenario: Scenario
    options: AnalysisOptions
    exposure_model: ExposureModel
    exposure_n_persons: int
    exposure_replicates: int
    canonical_text: str

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text.encode()).hexdigest()

    def check_estimate(self) -> None:
        """Raise unless ``estimate`` can run on this config; ``simulate`` needs none of them."""
        self.scenario.implied_generation()
        if self.options.horizon > self.scenario.followup:
            raise ConfigError(
                f"[estimate] horizon ({self.options.horizon}) must not exceed [scenario] followup "
                f"({self.scenario.followup:g}): predictions are scored on the follow-up"
            )
        n, stride = self.options.n_pairs, self.options.stride
        if n * stride > self.scenario.notify_threshold:
            raise ConfigError(f"[estimate] sample_pairs, stride = {n}, {stride}: the backward "
                              f"sample needs {n * stride} notified cases, more than [scenario] "
                              f"notify_threshold = {self.scenario.notify_threshold}")

    def metadata(self) -> dict:
        return {
            "seed": self.seed,
            "version": __version__,
            "config_hash": self.config_hash,
        }


def _canonical(parser: configparser.ConfigParser) -> str:
    """Sorted text of every setting that can change an output.

    The worker count is left out: results are identical under any number of
    workers, so reports must be byte-identical too.
    """
    buf = io.StringIO()
    for section in sorted(parser.sections()):
        buf.write(f"[{section}]\n")
        for key in sorted(parser[section]):
            if (section, key) != ("run", "threads"):
                buf.write(f"{key} = {parser[section][key]}\n")
    return buf.getvalue()


def load_config(
    path: str | None = None,
    seed: int | None = None,
    replicates: int | None = None,
    threads: int | None = None,
) -> RunConfig:
    """Parse a config file (defaults when ``path`` is None) with CLI overrides."""
    parser = configparser.ConfigParser()
    parser.read_string(DEFAULT_CONFIG)
    if path is not None:
        known = {name: set(sec) for name, sec in parser.items()}
        try:
            with open(path, encoding="utf-8") as f:
                parser.read_file(f)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except (OSError, configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for name, sec in parser.items():  # [DEFAULT] first: every section shows its keys
            if name not in known:
                raise ConfigError(f"{path}: unknown section [{name}]")
            for key in sec:
                if key not in known[name]:
                    raise ConfigError(f"{path}: unknown key [{name}] {key}")
    for key, value in (("seed", seed), ("replicates", replicates), ("threads", threads)):
        if value is not None:
            parser["run"][key] = str(int(value))

    try:
        return _build(parser)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _error(sec, keys, err: ValueError) -> ConfigError:
    """``err`` as a ConfigError that names ``[section] keys = values`` first."""
    names, values = ", ".join(keys), ", ".join(sec[k] for k in keys)
    return ConfigError(f"[{sec.name}] {names} = {values}: {err}")


def _value(sec, key: str, parse=float):
    """``parse(sec[key])``; a value it cannot parse is a ConfigError naming the key."""
    try:
        return parse(sec[key])
    except ValueError as err:
        raise _error(sec, (key,), err) from err


def _gamma(sec, a: str, b: str, make=GammaParams) -> GammaParams:
    """``make(sec[a], sec[b])``; a bad pair is a ConfigError naming both keys."""
    x, y = _value(sec, a), _value(sec, b)
    try:
        return make(x, y)
    except ValueError as err:
        raise _error(sec, (a, b), err) from err


def _make(make, sec, keys: dict, **fields):
    """``make(**fields)``; a field it rejects is a ConfigError naming its keys in ``sec``.

    Each check in ``make`` starts its message with the field's name.  A
    field is read from ``keys[field]``, or else from the key of its name.
    """
    try:
        return make(**fields)
    except ValueError as err:
        field = str(err).split(" ", 1)[0]
        if field not in fields:
            raise
        raise _error(sec, keys.get(field, (field,)), err) from err


def _build(parser: configparser.ConfigParser) -> RunConfig:
    run = parser["run"]
    if "seed" not in run or run["seed"].strip() == "":
        raise ConfigError("a seed is required; set [run] seed or pass --seed")
    seed = _value(run, "seed", int)

    scn = parser["scenario"]
    scenario = _make(
        Scenario, scn,
        {"incubation_factor_range": ("incubation_factor_min", "incubation_factor_max")},
        contact_rate=_value(scn, "contact_rate"),
        latent=_gamma(scn, "latent_shape", "latent_rate"),
        infectious=_gamma(scn, "infectious_shape", "infectious_rate"),
        incubation_factor_range=(
            _value(scn, "incubation_factor_min"),
            _value(scn, "incubation_factor_max"),
        ),
        p_death=_value(scn, "p_death"),
        to_death=_gamma(scn, "to_death_shape", "to_death_rate"),
        to_recovery=_gamma(scn, "to_recovery_shape", "to_recovery_rate"),
        notify_threshold=_value(scn, "notify_threshold", int),
        followup=_value(scn, "followup"),
        master_seed=seed,
    )

    est = parser["estimate"]
    options = _make(
        AnalysisOptions, est, {"n_pairs": ("sample_pairs",)},
        n_pairs=_value(est, "sample_pairs", int),
        stride=_value(est, "stride", int),
        window=_value(est, "window", int),
        horizon=_value(est, "horizon", int),
    )

    exp = parser["exposures"]
    exposure_model = _make(
        ExposureModel, exp, {},
        p=_value(exp, "p"),
        contact_rate=_value(exp, "contact_rate"),
        incubation=_gamma(exp, "incubation_mean", "incubation_sd", gamma_from_moments),
    )

    replicates, threads = _value(run, "replicates", int), _value(run, "threads", int)
    exposure_replicates = _value(exp, "replicates", int)
    n_persons = _value(exp, "n_persons", int)
    for name, value, least in (
        ("[run] seed", seed, 0),
        ("[run] replicates", replicates, 1), ("[run] threads", threads, 1),
        ("[exposures] replicates", exposure_replicates, 1),
        ("[exposures] n_persons", n_persons, MIN_HISTORIES),
    ):
        if not least <= value < math.inf:
            raise ConfigError(f"{name} must be >= {least} and finite, got {value}")
    if exposure_replicates > EXPOSURE_FAMILY_STREAMS:
        raise ConfigError(f"[exposures] replicates must be <= {EXPOSURE_FAMILY_STREAMS}, the "
                          f"streams of one incubation family, got {exposure_replicates}")

    return RunConfig(
        seed=seed,
        replicates=replicates,
        threads=threads,
        scenario=scenario,
        options=options,
        exposure_model=exposure_model,
        exposure_n_persons=n_persons,
        exposure_replicates=exposure_replicates,
        canonical_text=_canonical(parser),
    )
