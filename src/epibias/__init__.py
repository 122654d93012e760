"""Toolkit for quantifying and correcting estimation biases in the
exponential-growth phase of an epidemic: backward-observed generation
times, serial-interval substitution, multiple potential infectors, and
delayed death/recovery observations."""

__version__ = "0.1.0"

from .distributions import (
    DiscreteDelay,
    GammaParams,
    cdf,
    discretize,
    gamma_from_moments,
    laplace,
    pdf,
    sample,
)
from .growth_math import (
    BiasReport,
    BiasScenario,
    BiasSource,
    GrowthLink,
    backward_bias,
    backward_dist,
    bias_table,
    multiple_exposure_bias,
    serial_inflation_bias,
    solve_R0,
    solve_r,
    solve_r_numeric,
)
from .outbreak_sim import (
    OutbreakTrace,
    Scenario,
    daily_series,
    run_ensemble,
    simulate_outbreak,
    snapshot_ratios,
)

__all__ = [
    "__version__",
    "GammaParams",
    "DiscreteDelay",
    "gamma_from_moments",
    "pdf",
    "cdf",
    "laplace",
    "sample",
    "discretize",
    "GrowthLink",
    "BiasReport",
    "BiasScenario",
    "BiasSource",
    "solve_r",
    "solve_R0",
    "solve_r_numeric",
    "backward_dist",
    "backward_bias",
    "serial_inflation_bias",
    "multiple_exposure_bias",
    "bias_table",
    "Scenario",
    "OutbreakTrace",
    "simulate_outbreak",
    "run_ensemble",
    "snapshot_ratios",
    "daily_series",
]
