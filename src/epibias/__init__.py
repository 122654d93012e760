"""Toolkit for quantifying and correcting estimation biases in the
exponential-growth phase of an epidemic: backward-observed generation
times, serial-interval substitution, multiple potential infectors, and
delayed death/recovery observations."""

__version__ = "0.2.0"

from .distributions import (
    DiscreteDelay,
    GammaParams,
    cdf,
    gamma_from_moments,
    laplace,
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
)
from .outbreak_sim import (
    OutbreakTrace,
    Scenario,
    simulate_outbreak,
)

__all__ = [
    "__version__",
    "GammaParams",
    "DiscreteDelay",
    "gamma_from_moments",
    "cdf",
    "laplace",
    "GrowthLink",
    "BiasReport",
    "BiasScenario",
    "BiasSource",
    "solve_r",
    "solve_R0",
    "backward_dist",
    "backward_bias",
    "serial_inflation_bias",
    "multiple_exposure_bias",
    "bias_table",
    "Scenario",
    "OutbreakTrace",
    "simulate_outbreak",
]
