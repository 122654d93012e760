"""Links between R0, the exponential growth rate r, and the generation-time
distribution, plus the closed-form bias calculus for three ways the
generation-time distribution gets mis-estimated early in an outbreak:

 - observing generation times backwards through contact tracing,
 - substituting serial intervals (same mean, coefficient of variation times c),
 - keeping only single-exposure cases (shifted mean).

Each bias is expressed both ways: the r obtained from a correct R0, and the
R0 obtained from a correct r, when the distorted distribution is plugged
into the growth-rate equation 1 = R0 * E[exp(-r*G)].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .distributions import GammaParams, gamma_from_moments
from .outbreak_sim import Scenario

# The paper's multiple-exposure example: the true generation time (a serial
# interval, mean and sd in days) and the one fitted from single-exposure cases.
ME_GEN = gamma_from_moments(15.3, 9.3)
ME_BIASED_GEN = gamma_from_moments(12.0, 9.3)


class BiasSource(enum.Enum):
    BACKWARD = "backward"
    SERIAL_INTERVAL = "serial_interval"
    MULTIPLE_EXPOSURE = "multiple_exposure"
    COMBINED = "combined"


@dataclass(frozen=True)
class BiasReport:
    """Biased (r, R0) pair and signed relative biases against the truth."""

    source: BiasSource
    r_biased: float
    R0_biased: float
    r_rel_bias: float
    R0_rel_bias: float
    note: str = ""


def solve_r(R0: float, gen: GammaParams) -> float:
    """Exponential growth rate implied by R0 and a Gamma generation time.

    Closed form rate * (R0**(1/shape) - 1); positive iff R0 > 1.
    """
    if not 0.0 < R0 < math.inf:
        raise ValueError(f"R0 must be positive and finite, got {R0}")
    return gen.rate * (R0 ** (1.0 / gen.shape) - 1.0)


def solve_R0(r: float, gen: GammaParams) -> float:
    """Reproduction number implied by growth rate r and a Gamma generation time.

    Closed form (1 + r/rate)**shape; the exact inverse of :func:`solve_r`.
    """
    if r <= -gen.rate:
        raise ValueError(f"need r > {-gen.rate}, got {r}")
    return (1.0 + r / gen.rate) ** gen.shape


def backward_dist(gen: GammaParams, r: float) -> GammaParams:
    """Generation-time distribution as seen backwards from infectees.

    During exponential growth at rate r the tracing-observed density is
    exp(-r*t) * R0 * f(t); for Gamma generation times this is again Gamma,
    with the rate increased by r, hence a strictly smaller mean for R0 > 1.
    """
    return GammaParams(shape=gen.shape, rate=gen.rate + r)


def backward_bias(R0: float, gen: GammaParams) -> BiasReport:
    """Bias from fitting the growth-rate equation with backward generation times.

    The growth-rate equation re-solved with ``backward_dist(gen, r)``, r the
    true growth rate; r_biased >= r and R0_biased <= R0.
    """
    return _resolved(BiasSource.BACKWARD, R0, gen, backward_dist(gen, solve_r(R0, gen)))


def scaled_dist(gen: GammaParams, c: float) -> GammaParams:
    """Gamma with the same mean as ``gen`` and coefficient of variation scaled by c."""
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    c2 = c * c
    return GammaParams(shape=gen.shape / c2, rate=gen.rate / c2)


def serial_interval_bias(R0: float, gen: GammaParams, c: float) -> BiasReport:
    """Bias from replacing generation times by serial intervals.

    Serial intervals share the generation-time mean but carry a coefficient
    of variation scaled by a factor c > 0, i.e. the fitted distribution is
    Gamma(shape/c^2, rate/c^2).  r_biased increases and R0_biased decreases
    in c, so c < 1 reverses the signs of c > 1; c = 1 reproduces the truth.
    """
    return _resolved(BiasSource.SERIAL_INTERVAL, R0, gen, scaled_dist(gen, c))


def multiple_exposure_bias(R0: float, gen: GammaParams, biased_gen: GammaParams) -> BiasReport:
    """Bias from fitting with the single-exposure-only generation distribution.

    ``biased_gen`` is the generation distribution fitted from
    single-exposure cases only (the bias table's is ``ME_BIASED_GEN``);
    the report simply re-solves the growth-rate equation with it.
    """
    return _resolved(BiasSource.MULTIPLE_EXPOSURE, R0, gen, biased_gen)


def _resolved(source, R0: float, gen: GammaParams, biased_gen: GammaParams) -> BiasReport:
    """The growth-rate equation of (R0, gen) re-solved both ways with ``biased_gen``."""
    r = solve_r(R0, gen)
    return _report(source, R0, r, solve_r(R0, biased_gen), solve_R0(r, biased_gen))


def _report(source, R0, r, r_biased, R0_biased) -> BiasReport:
    if r != 0:
        r_rel = r_biased / r - 1.0
    else:
        r_rel = 0.0 if r_biased == 0 else math.inf
    return BiasReport(
        source=source,
        r_biased=r_biased,
        R0_biased=R0_biased,
        r_rel_bias=r_rel,
        R0_rel_bias=R0_biased / R0 - 1.0,
    )


def bias_table(scenario: Scenario) -> list[BiasReport]:
    """The four-row bias table: three sources plus their combined effect.

    The backward and serial rows take the outbreak's R0, generation time
    and serial factor c; the multiple-exposure row is the paper's example,
    ``ME_GEN`` against ``ME_BIASED_GEN``, at the outbreak's R0.

    The combined row multiplies the three (1 + relative bias) factors,
    treating the sources as independent, and applies the product to the
    (R0, gen) link.  Factors are combined unrounded, so the combined row
    can differ by a point or two from tables built from rounded rows.
    """
    R0, gen = scenario.R0(), scenario.implied_generation()
    rows = [
        backward_bias(R0, gen),
        serial_interval_bias(R0, gen, scenario.serial_cv_factor()),
        multiple_exposure_bias(R0, ME_GEN, ME_BIASED_GEN),
    ]
    r_factor = math.prod(1.0 + row.r_rel_bias for row in rows)
    R0_factor = math.prod(1.0 + row.R0_rel_bias for row in rows)
    rows.append(
        BiasReport(
            source=BiasSource.COMBINED,
            r_biased=solve_r(R0, gen) * r_factor,
            R0_biased=R0 * R0_factor,
            r_rel_bias=r_factor - 1.0,
            R0_rel_bias=R0_factor - 1.0,
            note="product of unrounded per-source factors",
        )
    )
    return rows
