"""Links between R0, the exponential growth rate r, and the generation-time
distribution, plus the closed-form bias calculus for three ways the
generation-time distribution gets mis-estimated early in an outbreak:

 - observing generation times backwards through contact tracing,
 - substituting serial intervals (same mean, inflated variance),
 - keeping only single-exposure cases (shifted mean).

Each bias is expressed both ways: the r obtained from a correct R0, and the
R0 obtained from a correct r, when the distorted distribution is plugged
into the growth-rate equation 1 = R0 * E[exp(-r*G)].
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from scipy import integrate, optimize

from .distributions import GammaParams, gamma_from_moments, laplace


class BiasSource(enum.Enum):
    BACKWARD = "backward"
    SERIAL_INFLATION = "serial_inflation"
    MULTIPLE_EXPOSURE = "multiple_exposure"
    COMBINED = "combined"


@dataclass(frozen=True)
class GrowthLink:
    """A consistent (R0, r, generation distribution) triple.

    Consistency means 1 = R0 * E[exp(-r*G)] within 1e-10; use the
    ``from_R0`` / ``from_r`` constructors to build valid links.
    """

    R0: float
    r: float
    gen: GammaParams

    def __post_init__(self):
        if self.R0 < 0:
            raise ValueError(f"R0 must be non-negative, got {self.R0}")
        resid = self.R0 * laplace(self.gen, self.r) - 1.0
        if abs(resid) > 1e-10:
            raise ValueError(
                f"(R0, r, gen) inconsistent: R0*E[exp(-rG)] - 1 = {resid:.3e}"
            )

    @classmethod
    def from_R0(cls, R0: float, gen: GammaParams) -> "GrowthLink":
        return cls(R0=R0, r=solve_r(R0, gen), gen=gen)

    @classmethod
    def from_r(cls, r: float, gen: GammaParams) -> "GrowthLink":
        return cls(R0=solve_R0(r, gen), r=r, gen=gen)


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
    if R0 <= 0:
        raise ValueError(f"R0 must be positive, got {R0}")
    return gen.rate * (R0 ** (1.0 / gen.shape) - 1.0)


def solve_R0(r: float, gen: GammaParams) -> float:
    """Reproduction number implied by growth rate r and a Gamma generation time.

    Closed form (1 + r/rate)**shape; the exact inverse of :func:`solve_r`.
    """
    if r <= -gen.rate:
        raise ValueError(f"need r > {-gen.rate}, got {r}")
    return (1.0 + r / gen.rate) ** gen.shape


def solve_r_numeric(
    R0: float,
    gen_pdf,
    lower: float = None,
    upper: float = 10.0,
    tol: float = 1e-12,
) -> float:
    """Growth rate from an arbitrary generation-time density, numerically.

    Finds the root of g(r) = R0 * integral(exp(-r*t) * gen_pdf(t)) - 1 with a
    bracketing solver; g is strictly decreasing in r so the root is unique.

    Args:
        R0: reproduction number (> 0).
        gen_pdf: density callback on [0, inf), integrating to 1.
        lower: bracket lower end.  Defaults to 0 for R0 >= 1 and must be
            supplied (above the transform's divergence point) for R0 < 1.
        upper: bracket upper end, per day.

    Raises:
        ValueError: if g does not change sign on [lower, upper].
    """
    if R0 <= 0:
        raise ValueError(f"R0 must be positive, got {R0}")

    def residual(r: float) -> float:
        # Split at t = 1 so a density singular at 0 converges without roundoff.
        val = sum(integrate.quad(lambda t: math.exp(-r * t) * gen_pdf(t), lo, hi,
                                 epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                  for lo, hi in ((0.0, 1.0), (1.0, math.inf)))
        return R0 * val - 1.0

    if lower is None:
        lower = 0.0
    g_lo = residual(lower)
    if abs(g_lo) < tol:
        return lower
    g_hi = residual(upper)
    if g_lo * g_hi > 0:
        raise ValueError(
            f"no sign change on [{lower}, {upper}]: g={g_lo:.3e}, {g_hi:.3e}"
        )
    root = optimize.brentq(residual, lower, upper, xtol=1e-14, rtol=8.9e-16)
    return float(root)


def backward_dist(link: GrowthLink) -> GammaParams:
    """Generation-time distribution as seen backwards from infectees.

    During exponential growth the tracing-observed density is
    exp(-r*t) * R0 * f(t); for Gamma generation times this is again Gamma,
    with the rate increased by r, hence a strictly smaller mean for R0 > 1.
    """
    return GammaParams(shape=link.gen.shape, rate=link.gen.rate + link.r)


def backward_bias(link: GrowthLink) -> BiasReport:
    """Bias from fitting the growth-rate equation with backward generation times.

    r_biased = R0**(1/shape) * r  (always >= r), and
    R0_biased = (1 - (r/(rate+r))**2)**shape * R0  (always <= R0).
    """
    alpha, lam = link.gen.shape, link.gen.rate
    r_biased = link.R0 ** (1.0 / alpha) * link.r
    R0_biased = (1.0 - (link.r / (lam + link.r)) ** 2) ** alpha * link.R0
    return _report(BiasSource.BACKWARD, link, r_biased, R0_biased)


def inflated_dist(gen: GammaParams, c: float) -> GammaParams:
    """Gamma with the same mean as ``gen`` and coefficient of variation scaled by c."""
    if c < 1:
        raise ValueError(f"variance inflation needs c >= 1, got {c}")
    c2 = c * c
    return GammaParams(shape=gen.shape / c2, rate=gen.rate / c2)


def serial_inflation_bias(link: GrowthLink, c: float) -> BiasReport:
    """Bias from replacing generation times by serial intervals.

    Serial intervals share the generation-time mean but carry a coefficient
    of variation larger by a factor c >= 1, i.e. the fitted distribution is
    Gamma(shape/c^2, rate/c^2).  r_biased increases and R0_biased decreases
    in c; c = 1 reproduces the truth.
    """
    dist = inflated_dist(link.gen, c)
    r_biased = solve_r(link.R0, dist)
    R0_biased = solve_R0(link.r, dist)
    return _report(BiasSource.SERIAL_INFLATION, link, r_biased, R0_biased)


def multiple_exposure_bias(link: GrowthLink, biased_gen: GammaParams) -> BiasReport:
    """Bias from fitting with the single-exposure-only generation distribution.

    ``biased_gen`` is the mean-shifted distribution produced by
    :func:`epibias.exposures.single_exposure_shift` (or any distorted
    alternative); the report simply re-solves the growth-rate equation
    with it.
    """
    r_biased = solve_r(link.R0, biased_gen)
    R0_biased = solve_R0(link.r, biased_gen)
    return _report(BiasSource.MULTIPLE_EXPOSURE, link, r_biased, R0_biased)


def _report(source, link, r_biased, R0_biased, note="") -> BiasReport:
    if link.r != 0:
        r_rel = r_biased / link.r - 1.0
    else:
        r_rel = 0.0 if r_biased == 0 else math.inf
    return BiasReport(
        source=source,
        r_biased=r_biased,
        R0_biased=R0_biased,
        r_rel_bias=r_rel,
        R0_rel_bias=R0_biased / link.R0 - 1.0,
        note=note,
    )


@dataclass(frozen=True)
class BiasScenario:
    """Inputs for the three-source bias table.

    The backward and serial rows use (R0, gen); the multiple-exposure row
    has its own generation-time estimate ``me_gen`` together with the
    distorted ``me_biased_gen`` fitted from single-exposure cases only.
    """

    R0: float = 1.7
    gen: GammaParams = GammaParams(3.0, 0.2)
    serial_cv_factor: float = 1.026
    me_gen: GammaParams = field(default_factory=lambda: gamma_from_moments(15.3, 9.3))
    me_biased_gen: GammaParams = field(default_factory=lambda: gamma_from_moments(12.0, 9.3))


def bias_table(scenario: BiasScenario) -> list[BiasReport]:
    """The four-row bias table: three sources plus their combined effect.

    The combined row multiplies the three (1 + relative bias) factors,
    treating the sources as independent, and applies the product to the
    (R0, gen) link.  Factors are combined unrounded, so the combined row
    can differ by a point or two from tables built from rounded rows.
    """
    link = GrowthLink.from_R0(scenario.R0, scenario.gen)
    me_link = GrowthLink.from_R0(scenario.R0, scenario.me_gen)

    rows = [
        backward_bias(link),
        serial_inflation_bias(link, scenario.serial_cv_factor),
        multiple_exposure_bias(me_link, scenario.me_biased_gen),
    ]
    r_factor = 1.0
    R0_factor = 1.0
    for row in rows:
        r_factor *= 1.0 + row.r_rel_bias
        R0_factor *= 1.0 + row.R0_rel_bias
    rows.append(
        BiasReport(
            source=BiasSource.COMBINED,
            r_biased=link.r * r_factor,
            R0_biased=link.R0 * R0_factor,
            r_rel_bias=r_factor - 1.0,
            R0_rel_bias=R0_factor - 1.0,
            note="product of unrounded per-source factors",
        )
    )
    return rows
