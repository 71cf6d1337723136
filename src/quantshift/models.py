"""Distribution models on the real line: the equal-variance binormal family,
log-linear density ratios, posteriors, and populations that carry their
ratio and exact samplers.

All densities and ratios are plain callables that accept either a float or a
numpy array.  Populations are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Protocol

import numpy as np

from .numerics import _GL_NODES, _GL_WEIGHTS, RngStream, gauss_legendre_nodes

Density = Callable[[np.ndarray], np.ndarray]

_SQRT2 = math.sqrt(2.0)
_NORM_CONST = 1.0 / math.sqrt(2.0 * math.pi)

# Support windows extend this many standard deviations past the means.  The
# likelihood terms are bounded, so no integrand needs more.
TRUNCATION_HALFWIDTH = 12.0

_WINDOW_PANELS = 128
_BAND_PANELS = 128


class InvalidThreshold(ValueError):
    """Density-ratio thresholds must be strictly positive."""


def normal_pdf(x, mean: float, sd: float):
    z = (np.asarray(x, dtype=float) - mean) / sd
    return _NORM_CONST / sd * np.exp(-0.5 * z * z)


def normal_cdf(x: float, mean: float, sd: float) -> float:
    return 0.5 * (1.0 + math.erf((x - mean) / (sd * _SQRT2)))


@dataclass(frozen=True)
class BinormalParams:
    """Equal-variance two-normal model: class 0 ~ N(mu, sigma^2), class 1 ~ N(nu, sigma^2)."""

    mu: float = 0.0
    nu: float = 2.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if not self.mu < self.nu:
            raise ValueError("mu must be smaller than nu")


@dataclass(frozen=True)
class DensityRatio:
    """Log-linear density ratio R(x) = exp(log_slope * x + log_offset).

    Every class-conditional ratio in this package has this form, which makes
    R strictly monotone and lets thresholds be inverted in closed form.
    """

    log_slope: float
    log_offset: float

    def __post_init__(self):
        if self.log_slope == 0:
            raise ValueError("log_slope must be nonzero (constant ratios are degenerate)")

    def __call__(self, x):
        return np.exp(self.log(x))

    def log(self, x):
        """log R(x), which stays finite where R itself overflows."""
        return self.log_slope * np.asarray(x, dtype=float) + self.log_offset

    @property
    def decreasing(self) -> bool:
        return self.log_slope < 0

    def invert_threshold(self, c: float) -> float:
        """Cut point x_c of the level set {R = c}.

        For a decreasing ratio, {R > c} = {x < x_c}; for an increasing one,
        {R > c} = {x > x_c}.
        """
        if c <= 0:
            raise InvalidThreshold(f"ratio threshold must be positive, got {c}")
        return (math.log(c) - self.log_offset) / self.log_slope

    def sqrt(self) -> "DensityRatio":
        """The pointwise square root, again log-linear."""
        return DensityRatio(0.5 * self.log_slope, 0.5 * self.log_offset)


class Sampler(Protocol):
    """Draws independent values of one class-conditional distribution.

    ``draw`` writes ``n`` values to ``out`` when it is given (so callers can
    fill a slice of a larger array without a temporary copy) and returns them.
    """

    def draw(self, stream: RngStream, n: int, out: np.ndarray | None = None) -> np.ndarray: ...


@dataclass(frozen=True, slots=True)
class NormalSampler:
    """Exact N(mean, sd^2) draws from the stream's Box-Muller gaussians.

    Calling the sampler gives one draw; ``draw`` gives ``n`` draws, identical
    to ``n`` calls.
    """

    mean: float
    sd: float

    def __call__(self, stream: RngStream) -> float:
        return self.mean + self.sd * stream.next_gaussian()

    def draw(self, stream: RngStream, n: int, out: np.ndarray | None = None) -> np.ndarray:
        values = stream.gaussians(n, out)
        values *= self.sd
        values += self.mean
        return values


@dataclass(frozen=True)
class PopulationModel:
    """A pair of class-conditional feature densities plus a class-0 prevalence.

    ``cdf0``/``cdf1`` evaluate the class-conditional distribution functions
    (analytic for normal conditionals, quadrature-backed otherwise).
    ``support`` is the window outside which both densities are numerically
    negligible; population integrals run over it.  ``ratio`` is the analytic
    f0/f1, and ``sampler0``/``sampler1`` draw values from the class
    conditionals.
    """

    f0: Density
    f1: Density
    cdf0: Callable[[float], float]
    cdf1: Callable[[float], float]
    prevalence0: float
    support: tuple[float, float]
    ratio: DensityRatio
    sampler0: Sampler = field(repr=False)
    sampler1: Sampler = field(repr=False)

    def __post_init__(self):
        if not 0.0 < self.prevalence0 < 1.0:
            raise ValueError("prevalence0 must lie strictly between 0 and 1")
        if not self.support[0] < self.support[1]:
            raise ValueError("support window must be non-empty")

    def with_prevalence(self, prevalence0: float) -> "PopulationModel":
        """Same conditionals, new class-0 prevalence (a prior probability shift)."""
        return replace(self, prevalence0=prevalence0)


def posterior(pop: PopulationModel, x):
    """Feature-conditional class-0 probability p*f0 / (p*f0 + (1-p)*f1)."""
    p = pop.prevalence0
    d0 = p * pop.f0(x)
    d1 = (1.0 - p) * pop.f1(x)
    return d0 / (d0 + d1)


def binormal_density_ratio(params: BinormalParams) -> DensityRatio:
    """Ratio f0/f1 of the binormal conditionals: exp(x (mu-nu)/sigma^2 + (nu^2-mu^2)/(2 sigma^2))."""
    s2 = params.sigma**2
    return DensityRatio((params.mu - params.nu) / s2, (params.nu**2 - params.mu**2) / (2.0 * s2))


def binormal_population(params: BinormalParams, prevalence0: float) -> PopulationModel:
    """Population with normal class conditionals, analytic CDFs and exact samplers."""
    mu, nu, sigma = params.mu, params.nu, params.sigma
    pad = TRUNCATION_HALFWIDTH * sigma
    return PopulationModel(
        f0=lambda x: normal_pdf(x, mu, sigma),
        f1=lambda x: normal_pdf(x, nu, sigma),
        cdf0=lambda x: normal_cdf(x, mu, sigma),
        cdf1=lambda x: normal_cdf(x, nu, sigma),
        prevalence0=prevalence0,
        support=(mu - pad, nu + pad),
        ratio=binormal_density_ratio(params),
        sampler0=NormalSampler(mu, sigma),
        sampler1=NormalSampler(nu, sigma),
    )


def panel_edges(support: tuple[float, float], ratio: DensityRatio) -> np.ndarray:
    """Strictly increasing edges of at most 257 panels for a population's nodes.

    128 equal panels span the ``support`` window, and 128 equal panels on the
    part of it where |log R| <= 40 join them.  The likelihood terms and the
    derived densities turn on that band, on the scale 1/|log_slope|; outside
    it each term is 1/q or -1/(1 - q) to double precision.
    """
    lo, hi = support
    edges = np.linspace(lo, hi, _WINDOW_PANELS + 1)
    a, b = sorted((log_r - ratio.log_offset) / ratio.log_slope for log_r in (-40.0, 40.0))
    a, b = max(a, lo), min(b, hi)
    if a < b:
        edges = np.union1d(edges, np.linspace(a, b, _BAND_PANELS + 1))
    return edges


class GridCdf:
    """Quadrature-backed CDF of a density on the panels between ``edges``.

    The Gauss-Legendre mass of each panel is cached at construction; a query
    adds the partial panel containing x, so the accuracy is that of the
    quadrature rule, not of any interpolation.  Queries below/above the edges
    return 0/1.
    """

    def __init__(self, density: Density, edges: np.ndarray):
        self._density = density
        self._edges = edges
        points, weights = gauss_legendre_nodes(edges)
        masses = (weights * density(points)).reshape(len(edges) - 1, -1).sum(axis=1)
        self._cum = np.concatenate([[0.0], np.cumsum(masses)])
        self.total_mass = float(self._cum[-1])

    def __call__(self, x: float) -> float:
        if x <= self._edges[0]:
            return 0.0
        if x >= self._edges[-1]:
            return 1.0
        i = int(np.searchsorted(self._edges, x, side="right")) - 1
        a = float(self._edges[i])
        mid, half = 0.5 * (a + x), 0.5 * (x - a)
        partial = half * float(self._density(mid + half * _GL_NODES) @ _GL_WEIGHTS)
        return min(1.0, float(self._cum[i]) + partial)
