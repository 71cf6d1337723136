"""Construction of test-set populations related to a training population by
prior probability shift, invariant-density-ratio shift, or the square-root
ratio variant.

The two derived kinds start from a normal envelope density h* and decompose it
into a mixture q* h0 + (1-q*) h1 whose conditional ratio h0/h1 equals a target
ratio; the mixture weight q* is the root of the associated likelihood
equation.  One (h0, h1) pair then serves every test prevalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import (
    Density,
    DensityRatio,
    GridCdf,
    NormalSampler,
    PopulationModel,
    TRUNCATION_HALFWIDTH,
    normal_pdf,
    panel_edges,
    posterior,
)
from .numerics import gauss_legendre_nodes, solve_prior_equation
from .sampling import RejectionSampler

# Existence of an interior mixture weight requires both ratio moments to
# exceed 1; borderline cases error out rather than silently clamp.
_MOMENT_MARGIN = 1e-9
# Largest accepted |mass - 1| of a test conditional's CDF table.
_MASS_TOLERANCE = 1e-9


class ShiftKind(str, Enum):
    PRIOR_SHIFT = "prior_shift"
    INVARIANT_RATIO = "invariant_ratio"
    SQRT_RATIO = "sqrt_ratio"


class NoInteriorSolution(ArithmeticError):
    """The mixture decomposition has no weight strictly inside (0, 1)."""

    def __init__(self, message: str, failed_moment: str):
        super().__init__(message)
        self.failed_moment = failed_moment


class UnresolvedMeasure(ArithmeticError):
    """A test conditional's CDF table does not integrate to 1 over its support,
    so its panels do not resolve the decomposition."""


@dataclass(frozen=True)
class ShiftScenario:
    """A training population plus the recipe for its shifted test population.

    ``envelope_mean``/``envelope_sd`` parametrise the normal envelope h* used
    by the derived kinds; they are ignored under plain prior probability
    shift.
    """

    kind: ShiftKind
    train: PopulationModel
    test_prevalence0: float
    envelope_mean: float = 0.5
    envelope_sd: float = 1.4

    def __post_init__(self):
        # accept the plain string of a kind; an unknown one raises ValueError
        object.__setattr__(self, "kind", ShiftKind(self.kind))
        if not 0.0 < self.test_prevalence0 < 1.0:
            raise ValueError("test_prevalence0 must lie strictly between 0 and 1")
        if self.envelope_sd <= 0:
            raise ValueError("envelope_sd must be positive")


def decompose_mixture(
    h_star: Density,
    ratio: DensityRatio,
    support: tuple[float, float],
) -> tuple[float, Density, Density]:
    """Split ``h_star`` into q* h0 + (1-q*) h1 with h0/h1 equal to ``ratio``.

    The weight q* is the unique root in (0, 1) of

        integral of (R - 1) / (1 + q (R - 1)) h* dx = 0,

    which exists iff both E[R] > 1 and E[1/R] > 1 under h*.  The integral is
    a sum over the Gauss-Legendre nodes of ``panel_edges(support, ratio)``
    weighted by h* (the nodes a population on that support uses), and
    :func:`~quantshift.numerics.solve_prior_equation` finds the root.  The
    component densities are h0 = R h* / (1 + q*(R - 1)) and
    h1 = h* / (1 + q*(R - 1)), evaluated from log R so that they stay finite
    where R overflows.

    Raises:
        NoInteriorSolution: naming the moment inequality that failed.
    """
    points, weights = gauss_legendre_nodes(panel_edges(support, ratio))
    weights *= h_star(points)
    root = solve_prior_equation(ratio.log(points), weights)
    if root.log_moment_r <= math.log1p(_MOMENT_MARGIN):
        raise NoInteriorSolution(
            f"E[R] = {math.exp(root.log_moment_r)} under the envelope does not exceed 1; "
            "the mixture has no class-0 component",
            failed_moment="E[R]",
        )
    if root.log_moment_inv <= math.log1p(_MOMENT_MARGIN):
        raise NoInteriorSolution(
            f"E[1/R] = {math.exp(root.log_moment_inv)} under the envelope does not exceed 1; "
            "the mixture has no class-1 component",
            failed_moment="E[1/R]",
        )
    q_star = root.value
    log_q, log_1mq = math.log(q_star), math.log1p(-q_star)

    # log(1 + q*(R - 1)) = logaddexp(log(1 - q*), log q* + log R) stays finite
    # where R overflows
    def h0(x):
        log_r = ratio.log(x)
        return h_star(x) * np.exp(log_r - np.logaddexp(log_1mq, log_q + log_r))

    def h1(x):
        return h_star(x) * np.exp(-np.logaddexp(log_1mq, log_q + ratio.log(x)))

    return q_star, h0, h1


def make_test_population(scenario: ShiftScenario) -> PopulationModel:
    """Build the test population described by ``scenario``.

    Under prior probability shift the training conditionals are reused with
    the new prevalence.  For the derived kinds, the conditional pair comes
    from the envelope decomposition and is the same for every test prevalence;
    their CDFs are quadrature-backed and their samplers accept-reject with the
    exact envelope constants 1/q* (class 0) and 1/(1-q*) (class 1).

    Raises:
        NoInteriorSolution: if the envelope admits no interior mixture weight.
        UnresolvedMeasure: if either conditional's CDF mass is more than 1e-9
            from 1.
    """
    if scenario.kind is ShiftKind.PRIOR_SHIFT:
        return scenario.train.with_prevalence(scenario.test_prevalence0)

    ratio = scenario.train.ratio
    if scenario.kind is ShiftKind.SQRT_RATIO:
        ratio = ratio.sqrt()
    mean, sd = scenario.envelope_mean, scenario.envelope_sd

    def h_star(x):
        return normal_pdf(x, mean, sd)

    pad = TRUNCATION_HALFWIDTH * sd
    support = (mean - pad, mean + pad)
    q_star, h0, h1 = decompose_mixture(h_star, ratio, support)

    edges = panel_edges(support, ratio)
    cdf0, cdf1 = GridCdf(h0, edges), GridCdf(h1, edges)
    masses = (cdf0.total_mass, cdf1.total_mass)
    if not all(abs(mass - 1.0) <= _MASS_TOLERANCE for mass in masses):
        raise UnresolvedMeasure(
            f"the test conditionals have masses {masses[0]!r} and {masses[1]!r} on {support}; "
            "the panels do not resolve them"
        )
    proposal = NormalSampler(mean, sd)
    return PopulationModel(
        f0=h0,
        f1=h1,
        cdf0=cdf0,
        cdf1=cdf1,
        prevalence0=scenario.test_prevalence0,
        support=support,
        ratio=ratio,
        sampler0=RejectionSampler(h0, proposal, h_star, 1.0 / q_star),
        sampler1=RejectionSampler(h1, proposal, h_star, 1.0 / (1.0 - q_star)),
    )


def covariate_shift_identity_check(train: PopulationModel, test: PopulationModel) -> float:
    """Largest discrepancy between training and test posteriors on a grid.

    Covariate shift means the two feature-conditional class probabilities
    coincide; the returned supremum is ~0 exactly in that case.  The grid
    has 1000 points spanning the overlap of the two support windows.
    """
    lo = max(train.support[0], test.support[0])
    hi = min(train.support[1], test.support[1])
    if not lo < hi:
        raise ValueError("support windows do not overlap")
    grid = np.linspace(lo, hi, 1000)
    gap = np.abs(posterior(train, grid) - posterior(test, grid))
    return float(np.max(gap[np.isfinite(gap)]))
