"""Construction of test-set populations related to a training population by
prior probability shift, invariant-density-ratio shift, or the square-root
ratio variant.

The two derived kinds start from a normal envelope density h* and decompose it
into a mixture q* h0 + (1-q*) h1 whose conditional ratio h0/h1 equals a target
ratio; the mixture weight q* is the root of the associated likelihood
equation.  One (h0, h1) pair then serves every test prevalence, drawn by
accept-reject from h* with the mixture's class posteriors as acceptance
probabilities, which never exceed 1, so no envelope test is needed.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import NumericalFailure
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


def _logistic(t):
    """1/(1 + e^-t): 0 where e^-t overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def decompose_mixture(
    h_star: Density,
    ratio: DensityRatio,
    support: tuple[float, float],
) -> tuple[float, float, Density, Density, Density, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split ``h_star`` into q* h0 + (1-q*) h1 with h0/h1 equal to ``ratio``.

    The weight q* is the unique root in (0, 1) of

        integral of (R - 1) / (1 + q (R - 1)) h* dx = 0,

    which exists iff both E[R] > 1 and E[1/R] > 1 under h*.  The integral is
    a sum over the nodes of ``panel_edges(support, ratio)``, built once, and
    :func:`~quantshift.numerics.solve_prior_equation` finds the root from the
    nodes, ``ratio`` and the node weights times h*.  It returns q*, 1 - q*
    (the smaller to full relative precision), h0 = h* / (q* (1 + e^-z)),
    h1 = h* / ((1 - q*) (1 + e^z)) (both finite where R overflows),
    z = log R + log(q* / (1 - q*)), the class-0 posterior log-odds of the
    mixture, and ``node_masses(support, ratio, h0, h1)`` on those nodes.

    Raises:
        NumericalFailure: naming the moment inequality that failed.
    """
    points, weights = gauss_legendre_nodes(panel_edges(support, ratio))
    root = solve_prior_equation(points, ratio, weights * h_star(points))
    if root.log_moment_r <= math.log1p(_MOMENT_MARGIN):
        raise NumericalFailure(
            f"E[R] = {math.exp(root.log_moment_r)} under the envelope does not exceed 1; "
            "the mixture has no class-0 component"
        )
    if root.log_moment_inv <= math.log1p(_MOMENT_MARGIN):
        raise NumericalFailure(
            f"E[1/R] = {math.exp(root.log_moment_inv)} under the envelope does not exceed 1; "
            "the mixture has no class-1 component"
        )
    q_star, q_complement = root.value, root.complement
    log_odds = math.log(q_star) - math.log(q_complement)

    def z(x):
        return ratio.log(x) + log_odds

    def h0(x):
        with np.errstate(over="ignore"):
            return h_star(x) / (q_star * (1.0 + np.exp(-z(x))))

    def h1(x):
        with np.errstate(over="ignore"):
            return h_star(x) / (q_complement * (1.0 + np.exp(z(x))))

    return q_star, q_complement, h0, h1, z, (points, weights * h0(points), weights * h1(points))


def make_test_population(
    kind: ShiftKind | str, train: PopulationModel, envelope_mean: float = 0.5, envelope_sd: float = 1.4
) -> PopulationModel:
    """The test class conditionals of shift ``kind`` from ``train``, at the
    training prevalence; ``with_prevalence`` sets each test prevalence.

    Under prior probability shift they are the training conditionals, so
    ``train`` itself is returned.  For the derived kinds, the conditional pair
    comes from the decomposition of the normal envelope
    N(``envelope_mean``, ``envelope_sd``^2); their CDF tables and ``nodes()``
    are the node masses it returns.  Their samplers keep an envelope proposal
    x with P[Y=0 | x] = 1/(1 + e^-z) = q* h0(x)/h*(x) (class 0) or P[Y=1 | x]
    (class 1), at the envelope constants 1/q* and 1/(1-q*), each from the
    weight the decomposition returns, so the smaller one keeps full relative
    precision.

    Raises:
        ValueError: if ``kind`` names no shift kind or ``envelope_sd`` is not positive.
        NumericalFailure: if the envelope admits no interior mixture weight,
            or either conditional's CDF mass is more than 1e-9 from 1.
    """
    # the ``is`` tests below need the member, not its plain string
    kind = ShiftKind(kind)
    if envelope_sd <= 0:
        raise ValueError("envelope_sd must be positive")
    if kind is ShiftKind.PRIOR_SHIFT:
        return train

    ratio = train.ratio
    if kind is ShiftKind.SQRT_RATIO:
        ratio = ratio.sqrt()

    def h_star(x):
        return normal_pdf(x, envelope_mean, envelope_sd)

    pad = TRUNCATION_HALFWIDTH * envelope_sd
    support = (envelope_mean - pad, envelope_mean + pad)
    q_star, q_complement, h0, h1, z, nodes = decompose_mixture(h_star, ratio, support)

    edges = panel_edges(support, ratio)
    cdf0, cdf1 = GridCdf(h0, edges, nodes[1]), GridCdf(h1, edges, nodes[2])
    masses = (cdf0.total_mass, cdf1.total_mass)
    if not all(abs(mass - 1.0) <= _MASS_TOLERANCE for mass in masses):
        raise NumericalFailure(
            f"the test conditionals have masses {masses[0]!r} and {masses[1]!r} on {support}; "
            "the panels do not resolve them"
        )
    proposal = NormalSampler(envelope_mean, envelope_sd)
    return PopulationModel(
        f0=h0,
        f1=h1,
        cdf0=cdf0,
        cdf1=cdf1,
        prevalence0=train.prevalence0,
        support=support,
        ratio=ratio,
        sampler0=RejectionSampler(lambda x: _logistic(z(x)), proposal, 1.0 / q_star),
        sampler1=RejectionSampler(lambda x: _logistic(-z(x)), proposal, 1.0 / q_complement),
        nodes=lambda: nodes,
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
