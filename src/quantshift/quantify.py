"""Prevalence estimators: Classify & Count / CDE-Iterate, Adjusted Classify &
Count, and the EM (maximum likelihood) estimator.

Each estimator runs against an evaluator of the test distribution, which
answers two questions about it: the rate of class-0 decisions of a
classifier, and the feature distribution as a weighted point set (its
``measure``), over which expectations are sums.  Decision sets are
half-lines, so on both backends a rate is a CDF evaluated at the cut.  A
:class:`PopulationEvaluator` answers from the model: rates from its
class-conditional CDFs, and the measure from the node measure the model
carries (``PopulationModel.nodes``).  A :class:`SampleEvaluator` answers from
the features of a sample, each weighted 1/n, and takes a rate as the count
of features on the class-0 side of the cut; a class rate counts within the
sample's class slice.  Neither evaluator keeps state, and estimators never
look at a test sample's classes through either backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .classify import ThresholdClassifier, adapt_threshold
from .errors import NumericalFailure
from .models import DensityRatio, PopulationModel
from .numerics import solve_prior_equation
from .sampling import LabeledDataset

_DEGENERATE_RATE_GAP = 1e-12


class EstimateStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    BOUNDARY_LOW = "boundary_low"
    BOUNDARY_HIGH = "boundary_high"
    RAW_OUT_OF_RANGE = "raw_out_of_range"


@dataclass(frozen=True)
class PrevalenceEstimate:
    """Estimator output.  ``value`` may fall outside [0, 1] for ACC; ``trace``
    holds the CDE iterate sequence when applicable."""

    value: float
    status: EstimateStatus
    trace: tuple[float, ...] | None = None


class PopulationEvaluator:
    """Exact evaluation against a test population model.

    Rates come from the class-conditional CDFs.  The feature distribution is
    the model's node measure ``model.nodes()``, the nodes with the node masses
    w0 of f0 and w1 of f1, weighted q w0 + (1 - q) w1.  The evaluator keeps no
    state: the model builds the nodes once per conditional pair.
    """

    def __init__(self, model: PopulationModel):
        self.model = model

    @property
    def prevalence0(self) -> float:
        return self.model.prevalence0

    def predict_positive_rate(self, clf: ThresholdClassifier) -> float:
        r0, r1 = self.rates_by_class(clf)
        q = self.model.prevalence0
        return q * r0 + (1.0 - q) * r1

    def rates_by_class(self, clf: ThresholdClassifier) -> tuple[float, float]:
        """(Q[g=0 | Y=0], Q[g=0 | Y=1]) from the class-conditional CDFs."""
        return clf.rate_class0(self.model.cdf0), clf.rate_class0(self.model.cdf1)

    def measure(self) -> tuple[np.ndarray, np.ndarray]:
        """The nodes and their weights under the test marginal density."""
        points, w0, w1 = self.model.nodes()
        q = self.model.prevalence0
        return points, q * w0 + (1.0 - q) * w1

    def expect(self, fn: Callable) -> float:
        points, weights = self.measure()
        return float(np.dot(weights, fn(points)))


class SampleEvaluator:
    """Empirical evaluation over the features of a test sample.

    A rate is a count of class-0 decisions in one pass over the features
    (:meth:`~quantshift.classify.ThresholdClassifier.count_class0`), divided
    by the number counted.  The quantification surface
    (``predict_positive_rate``, ``measure``, ``expect``) reads features only.
    The class queries of the evaluation metrics read the class-0 count n0:
    ``prevalence0`` is n0 / n, and ``rates_by_class`` counts one decision
    mask on the class slices ``[:n0]`` and ``[n0:]``.
    """

    def __init__(self, dataset: LabeledDataset):
        self.dataset = dataset
        self._features = np.asarray(dataset.features, dtype=float)

    def predict_positive_rate(self, clf: ThresholdClassifier) -> float:
        return clf.count_class0(self._features) / len(self._features)

    def measure(self) -> tuple[np.ndarray, float]:
        """The features, each with weight 1/n."""
        return self._features, 1.0 / len(self._features)

    def expect(self, fn: Callable) -> float:
        return float(np.mean(fn(self._features)))

    @property
    def prevalence0(self) -> float:
        return self.dataset.n0 / len(self._features)

    def rates_by_class(self, clf: ThresholdClassifier) -> tuple[float, float]:
        """(Q[g=0 | Y=0], Q[g=0 | Y=1]) as counts per class; an empty class gives 0.0."""
        n0 = self.dataset.n0
        decided0 = clf.decides_class0(self._features)
        return tuple(np.count_nonzero(c) / len(c) if len(c) else 0.0 for c in (decided0[:n0], decided0[n0:]))


def training_rates(train: PopulationModel, clf: ThresholdClassifier) -> tuple[float, float]:
    """(true positive rate, false positive rate) of ``clf`` on the training population."""
    return PopulationEvaluator(train).rates_by_class(clf)


def acc_estimate(
    evaluator: PopulationEvaluator | SampleEvaluator, clf: ThresholdClassifier, tpr: float, fpr: float
) -> PrevalenceEstimate:
    """Adjusted Classify & Count: (Q[g=0] - fpr) / (tpr - fpr).

    The raw value is returned unclamped; estimates outside [0, 1] are flagged
    rather than truncated.

    Raises:
        NumericalFailure: if tpr and fpr are (numerically) equal.
    """
    if abs(tpr - fpr) < _DEGENERATE_RATE_GAP:
        raise NumericalFailure(
            f"tpr = {tpr} and fpr = {fpr} coincide; the decision carries no class information"
        )
    value = (evaluator.predict_positive_rate(clf) - fpr) / (tpr - fpr)
    status = EstimateStatus.CONVERGED if 0.0 <= value <= 1.0 else EstimateStatus.RAW_OUT_OF_RANGE
    return PrevalenceEstimate(value, status)


def em_estimate(evaluator: PopulationEvaluator | SampleEvaluator, ratio: DensityRatio) -> PrevalenceEstimate:
    """Maximum-likelihood prevalence under prior probability shift.

    The estimate is the unique root q in (0, 1) of

        E_Q[(R - 1) / (1 + q (R - 1))] = 0,

    which exists iff E_Q[R] > 1 and E_Q[1/R] > 1.  When a moment condition
    fails the estimate sits at the corresponding boundary (0 or 1) and the
    status says which.  The expectation is over the evaluator's measure, and
    :func:`~quantshift.numerics.solve_prior_equation` finds the root to 1e-10
    from its points, its weights and ``ratio``.  The solver reads the points
    in blocks, so on a sample it holds two block buffers and no array of the
    sample's size.
    """
    points, weights = evaluator.measure()
    root = solve_prior_equation(points, ratio, weights, 1e-10)
    if root.value == 0.0:
        status = EstimateStatus.BOUNDARY_LOW
    elif root.complement == 0.0:
        status = EstimateStatus.BOUNDARY_HIGH
    else:
        status = EstimateStatus.CONVERGED
    return PrevalenceEstimate(root.value, status)


def cde_iterate(
    train: PopulationModel,
    evaluator: PopulationEvaluator | SampleEvaluator,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> PrevalenceEstimate:
    """Iterated cost-sensitive reclassification (CDE-Iterate).

    The sequence starts at the training prevalence q_0.  Each step adapts the
    training Bayes rule to the current iterate, ``adapt_threshold(train, q_k)``,
    and takes that classifier's class-0 rate as q_{k+1}.  The iterate
    sequence is monotone and converges; iteration stops once successive
    iterates differ by at most ``tol`` or ``max_iter`` iterates have been
    computed.  The full trace q_1, q_2, ... is returned: trace[0] is plain
    Classify & Count with :func:`~quantshift.classify.bayes_classifier`.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    q_k = train.prevalence0
    trace: list[float] = []
    status = EstimateStatus.MAX_ITERATIONS
    for k in range(max_iter):
        q_k = evaluator.predict_positive_rate(adapt_threshold(train, q_k))
        trace.append(q_k)
        if k >= 1 and abs(trace[-1] - trace[-2]) <= tol:
            status = EstimateStatus.CONVERGED
            break
    return PrevalenceEstimate(trace[-1], status, tuple(trace))


def fixed_point_residual(
    train: PopulationModel, evaluator: PopulationEvaluator | SampleEvaluator, q: float
) -> float:
    """Q[R(X) > (1-q)/q] - q, the defect of q as a CDE-Iterate fixed point.

    Ties {R = (1-q)/q} have probability zero for the continuous models in
    scope, so the strict-inequality event is evaluated.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    return evaluator.predict_positive_rate(adapt_threshold(train, q)) - q
