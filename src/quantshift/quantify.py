"""Prevalence estimators: Classify & Count / CDE-Iterate, Adjusted Classify &
Count, and the EM (maximum likelihood) estimator.

Each estimator runs against a :class:`TestEvaluator`, which answers
questions about the test distribution: the rate of class-0 decisions of a
classifier, and the feature distribution as a weighted point set (its
``measure``), over which expectations are sums.  Decision sets are
half-lines, so on both backends a rate is a CDF evaluated at the cut.  A
:class:`PopulationEvaluator` answers from the model (the class-conditional
CDFs and fixed Gauss-Legendre nodes); a :class:`SampleEvaluator` answers from
the features of a sample, each weighted 1/n, and takes a rate as a count in
its sorted features.  Estimators never look at test labels through either
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .classify import ThresholdClassifier, weighted_bayes_classifier
from .models import DensityRatio, PopulationModel, panel_edges
from .numerics import gauss_legendre_nodes, solve_prior_equation
from .sampling import LabeledDataset

_DEGENERATE_RATE_GAP = 1e-12


class DegenerateClassifier(ValueError):
    """The classifier's training rates coincide, so no adjustment is possible."""


class LabelsHidden(RuntimeError):
    """A label-dependent query was made on a label-blind evaluator."""


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


@runtime_checkable
class TestEvaluator(Protocol):
    def predict_positive_rate(self, clf: ThresholdClassifier) -> float: ...

    def measure(self) -> tuple[np.ndarray, np.ndarray | float]: ...

    def expect(self, fn: Callable) -> float: ...


class PopulationEvaluator:
    """Exact evaluation against a test population model.

    Rates come from the class-conditional CDFs.  The feature distribution is
    a fixed node measure: composite 15-point Gauss-Legendre nodes on the
    panels of ``panel_edges(model.support, model.ratio)``, with weight
    q w0 + (1 - q) w1 where w0 and w1 are the node weights times f0 and f1.
    Those depend only on the conditional pair; they are computed on first
    use and shared by the evaluators that :meth:`at_prevalence` makes.
    """

    def __init__(self, model: PopulationModel):
        self.model = model
        self._nodes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def at_prevalence(self, prevalence0: float) -> "PopulationEvaluator":
        """An evaluator of the same conditionals at another prevalence."""
        shifted = PopulationEvaluator(self.model.with_prevalence(prevalence0))
        shifted._nodes = self._node_values()
        return shifted

    def _node_values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._nodes is None:
            points, weights = gauss_legendre_nodes(panel_edges(self.model.support, self.model.ratio))
            self._nodes = (points, weights * self.model.f0(points), weights * self.model.f1(points))
        return self._nodes

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
        points, w0, w1 = self._node_values()
        q = self.model.prevalence0
        return points, q * w0 + (1.0 - q) * w1

    def expect(self, fn: Callable) -> float:
        points, weights = self.measure()
        return float(np.dot(weights, fn(points)))


class SampleEvaluator:
    """Empirical evaluation over the features of a test sample.

    Rates are counts in sorted features
    (:meth:`~quantshift.classify.ThresholdClassifier.count_class0`), so a
    query costs a binary search rather than a pass over the sample.  The
    quantification surface (``predict_positive_rate``, ``measure``,
    ``expect``) reads features only; its sorted copy is built on first use
    without the labels.  Label-dependent queries (``rates_by_class``,
    ``prevalence0``, used by evaluation metrics) count in per-class sorted
    features, built from the labels on the first such query; they raise
    :class:`LabelsHidden` when the evaluator was built with
    ``labels_hidden=True``.
    """

    def __init__(self, dataset: LabeledDataset, labels_hidden: bool = False):
        self.dataset = dataset
        self.labels_hidden = labels_hidden
        self._features = np.asarray(dataset.features, dtype=float)
        self._sorted: np.ndarray | None = None
        self._sorted_by_class: tuple[np.ndarray, np.ndarray] | None = None

    def predict_positive_rate(self, clf: ThresholdClassifier) -> float:
        if self._sorted is None:
            self._sorted = np.sort(self._features)
        return clf.count_class0(self._sorted) / len(self._sorted)

    def measure(self) -> tuple[np.ndarray, float]:
        """The features, each with weight 1/n."""
        return self._features, 1.0 / len(self._features)

    def expect(self, fn: Callable) -> float:
        return float(np.mean(fn(self._features)))

    def _class_features(self) -> tuple[np.ndarray, np.ndarray]:
        """The class-0 and class-1 features, each in ascending order."""
        if self.labels_hidden:
            raise LabelsHidden("evaluator was built with labels_hidden=True")
        if self._sorted_by_class is None:
            labels = np.asarray(self.dataset.labels)
            by_class = []
            for cls in (0, 1):
                x = self._features[labels == cls]
                x.sort()
                by_class.append(x)
            self._sorted_by_class = by_class[0], by_class[1]
        return self._sorted_by_class

    @property
    def prevalence0(self) -> float:
        return len(self._class_features()[0]) / len(self._features)

    def rates_by_class(self, clf: ThresholdClassifier) -> tuple[float, float]:
        """(Q[g=0 | Y=0], Q[g=0 | Y=1]) as counts per class; an empty class gives 0.0."""
        class0, class1 = self._class_features()
        return tuple(clf.count_class0(x) / len(x) if len(x) else 0.0 for x in (class0, class1))


def training_rates(train: PopulationModel, clf: ThresholdClassifier) -> tuple[float, float]:
    """(true positive rate, false positive rate) of ``clf`` on the training population."""
    return PopulationEvaluator(train).rates_by_class(clf)


def acc_estimate(
    evaluator: TestEvaluator, clf: ThresholdClassifier, tpr: float, fpr: float
) -> PrevalenceEstimate:
    """Adjusted Classify & Count: (Q[g=0] - fpr) / (tpr - fpr).

    The raw value is returned unclamped; estimates outside [0, 1] are flagged
    rather than truncated.

    Raises:
        DegenerateClassifier: if tpr and fpr are (numerically) equal.
    """
    if abs(tpr - fpr) < _DEGENERATE_RATE_GAP:
        raise DegenerateClassifier(
            f"tpr = {tpr} and fpr = {fpr} coincide; the decision carries no class information"
        )
    value = (evaluator.predict_positive_rate(clf) - fpr) / (tpr - fpr)
    status = EstimateStatus.CONVERGED if 0.0 <= value <= 1.0 else EstimateStatus.RAW_OUT_OF_RANGE
    return PrevalenceEstimate(value, status)


def em_estimate(evaluator: TestEvaluator, ratio: DensityRatio) -> PrevalenceEstimate:
    """Maximum-likelihood prevalence under prior probability shift.

    The estimate is the unique root q in (0, 1) of

        E_Q[(R - 1) / (1 + q (R - 1))] = 0,

    which exists iff E_Q[R] > 1 and E_Q[1/R] > 1.  When a moment condition
    fails the estimate sits at the corresponding boundary (0 or 1) and the
    status says which.  The expectation is over the evaluator's measure, and
    :func:`~quantshift.numerics.solve_prior_equation` finds the root to 1e-10.
    """
    points, weights = evaluator.measure()
    root = solve_prior_equation(ratio.log(points), weights, 1e-10)
    if root.value == 0.0:
        status = EstimateStatus.BOUNDARY_LOW
    elif root.value == 1.0:
        status = EstimateStatus.BOUNDARY_HIGH
    else:
        status = EstimateStatus.CONVERGED
    return PrevalenceEstimate(root.value, status)


def cde_iterate(
    train: PopulationModel,
    evaluator: TestEvaluator,
    max_iter: int = 1000,
    tol: float = 1e-8,
) -> PrevalenceEstimate:
    """Iterated cost-sensitive reclassification (CDE-Iterate).

    Starting from equal weights, each step adapts the Bayes classifier to
    its own iterate q_k (weights (q_k, 1 - q_k), the equal-cost
    :func:`~quantshift.classify.adapt_threshold`) and takes that
    classifier's class-0 rate as q_{k+1}.  The iterate sequence is
    monotone and converges; iteration stops once successive iterates differ
    by at most ``tol`` or ``max_iter`` iterates have been computed.  The full
    trace is returned: trace[0] is plain Classify & Count.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a0, a1 = 1.0, 1.0
    trace: list[float] = []
    status = EstimateStatus.MAX_ITERATIONS
    for k in range(max_iter):
        clf = weighted_bayes_classifier(train, a0, a1)
        q_k = evaluator.predict_positive_rate(clf)
        trace.append(q_k)
        if k >= 1 and abs(trace[-1] - trace[-2]) <= tol:
            status = EstimateStatus.CONVERGED
            break
        a0, a1 = q_k, 1.0 - q_k
    return PrevalenceEstimate(trace[-1], status, tuple(trace))


def fixed_point_residual(train: PopulationModel, evaluator: TestEvaluator, q: float) -> float:
    """Q[R(X) > (1-q)/q] - q, the defect of q as a CDE-Iterate fixed point.

    Ties {R = (1-q)/q} have probability zero for the continuous models in
    scope, so the strict-inequality event is evaluated.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    clf = weighted_bayes_classifier(train, q, 1.0 - q)
    return evaluator.predict_positive_rate(clf) - q
