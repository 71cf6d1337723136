"""Cost-sensitive Bayes classifiers on one-dimensional features.

One rule serves every estimator: decide class 0 on {a1 f1 < a0 f0}, with
a0 = c0 q, a1 = c1 (1-q) at a class-0 prevalence q (:func:`adapt_threshold`).
Every density ratio in scope is strictly monotone, so that set is a
half-line and classifiers reduce to a feature-space cut point.
The rate of class-0 decisions is then a CDF evaluation at the cut: exact for
a population model (:meth:`ThresholdClassifier.rate_class0`), and an
empirical-CDF count in the sorted features for a sample
(:meth:`ThresholdClassifier.count_class0`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import PopulationModel


@dataclass(frozen=True)
class CostPair:
    """Misclassification costs: c0 for 'predict 1 when truth is 0', c1 for the converse."""

    c0: float = 1.0
    c1: float = 1.0

    def __post_init__(self):
        if self.c0 < 0 or self.c1 < 0:
            raise ValueError("costs must be nonnegative")
        if self.c0 + self.c1 <= 0:
            raise ValueError("at least one cost must be positive")


@dataclass(frozen=True)
class ThresholdClassifier:
    """Decision rule 'class 0 iff x on one side of cut'; ties go to class 1.

    Cut +inf / -inf with ``class0_below`` gives the constant always-0 / always-1 rule.
    """

    cut: float
    class0_below: bool = True

    def predict(self, x):
        """Label 0 or 1 for a scalar or array of features."""
        x = np.asarray(x, dtype=float)
        mask = x < self.cut if self.class0_below else x > self.cut
        labels = np.where(mask, 0, 1)
        return labels if labels.ndim else int(labels)

    def rate_class0(self, cdf) -> float:
        """Probability of deciding class 0 under the distribution with CDF ``cdf``,
        which must be exactly 0 at -inf and 1 at +inf, as every CDF here is."""
        mass_below = cdf(self.cut)
        return mass_below if self.class0_below else 1.0 - mass_below

    def count_class0(self, sorted_x: np.ndarray) -> int:
        """Number of class-0 decisions among the ascending features ``sorted_x``.

        Equals ``np.count_nonzero(self.predict(sorted_x) == 0)``, ties and
        infinite cuts included, so the count divided by ``len(sorted_x)`` is
        bit for bit the mean of those decisions (``1 - count_below / n``
        would round differently).  Sorting puts NaN last, so with
        ``class0_below=False`` the count is exact only for non-NaN features,
        which every sampler produces.
        """
        if self.class0_below:
            return int(np.searchsorted(sorted_x, self.cut, side="left"))
        return len(sorted_x) - int(np.searchsorted(sorted_x, self.cut, side="right"))


ALWAYS_CLASS_0 = ThresholdClassifier(cut=math.inf)
ALWAYS_CLASS_1 = ThresholdClassifier(cut=-math.inf)


def weighted_bayes_classifier(train: PopulationModel, a0: float, a1: float) -> ThresholdClassifier:
    """Minimizer of a0 P0[g=1] + a1 P1[g=0] over all classifiers.

    The decision set is {a1 f1 < a0 f0}, i.e. {R > a1/a0} in terms of the
    density ratio; a0 = 0 or a1 = 0 yields the constant classifiers.
    """
    if a0 < 0 or a1 < 0 or a0 + a1 <= 0:
        raise ValueError("weights must be nonnegative with a positive sum")
    if a0 == 0:
        return ALWAYS_CLASS_1
    if a1 == 0:
        return ALWAYS_CLASS_0
    return ThresholdClassifier(train.ratio.invert_threshold(a1 / a0), train.ratio.decreasing)


def bayes_classifier(train: PopulationModel, costs: CostPair = CostPair()) -> ThresholdClassifier:
    """Cost-sensitive Bayes classifier for the training distribution.

    The rule adapted to the training prevalence; with c0 = c1 it is the
    minimum-error rule, whose cut is where the training posterior is 1/2.
    """
    return adapt_threshold(train, train.prevalence0, costs)


def adapt_threshold(
    train: PopulationModel, estimated_test_prevalence0: float, costs: CostPair = CostPair()
) -> ThresholdClassifier:
    """Cost-sensitive Bayes classifier for a test prevalence q under prior shift.

    The test cost c0 q P0[g=1] + c1 (1-q) P1[g=0] is minimized by the
    weighted rule with a0 = c0 q, a1 = c1 (1-q).  Estimates at or beyond the
    boundaries give the constant classifiers, so out-of-range inputs are legal.
    """
    q = estimated_test_prevalence0
    if q <= 0.0:
        return ALWAYS_CLASS_1
    if q >= 1.0:
        return ALWAYS_CLASS_0
    return weighted_bayes_classifier(train, costs.c0 * q, costs.c1 * (1.0 - q))


def cost_weighted_error(train: PopulationModel, clf: ThresholdClassifier, costs: CostPair) -> float:
    """Expected cost c0 P[g=1, Y=0] + c1 P[g=0, Y=1] on the training population."""
    p = train.prevalence0
    rate0 = clf.rate_class0(train.cdf0)
    rate1 = clf.rate_class0(train.cdf1)
    return costs.c0 * p * (1.0 - rate0) + costs.c1 * (1.0 - p) * rate1
