"""Cost-sensitive Bayes classifiers on one-dimensional features.

One rule serves every estimator: decide class 0 on {a1 f1 < a0 f0}
(:func:`weighted_bayes_classifier`), with a0 = q, a1 = 1-q at a class-0
prevalence q (:func:`adapt_threshold`).
Every density ratio in scope is strictly monotone, so that set is a
half-line and classifiers reduce to a feature-space cut point.
The rate of class-0 decisions is then a CDF evaluation at the cut: exact for
a population model (:meth:`ThresholdClassifier.rate_class0`), and a count of
the features on the class-0 side for a sample
(:meth:`ThresholdClassifier.count_class0`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import PopulationModel


@dataclass(frozen=True)
class ThresholdClassifier:
    """Decision rule 'class 0 iff x on one side of cut'; ties go to class 1.

    Cut +inf / -inf with ``class0_below`` gives the constant always-0 / always-1 rule.
    """

    cut: float
    class0_below: bool = True

    def decides_class0(self, x):
        """Whether each feature of a scalar or array ``x`` is decided class 0."""
        x = np.asarray(x, dtype=float)
        return x < self.cut if self.class0_below else x > self.cut

    def predict(self, x):
        """Label 0 or 1 for a scalar or array of features."""
        labels = np.where(self.decides_class0(x), 0, 1)
        return labels if labels.ndim else int(labels)

    def rate_class0(self, cdf) -> float:
        """Probability of deciding class 0 under the distribution with CDF ``cdf``,
        which must be exactly 0 at -inf and 1 at +inf, as every CDF here is."""
        mass_below = cdf(self.cut)
        return mass_below if self.class0_below else 1.0 - mass_below

    def count_class0(self, x: np.ndarray) -> int:
        """Number of class-0 decisions among the features ``x``, in any order;
        divided by ``len(x)``, bit for bit the mean of ``predict(x) == 0``."""
        return int(np.count_nonzero(self.decides_class0(x)))


ALWAYS_CLASS_0 = ThresholdClassifier(cut=math.inf)
ALWAYS_CLASS_1 = ThresholdClassifier(cut=-math.inf)


def weighted_bayes_classifier(train: PopulationModel, a0: float, a1: float) -> ThresholdClassifier:
    """Minimizer of a0 P0[g=1] + a1 P1[g=0] over all classifiers.

    The decision set is {a1 f1 < a0 f0}, i.e. {R > a1/a0} in terms of the
    density ratio; a0 = 0 or a1 = 0 yields the constant classifiers.  At
    prevalence q, with cost c0 for 'predict 1 when truth is 0' and c1 for the
    converse, the cost-sensitive rule has a0 = c0 q, a1 = c1 (1-q).
    """
    if a0 < 0 or a1 < 0 or a0 + a1 <= 0:
        raise ValueError("weights must be nonnegative with a positive sum")
    if a0 == 0:
        return ALWAYS_CLASS_1
    if a1 == 0:
        return ALWAYS_CLASS_0
    return ThresholdClassifier(train.ratio.invert_threshold(a1 / a0), train.ratio.decreasing)


def bayes_classifier(train: PopulationModel) -> ThresholdClassifier:
    """Minimum-error Bayes classifier for the training distribution: the rule
    adapted to the training prevalence, whose cut is where the training
    posterior is 1/2."""
    return adapt_threshold(train, train.prevalence0)


def adapt_threshold(train: PopulationModel, estimated_test_prevalence0: float) -> ThresholdClassifier:
    """Minimum-error Bayes classifier for a test prevalence q under prior shift.

    The test error q P0[g=1] + (1-q) P1[g=0] is minimized by the weighted
    rule with a0 = q, a1 = 1-q.  Estimates at or beyond the boundaries give
    the constant classifiers, so out-of-range inputs are legal.
    """
    q = estimated_test_prevalence0
    if q <= 0.0:
        return ALWAYS_CLASS_1
    if q >= 1.0:
        return ALWAYS_CLASS_0
    return weighted_bayes_classifier(train, q, 1.0 - q)
