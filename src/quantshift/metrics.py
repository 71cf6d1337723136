"""Evaluation metrics: the relative error of a prevalence estimate, and the
classification accuracy and F-measure of an adapted classifier as formulas in
the class-0 prevalence q and its class rates rate0 = Q[g=0|Y=0] and
rate1 = Q[g=0|Y=1], an evaluator's ``prevalence0`` and ``rates_by_class``.

An undefined F-measure (classifier never predicts class 0, so precision has
an empty condition) is reported as NaN and rendered as the literal text
``NaN`` in tables.
"""

from __future__ import annotations

import math


def relative_error(true_q: float, est_q: float) -> float:
    """|est - true| / min(true, 1 - true).

    Symmetric between the two classes and defined for estimates at (or
    beyond) 0 and 1.  ``true_q`` must be an interior prevalence.
    """
    if not 0.0 < true_q < 1.0:
        raise ValueError("true_q must lie strictly between 0 and 1")
    return abs(est_q - true_q) / min(true_q, 1.0 - true_q)


def accuracy(q: float, rate0: float, rate1: float) -> float:
    """Probability of a correct decision, q * Q[g=0|Y=0] + (1-q) * Q[g=1|Y=1].

    On a sample the class rates are counts, so this equals the plain fraction
    of matches.
    """
    return q * rate0 + (1.0 - q) * (1.0 - rate1)


def f_measure(q: float, rate0: float, rate1: float) -> float:
    """Harmonic mean of recall Q[g=0|Y=0] and precision Q[Y=0|g=0].

    Returns NaN when the classifier never predicts class 0 (precision is then
    undefined); returns 0.0 when predictions and truth never overlap.
    """
    predicted0 = q * rate0 + (1.0 - q) * rate1
    if predicted0 <= 0.0:
        return math.nan
    recall = rate0
    precision = q * rate0 / predicted0
    if recall + precision == 0.0:
        return 0.0
    return 2.0 * recall * precision / (recall + precision)
