import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quantshift as qs
from quantshift.classify import ALWAYS_CLASS_0, ALWAYS_CLASS_1

from conftest import FEATURES, cost_error, threshold_classifiers


class TestBayesClassifier:
    def test_symmetric_midpoint(self, train):
        clf = qs.weighted_bayes_classifier(train, 0.5, 0.5)
        assert clf.cut == pytest.approx(1.0, abs=1e-15)
        assert clf.class0_below
        assert qs.posterior(train, clf.cut) == pytest.approx(0.5, abs=1e-15)

    def test_weighted_step_matches_posterior_inversion(self, train):
        # weights (0.1655, 0.8345) realize posterior threshold 0.8345; the cut
        # solves 1/(1 + exp(2x - 2)) = 0.8345
        clf = qs.weighted_bayes_classifier(train, 0.1655, 0.8345)
        assert qs.posterior(train, clf.cut) == pytest.approx(0.8345, abs=1e-12)
        expected_cut = (math.log((1 - 0.8345) / 0.8345) + 2.0) / 2.0
        assert clf.cut == pytest.approx(expected_cut, abs=1e-12)
        assert clf.cut == pytest.approx(0.191, abs=5e-4)

    def test_brute_force_optimality(self, train):
        clf = qs.weighted_bayes_classifier(train, 0.5, 0.5)
        best = cost_error(train, clf, 1.0, 1.0)
        for cut in np.linspace(-4.0, 6.0, 50):
            alternative = qs.ThresholdClassifier(cut=float(cut))
            assert best <= cost_error(train, alternative, 1.0, 1.0) + 1e-12

    def test_random_costs_optimality(self, train):
        rng = np.random.default_rng(7)
        for _ in range(5):
            c0, c1 = rng.uniform(0.05, 3.0, size=2)
            p = float(rng.uniform(0.05, 0.95))
            model = train.with_prevalence(p)
            clf = qs.weighted_bayes_classifier(model, c0 * p, c1 * (1.0 - p))
            best = cost_error(model, clf, c0, c1)
            for cut in np.linspace(-5.0, 7.0, 80):
                alternative = qs.ThresholdClassifier(cut=float(cut))
                assert best <= cost_error(model, alternative, c0, c1) + 1e-12

    def test_degenerate_weights(self, train):
        assert qs.weighted_bayes_classifier(train, 0.0, 1.0) is ALWAYS_CLASS_1
        assert qs.weighted_bayes_classifier(train, 1.0, 0.0) is ALWAYS_CLASS_0
        for a0, a1 in ((0.0, 0.0), (-1.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError):
                qs.weighted_bayes_classifier(train, a0, a1)


class TestAdaptThreshold:
    def test_example_threshold(self, train):
        clf = qs.adapt_threshold(train, 0.1655)
        assert qs.posterior(train, clf.cut) == pytest.approx(0.8345, abs=1e-12)

    def test_no_shift_no_adaptation(self, train):
        adapted = qs.adapt_threshold(train, 0.5)
        baseline = qs.bayes_classifier(train)
        assert qs.posterior(train, adapted.cut) == pytest.approx(0.5, abs=1e-15)
        assert adapted == baseline

    def test_boundary_estimates_give_constant_classifiers(self, train):
        assert qs.adapt_threshold(train, 0.0) is ALWAYS_CLASS_1
        assert qs.adapt_threshold(train, -0.25) is ALWAYS_CLASS_1
        assert qs.adapt_threshold(train, 1.0) is ALWAYS_CLASS_0
        assert qs.adapt_threshold(train, 1.5) is ALWAYS_CLASS_0

    def test_always_class1_accuracy_is_class1_prevalence(self, train):
        # adapting to a zero estimate always predicts class 1
        clf = qs.adapt_threshold(train, 0.0)
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.01))
        q, (rate0, rate1) = evaluator.prevalence0, evaluator.rates_by_class(clf)
        assert qs.accuracy(q, rate0, rate1) == pytest.approx(0.99, abs=1e-12)

    def test_threshold_strictly_decreasing_in_estimate(self, train):
        estimates = np.linspace(0.01, 0.99, 40)
        thresholds = [qs.posterior(train, qs.adapt_threshold(train, float(q)).cut) for q in estimates]
        assert all(b < a for a, b in zip(thresholds, thresholds[1:]))

    def test_adaptation_with_true_prevalence_is_optimal(self, train):
        # under prior probability shift, adapting to the exact test prevalence
        # minimizes the test cost over all cut points, for equal and unequal
        # costs; with equal costs the weighted rule is adapt_threshold
        rng = np.random.default_rng(7)
        cost_pairs = [(1.0, 1.0)]
        cost_pairs += [tuple(rng.uniform(0.05, 3.0, size=2)) for _ in range(5)]
        for c0, c1 in cost_pairs:
            for q in (0.05, 0.3, 0.7):
                test = train.with_prevalence(q)
                adapted = qs.weighted_bayes_classifier(train, c0 * q, c1 * (1.0 - q))
                if c0 == c1 == 1.0:
                    assert adapted == qs.adapt_threshold(train, q)
                best = cost_error(test, adapted, c0, c1)
                for cut in np.linspace(-5.0, 7.0, 200):
                    alternative = qs.ThresholdClassifier(cut=float(cut))
                    assert best <= cost_error(test, alternative, c0, c1) + 1e-12


class TestClassify:
    def test_plain_decision(self):
        clf = qs.ThresholdClassifier(cut=1.0)
        assert clf.predict(0.0) == 0
        assert clf.predict(2.0) == 1

    def test_tie_goes_to_class_1(self):
        clf = qs.ThresholdClassifier(cut=1.0)
        assert clf.predict(1.0) == 1

    def test_constant_classifiers(self):
        for x in (-100.0, 0.0, 100.0):
            assert ALWAYS_CLASS_1.predict(x) == 1
            assert ALWAYS_CLASS_0.predict(x) == 0

    def test_vectorized_decisions(self):
        clf = qs.ThresholdClassifier(cut=1.0)
        out = clf.predict(np.array([0.0, 1.0, 2.0]))
        assert out.tolist() == [0, 1, 1]

    def test_rate_class0_orientation(self, train):
        clf = qs.ThresholdClassifier(cut=1.0)
        assert clf.rate_class0(train.cdf0) == pytest.approx(train.cdf0(1.0), abs=0.0)

    @pytest.mark.parametrize("population", ["train", "invariant_test"])
    @pytest.mark.parametrize(
        "cut,class0_below,expected",
        [(math.inf, True, 1.0), (-math.inf, True, 0.0), (math.inf, False, 0.0), (-math.inf, False, 1.0)],
    )
    def test_infinite_cut_rates(self, request, population, cut, class0_below, expected):
        # every CDF, erf-based (train) or GridCdf (invariant_test), is exactly
        # 0 at -inf and 1 at +inf; ALWAYS_CLASS_0/1 are the class0_below cases
        cdf = request.getfixturevalue(population).cdf0
        clf = replace(ALWAYS_CLASS_0, cut=cut, class0_below=class0_below)
        assert clf.rate_class0(cdf) == expected


@st.composite
def features_and_classifier(draw):
    x = draw(FEATURES)
    return np.asarray(x, dtype=float), draw(threshold_classifiers(x))


_EDGES = np.array([-math.inf, 0.0, 1.0, 1.0, 2.0, math.inf])
# a NaN feature is decided class 1 on either side of the cut
_WITH_NAN = np.array([math.nan, 2.0, -1.0, math.nan, 0.5, 1.0])


class TestCountClass0:
    @given(features_and_classifier())
    @example((_EDGES, qs.ThresholdClassifier(cut=1.0)))
    @example((_EDGES, qs.ThresholdClassifier(cut=1.0, class0_below=False)))
    @example((_EDGES, ALWAYS_CLASS_0))
    @example((_EDGES, ALWAYS_CLASS_1))
    @example((_WITH_NAN, qs.ThresholdClassifier(cut=1.0)))
    @example((_WITH_NAN, qs.ThresholdClassifier(cut=1.0, class0_below=False)))
    def test_count_is_the_mean_of_predictions(self, case):
        # in any order: as drawn, and sorted
        x, clf = case
        for features in (x, np.sort(x)):
            count = clf.count_class0(features)
            assert count == np.count_nonzero(clf.predict(x) == 0)
            assert count / len(x) == np.mean(clf.predict(x) == 0)
