import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quantshift as qs
from quantshift.classify import ALWAYS_CLASS_0, ALWAYS_CLASS_1

from conftest import FEATURES, threshold_classifiers


class TestBayesClassifier:
    def test_symmetric_midpoint(self, train):
        clf = qs.bayes_classifier(train, qs.CostPair(1.0, 1.0))
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
        costs = qs.CostPair(1.0, 1.0)
        clf = qs.bayes_classifier(train, costs)
        best = qs.cost_weighted_error(train, clf, costs)
        for cut in np.linspace(-4.0, 6.0, 50):
            alternative = qs.ThresholdClassifier(cut=float(cut))
            assert best <= qs.cost_weighted_error(train, alternative, costs) + 1e-12

    def test_random_costs_optimality(self, train):
        rng = np.random.default_rng(7)
        for _ in range(5):
            costs = qs.CostPair(*rng.uniform(0.05, 3.0, size=2))
            p = float(rng.uniform(0.05, 0.95))
            model = train.with_prevalence(p)
            clf = qs.bayes_classifier(model, costs)
            best = qs.cost_weighted_error(model, clf, costs)
            for cut in np.linspace(-5.0, 7.0, 80):
                alternative = qs.ThresholdClassifier(cut=float(cut))
                assert best <= qs.cost_weighted_error(model, alternative, costs) + 1e-12

    def test_degenerate_weights(self, train):
        assert qs.weighted_bayes_classifier(train, 0.0, 1.0) is ALWAYS_CLASS_1
        assert qs.weighted_bayes_classifier(train, 1.0, 0.0) is ALWAYS_CLASS_0
        with pytest.raises(ValueError):
            qs.weighted_bayes_classifier(train, 0.0, 0.0)

    def test_cost_pair_validation(self):
        with pytest.raises(ValueError):
            qs.CostPair(-1.0, 1.0)
        with pytest.raises(ValueError):
            qs.CostPair(0.0, 0.0)


class TestAdaptThreshold:
    def test_example_threshold(self, train):
        clf = qs.adapt_threshold(train, 0.1655)
        assert qs.posterior(train, clf.cut) == pytest.approx(0.8345, abs=1e-12)

    def test_no_shift_no_adaptation(self, train):
        adapted = qs.adapt_threshold(train, 0.5)
        baseline = qs.bayes_classifier(train)
        assert qs.posterior(train, adapted.cut) == pytest.approx(0.5, abs=1e-15)
        assert adapted.cut == pytest.approx(baseline.cut, abs=1e-12)

    def test_boundary_estimates_give_constant_classifiers(self, train):
        assert qs.adapt_threshold(train, 0.0) is ALWAYS_CLASS_1
        assert qs.adapt_threshold(train, -0.25) is ALWAYS_CLASS_1
        assert qs.adapt_threshold(train, 1.0) is ALWAYS_CLASS_0
        assert qs.adapt_threshold(train, 1.5) is ALWAYS_CLASS_0

    def test_always_class1_accuracy_is_class1_prevalence(self, train):
        # adapting to a zero estimate always predicts class 1
        clf = qs.adapt_threshold(train, 0.0)
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.01))
        assert qs.accuracy(evaluator, clf) == pytest.approx(0.99, abs=1e-12)

    def test_threshold_strictly_decreasing_in_estimate(self, train):
        estimates = np.linspace(0.01, 0.99, 40)
        thresholds = [qs.posterior(train, qs.adapt_threshold(train, float(q)).cut) for q in estimates]
        assert all(b < a for a, b in zip(thresholds, thresholds[1:]))

    def test_adaptation_with_true_prevalence_is_optimal(self, train):
        # under prior probability shift, adapting to the exact test prevalence
        # minimizes the test cost over all cut points, for equal and unequal
        # costs; adapting to the training prevalence is the Bayes classifier
        rng = np.random.default_rng(7)
        cost_pairs = [qs.CostPair(1.0, 1.0)]
        cost_pairs += [qs.CostPair(*rng.uniform(0.05, 3.0, size=2)) for _ in range(5)]
        for costs in cost_pairs:
            assert qs.adapt_threshold(train, train.prevalence0, costs) == qs.bayes_classifier(train, costs)
            for q in (0.05, 0.3, 0.7):
                test = train.with_prevalence(q)
                adapted = qs.adapt_threshold(train, q, costs)
                best = qs.cost_weighted_error(test, adapted, costs)
                for cut in np.linspace(-5.0, 7.0, 200):
                    alternative = qs.ThresholdClassifier(cut=float(cut))
                    assert best <= qs.cost_weighted_error(test, alternative, costs) + 1e-12


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


class TestCountClass0:
    @given(features_and_classifier())
    @example((_EDGES, qs.ThresholdClassifier(cut=1.0)))
    @example((_EDGES, qs.ThresholdClassifier(cut=1.0, class0_below=False)))
    @example((_EDGES, ALWAYS_CLASS_0))
    @example((_EDGES, ALWAYS_CLASS_1))
    def test_count_is_the_mean_of_predictions(self, case):
        x, clf = case
        count = clf.count_class0(np.sort(x))
        assert count == np.count_nonzero(clf.predict(x) == 0)
        assert count / len(x) == np.mean(clf.predict(x) == 0)
