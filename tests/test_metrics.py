import math

import numpy as np
import pytest

import quantshift as qs
from quantshift.classify import ALWAYS_CLASS_0, ALWAYS_CLASS_1

from conftest import GRID

PHI_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))


class TestRelativeError:
    def test_full_precision_example(self, train):
        # relative error of the plain counting estimate at true prevalence 0.01
        clf = qs.bayes_classifier(train)
        estimate = qs.PopulationEvaluator(train.with_prevalence(0.01)).predict_positive_rate(clf)
        assert qs.relative_error(0.01, estimate) == pytest.approx(15.5482, abs=5e-4)

    def test_exact_estimate(self):
        assert qs.relative_error(0.5, 0.5) == 0.0

    def test_cde_limit_example(self, train):
        limit = qs.cde_iterate(train, qs.PopulationEvaluator(train.with_prevalence(0.3))).value
        assert qs.relative_error(0.3, limit) == pytest.approx(0.2038, abs=5e-4)

    def test_defined_at_boundary_estimates(self):
        assert qs.relative_error(0.01, 0.0) == pytest.approx(1.0)
        assert qs.relative_error(0.99, 1.0) == pytest.approx(1.0)

    def test_max_form_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            q = float(rng.uniform(0.001, 0.999))
            est = float(rng.uniform(-0.5, 1.5))
            max_form = max(abs(est - q) / q, abs((1 - est) - (1 - q)) / (1 - q))
            assert abs(max_form - qs.relative_error(q, est)) < 1e-14

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            qs.relative_error(0.0, 0.5)
        with pytest.raises(ValueError):
            qs.relative_error(1.0, 0.5)


def class_measures(evaluator, clf):
    """(q, rate0, rate1) of ``clf`` on ``evaluator``, the arguments of the metrics."""
    return (evaluator.prevalence0, *evaluator.rates_by_class(clf))


class TestAccuracy:
    def test_min_error_classifier_at_half(self, train):
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.5))
        clf = qs.bayes_classifier(train)
        assert qs.accuracy(*class_measures(evaluator, clf)) == pytest.approx(PHI_1, abs=1e-12)
        assert PHI_1 == pytest.approx(0.8413, abs=5e-5)

    def test_always_class1(self, train):
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.01))
        assert qs.accuracy(*class_measures(evaluator, ALWAYS_CLASS_1)) == pytest.approx(0.99, abs=1e-12)

    def test_always_class0(self, train):
        for q in (0.1, 0.5, 0.98):
            evaluator = qs.PopulationEvaluator(train.with_prevalence(q))
            assert qs.accuracy(*class_measures(evaluator, ALWAYS_CLASS_0)) == pytest.approx(q, abs=1e-12)

    def test_stratified_decomposition(self, train):
        clf = qs.bayes_classifier(train)
        for q in (0.05, 0.4, 0.9):
            evaluator = qs.PopulationEvaluator(train.with_prevalence(q))
            r0, r1 = evaluator.rates_by_class(clf)
            expected = q * r0 + (1.0 - q) * (1.0 - r1)
            assert qs.accuracy(*class_measures(evaluator, clf)) == pytest.approx(expected, abs=1e-12)

    def test_sample_accuracy_is_the_match_rate(self, train):
        dataset = qs.stratified_sample(train.with_prevalence(0.3), 5000, qs.RngStream(8, 3))
        evaluator = qs.SampleEvaluator(dataset)
        clf = qs.bayes_classifier(train)
        labels = np.repeat([0, 1], [dataset.n0, len(dataset) - dataset.n0])
        direct = float(np.mean(clf.predict(dataset.features) == labels))
        assert qs.accuracy(*class_measures(evaluator, clf)) == pytest.approx(direct, abs=1e-12)

    def test_sample_accuracy_tracks_population(self, train):
        # binomial 5-sigma band at n = 10,000 is below 0.02 everywhere
        clf = qs.bayes_classifier(train)
        for j, q in enumerate(GRID):
            test = train.with_prevalence(q)
            pop = qs.accuracy(*class_measures(qs.PopulationEvaluator(test), clf))
            dataset = qs.stratified_sample(test, 10_000, qs.RngStream(2025, 100 + j))
            sample = qs.accuracy(*class_measures(qs.SampleEvaluator(dataset), clf))
            assert abs(sample - pop) < 0.02


class TestFMeasure:
    def test_undefined_when_class0_never_predicted(self, train):
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.01))
        assert math.isnan(qs.f_measure(*class_measures(evaluator, ALWAYS_CLASS_1)))

    def test_perfect_separation(self, train):
        features = np.concatenate([np.full(30, -50.0), np.full(70, 50.0)])
        evaluator = qs.SampleEvaluator(qs.LabeledDataset(features, 30))
        clf = qs.ThresholdClassifier(cut=0.0)
        assert qs.f_measure(*class_measures(evaluator, clf)) == pytest.approx(1.0, abs=0.0)

    def test_adapted_exact_estimate_at_small_prevalence(self, train):
        # EM is exact here, so the adapted classifier realizes the reference
        # F-measure 0.1697
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.01))
        adapted = qs.adapt_threshold(train, 0.01)
        assert qs.f_measure(*class_measures(evaluator, adapted)) == pytest.approx(0.1697, abs=5e-4)

    def test_negative_estimate_degenerates_to_nan(self, train):
        # a raw out-of-range ACC estimate adapts to the always-class-1 rule,
        # whose F-measure is undefined
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.01))
        adapted = qs.adapt_threshold(train, -0.0010)
        assert math.isnan(qs.f_measure(*class_measures(evaluator, adapted)))
        assert qs.accuracy(*class_measures(evaluator, adapted)) == pytest.approx(0.99, abs=1e-12)

    def test_zero_overlap_gives_zero(self):
        features = np.array([1.0, -1.0])  # class 0 first
        # the classifier puts the only true 0 on the wrong side
        evaluator = qs.SampleEvaluator(qs.LabeledDataset(features, 1))
        clf = qs.ThresholdClassifier(cut=0.0)
        assert qs.f_measure(*class_measures(evaluator, clf)) == 0.0
