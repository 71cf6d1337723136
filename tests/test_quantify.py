import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quantshift as qs
from quantshift.classify import ALWAYS_CLASS_0, ALWAYS_CLASS_1
from quantshift.models import panel_edges
from quantshift.quantify import EstimateStatus, LabelsHidden

from conftest import FEATURES, GRID, threshold_classifiers

PHI_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # standard normal CDF at 1


def pop_eval(model, q):
    return qs.PopulationEvaluator(model.with_prevalence(q))


def fixed_sample_evaluator(features, labels=None):
    features = np.asarray(features, dtype=float)
    labels = np.zeros(len(features), dtype=int) if labels is None else np.asarray(labels)
    return qs.SampleEvaluator(qs.LabeledDataset(features, labels, (0, 0)))


class TestClassifyAndCount:
    # Classify & Count is the first CDE-Iterate iterate: the class-0 rate of
    # the equal-cost Bayes classifier
    def test_prior_shift_small_prevalence(self, train):
        evaluator = pop_eval(train, 0.01)
        cc = qs.cde_iterate(train, evaluator).trace[0]
        assert cc == pytest.approx(0.1655, abs=5e-5)
        assert cc == evaluator.predict_positive_rate(qs.bayes_classifier(train))

    def test_symmetric_point(self, train):
        cc = qs.cde_iterate(train, pop_eval(train, 0.5)).trace[0]
        assert cc == pytest.approx(0.5, abs=1e-12)

    def test_invariant_ratio_small_prevalence(self, train, invariant_test):
        cc = qs.cde_iterate(train, pop_eval(invariant_test, 0.01)).trace[0]
        assert cc == pytest.approx(0.1641, abs=5e-5)


class TestTrainingRates:
    def test_min_error_rates(self, train):
        clf = qs.bayes_classifier(train)
        tpr, fpr = qs.training_rates(train, clf)
        assert tpr == pytest.approx(PHI_1, abs=1e-14)
        assert fpr == pytest.approx(1.0 - PHI_1, abs=1e-14)

    def test_constant_classifiers(self, train):
        assert qs.training_rates(train, ALWAYS_CLASS_0) == (1.0, 1.0)
        assert qs.training_rates(train, ALWAYS_CLASS_1) == (0.0, 0.0)


class TestAccEstimate:
    def test_fisher_consistent_under_prior_shift(self, train):
        clf = qs.bayes_classifier(train)
        tpr, fpr = qs.training_rates(train, clf)
        for q in GRID:
            est = qs.acc_estimate(pop_eval(train, q), clf, tpr, fpr)
            assert est.value == pytest.approx(q, abs=1e-9)
            assert est.status is EstimateStatus.CONVERGED

    def test_consistency_holds_for_any_threshold(self, train):
        # the adjustment is classifier-independent under prior probability shift
        for cut in (-1.0, 0.2, 1.0, 1.7, 3.0):
            clf = qs.ThresholdClassifier(cut=cut)
            tpr, fpr = qs.training_rates(train, clf)
            for q in GRID:
                est = qs.acc_estimate(pop_eval(train, q), clf, tpr, fpr)
                assert est.value == pytest.approx(q, abs=1e-9)

    def test_invariant_ratio_witness(self, train, invariant_test):
        clf = qs.bayes_classifier(train)
        tpr, fpr = qs.training_rates(train, clf)
        est = qs.acc_estimate(pop_eval(invariant_test, 0.5), clf, tpr, fpr)
        assert est.value == pytest.approx(0.4859, abs=5e-4)
        assert abs(est.value - 0.5) > 0.005  # genuine inconsistency, not noise

    def test_negative_raw_value_is_preserved(self, train):
        clf = qs.bayes_classifier(train)
        tpr, fpr = qs.training_rates(train, clf)
        evaluator = fixed_sample_evaluator([10.0, 11.0, 12.0])  # all far on the class-1 side
        est = qs.acc_estimate(evaluator, clf, tpr, fpr)
        assert est.value < 0.0
        assert est.status is EstimateStatus.RAW_OUT_OF_RANGE

    def test_degenerate_classifier_raises(self, train):
        with pytest.raises(qs.DegenerateClassifier):
            qs.acc_estimate(pop_eval(train, 0.5), ALWAYS_CLASS_0, 1.0, 1.0)


class TestEmEstimate:
    def test_fisher_consistent_under_prior_shift(self, train):
        for q in GRID:
            est = qs.em_estimate(pop_eval(train, q), train.ratio)
            assert est.value == pytest.approx(q, abs=1e-8)
            assert est.status is EstimateStatus.CONVERGED

    def test_fisher_consistent_under_invariant_ratio(self, train, invariant_test):
        for q in GRID:
            est = qs.em_estimate(pop_eval(invariant_test, q), train.ratio)
            assert est.value == pytest.approx(q, abs=1e-6)

    def test_population_em_exact_on_prior_and_invariant_cells(self, train, invariant_test):
        # the node measure of a derived population is the one its mixture
        # weight was solved on, so EM recovers q to rounding
        for model in (train, invariant_test):
            population = qs.PopulationEvaluator(model)
            for q in GRID:
                est = qs.em_estimate(population.at_prevalence(q), train.ratio)
                assert abs(est.value - q) <= 1e-12

    def test_sqrt_ratio_witness(self, train, sqrt_test):
        est = qs.em_estimate(pop_eval(sqrt_test, 0.01), train.ratio)
        assert est.value == pytest.approx(0.1307, abs=5e-4)
        est = qs.em_estimate(pop_eval(sqrt_test, 0.3), train.ratio)
        assert est.value == pytest.approx(0.3500, abs=5e-4)
        assert abs(est.value - 0.3) > 0.005

    def test_boundary_low(self, train):
        evaluator = fixed_sample_evaluator([8.0, 9.0, 10.0])  # E[R] << 1
        est = qs.em_estimate(evaluator, train.ratio)
        assert est.value == 0.0 and est.status is EstimateStatus.BOUNDARY_LOW

    def test_boundary_high(self, train):
        evaluator = fixed_sample_evaluator([-8.0, -9.0, -10.0])  # E[1/R] << 1
        est = qs.em_estimate(evaluator, train.ratio)
        assert est.value == 1.0 and est.status is EstimateStatus.BOUNDARY_HIGH


class TestCdeIterate:
    def test_trace_prefix_and_limit(self, train):
        est = qs.cde_iterate(train, pop_eval(train, 0.01))
        assert est.trace[0] == pytest.approx(0.1655, abs=5e-5)
        assert est.trace[1] == pytest.approx(0.0406, abs=5e-5)
        assert est.value == pytest.approx(0.0, abs=1e-4)
        assert est.status is EstimateStatus.CONVERGED

    def test_symmetric_fixed_point(self, train):
        est = qs.cde_iterate(train, pop_eval(train, 0.5))
        assert all(abs(q - 0.5) < 1e-12 for q in est.trace)

    def test_sqrt_ratio_limit(self, train, sqrt_test):
        est = qs.cde_iterate(train, pop_eval(sqrt_test, 0.5))
        assert est.value == pytest.approx(0.4859, abs=5e-4)

    def test_monotone_after_first_step(self, train, invariant_test, sqrt_test):
        for model in (train, invariant_test, sqrt_test):
            for q in GRID:
                trace = qs.cde_iterate(train, pop_eval(model, q)).trace
                diffs = np.diff(trace[1:])
                assert np.all(diffs >= 0.0) or np.all(diffs <= 0.0)

    def test_interior_limit_not_the_true_prevalence(self, train):
        est = qs.cde_iterate(train, pop_eval(train, 0.3))
        assert est.value == pytest.approx(0.2389, abs=5e-4)
        assert abs(est.value - 0.3) > 0.005

    def test_max_iter_status(self, train):
        est = qs.cde_iterate(train, pop_eval(train, 0.01), max_iter=2, tol=1e-12)
        assert len(est.trace) == 2
        assert est.status is EstimateStatus.MAX_ITERATIONS

    def test_argument_validation(self, train):
        with pytest.raises(ValueError):
            qs.cde_iterate(train, pop_eval(train, 0.5), max_iter=0)
        with pytest.raises(ValueError):
            qs.cde_iterate(train, pop_eval(train, 0.5), tol=0.0)


class TestFixedPointResidual:
    def test_symmetric_zero(self, train):
        assert qs.fixed_point_residual(train, pop_eval(train, 0.5), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_converged_limit_is_a_root(self, train):
        evaluator = pop_eval(train, 0.3)
        assert abs(qs.fixed_point_residual(train, evaluator, 0.2389)) < 1e-3
        limit = qs.cde_iterate(train, evaluator).value
        assert abs(qs.fixed_point_residual(train, evaluator, limit)) < 1e-6

    def test_sign_change_brackets_interior_limits(self, train, invariant_test, sqrt_test):
        # scan a q-grid; every interior limit must sit inside a sign-change cell
        qgrid = np.linspace(0.005, 0.995, 100)
        for model in (train, invariant_test, sqrt_test):
            for q in (0.3, 0.5, 0.7):
                evaluator = pop_eval(model, q)
                limit = qs.cde_iterate(train, evaluator).value
                if not 0.01 < limit < 0.99:
                    continue
                residuals = np.array([qs.fixed_point_residual(train, evaluator, float(v)) for v in qgrid])
                signs = np.sign(residuals)
                changes = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
                assert any(qgrid[i] - 1e-12 <= limit <= qgrid[i + 1] + 1e-12 for i in changes)

    def test_domain_validation(self, train):
        with pytest.raises(ValueError):
            qs.fixed_point_residual(train, pop_eval(train, 0.5), 0.0)


class _FeaturesOnly:
    """A dataset whose labels cannot be read."""

    def __init__(self, features):
        self.features = features

    @property
    def labels(self):
        raise AssertionError("labels were read")


def _old_rate(clf, x):
    """The rate of class-0 decisions as a mean over a pass of ``predict``."""
    return float(np.mean(clf.predict(x) == 0)) if len(x) else 0.0


@st.composite
def labeled_features_and_classifier(draw):
    """Features with shuffled labels, of which one class may be empty."""
    x = draw(FEATURES)
    labels = draw(st.lists(st.integers(0, 1), min_size=len(x), max_size=len(x)))
    return np.asarray(x, dtype=float), np.asarray(labels), draw(threshold_classifiers(x))


class TestSampleEvaluator:
    def test_quantifiers_never_read_labels(self, train):
        stream = qs.RngStream(5, 1)
        dataset = qs.stratified_sample(train.with_prevalence(0.3), 2000, stream)
        seen = qs.SampleEvaluator(dataset)
        blind = qs.SampleEvaluator(dataset, labels_hidden=True)
        unlabeled = qs.SampleEvaluator(_FeaturesOnly(dataset.features))
        clf = qs.bayes_classifier(train)
        tpr, fpr = qs.training_rates(train, clf)
        for evaluator in (blind, unlabeled):
            assert evaluator.predict_positive_rate(clf) == seen.predict_positive_rate(clf)
            assert qs.acc_estimate(evaluator, clf, tpr, fpr) == qs.acc_estimate(seen, clf, tpr, fpr)
            assert qs.em_estimate(evaluator, train.ratio) == qs.em_estimate(seen, train.ratio)
            assert qs.cde_iterate(train, evaluator) == qs.cde_iterate(train, seen)
        with pytest.raises(LabelsHidden):
            blind.rates_by_class(clf)
        with pytest.raises(LabelsHidden):
            _ = blind.prevalence0

    @given(labeled_features_and_classifier())
    @example((np.array([0.0, 0.5, 2.0]), np.array([1, 1, 1]), qs.ThresholdClassifier(1.0, 0.5)))
    def test_rates_equal_the_mean_of_predictions(self, case):
        x, labels, clf = case
        evaluator = qs.SampleEvaluator(qs.LabeledDataset(x, labels, (0, 0)))
        assert evaluator.predict_positive_rate(clf) == _old_rate(clf, x)
        expected = (_old_rate(clf, x[labels == 0]), _old_rate(clf, x[labels == 1]))
        assert evaluator.rates_by_class(clf) == expected
        assert evaluator.prevalence0 == float(np.mean(labels == 0))

    def test_positive_rate_counts_predictions(self, train):
        clf = qs.bayes_classifier(train)  # cut at 1
        evaluator = fixed_sample_evaluator([0.0, 0.5, 2.0, 3.0])
        assert evaluator.predict_positive_rate(clf) == 0.5

    def test_measure_is_features_with_equal_weights(self):
        evaluator = fixed_sample_evaluator([1.0, 2.0, 3.0, 4.0])
        points, weight = evaluator.measure()
        assert points.tolist() == [1.0, 2.0, 3.0, 4.0] and weight == 0.25

    def test_expect_is_a_plain_mean(self):
        evaluator = fixed_sample_evaluator([1.0, 2.0, 3.0])
        assert evaluator.expect(lambda x: x * x) == pytest.approx(14.0 / 3.0, rel=1e-15)


class TestPopulationEvaluator:
    def test_measure_is_the_marginal_on_fixed_nodes(self, train):
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.2))
        points, weights = evaluator.measure()
        edges = panel_edges(train.support, train.ratio)
        assert points.shape == weights.shape == ((len(edges) - 1) * 15,)
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-14)
        # class means 0 and 2
        assert evaluator.expect(lambda x: x) == pytest.approx(0.8 * 2.0, abs=1e-13)

    def test_at_prevalence_shares_the_nodes(self, invariant_test):
        base = qs.PopulationEvaluator(invariant_test)
        shifted = base.at_prevalence(0.2)
        assert shifted.prevalence0 == 0.2 and shifted.model.f0 is invariant_test.f0
        assert shifted.measure()[0] is base.measure()[0]
        direct = qs.PopulationEvaluator(invariant_test.with_prevalence(0.2)).measure()[1]
        assert np.array_equal(shifted.measure()[1], direct)

