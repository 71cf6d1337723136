import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import quantshift as qs
from quantshift.classify import ALWAYS_CLASS_0, ALWAYS_CLASS_1
from quantshift.models import panel_edges
from quantshift.quantify import EstimateStatus

from conftest import FEATURES, GRID, threshold_classifiers

PHI_1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))  # standard normal CDF at 1


def pop_eval(model, q):
    return qs.PopulationEvaluator(model.with_prevalence(q))


def fixed_sample_evaluator(features):
    """A sample of the given features, all of class 0."""
    features = np.asarray(features, dtype=float)
    return qs.SampleEvaluator(qs.LabeledDataset(features, len(features)))


class TestClassifyAndCount:
    # Classify & Count is the first CDE-Iterate iterate: the class-0 rate of
    # the training Bayes classifier
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
        with pytest.raises(qs.NumericalFailure, match="coincide"):
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
            for q in GRID:
                est = qs.em_estimate(qs.PopulationEvaluator(model.with_prevalence(q)), train.ratio)
                assert abs(est.value - q) <= 1e-12

    def test_sqrt_ratio_witness(self, train, sqrt_test):
        est = qs.em_estimate(pop_eval(sqrt_test, 0.01), train.ratio)
        assert est.value == pytest.approx(0.1307, abs=5e-4)
        est = qs.em_estimate(pop_eval(sqrt_test, 0.3), train.ratio)
        assert est.value == pytest.approx(0.3500, abs=5e-4)
        assert abs(est.value - 0.3) > 0.005

    def test_sqrt_ratio_override_matches_the_oracle(self, train, sqrt_test, oracle_weights):
        # the q = 0.01 cell of reference.GROUND_TRUTH_OVERRIDES, from the
        # mpmath oracle of tests/oracle.py on the oracle's own q*
        import oracle

        q_star, _ = oracle_weights["sqrt_ratio"]
        ratio = train.ratio
        expected = oracle.em_root(0.5, 1.4, ratio.log_slope, ratio.log_offset, q_star, 0.01, -1.895)
        est = qs.em_estimate(pop_eval(sqrt_test, 0.01), ratio)
        assert abs(est.value - expected) <= 1e-9
        override = qs.reference.GROUND_TRUTH_OVERRIDES[("sqrt_ratio", "EM", 0)]
        for value in (expected, est.value):
            assert round((value - 0.01) / 0.01, 4) == override

    def test_sample_solve_holds_two_block_buffers(self, train, traced_peak):
        # log R (then c) and the terms, each in a buffer of one block of
        # 16,384 floats: 0.16 x 8n at n = 200,000
        n = 200_000
        evaluator = qs.SampleEvaluator(qs.stratified_sample(train.with_prevalence(0.3), n, qs.RngStream(7, 1)))
        assert traced_peak(lambda: qs.em_estimate(evaluator, train.ratio)) <= 0.25 * 8 * n

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


# Prior shift over the binormal parameter space: class means mu and
# nu = mu + gap * sigma, at every training prevalence p.
_FISHER_GRID = [
    (mu, mu + gap * sigma, sigma, p)
    for mu in (-2.0, 0.0, 1.5)
    for gap in (0.5, 2.0, 4.0)
    for sigma in (0.5, 1.0, 2.5)
    for p in (0.1, 0.5, 0.9)
]


class TestFisherConsistencyUnderPriorShift:
    """The paper's claim at population level: EM and ACC recover every test
    prevalence, and the true prevalence is no CDE-Iterate fixed point except
    at 1/2, where the equal-weight cut (mu + nu)/2 splits f0/2 + f1/2 in half."""

    @pytest.mark.parametrize("mu, nu, sigma, p", _FISHER_GRID)
    def test_em_acc_and_cde_residual(self, mu, nu, sigma, p):
        train = qs.binormal_population(qs.BinormalParams(mu, nu, sigma), p)
        clf = qs.bayes_classifier(train)
        tpr, fpr = qs.training_rates(train, clf)
        for q in GRID:
            evaluator = pop_eval(train, q)
            assert abs(qs.em_estimate(evaluator, train.ratio).value - q) <= 1e-12
            # the adjustment divides the rounding of the rates by tpr - fpr,
            # which is 1.5e-5 at the narrowest gap with p = 0.1 or 0.9
            assert abs(qs.acc_estimate(evaluator, clf, tpr, fpr).value - q) <= 1e-15 / (tpr - fpr)
            # CDE-Iterate starts from Classify & Count with the training Bayes rule
            assert qs.cde_iterate(train, evaluator, max_iter=1).trace[0] == evaluator.predict_positive_rate(clf)
            residual = qs.fixed_point_residual(train, evaluator, q)
            if q == 0.5:
                assert residual == 0.0
            else:
                assert abs(residual) >= 1e-4


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
    """A dataset whose class-0 count cannot be read."""

    def __init__(self, features):
        self.features = features

    @property
    def n0(self):
        raise AssertionError("the class-0 count was read")


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
        unlabeled = qs.SampleEvaluator(_FeaturesOnly(dataset.features))
        clf = qs.bayes_classifier(train)
        tpr, fpr = qs.training_rates(train, clf)
        assert unlabeled.predict_positive_rate(clf) == seen.predict_positive_rate(clf)
        assert qs.acc_estimate(unlabeled, clf, tpr, fpr) == qs.acc_estimate(seen, clf, tpr, fpr)
        assert qs.em_estimate(unlabeled, train.ratio) == qs.em_estimate(seen, train.ratio)
        assert qs.cde_iterate(train, unlabeled) == qs.cde_iterate(train, seen)

    @given(labeled_features_and_classifier())
    @example((np.array([0.0, 0.5, 2.0]), np.array([1, 1, 1]), qs.ThresholdClassifier(1.0, 0.5)))
    def test_rates_equal_the_mean_of_predictions(self, case):
        x, labels, clf = case
        # the same features in class order, class 0 first
        order = np.argsort(labels, kind="stable")
        evaluator = qs.SampleEvaluator(qs.LabeledDataset(x[order], int(np.count_nonzero(labels == 0))))
        assert evaluator.predict_positive_rate(clf) == _old_rate(clf, x)
        expected = (_old_rate(clf, x[labels == 0]), _old_rate(clf, x[labels == 1]))
        assert evaluator.rates_by_class(clf) == expected
        assert evaluator.prevalence0 == float(np.mean(labels == 0))

    def test_holds_no_state(self, train):
        dataset = qs.stratified_sample(train.with_prevalence(0.3), 100, qs.RngStream(5, 1))
        evaluator = qs.SampleEvaluator(dataset)
        clf = qs.bayes_classifier(train)
        evaluator.predict_positive_rate(clf)
        evaluator.rates_by_class(clf)
        assert evaluator.prevalence0 == 0.3
        assert set(vars(evaluator)) == {"dataset", "_features"}

    @pytest.mark.parametrize("query", ["predict_positive_rate", "rates_by_class"])
    def test_a_rate_holds_no_sample_sized_float_array(self, train, traced_peak, query):
        # a class-0 mask (1 byte per feature); a class rate counts it on the
        # two class slices
        n = 200_000
        dataset = qs.stratified_sample(train.with_prevalence(0.3), n, qs.RngStream(5, 1))
        rate = getattr(qs.SampleEvaluator(dataset), query)
        assert traced_peak(lambda: rate(qs.bayes_classifier(train))) <= 1.05 * n

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
        assert evaluator.expect(lambda x: x * x) == pytest.approx(14.0 / 3.0, rel=1e-15, abs=0.0)


class TestPopulationEvaluator:
    def test_measure_is_the_marginal_on_fixed_nodes(self, train):
        evaluator = qs.PopulationEvaluator(train.with_prevalence(0.2))
        points, weights = evaluator.measure()
        edges = panel_edges(train.support, train.ratio)
        assert points.shape == weights.shape == ((len(edges) - 1) * 15,)
        assert float(np.sum(weights)) == pytest.approx(1.0, abs=1e-14)
        # class means 0 and 2
        assert evaluator.expect(lambda x: x) == pytest.approx(0.8 * 2.0, abs=1e-13)

    def test_with_prevalence_copies_share_one_node_build(self, node_builds, train):
        # a derived population's CDF tables and every evaluator share the
        # nodes its decomposition solved q* on
        for make in (lambda: qs.binormal_population(qs.BinormalParams(), 0.5), lambda: qs.make_test_population(qs.ShiftKind.INVARIANT_RATIO, train)):
            node_builds.clear()
            base = make()
            shifted = [base.with_prevalence(q) for q in (0.2, 0.7)]
            assert shifted[0].prevalence0 == 0.2 and shifted[0].nodes is base.nodes
            measures = [qs.PopulationEvaluator(model).measure() for model in (base, *shifted)]
            assert len(node_builds) == 1
            assert all(points is measures[0][0] for points, _ in measures)
            w0, w1 = base.nodes()[1:]
            assert np.array_equal(measures[1][1], 0.2 * w0 + 0.8 * w1)

