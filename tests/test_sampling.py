import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantshift as qs
from quantshift.models import NormalSampler, normal_pdf
from quantshift.numerics import _BLOCK_PAIRS
from quantshift.sampling import RejectionSampler
from conftest import deadline
from test_numerics import _GOLDEN, _MASK64, _stream, _unmix64


def ks_statistic(sample, cdf):
    xs = np.sort(np.asarray(sample))
    n = len(xs)
    cdf_values = np.array([cdf(float(x)) for x in xs])
    upper = np.max(np.arange(1, n + 1) / n - cdf_values)
    lower = np.max(cdf_values - np.arange(0, n) / n)
    return max(upper, lower)


def ks_critical_1pct(n):
    # Stephens' small-sample form of the 1% Kolmogorov-Smirnov critical value
    return 1.628 / (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n))


class TestStratifiedSample:
    def test_exact_class_counts(self, train):
        dataset = qs.stratified_sample(train.with_prevalence(0.3), 10_000, qs.RngStream(1, 0))
        assert dataset.n0 == 3000
        assert type(dataset.n0) is int and len(dataset) == 10_000

    @pytest.mark.parametrize("prevalence,expected", [(0.3, 0), (0.7, 1)])
    def test_single_instance(self, train, prevalence, expected):
        dataset = qs.stratified_sample(train.with_prevalence(prevalence), 1, qs.RngStream(1, 0))
        assert len(dataset) == 1
        assert dataset.n0 == expected

    def test_class_conditional_means(self, train):
        dataset = qs.stratified_sample(train, 10_000, qs.RngStream(17, 2))
        class0, class1 = dataset.features[: dataset.n0], dataset.features[dataset.n0 :]
        bound = 4.0 / math.sqrt(5000)
        assert abs(class0.mean() - 0.0) < bound
        assert abs(class1.mean() - 2.0) < bound

    def test_determinism(self, train):
        a = qs.stratified_sample(train, 500, qs.RngStream(42, 9))
        b = qs.stratified_sample(train, 500, qs.RngStream(42, 9))
        assert np.array_equal(a.features, b.features)
        assert a.n0 == b.n0

    def test_different_streams_differ(self, train):
        a = qs.stratified_sample(train, 500, qs.RngStream(42, 9))
        b = qs.stratified_sample(train, 500, qs.RngStream(42, 10))
        assert not np.array_equal(a.features, b.features)

    def test_argument_validation(self, train):
        with pytest.raises(ValueError):
            qs.stratified_sample(train, 0, qs.RngStream(1, 0))

    def test_size_budget_raises_before_allocating(self, train, traced_peak):
        # an exact draw is one proposal, so 1e13 draws exceed the 1e12 bound
        stream = qs.RngStream(1, 0)
        stream.next_uniform()

        # trace the call alone: pytest.raises(match=...) may compile its
        # pattern on first use, inside whatever region is traced
        raised = []

        def draw():
            try:
                qs.stratified_sample(train, 10**13, stream)
            except qs.NumericalFailure as exc:
                raised.append(exc)

        assert traced_peak(draw) < 4096
        assert len(raised) == 1
        assert re.match("10000000000000 draws expect at least 1e\\+13 proposals", str(raised[0]))
        assert stream.words_drawn == 1

    def test_distributional_fidelity(self, train):
        dataset = qs.stratified_sample(train, 10_000, qs.RngStream(4, 4))
        class0, class1 = dataset.features[: dataset.n0], dataset.features[dataset.n0 :]
        assert ks_statistic(class0, train.cdf0) < ks_critical_1pct(len(class0))
        assert ks_statistic(class1, train.cdf1) < ks_critical_1pct(len(class1))


class TestAcceptReject:
    def test_identical_target_accepts_everything(self):
        # target = candidate density at M = 1: accept(x) = f(x) / (M h(x)) = 1
        proposals = 0

        def candidate_sampler(stream):
            nonlocal proposals
            proposals += 1
            return stream.next_gaussian()

        draws = RejectionSampler(lambda x: 1.0, candidate_sampler, 1.0).draw(qs.RngStream(3, 0), 2000)
        assert len(draws) == 2000
        assert proposals == 2000

    def test_acceptance_rate_matches_envelope_constant(self, train, invariant_test):
        # class-0 conditional of the invariant scenario under its tight
        # envelope: acceptance rate must be ~ 1/M = 0.7239
        weight = 0.7239184
        count = int(100_000 * weight)
        stream = qs.RngStream(11, 0)
        invariant_test.sampler0.draw(stream, count)
        # a Box-Muller pair serves two proposals, each with its accept word
        proposals = stream.words_drawn // 2
        assert count / proposals == pytest.approx(weight, abs=0.02)

    def test_envelope_constants_are_tight(self, train, invariant_test):
        # h0 <= h*/q* and h1 <= h*/(1-q*) pointwise, with equality approached
        # in the respective ratio extremes
        h_star = lambda x: normal_pdf(x, 0.5, 1.4)
        weight = 0.7239184
        grid = np.linspace(-6.0, 8.0, 1000)
        ratio0 = invariant_test.f0(grid) / h_star(grid)
        ratio1 = invariant_test.f1(grid) / h_star(grid)
        assert np.max(ratio0) <= 1.0 / weight + 1e-6
        assert np.max(ratio1) <= 1.0 / (1.0 - weight) + 1e-6

    def test_derived_draws_match_quadrature_cdf(self, invariant_test):
        draws = invariant_test.sampler1.draw(qs.RngStream(21, 0), 100_000)
        assert ks_statistic(draws, invariant_test.cdf1) < 0.01

    @pytest.mark.parametrize("scenario", ["invariant", "sqrt"])
    def test_accept_is_the_envelope_posterior(self, invariant_test, sqrt_test, scenario):
        # accept(x) = f_c(x) / (M h*(x)), the envelope mixture's class posterior,
        # lies in [0, 1]: the condition an envelope test would check
        test = invariant_test if scenario == "invariant" else sqrt_test
        h_star = lambda x: normal_pdf(x, 0.5, 1.4)
        grid = np.linspace(*test.support, 1000)
        far = np.array([-1e3, 1e3])
        for sampler, density in ((test.sampler0, test.f0), (test.sampler1, test.f1)):
            accept = sampler.accept(grid)
            assert np.all((0.0 <= accept) & (accept <= 1.0))
            expected = density(grid) / (sampler.envelope_constant * h_star(grid))
            np.testing.assert_allclose(accept, expected, rtol=1e-14, atol=0.0)
            # far out e^z or e^-z overflows: the posterior is exactly 0 or 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tails = [sampler.accept(far), *(sampler.accept(float(x)) for x in far)]
            assert all(np.all((t == 0.0) | (t == 1.0)) for t in tails)
        class0 = (test.ratio.log_slope * far > 0).astype(float)
        assert test.sampler0.accept(far).tolist() == class0.tolist()
        assert test.sampler1.accept(far).tolist() == (1.0 - class0).tolist()

    @pytest.mark.parametrize(
        "kind,envelope_mean",
        [("invariant_ratio", mean) for mean in (0.5, 1.0, 2.5, -0.5, 2.95, -0.95)]
        + [("sqrt_ratio", mean) for mean in (0.5, 1.0)],
    )
    def test_accept_decides_as_the_envelope_test(self, train, kind, envelope_mean):
        # u <= accept(x) keeps exactly the proposals that the envelope test
        # u M h*(x) <= f_c(x) keeps, out to the envelope means of the edge cells
        test = qs.make_test_population(kind, train, envelope_mean=envelope_mean)
        stream = qs.RngStream(17, 0)
        x = envelope_mean + 1.4 * stream.gaussians(200_000)
        u = stream.uniforms(200_000)
        h_star = normal_pdf(x, envelope_mean, 1.4)
        for sampler, density in ((test.sampler0, test.f0), (test.sampler1, test.f1)):
            kept = u <= sampler.accept(x)
            assert 0 < np.count_nonzero(kept) < len(x)
            assert np.array_equal(kept, u * (sampler.envelope_constant * h_star) <= density(x))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            RejectionSampler(lambda x: x, lambda s: 0.0, 1.0).draw(qs.RngStream(1, 0), -1)

    @pytest.mark.parametrize("block", [True, False])
    def test_proposal_budget_raises_before_drawing(self, block):
        # 101 draws at M = 1e10 expect 1.01e12 proposals, over the 1e12 bound
        sampler = RejectionSampler(lambda x: 1e-10, NormalSampler(0.0, 1.0), 1e10)
        if not block:
            sampler = _scalar_twin(sampler)
        stream = qs.RngStream(1, 0)
        stream.next_uniform()
        with pytest.raises(qs.NumericalFailure, match="101 accept-reject draws expect 1.01e\\+12 proposals"):
            with deadline(5.0):
                sampler.draw(stream, 101)
        assert stream.words_drawn == 1

    def test_proposal_budget_admits_edge_cells(self, train):
        # the class-0 conditional at theta = 2.95 has M = 5.06e4, and a cell of
        # the default 10,000 draws expects up to 5e8 proposals: the bound lets
        # it draw.  Here every proposal is accepted.
        sampler = qs.make_test_population(qs.ShiftKind.INVARIANT_RATIO, train, envelope_mean=2.95).sampler0
        assert sampler.envelope_constant == pytest.approx(5.06e4, rel=1e-3)
        draws = replace(sampler, accept=lambda x: 1.0).draw(qs.RngStream(1, 0), 10_000)
        assert np.all(np.isfinite(draws))


def _scalar_twin(sampler: RejectionSampler) -> RejectionSampler:
    """The same sampler with a plain-callable candidate, which takes the scalar loop."""
    mean, sd = sampler.candidate_sampler.mean, sampler.candidate_sampler.sd
    return replace(sampler, candidate_sampler=lambda s: mean + sd * s.next_gaussian())


def _assert_block_matches_scalar(sampler: RejectionSampler, make_stream, n: int) -> None:
    block, scalar = make_stream(), make_stream()
    got = sampler.draw(block, n)
    expected = _scalar_twin(sampler).draw(scalar, n)
    assert got.tobytes() == expected.tobytes()
    assert block._state == scalar._state
    assert block._spare_gaussian == scalar._spare_gaussian


class TestRejectionSamplerBlocks:
    # a block holds 2 * _BLOCK_PAIRS proposals: about 5,900 class-0 and 2,300
    # class-1 draws of the invariant-ratio conditionals
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, _MASK64),
        stream_id=st.integers(0, _MASK64),
        n=st.one_of(
            st.integers(0, 9),
            st.sampled_from([2_000, 2_500, 5_800, 6_000]),
            st.integers(0, 2 * _BLOCK_PAIRS).map(lambda k: 2 * k + 1),
        ),
        pending_spare=st.booleans(),
        scenario=st.sampled_from(["invariant", "sqrt"]),
        label=st.sampled_from(["sampler0", "sampler1"]),
    )
    def test_blocks_equal_scalar_loop(
        self, invariant_test, sqrt_test, seed, stream_id, n, pending_spare, scenario, label
    ):
        sampler = getattr(invariant_test if scenario == "invariant" else sqrt_test, label)
        _assert_block_matches_scalar(sampler, lambda: _stream(seed, stream_id, pending_spare), n)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_blocks_without_acceptances(self, invariant_test, seed):
        # a block sized for the acceptance rate 1/M rarely accepts at a
        # thousandth of the acceptance probability
        sampler = invariant_test.sampler0
        faint = replace(sampler, accept=lambda x: 1e-3 * sampler.accept(x))
        _assert_block_matches_scalar(faint, lambda: _stream(seed), 5)

    @pytest.mark.parametrize("pending_spare", [False, True])
    def test_zero_u1_falls_back_to_scalar_loop(self, invariant_test, pending_spare):
        # a word below 2**11 is the uniform 0.0; put one at the u1 slot of
        # pair 100 (word 400)
        offset = 4 * 100
        state = (_unmix64(1234) - (offset + 1) * _GOLDEN) & _MASK64
        assert _stream(0, state=state).uniforms(offset + 1)[-1] == 0.0
        # a sampler that keeps drawing after a block without progress loops
        # forever; fail instead of hanging
        with deadline(5.0):
            _assert_block_matches_scalar(invariant_test.sampler0, lambda: _stream(0, 0, pending_spare, state), 500)


class TestNormalSampler:
    def test_block_equals_single_draws(self):
        sampler = NormalSampler(0.5, 1.4)
        single, block = qs.RngStream(6, 2), qs.RngStream(6, 2)
        expected = np.array([sampler(single) for _ in range(101)])
        assert sampler.draw(block, 101).tobytes() == expected.tobytes()
        assert sampler(block) == sampler(single)

    def test_block_fills_given_slice(self):
        sampler = NormalSampler(0.5, 1.4)
        expected = sampler.draw(qs.RngStream(6, 2), 101)
        buffer = np.zeros(103)
        sampler.draw(qs.RngStream(6, 2), 101, buffer[1:102])
        assert buffer[1:102].tobytes() == expected.tobytes()
        assert buffer[0] == buffer[102] == 0.0


class TestLabeledDataset:
    @pytest.mark.parametrize("n0", [-1, 4])
    def test_class0_count_outside_the_features_rejected(self, n0):
        with pytest.raises(ValueError):
            qs.LabeledDataset(np.zeros(3), n0)

    @pytest.mark.parametrize("n0", [0, 3])
    def test_one_class_may_be_empty(self, n0):
        assert qs.LabeledDataset(np.zeros(3), n0).n0 == n0
