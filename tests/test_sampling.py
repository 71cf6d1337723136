import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantshift as qs
from quantshift.models import NormalSampler, normal_pdf
from quantshift.numerics import _BLOCK_PAIRS
from quantshift.sampling import RejectionSampler, rejection_draw
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
        assert int(np.sum(dataset.labels == 0)) == 3000
        assert dataset.labels.dtype == np.int8 and np.array_equal(dataset.labels[2999:3001], [0, 1])

    @pytest.mark.parametrize("prevalence,expected", [(0.3, 0), (0.7, 1)])
    def test_single_instance(self, train, prevalence, expected):
        dataset = qs.stratified_sample(train.with_prevalence(prevalence), 1, qs.RngStream(1, 0))
        assert len(dataset) == 1
        assert int(dataset.labels[0]) == (0 if expected == 1 else 1)

    def test_class_conditional_means(self, train):
        dataset = qs.stratified_sample(train, 10_000, qs.RngStream(17, 2))
        class0 = dataset.features[dataset.labels == 0]
        class1 = dataset.features[dataset.labels == 1]
        bound = 4.0 / math.sqrt(5000)
        assert abs(class0.mean() - 0.0) < bound
        assert abs(class1.mean() - 2.0) < bound

    def test_determinism(self, train):
        a = qs.stratified_sample(train, 500, qs.RngStream(42, 9))
        b = qs.stratified_sample(train, 500, qs.RngStream(42, 9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_streams_differ(self, train):
        a = qs.stratified_sample(train, 500, qs.RngStream(42, 9))
        b = qs.stratified_sample(train, 500, qs.RngStream(42, 10))
        assert not np.array_equal(a.features, b.features)

    def test_seed_record(self, train):
        dataset = qs.stratified_sample(train, 10, qs.RngStream(42, 9))
        assert dataset.seed_record == (42, 9)

    def test_argument_validation(self, train):
        with pytest.raises(ValueError):
            qs.stratified_sample(train, 0, qs.RngStream(1, 0))

    def test_distributional_fidelity(self, train):
        dataset = qs.stratified_sample(train, 10_000, qs.RngStream(4, 4))
        class0 = dataset.features[dataset.labels == 0]
        class1 = dataset.features[dataset.labels == 1]
        assert ks_statistic(class0, train.cdf0) < ks_critical_1pct(len(class0))
        assert ks_statistic(class1, train.cdf1) < ks_critical_1pct(len(class1))


class TestAcceptReject:
    def test_identical_target_accepts_everything(self):
        target = lambda x: normal_pdf(x, 0.0, 1.0)
        proposals = 0

        def candidate_sampler(stream):
            nonlocal proposals
            proposals += 1
            return stream.next_gaussian()

        draws = RejectionSampler(target, candidate_sampler, target, 1.0).draw(qs.RngStream(3, 0), 2000)
        assert len(draws) == 2000
        assert proposals == 2000

    def test_acceptance_rate_matches_envelope_constant(self, train, invariant_test):
        # class-0 conditional of the invariant scenario under its tight
        # envelope: acceptance rate must be ~ 1/M = 0.7239
        h_star = lambda x: normal_pdf(x, 0.5, 1.4)
        weight = 0.7239184
        count = int(100_000 * weight)
        stream = qs.RngStream(11, 0)
        RejectionSampler(invariant_test.f0, NormalSampler(0.5, 1.4), h_star, 1.0 / weight).draw(stream, count)
        # a Box-Muller pair serves two proposals, each with its accept word
        proposals = stream.words_drawn // 2
        assert count / proposals == pytest.approx(weight, abs=0.02)

    def test_envelope_violation_detected(self):
        target = lambda x: normal_pdf(x, 0.0, 1.0)
        candidate = lambda x: normal_pdf(x, 0.0, 2.0)
        with pytest.raises(qs.EnvelopeViolation):
            # M = 1 is far too small: target/candidate peaks at 2
            RejectionSampler(target, lambda s: 2.0 * s.next_gaussian(), candidate, 1.0).draw(qs.RngStream(5, 0), 100)

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
        draws = RejectionSampler(
            invariant_test.f1,
            NormalSampler(0.5, 1.4),
            lambda x: normal_pdf(x, 0.5, 1.4),
            1.0 / (1.0 - 0.7239184),
        ).draw(qs.RngStream(21, 0), 100_000)
        assert ks_statistic(draws, invariant_test.cdf1) < 0.01

    def test_count_validation(self):
        with pytest.raises(ValueError):
            RejectionSampler(lambda x: x, lambda s: 0.0, lambda x: x, 1.0).draw(qs.RngStream(1, 0), -1)


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


def _draw_error(sampler: RejectionSampler, stream, n: int) -> str:
    with pytest.raises(qs.EnvelopeViolation) as info:
        sampler.draw(stream, n)
    return str(info.value)


# Outside x > 2.5 the target equals the candidate density, so every proposal
# there is accepted; inside, M = 1 is too small.
_TAIL_VIOLATION = RejectionSampler(
    lambda x: normal_pdf(x, 0.0, 1.0) * np.where(np.asarray(x) > 2.5, 2.0, 1.0),
    NormalSampler(0.0, 1.0),
    lambda x: normal_pdf(x, 0.0, 1.0),
    1.0,
)


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
        # a thousandth of the target still lies under the envelope, but a
        # block sized for the acceptance rate 1/M then rarely accepts
        sampler = invariant_test.sampler0
        faint = replace(sampler, target=lambda x: 1e-3 * sampler.target(x))
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

    def test_envelope_violation_on_the_same_draw(self):
        sampler = RejectionSampler(
            lambda x: normal_pdf(x, 0.0, 1.0), NormalSampler(0.0, 2.0), lambda x: normal_pdf(x, 0.0, 2.0), 1.0
        )
        for candidate in (sampler, _TAIL_VIOLATION):
            block, scalar = _stream(5), _stream(5)
            assert _draw_error(candidate, block, 1000) == _draw_error(_scalar_twin(candidate), scalar, 1000)
            assert block._state == scalar._state
            assert block._spare_gaussian == scalar._spare_gaussian

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_no_violation_after_the_last_proposal_used(self, seed):
        # count the draws that precede the first violating proposal
        stream, draws = _stream(seed), 0
        with pytest.raises(qs.EnvelopeViolation):
            while True:
                rejection_draw(*vars(_TAIL_VIOLATION).values(), stream)
                draws += 1
        assert draws > 0
        # every proposal before the violation is accepted, so the first block
        # (at least 1.1 * draws + 32 proposals) contains the violating one
        _assert_block_matches_scalar(_TAIL_VIOLATION, lambda: _stream(seed), draws)


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
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qs.LabeledDataset(np.zeros(3), np.zeros(2, dtype=int), (0, 0))
