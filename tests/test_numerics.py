import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantshift.numerics import (
    Bracket,
    NonFinite,
    NoSignChange,
    QuadratureSpec,
    RngStream,
    _mix64,
    find_root_bracketed,
    integrate_interval,
    integrate_real_line,
)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
BLOCK = 2 * 4096  # values per block of 4,096 Box-Muller pairs


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(z: int) -> int:
    """Inverse of the splitmix64 finalizer: the state whose word is ``z``."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    return _unxorshift(z, 30)


def _assert_block_matches_scalar(make_stream, n: int) -> None:
    """Block draws from a fresh ``make_stream()`` equal n scalar draws from another."""
    for one, many in (("next_uniform", "uniforms"), ("next_gaussian", "gaussians")):
        scalar, block = make_stream(), make_stream()
        expected = np.array([getattr(scalar, one)() for _ in range(n)], dtype=float)
        got = getattr(block, many)(n)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
        assert block._state == scalar._state
        assert block._spare_gaussian == scalar._spare_gaussian


def _stream(seed: int, stream_id: int = 0, pending_spare: bool = False, state: int | None = None):
    stream = RngStream(seed, stream_id)
    if state is not None:
        stream._state = state
    if pending_spare:
        stream._spare_gaussian = 0.25
    return stream


def std_normal_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / math.sqrt(2 * math.pi)


class TestRootFinding:
    def test_linear_root(self):
        assert find_root_bracketed(lambda x: x - 0.5, Bracket(0.0, 1.0), tol=1e-12) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_sqrt_two(self):
        root = find_root_bracketed(lambda x: x * x - 2.0, Bracket(1.0, 2.0), tol=1e-12)
        assert abs(root - math.sqrt(2.0)) < 1e-12

    def test_likelihood_equation_mixture_weight(self):
        # solving the mixture-weight equation for the default envelope and
        # ratio reproduces the reference weight 0.7239184
        def ratio(x):
            return np.exp(-2.0 * np.asarray(x) + 2.0)

        def envelope(x):
            z = (np.asarray(x) - 0.5) / 1.4
            return np.exp(-0.5 * z * z) / (1.4 * math.sqrt(2 * math.pi))

        def likelihood_value(q):
            return integrate_real_line(
                lambda x: (ratio(x) - 1.0) / (1.0 + q * (ratio(x) - 1.0)) * envelope(x),
                center=0.5,
                scale=1.8,
            )

        root = find_root_bracketed(likelihood_value, Bracket(1e-6, 1 - 1e-6), tol=1e-10)
        assert root == pytest.approx(0.7239184, abs=5e-7)

    def test_no_sign_change_raises(self):
        with pytest.raises(NoSignChange):
            find_root_bracketed(lambda x: x * x + 1.0, Bracket(-1.0, 1.0))

    def test_endpoint_root_returned(self):
        assert find_root_bracketed(lambda x: x, Bracket(0.0, 1.0)) == 0.0

    def test_monotone_cubics_property(self):
        # strictly increasing cubics with a known root: the residual at the
        # returned point must be ~0 at bracket-width resolution
        rng = np.random.default_rng(91)
        for _ in range(50):
            a, b = rng.uniform(0.1, 3.0, size=2)
            r = rng.uniform(-5.0, 5.0)

            def f(x):
                return a * (x - r) ** 3 + b * (x - r)

            lo, hi = r - rng.uniform(0.5, 4.0), r + rng.uniform(0.5, 4.0)
            root = find_root_bracketed(f, Bracket(lo, hi), tol=1e-12)
            assert abs(f(root)) < 1e-9
            assert abs(root - r) < 1e-11


class TestQuadrature:
    def test_normal_density_normalizes(self):
        assert integrate_real_line(std_normal_pdf) == pytest.approx(1.0, abs=1e-12)

    def test_odd_integrand_vanishes(self):
        value = integrate_real_line(lambda x: x * std_normal_pdf(x))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_exponential_tilt_moment(self):
        # E[exp(aX + b)] for X ~ N(theta, tau^2) is exp(a theta + b + a^2 tau^2 / 2);
        # with a = -2, b = 2, theta = 0.5, tau = 1.4 that is exp(4.92)
        def integrand(x):
            z = (np.asarray(x) - 0.5) / 1.4
            envelope = np.exp(-0.5 * z * z) / (1.4 * math.sqrt(2 * math.pi))
            return np.exp(-2.0 * np.asarray(x) + 2.0) * envelope

        expected = math.exp(4.92)
        value = integrate_real_line(integrand, center=0.5, scale=1.4)
        assert value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("mean", [-5.0, -1.0, 0.0, 2.5, 5.0])
    @pytest.mark.parametrize("sd", [0.2, 1.0, 3.0])
    def test_normal_family_normalizes(self, mean, sd):
        def density(x):
            z = (np.asarray(x) - mean) / sd
            return np.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.pi))

        value = integrate_real_line(density, center=mean, scale=sd)
        assert abs(value - 1.0) < 1e-9

    def test_non_finite_integrand_raises(self):
        with pytest.raises(NonFinite):
            integrate_interval(lambda x: np.where(np.abs(x - 0.5) < 0.2, np.nan, 1.0), 0.0, 1.0)
        with pytest.raises(NonFinite):
            integrate_real_line(lambda x: np.where(np.abs(x) < 0.1, np.inf, 0.0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(truncation_halfwidth=4.0)

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 1.0)


class TestRngStream:
    def test_streams_are_reproducible(self):
        a = RngStream(1234, 7)
        b = RngStream(1234, 7)
        assert [a.next_uniform() for _ in range(1000)] == [b.next_uniform() for _ in range(1000)]

    def test_distinct_streams_differ(self):
        a = RngStream(1234, 0)
        b = RngStream(1234, 1)
        assert [a.next_uniform() for _ in range(10_000)] != [b.next_uniform() for _ in range(10_000)]

    def test_distinct_seeds_differ(self):
        a = RngStream(1, 0)
        b = RngStream(2, 0)
        assert [a.next_uniform() for _ in range(100)] != [b.next_uniform() for _ in range(100)]

    def test_uniform_range_and_mean(self):
        stream = RngStream(99, 0)
        values = np.array([stream.next_uniform() for _ in range(100_000)])
        assert np.all(values >= 0.0) and np.all(values < 1.0)
        # 5 sigma of a U[0,1] mean at n = 1e5
        assert abs(values.mean() - 0.5) < 5 * math.sqrt(1 / 12 / 100_000)

    def test_gaussian_moments(self):
        stream = RngStream(2024, 3)
        n = 1_000_000
        values = np.array([stream.next_gaussian() for _ in range(n)])
        assert abs(values.mean()) < 4 / math.sqrt(n)
        assert abs(values.var() - 1.0) < 0.01

    @pytest.mark.parametrize("k", [0, 1, 7, 1000])
    def test_words_drawn_counts_words(self, k):
        scalar, block = RngStream(5, 3), RngStream(5, 3)
        for _ in range(k):
            scalar.next_uint64()
        block.uniforms(k)
        assert scalar.words_drawn == block.words_drawn == k

    def test_words_drawn_counts_box_muller_pairs(self):
        stream = RngStream(5, 3)
        stream.gaussians(2 * BLOCK + 3)
        assert stream.words_drawn == 2 * BLOCK + 4

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, 1 << 64)


class TestRngStreamBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, _MASK64),
        stream_id=st.integers(0, _MASK64),
        n=st.one_of(
            st.integers(0, 9),
            st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1]),
            st.integers(0, 2 * BLOCK + 3),
        ),
        pending_spare=st.booleans(),
    )
    def test_blocks_equal_scalar_loop(self, seed, stream_id, n, pending_spare):
        _assert_block_matches_scalar(lambda: _stream(seed, stream_id, pending_spare), n)

    @pytest.mark.parametrize("pending_spare", [False, True])
    def test_zero_u1_falls_back_to_scalar_loop(self, pending_spare):
        # a word below 2**11 is the uniform 0.0; put one at the u1 slot of
        # pair 100 of the second block
        offset = 2 * (BLOCK // 2 + 100)
        state = (_unmix64(1234) - (offset + 1) * _GOLDEN) & _MASK64
        assert _stream(0, state=state).uniforms(offset + 1)[-1] == 0.0
        _assert_block_matches_scalar(lambda: _stream(0, 0, pending_spare, state), 3 * BLOCK + 1)

    def test_unmix_inverts_finalizer(self):
        for word in (0, 1, 1234, _GOLDEN, _MASK64):
            assert _mix64(_unmix64(word)) == word
