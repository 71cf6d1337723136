import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import full_array_solver
from quantshift.errors import NumericalFailure
from quantshift.models import BinormalParams, DensityRatio, binormal_population
from quantshift.numerics import (
    _GL_NODES,
    _GL_WEIGHTS,
    _SOLVE_BLOCK,
    Bracket,
    _TWO_PI,
    RngStream,
    _box_muller,
    _log,
    _mix64,
    find_root_bracketed,
    gauss_legendre_nodes,
    integrate_interval,
    reciprocal_excess,
    solve_prior_equation,
)
from quantshift.sampling import stratified_sample


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
BLOCK = 2 * 4096  # values per block of 4,096 Box-Muller pairs
# log R = 1.0 x + 0.0 = x: the solver reads a test's log R as its points
IDENTITY = DensityRatio(1.0, 0.0)


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


def _libm(fn, values: np.ndarray) -> np.ndarray:
    """The oracle for the block path: one ``math`` call per element, exactly
    as the scalar path makes it."""
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=len(values))


def _assert_block_matches_scalar(make_stream, n: int) -> None:
    """Block draws from a fresh ``make_stream()`` equal n scalar draws from another."""
    for one, many in (("next_uniform", "uniforms"), ("next_gaussian", "gaussians")):
        scalar, block = make_stream(), make_stream()
        expected = np.array([getattr(scalar, one)() for _ in range(n)], dtype=float)
        got = getattr(block, many)(n)
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()
        assert block._state == scalar._state
        assert block._spare_gaussian == scalar._spare_gaussian


# Box-Muller angles are _TWO_PI * k * 2**-53 for k = 0 .. 2**53 - 1: the
# ends of that range and k at and next to each quarter turn
_QUARTER = 1 << 51
_EDGE_K = sorted(
    {0, 1, 2, (1 << 52), (1 << 53) - 1}
    | {j * _QUARTER + d for j in range(5) for d in range(-64, 65) if 0 <= j * _QUARTER + d < 1 << 53}
)


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
        points, weights = gauss_legendre_nodes(np.linspace(0.5 - 12 * 1.8, 0.5 + 12 * 1.8, 257))
        z = (points - 0.5) / 1.4
        weights *= np.exp(-0.5 * z * z) / (1.4 * math.sqrt(2 * math.pi))
        root = solve_prior_equation(points, DensityRatio(-2.0, 2.0), weights, tol=1e-10)
        assert root.value == pytest.approx(0.7239184, abs=5e-7)

    def test_no_sign_change_raises(self):
        with pytest.raises(NumericalFailure, match="have the same sign"):
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


class TestPriorEquationSolver:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-30.0, 30.0), st.floats(1e-3, 1.0)), min_size=2, max_size=40
        )
    )
    def test_agrees_with_bisection(self, pairs):
        log_r = np.array([lr for lr, _ in pairs])
        weights = np.array([w for _, w in pairs])
        r = np.exp(log_r)

        def likelihood_value(q):
            return float(np.dot(weights, (r - 1.0) / (1.0 + q * (r - 1.0))))

        lo, hi = 1e-12, 1.0 - 1e-12
        assume(likelihood_value(lo) > 0.0 > likelihood_value(hi))
        expected = find_root_bracketed(likelihood_value, Bracket(lo, hi), tol=1e-15)
        root = solve_prior_equation(log_r, IDENTITY, weights)
        assert abs(root.value - expected) <= 1e-12
        assert root.steps <= 60

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-30.0, 30.0), st.floats(1e-3, 1.0)), min_size=2, max_size=40
        )
    )
    def test_negated_log_ratio_swaps_value_and_complement(self, pairs):
        log_r = np.array([lr for lr, _ in pairs])
        weights = np.array([w for _, w in pairs])
        # at an exact tie the root is 1/2 and neither solve negates its log R
        assume(float(np.dot(np.tanh(0.5 * log_r), weights)) != 0.0)
        root = solve_prior_equation(log_r, IDENTITY, weights)
        # where R = 1 up to rounding neither moment exceeds 1, and both solves
        # report the low boundary
        assume(root.log_moment_r > 0.0 or root.log_moment_inv > 0.0)
        mirror = solve_prior_equation(-log_r, IDENTITY, weights)
        assert (mirror.value, mirror.complement) == (root.complement, root.value)
        assert (mirror.log_moment_r, mirror.log_moment_inv) == (root.log_moment_inv, root.log_moment_r)

    @pytest.mark.parametrize("weight", [1e-20, 1e-170, 1e-300])
    def test_roots_far_below_any_floor(self, weight):
        # log R = 1000 carries ``weight`` and log R = -1 the rest: the root is
        # weight / (1 - e^-1) (to 1e-300 relative), where (1 / (c + q))^2
        # overflows below q = 1e-154; RuntimeWarnings are errors in this suite
        log_r = np.array([1000.0, -1.0])
        weights = np.array([weight, 1.0])
        expected = weight / -math.expm1(-1.0)
        root = solve_prior_equation(log_r, IDENTITY, weights)
        assert root.value == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert root.complement == 1.0
        assert root.steps <= 30
        mirror = solve_prior_equation(-log_r, IDENTITY, weights)
        assert (mirror.value, mirror.complement) == (root.complement, root.value)

    def test_equal_weights_match_explicit_weights(self):
        log_r = np.linspace(-3.0, 2.0, 101)
        equal = solve_prior_equation(log_r, IDENTITY, 1.0 / len(log_r))
        explicit = solve_prior_equation(log_r, IDENTITY, np.full(len(log_r), 1.0 / len(log_r)))
        assert equal.value == pytest.approx(explicit.value, abs=1e-14)
        assert equal.log_moment_r == pytest.approx(explicit.log_moment_r, abs=1e-14)

    def test_boundary_low_when_mean_ratio_at_most_one(self):
        # E[R] = (e^-1 + e^-2 + e^0.5) / 3 = 0.72
        root = solve_prior_equation(np.array([-1.0, -2.0, 0.5]), IDENTITY, 1.0 / 3.0)
        assert root.value == 0.0 and root.steps == 0
        assert root.log_moment_r < 0.0 < root.log_moment_inv

    def test_boundary_high_when_mean_inverse_ratio_at_most_one(self):
        root = solve_prior_equation(np.array([1.0, 2.0, -0.5]), IDENTITY, 1.0 / 3.0)
        assert root.value == 1.0 and root.steps == 0
        assert root.log_moment_inv < 0.0 < root.log_moment_r

    def test_constant_unit_ratio_is_boundary_low(self):
        # E[R] = E[1/R] = 1: no interior root, E[R] is checked first
        root = solve_prior_equation(np.zeros(5), IDENTITY, np.full(5, 0.2))
        assert root.value == 0.0 and root.log_moment_r == pytest.approx(0.0, abs=1e-15)

    def test_zero_weights_at_the_peak_do_not_decide_the_moments(self):
        # a node weight that underflows to 0 where log R peaks must not make
        # the log-sum-exp discard the nodes that carry the mass
        root = solve_prior_equation(np.array([2000.0, 1.0, -1.0]), IDENTITY, np.array([0.0, 0.5, 0.5]))
        assert root.log_moment_r == pytest.approx(math.log(math.cosh(1.0)), rel=1e-14, abs=0.0)
        assert root.value == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("weights", [np.zeros(2), 0.0, -1.0, math.nan], ids=["zeros", "0", "-1", "nan"])
    def test_weights_summing_to_zero_raise(self, weights):
        # one number weighs every point alike, and must be positive as an array's sum must
        with pytest.raises(NumericalFailure, match="nodes carry no mass"):
            solve_prior_equation(np.array([1.0, -1.0]), IDENTITY, weights)

    def test_an_empty_measure_raises(self):
        for weights in (np.zeros(0), 0.5):
            with pytest.raises(NumericalFailure, match="nodes carry no mass"):
                solve_prior_equation(np.zeros(0), IDENTITY, weights)

    def test_terms_stay_finite_at_extreme_log_ratios(self):
        c = reciprocal_excess(np.array([1000.0, -1000.0, 0.0]))
        for q in (1e-12, 0.3, 1.0 - 1e-12):
            terms = 1.0 / (c + q)
            assert np.all(np.isfinite(terms))
            assert terms[0] == pytest.approx(1.0 / q, rel=1e-15, abs=0.0)
            assert terms[1] == pytest.approx(-1.0 / (1.0 - q), rel=1e-15, abs=0.0)
            assert terms[2] == 0.0
        root = solve_prior_equation(np.array([1000.0, -1000.0]), IDENTITY, np.array([0.3, 0.7]))
        assert root.log_moment_r == pytest.approx(1000.0 + math.log(0.3), rel=1e-15, abs=0.0)
        assert root.value == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("n", [101, _SOLVE_BLOCK + 1])
    def test_leaves_its_input_as_it_was(self, n):
        points = np.linspace(-3.0, 2.0, n)
        weights = np.linspace(1.0, 2.0, n)
        kept = points.copy(), weights.copy()
        for w in (weights, 1.0 / n):
            root = solve_prior_equation(points, IDENTITY, w)
            assert 0.0 < root.value < 1.0
        assert points.tobytes() == kept[0].tobytes() and weights.tobytes() == kept[1].tobytes()

    def test_terms_match_the_direct_form(self):
        log_r = np.linspace(-20.0, 20.0, 81)
        c = reciprocal_excess(log_r)
        r = np.exp(log_r)
        for q in (0.01, 0.5, 0.99):
            assert np.allclose(1.0 / (c + q), (r - 1.0) / (1.0 + q * (r - 1.0)), rtol=1e-13, atol=1e-300)

    def test_node_measure_integrates_a_normal_density(self):
        # unequal panels: equal ones on the window, joined by finer ones
        edges = np.union1d(np.linspace(-12.0, 12.0, 129), np.linspace(-0.3, 0.1, 129))
        points, weights = gauss_legendre_nodes(edges)
        assert points.shape == weights.shape == ((len(edges) - 1) * 15,)
        assert np.all(np.diff(points) > 0.0)
        assert float(np.dot(weights, std_normal_pdf(points))) == pytest.approx(1.0, abs=1e-14)
        assert float(np.sum(weights)) == pytest.approx(24.0, rel=1e-14, abs=0.0)


def _root_fields(root) -> tuple:
    return root.value, root.complement, root.log_moment_r, root.log_moment_inv


def _binormal_features(n: int, seed: int) -> np.ndarray:
    """n features of the default binormal model at class-0 prevalence 0.3."""
    train = binormal_population(BinormalParams(), 0.5)
    return stratified_sample(train.with_prevalence(0.3), n, RngStream(seed, 3)).features


# log R = 2 - 2x, the default binormal model's ratio
_BINORMAL_RATIO = DensityRatio(-2.0, 2.0)


def _one_block_cases():
    rng = np.random.default_rng(5)
    spread = np.linspace(-3.0, 2.0, 101)
    features = _binormal_features(_SOLVE_BLOCK, 11)
    return {
        "equal weights": (spread, IDENTITY, 1.0 / 101),
        "array weights": (spread, IDENTITY, rng.uniform(0.0, 1.0, 101)),
        "log R +-2000": (np.array([2000.0, -2000.0, 0.5, -0.3]), IDENTITY, 0.25),
        "log R +-2000, weighted": (np.array([2000.0, -2000.0, 0.5]), IDENTITY, np.array([1e-9, 0.3, 0.7])),
        "zero weights at the peak": (np.array([2000.0, 1.0, -1.0]), IDENTITY, np.array([0.0, 0.5, 0.5])),
        "boundary low": (np.array([-1.0, -2.0, 0.5]), IDENTITY, 1.0 / 3.0),
        "boundary high": (np.array([1.0, 2.0, -0.5]), IDENTITY, 1.0 / 3.0),
        "root far below a floor": (np.array([1000.0, -1.0]), IDENTITY, np.array([1e-300, 1.0])),
        "a full block, equal weights": (features, _BINORMAL_RATIO, 1.0 / _SOLVE_BLOCK),
        "a full block, array weights": (features, _BINORMAL_RATIO, rng.uniform(0.0, 1.0, _SOLVE_BLOCK)),
    }


class TestBlockedSolve:
    """The solver reads its points in blocks; the solve over whole arrays in
    ``tests/full_array_solver.py`` is its reference."""

    @pytest.mark.parametrize("case", list(_one_block_cases()))
    def test_one_block_equals_the_full_array_solve_bit_for_bit(self, case):
        points, ratio, weights = _one_block_cases()[case]
        root = solve_prior_equation(points, ratio, weights, 1e-10)
        expected = full_array_solver.solve_prior_equation(ratio.log(points), weights, 1e-10)
        assert np.array(_root_fields(root)).tobytes() == np.array(_root_fields(expected)).tobytes()
        assert root.steps == expected.steps

    def test_one_block_cases_reach_both_boundaries_and_the_upper_side(self):
        roots = [solve_prior_equation(*case) for case in _one_block_cases().values()]
        assert {root.value for root in roots} >= {0.0, 1.0}
        assert any(0.5 < root.value < 1.0 for root in roots)

    @pytest.mark.parametrize("n", [_SOLVE_BLOCK + 1, 2 * _SOLVE_BLOCK, 3 * _SOLVE_BLOCK + 7, 200_000])
    def test_blocks_agree_with_the_full_array_solve(self, n):
        # the sums run in another order, so they agree to a few ulp
        features = _binormal_features(n, n)
        rng = np.random.default_rng(n)
        for ratio in (_BINORMAL_RATIO, DensityRatio(2.0, -2.0)):
            for weights in (1.0 / n, rng.uniform(0.0, 1.0, n)):
                root = solve_prior_equation(features, ratio, weights, 1e-10)
                expected = full_array_solver.solve_prior_equation(ratio.log(features), weights, 1e-10)
                assert root.steps == expected.steps
                for got, want in zip(_root_fields(root), _root_fields(expected)):
                    assert abs(got - want) <= 8 * math.ulp(want)


class TestQuadrature:
    def test_rule_is_numpy_leggauss_bit_for_bit(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(15)
        assert _GL_NODES.tobytes() == nodes.tobytes()
        assert _GL_WEIGHTS.tobytes() == weights.tobytes()

    def test_normal_density_normalizes(self):
        assert integrate_interval(std_normal_pdf, -12.0, 12.0) == pytest.approx(1.0, abs=1e-12)

    def test_odd_integrand_vanishes(self):
        value = integrate_interval(lambda x: x * std_normal_pdf(x), -12.0, 12.0)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_exponential_tilt_moment(self):
        # E[exp(aX + b)] for X ~ N(theta, tau^2) is exp(a theta + b + a^2 tau^2 / 2);
        # with a = -2, b = 2, theta = 0.5, tau = 1.4 that is exp(4.92)
        def integrand(x):
            z = (np.asarray(x) - 0.5) / 1.4
            envelope = np.exp(-0.5 * z * z) / (1.4 * math.sqrt(2 * math.pi))
            return np.exp(-2.0 * np.asarray(x) + 2.0) * envelope

        expected = math.exp(4.92)
        value = integrate_interval(integrand, 0.5 - 12 * 1.4, 0.5 + 12 * 1.4)
        assert value == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("mean", [-5.0, -1.0, 0.0, 2.5, 5.0])
    @pytest.mark.parametrize("sd", [0.2, 1.0, 3.0])
    def test_normal_family_normalizes(self, mean, sd):
        def density(x):
            z = (np.asarray(x) - mean) / sd
            return np.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.pi))

        value = integrate_interval(density, mean - 12 * sd, mean + 12 * sd)
        assert abs(value - 1.0) < 1e-9

    def test_non_finite_integrand_raises(self):
        with pytest.raises(NumericalFailure, match="non-finite value at x = "):
            integrate_interval(lambda x: np.where(np.abs(x - 0.5) < 0.2, np.nan, 1.0), 0.0, 1.0)
        with pytest.raises(NumericalFailure, match="non-finite value at x = "):
            integrate_interval(lambda x: np.where(np.abs(x) < 0.1, np.inf, 0.0), -12.0, 12.0)

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

    def test_numpy_cos_sin_equal_libm_on_box_muller_angles(self):
        # the block path takes cos/sin from numpy and the scalar path from
        # math; the gaussians are bit-identical only where these agree
        uniforms = RngStream(2017, 53).uniforms(1_000_000)
        edges = np.array(_EDGE_K, dtype=float) * 2.0**-53
        angles = _TWO_PI * np.concatenate([edges, uniforms])
        assert angles.size > 1_000_000
        for name in ("cos", "sin"):
            got = getattr(np, name)(angles)
            want = _libm(getattr(math, name), angles)
            differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            assert differ.size == 0, f"np.{name} != math.{name} at {differ.size} angles, first {angles[differ[0]]!r}"

    def test_box_muller_equals_scalar_at_edge_angles(self):
        # a stream whose second word is k << 11 draws the angle of k
        u1, u2, expected = [], [], []
        for k in _EDGE_K:
            stream = _stream(0, state=(_unmix64(k << 11) - 2 * _GOLDEN) & _MASK64)
            first, second = stream.uniforms(2)
            assert first > 0.0 and second == k * 2.0**-53
            u1.append(first)
            u2.append(second)
            stream._advance(-2)
            expected.append([stream.next_gaussian(), stream.next_gaussian()])
        cos_part, sin_part = _box_muller(np.array(u1), np.array(u2))
        got = np.column_stack([cos_part, sin_part])
        assert got.tobytes() == np.array(expected).tobytes()

    def test_unmix_inverts_finalizer(self):
        for word in (0, 1, 1234, _GOLDEN, _MASK64):
            assert _mix64(_unmix64(word)) == word


@pytest.fixture(scope="module")
def log_inputs():
    """Inputs for the block log, with ``math.log`` of each: 2,000,000 uniforms
    of one stream, u1 = k * 2**-53 for the 200,000 smallest and largest k, and
    the powers of two in (0, 1] with their neighbours."""
    uniforms = RngStream(42, 7).uniforms(2_000_000)
    k = np.concatenate([np.arange(1, 200_001), np.arange((1 << 53) - 200_000, 1 << 53)])
    powers = np.ldexp(1.0, -np.arange(1075))
    near_powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, 2.0)])
    near_powers = near_powers[(near_powers > 0.0) & (near_powers <= 1.0)]
    inputs = {"stream": uniforms, "edges": k * 2.0**-53, "powers": near_powers}
    return {name: (u, _libm(math.log, u)) for name, u in inputs.items()}


class TestBlockLog:
    """The block gaussians rest on ``_log`` equalling ``math.log`` bit for bit."""

    @pytest.mark.parametrize("name", ["stream", "edges", "powers"])
    def test_equals_math_log(self, log_inputs, name):
        u, want = log_inputs[name]
        got = _log(u)
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, f"_log != math.log at {differ.size} inputs, first {u[differ[0]]!r}"

    @pytest.mark.parametrize("step", [2, 4])
    @pytest.mark.parametrize("name", ["stream", "edges", "powers"])
    def test_equals_math_log_on_a_strided_view(self, log_inputs, name, step):
        # the samplers pass u1 as every 2nd (gaussians) or every 4th
        # (accept-reject) word of a block, never a contiguous array
        u, want = log_inputs[name]
        block = np.zeros(step * u.size)
        block[::step] = u
        got = _log(block[::step])
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, f"_log != math.log at {differ.size} inputs, first {u[differ[0]]!r}"

    def test_equals_math_log_where_numpy_log_does_not(self, log_inputs):
        # 6,928 of these 2,000,000 uniforms with numpy 2.4.6; an empty set
        # would leave this test checking nothing
        u, want = log_inputs["stream"]
        wrong = np.log(u).view(np.uint64) != want.view(np.uint64)
        assert wrong.any()
        assert _log(u[wrong]).tobytes() == want[wrong].tobytes()

    def test_gaussians_make_no_math_log_call(self, monkeypatch):
        # a deterministic work counter: a block path that fell back to one
        # math.log call per element would make 1,000,000 of them here
        calls = []
        log = math.log

        def counting_log(x):
            calls.append(x)
            return log(x)

        monkeypatch.setattr(math, "log", counting_log)
        stream = RngStream(42, 7)
        stream.gaussians(2_000_000)
        assert stream.words_drawn == 2_000_000
        assert len(calls) == 0
