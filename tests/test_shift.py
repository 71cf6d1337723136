import numpy as np
import pytest

import quantshift as qs
from quantshift import models, shift
from quantshift.models import normal_pdf
from quantshift.numerics import solve_prior_equation


def default_envelope(x):
    return normal_pdf(x, 0.5, 1.4)


@pytest.fixture(scope="module")
def envelope_window(invariant_test):
    """The default envelope's window, which the derived conditionals share."""
    return invariant_test.support


def _edge_population(theta: float) -> qs.PopulationModel:
    """Invariant ratio at sigma = 0.3 under a narrow envelope (tau = 0.5) at ``theta``."""
    train = qs.binormal_population(qs.BinormalParams(sigma=0.3), 0.5)
    return qs.make_test_population(qs.ShiftKind.INVARIANT_RATIO, train, envelope_mean=theta, envelope_sd=0.5)


class TestDecomposeMixture:
    def test_reference_weight_binormal_ratio(self, train, envelope_window):
        q_star, _, _, _, _, _ = qs.decompose_mixture(default_envelope, train.ratio, envelope_window)
        assert q_star == pytest.approx(0.7239184, abs=5e-7)

    def test_reference_weight_sqrt_ratio(self, train, envelope_window):
        q_star, _, _, _, _, _ = qs.decompose_mixture(default_envelope, train.ratio.sqrt(), envelope_window)
        assert q_star == pytest.approx(0.8152434, abs=5e-7)

    def test_explicit_mixture_recovers_weight(self, train):
        # decomposing 0.3 f0 + 0.7 f1 against R = f0/f1 must give back the pieces
        mixture = lambda x: 0.3 * train.f0(x) + 0.7 * train.f1(x)
        q_star, q_complement, h0, h1, _, _ = qs.decompose_mixture(mixture, train.ratio, train.support)
        assert q_star == pytest.approx(0.3, abs=1e-8)
        assert q_complement == 1.0 - q_star
        grid = np.linspace(-4.0, 6.0, 200)
        assert np.allclose(h0(grid), train.f0(grid), rtol=1e-8, atol=1e-12)
        assert np.allclose(h1(grid), train.f1(grid), rtol=1e-8, atol=1e-12)

    def test_mixture_identity(self, train, envelope_window):
        q_star, _, h0, h1, _, _ = qs.decompose_mixture(default_envelope, train.ratio, envelope_window)
        grid = np.linspace(-6.0, 8.0, 1000)
        recombined = q_star * h0(grid) + (1.0 - q_star) * h1(grid)
        assert np.max(np.abs(recombined - default_envelope(grid))) < 1e-10

    def test_ratio_identity(self, train, envelope_window):
        for ratio in (train.ratio, train.ratio.sqrt()):
            _, _, h0, h1, _, _ = qs.decompose_mixture(default_envelope, ratio, envelope_window)
            grid = np.linspace(-6.0, 8.0, 1000)
            d1 = h1(grid)
            mask = d1 > 1e-12
            rel = np.abs(h0(grid)[mask] / d1[mask] - ratio(grid)[mask]) / ratio(grid)[mask]
            assert np.max(rel) < 1e-8

    def test_components_normalize(self, train, envelope_window):
        _, _, h0, h1, _, _ = qs.decompose_mixture(default_envelope, train.ratio, envelope_window)
        for density in (h0, h1):
            total = qs.integrate_interval(density, *envelope_window)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_likelihood_value_strictly_decreasing(self, train, envelope_window):
        # justifies the bisection bracket
        lo, hi = envelope_window

        def likelihood_value(q):
            return qs.integrate_interval(
                lambda x: (train.ratio(x) - 1.0) / (1.0 + q * (train.ratio(x) - 1.0)) * default_envelope(x),
                lo, hi,
            )

        values = [likelihood_value(q) for q in np.linspace(0.01, 0.99, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kind", ["invariant_ratio", "sqrt_ratio"])
    def test_returns_the_nodes_it_solved_on(self, monkeypatch, train, kind):
        # the population's node measure is the decomposition's, array for array and by identity
        returned = []
        original = shift.decompose_mixture

        def recorded(*args):
            returned.append(original(*args))
            return returned[-1]

        monkeypatch.setattr(shift, "decompose_mixture", recorded)
        test = qs.make_test_population(kind, train)
        ((_, _, h0, h1, _, nodes),) = returned
        expected = models.node_masses(test.support, test.ratio, h0, h1)
        assert len(nodes) == 3 and all(np.array_equal(a, b) for a, b in zip(nodes, expected))
        assert test.nodes() is nodes and test.with_prevalence(0.2).nodes() is nodes

    def test_no_interior_solution_left(self, train):
        # envelope far on the class-1 side: E[1/R] <= 1 fails
        envelope = lambda x: normal_pdf(x, -5.0, 0.5)
        with pytest.raises(qs.NumericalFailure, match=r"^E\[1/R\] = "):
            qs.decompose_mixture(envelope, train.ratio, (-12.0, 2.0))

    def test_no_interior_solution_right(self, train):
        envelope = lambda x: normal_pdf(x, 7.0, 0.5)
        with pytest.raises(qs.NumericalFailure, match=r"^E\[R\] = "):
            qs.decompose_mixture(envelope, train.ratio, (0.0, 14.0))


class TestMixtureWeightOracle:
    """q* and 1 - q* of the decomposition against the mpmath oracle of
    ``tests/oracle.py`` (the ``oracle_weights`` fixture)."""

    @pytest.mark.parametrize("kind, expected", [("invariant_ratio", 0.72391835522181928), ("sqrt_ratio", 0.81524340305518786)])
    def test_default_weights(self, train, envelope_window, oracle_weights, kind, expected):
        oracle_q, oracle_complement = oracle_weights[kind]
        assert oracle_q == pytest.approx(expected, rel=1e-15, abs=0.0)
        # the stored reference weight is the oracle's q* at its seven decimals
        assert round(oracle_q, 7) == qs.reference.MIXTURE_WEIGHTS[kind]
        ratio = train.ratio.sqrt() if kind == "sqrt_ratio" else train.ratio
        q_star, q_complement, _, _, _, _ = qs.decompose_mixture(default_envelope, ratio, envelope_window)
        assert q_star == pytest.approx(oracle_q, rel=1e-15, abs=0.0)
        assert q_complement == pytest.approx(oracle_complement, rel=1e-15, abs=0.0)

    # the two envelopes are mirror images about x = 1, where log R = 0, so
    # theta = -1.5 swaps q* and 1 - q*
    @pytest.mark.parametrize("theta", [3.5, -1.5])
    def test_edge_weights(self, oracle_weights, theta):
        small, _ = oracle_weights["edge"]
        assert small == pytest.approx(3.3202115878251154e-16, rel=1e-13, abs=0.0)
        test = _edge_population(theta)
        envelope = lambda x: normal_pdf(x, theta, 0.5)
        q_star, q_complement, _, _, _, _ = qs.decompose_mixture(envelope, test.ratio, test.support)
        assert (q_star if theta > 1.0 else q_complement) == pytest.approx(small, rel=1e-13, abs=0.0)
        # the sampler's constant comes from the small weight itself, not 1 - q* rounded
        sampler = test.sampler0 if theta > 1.0 else test.sampler1
        assert 1.0 / sampler.envelope_constant == pytest.approx(small, rel=1e-13, abs=0.0)


class TestEnvelopeMoments:
    """The ratio moments the decomposition reads from its node measure,
    against their closed form: under the envelope N(m, s^2) with
    log R = a x + b, log E[R] = a m + b + a^2 s^2 / 2 and
    log E[1/R] = -a m - b + a^2 s^2 / 2."""

    @pytest.mark.parametrize("kind", ["invariant_ratio", "sqrt_ratio"])
    @pytest.mark.parametrize("mean, sd", [(0.5, 1.4), (0.0, 1.0), (1.0, 0.7)])
    def test_log_moments_match_the_closed_form(self, train, kind, mean, sd):
        ratio = train.ratio.sqrt() if kind == "sqrt_ratio" else train.ratio
        pad = models.TRUNCATION_HALFWIDTH * sd
        envelope = lambda x: normal_pdf(x, mean, sd)
        points, weights = models.node_masses((mean - pad, mean + pad), ratio, envelope)
        root = solve_prior_equation(points, ratio, weights)
        a, b = ratio.log_slope, ratio.log_offset
        half_variance = 0.5 * a * a * sd * sd
        assert root.log_moment_r == pytest.approx(a * mean + b + half_variance, rel=0.0, abs=1e-14)
        assert root.log_moment_inv == pytest.approx(-a * mean - b + half_variance, rel=0.0, abs=1e-14)


class TestMakeTestPopulation:
    def test_prior_shift_keeps_conditionals(self, train):
        assert qs.make_test_population(qs.ShiftKind.PRIOR_SHIFT, train) is train
        test = qs.make_test_population(qs.ShiftKind.PRIOR_SHIFT, train).with_prevalence(0.3)
        assert test.prevalence0 == 0.3
        assert test.f0 is train.f0 and test.f1 is train.f1
        assert test.cdf0 is train.cdf0 and test.cdf1 is train.cdf1

    def test_invariant_ratio_matches_training_ratio(self, train, invariant_test):
        grid = np.linspace(-6.0, 8.0, 500)
        ratio = invariant_test.f0(grid) / invariant_test.f1(grid)
        assert np.allclose(ratio, train.ratio(grid), rtol=1e-10)

    def test_sqrt_ratio_pointwise(self, train, sqrt_test):
        # ratio must equal exp((2x(mu-nu) + nu^2 - mu^2) / (4 sigma^2))
        grid = np.linspace(-6.0, 8.0, 500)
        expected = np.exp((2.0 * grid * (0.0 - 2.0) + 4.0 - 0.0) / 4.0)
        ratio = sqrt_test.f0(grid) / sqrt_test.f1(grid)
        assert np.allclose(ratio, expected, rtol=1e-10)

    def test_prevalence_dial_is_independent(self, invariant_test):
        # one conditional pair serves every grid prevalence
        shifted = invariant_test.with_prevalence(0.9)
        assert shifted.prevalence0 == 0.9
        assert shifted.f0 is invariant_test.f0
        assert shifted.cdf0 is invariant_test.cdf0

    def test_derived_model_has_samplers_and_cdfs(self, invariant_test):
        assert invariant_test.sampler0 is not None and invariant_test.sampler1 is not None
        assert invariant_test.cdf0(1e9) == 1.0
        assert invariant_test.cdf0(-1e9) == 0.0

    def test_scenario_validation(self, train):
        with pytest.raises(ValueError):
            qs.make_test_population(qs.ShiftKind.PRIOR_SHIFT, train).with_prevalence(1.0)
        with pytest.raises(ValueError):
            qs.make_test_population(qs.ShiftKind.PRIOR_SHIFT, train, envelope_sd=0.0)
        with pytest.raises(ValueError):
            qs.make_test_population("covariate_shift", train)

    @pytest.mark.parametrize("kind", list(qs.ShiftKind))
    def test_string_kind_builds_as_its_enum(self, train, kind):
        by_enum = qs.make_test_population(kind, train)
        by_string = qs.make_test_population(kind.value, train)
        assert by_string.ratio == by_enum.ratio
        for cdf in ("cdf0", "cdf1"):
            for x in (-2.0, 0.5, 1.0, 3.0):
                assert getattr(by_string, cdf)(x) == getattr(by_enum, cdf)(x)
        if kind is not qs.ShiftKind.PRIOR_SHIFT:
            assert by_string.sampler0.envelope_constant == by_enum.sampler0.envelope_constant
            assert by_string.cdf0.total_mass == by_enum.cdf0.total_mass
            assert by_string.cdf1.total_mass == by_enum.cdf1.total_mass

    # q* lies 3.3e-16 from 0 (theta = 3.5) or from 1 (theta = -1.5)
    @pytest.mark.parametrize("theta", [3.5, -1.5])
    def test_edge_envelope_builds(self, theta):
        test = _edge_population(theta)
        for cdf in (test.cdf0, test.cdf1):
            assert abs(cdf.total_mass - 1.0) <= 1e-9

    # on two window and two band panels both masses lie 1.4e-7 from 1
    @pytest.mark.parametrize("theta", [3.5, -1.5])
    def test_unresolved_measure_raises(self, theta, monkeypatch):
        monkeypatch.setattr(models, "_WINDOW_PANELS", 2)
        monkeypatch.setattr(models, "_BAND_PANELS", 2)
        with pytest.raises(qs.NumericalFailure, match="test conditionals have masses"):
            _edge_population(theta)

    # |mass - 1| stays below 5e-16 here
    @pytest.mark.parametrize("kind,sigma", [(qs.ShiftKind.INVARIANT_RATIO, 0.3), (qs.ShiftKind.SQRT_RATIO, 0.2)])
    def test_resolved_measure_builds(self, kind, sigma):
        train = qs.binormal_population(qs.BinormalParams(sigma=sigma), 0.5)
        test = qs.make_test_population(kind, train)
        for cdf in (test.cdf0, test.cdf1):
            assert abs(cdf.total_mass - 1.0) <= 1e-9


def _derived_run(kind: qs.ShiftKind, sigma: float) -> dict:
    """q*, the CDF masses and the population CDE-Iterate and ACC rows of a
    derived scenario at the default theta and tau."""
    train = qs.binormal_population(qs.BinormalParams(sigma=sigma), 0.5)
    test = qs.make_test_population(kind, train)
    q_star, _, _, _, _, _ = qs.decompose_mixture(default_envelope, test.ratio, test.support)
    config = qs.ExperimentConfig(scenario=kind, sigma=sigma, panels=("population",), outputs=("prevalence",))
    (table,) = qs.run_experiment(config)
    return {
        "q_star": q_star,
        "masses": (test.cdf0.total_mass, test.cdf1.total_mass),
        "CDEinf": table.row("CDEinf"),
        "ACC": table.row("ACC"),
    }


class TestPanelResolution:
    """The panels of ``models.panel_edges`` resolve the derived scenarios at
    every sigma: a build on 8x the panels moves nothing that matters.

    The EM row cannot serve as this check.  Population EM runs on the same
    nodes that produced q*, so it recovers every test prevalence to about
    1e-17 even where q* itself is wrong; only q*, the CDF masses and the
    rows that read the CDFs (CDE-Iterate, ACC) can show an unresolved
    measure.
    """

    @pytest.mark.parametrize("sigma", [0.02, 0.05, 0.1, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("kind", [qs.ShiftKind.INVARIANT_RATIO, qs.ShiftKind.SQRT_RATIO])
    def test_refined_panels_agree(self, kind, sigma, monkeypatch):
        base = _derived_run(kind, sigma)
        monkeypatch.setattr(models, "_WINDOW_PANELS", 8 * models._WINDOW_PANELS)
        monkeypatch.setattr(models, "_BAND_PANELS", 8 * models._BAND_PANELS)
        refined = _derived_run(kind, sigma)
        assert abs(base["q_star"] - refined["q_star"]) <= 1e-12
        for mass in base["masses"] + refined["masses"]:
            assert abs(mass - 1.0) <= 1e-12
        for row in ("CDEinf", "ACC"):
            assert np.max(np.abs(np.subtract(base[row], refined[row]))) <= 1e-9


class TestCovariateShiftCheck:
    def test_identical_models(self, train):
        assert qs.covariate_shift_identity_check(train, train) == 0.0

    def test_invariant_with_equal_prevalence_is_covariate_shift(self, train, invariant_test):
        gap = qs.covariate_shift_identity_check(train, invariant_test.with_prevalence(0.5))
        assert gap <= 1e-10

    def test_invariant_with_shifted_prevalence_is_not(self, train, invariant_test):
        gap = qs.covariate_shift_identity_check(train, invariant_test.with_prevalence(0.3))
        assert gap > 1e-3

    def test_prior_shift_breaks_covariate_shift(self, train):
        test = train.with_prevalence(0.3)
        assert qs.covariate_shift_identity_check(train, test) > 1e-3
