import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quantshift as qs
from quantshift import models
from quantshift.models import GridCdf, normal_cdf, normal_pdf, panel_edges
from quantshift.numerics import gauss_legendre_nodes


@pytest.fixture(scope="module")
def params():
    return qs.BinormalParams(mu=0.0, nu=2.0, sigma=1.0)


def logistic_posterior(params, prevalence0, x):
    """Class-0 posterior of the binormal model in closed logistic form.

    Equal variances make the posterior 1 / (1 + exp(a*x + b)) with
    a = (nu - mu) / sigma^2 and b = (mu^2 - nu^2) / (2 sigma^2) + log((1-p)/p).
    """
    s2 = params.sigma**2
    a = (params.nu - params.mu) / s2
    b = (params.mu**2 - params.nu**2) / (2.0 * s2) + math.log((1.0 - prevalence0) / prevalence0)
    return 1.0 / (1.0 + np.exp(a * np.asarray(x, dtype=float) + b))


class TestBinormalPosterior:
    def test_midpoint_symmetry(self, train):
        assert qs.posterior(train, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_logistic_value_at_zero(self, train):
        # logistic form with a = 2, b = -2 gives 1 / (1 + e^-2) at x = 0
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert qs.posterior(train, 0.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.880797, abs=5e-7)

    def test_density_duality_on_grid(self, params, train):
        # posterior must equal p f0 / (p f0 + (1-p) f1) pointwise
        grid = np.linspace(-6.0, 8.0, 1000)
        direct = qs.posterior(train, grid)
        logistic = logistic_posterior(params, 0.5, grid)
        assert np.max(np.abs(direct - logistic)) < 1e-12

    def test_unequal_prevalence_duality(self, params):
        pop = qs.binormal_population(params, 0.2)
        grid = np.linspace(-4.0, 6.0, 200)
        assert np.max(np.abs(qs.posterior(pop, grid) - logistic_posterior(params, 0.2, grid))) < 1e-12

    def test_prevalence_validation(self, params):
        # the posterior takes its prevalence from a population, which rejects 0
        with pytest.raises(ValueError):
            qs.binormal_population(params, 0.0)


class TestDensityRatio:
    def test_unit_value_at_midpoint(self, params):
        ratio = qs.binormal_density_ratio(params)
        assert ratio(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_value_at_zero(self, params):
        # exponent -2*0 + 2, so e^2
        ratio = qs.binormal_density_ratio(params)
        assert ratio(0.0) == pytest.approx(math.exp(2.0), rel=1e-15)

    def test_invert_unit_threshold(self, params):
        ratio = qs.binormal_density_ratio(params)
        assert ratio.invert_threshold(1.0) == pytest.approx(1.0, abs=1e-15)
        assert ratio.decreasing

    @pytest.mark.parametrize("c", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_invert_eval_roundtrip(self, params, c):
        ratio = qs.binormal_density_ratio(params)
        assert ratio(ratio.invert_threshold(c)) == pytest.approx(c, rel=1e-12, abs=0.0)

    def test_invalid_threshold(self, params):
        ratio = qs.binormal_density_ratio(params)
        with pytest.raises(ValueError):
            ratio.invert_threshold(0.0)
        with pytest.raises(ValueError):
            ratio.invert_threshold(-2.0)

    def test_sqrt_halves_the_exponent(self, params):
        ratio = qs.binormal_density_ratio(params)
        grid = np.linspace(-5.0, 7.0, 101)
        assert np.allclose(ratio.sqrt()(grid) ** 2, ratio(grid), rtol=1e-12)

    def test_posterior_ratio_duality(self, params, train):
        # f0/f1 = post/(1-post) * (1-p)/p wherever the posterior is not saturated
        grid = np.linspace(-3.0, 5.0, 1000)
        post = qs.posterior(train, grid)
        implied = post / (1.0 - post) * (1.0 - 0.5) / 0.5
        assert np.allclose(implied, train.ratio(grid), rtol=1e-12)


def marginal(pop, x):
    return pop.prevalence0 * pop.f0(x) + (1.0 - pop.prevalence0) * pop.f1(x)


class TestMarginalDensity:
    def test_binormal_value(self, train):
        # 0.5 phi(1) + 0.5 phi(-1) = phi(1)
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert marginal(train, 1.0) == pytest.approx(phi1, rel=1e-14, abs=0.0)
        assert phi1 == pytest.approx(0.241971, abs=5e-7)

    def test_normalization(self, train):
        total = qs.integrate_interval(lambda x: marginal(train, x), *train.support)
        assert total == pytest.approx(1.0, abs=1e-9)


def grid_cdf(density, edges):
    """A GridCdf given the node masses of ``density`` on the panels of ``edges``."""
    points, weights = gauss_legendre_nodes(edges)
    return GridCdf(density, edges, weights * density(points))


class TestGridCdf:
    def test_matches_analytic_normal_cdf(self):
        cdf = grid_cdf(lambda x: normal_pdf(x, 1.0, 2.0), np.linspace(-23.0, 25.0, 129))
        for x in np.linspace(-6.0, 8.0, 37):
            assert cdf(float(x)) == pytest.approx(normal_cdf(float(x), 1.0, 2.0), abs=1e-12)

    def test_bounds(self):
        cdf = grid_cdf(lambda x: normal_pdf(x, 0.0, 1.0), np.linspace(-14.0, 14.0, 129))
        assert cdf(-20.0) == 0.0
        assert cdf(20.0) == 1.0
        assert cdf.total_mass == pytest.approx(1.0, abs=1e-12)


def _union1d_edges(support, ratio):
    """``panel_edges`` as ``np.union1d`` merged the window and band edges."""
    lo, hi = support
    edges = np.linspace(lo, hi, models._WINDOW_PANELS + 1)
    a, b = sorted((log_r - ratio.log_offset) / ratio.log_slope for log_r in (-40.0, 40.0))
    a, b = max(a, lo), min(b, hi)
    return np.union1d(edges, np.linspace(a, b, models._BAND_PANELS + 1)) if a < b else edges


class TestPanelEdges:
    @pytest.mark.parametrize("sigma", [0.02, 0.05, 0.1, 0.2, 0.5, 1.0])
    @pytest.mark.parametrize("kind", list(qs.ShiftKind))
    def test_equal_the_union1d_edges(self, kind, sigma):
        train = qs.binormal_population(qs.BinormalParams(sigma=sigma), 0.5)
        test = qs.make_test_population(kind, train)
        for model in (train, test):
            edges = panel_edges(model.support, model.ratio)
            assert edges.tobytes() == _union1d_edges(model.support, model.ratio).tobytes()

    def test_derived_population_build_leaves_numpy_ma_unimported(self):
        code = (
            "import sys\n"
            "from quantshift.experiment import ExperimentConfig, build_setup\n"
            "build_setup(ExperimentConfig(scenario='invariant_ratio')).test_conditionals.nodes()\n"
            "print('numpy.ma' in sys.modules, 'numpy.polynomial' in sys.modules)\n"
        )
        src = str(Path(qs.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False False\n"


class TestValidation:
    def test_binormal_params(self):
        with pytest.raises(ValueError):
            qs.BinormalParams(sigma=-1.0)
        with pytest.raises(ValueError):
            qs.BinormalParams(mu=2.0, nu=0.0)

    def test_population_prevalence(self, params):
        with pytest.raises(ValueError):
            qs.binormal_population(params, 1.0)

    def test_ratio_slope(self):
        with pytest.raises(ValueError):
            qs.DensityRatio(0.0, 1.0)

    @pytest.mark.parametrize("slope, offset", [(math.inf, 0.0), (-1.0, -math.inf), (math.nan, 1.0)])
    def test_ratio_coefficients_finite(self, slope, offset):
        with pytest.raises(ValueError, match="must be finite"):
            qs.DensityRatio(slope, offset)
