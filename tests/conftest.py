import contextlib
import math
import signal
import sys
import tracemalloc

import pytest
from hypothesis import strategies as st

import quantshift as qs
from quantshift import numerics

GRID = (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)

# Finite and infinite features; no NaN, which no sampler produces.
FEATURES = st.lists(st.floats(allow_nan=False), min_size=1, max_size=40)


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the enclosed block if it runs longer than ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def node_builds(monkeypatch):
    """The edge arrays of every Gauss-Legendre node build (``gauss_legendre_nodes``
    call) made through any quantshift module while the test runs."""
    builds = []
    original = numerics.gauss_legendre_nodes

    def counted(edges):
        builds.append(edges)
        return original(edges)

    for name, module in list(sys.modules.items()):
        if name.startswith("quantshift.") and getattr(module, "gauss_legendre_nodes", None) is original:
            monkeypatch.setattr(module, "gauss_legendre_nodes", counted)
    return builds


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls ``fn()`` and returns the peak of the memory it
    allocated beyond what was live at the call, in bytes, as ``tracemalloc``
    counts it.  numpy reports its array buffers there, so the count does not
    depend on where the heap puts them, as resident memory does."""

    def measure(fn) -> int:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            if started:
                tracemalloc.stop()

    return measure


def threshold_classifiers(features):
    """Classifiers of either orientation whose cut is one of ``features``
    (a tie), +-inf, or any other value."""
    infinite = st.sampled_from([-math.inf, math.inf])
    cuts = st.sampled_from(features) | infinite | st.floats(allow_nan=False)
    return st.builds(
        qs.ThresholdClassifier, cut=cuts, class0_below=st.booleans()
    )


def cost_error(model, clf, c0, c1):
    """Expected cost c0 P[g=1, Y=0] + c1 P[g=0, Y=1] of ``clf`` on ``model``."""
    p = model.prevalence0
    return c0 * p * (1.0 - clf.rate_class0(model.cdf0)) + c1 * (1.0 - p) * clf.rate_class0(model.cdf1)


@pytest.fixture(scope="session")
def train():
    """Default training population: binormal (0, 2, 1) at prevalence 0.5."""
    return qs.binormal_population(qs.BinormalParams(), 0.5)


@pytest.fixture(scope="session")
def oracle_weights():
    """(q*, 1 - q*) from :func:`oracle.mixture_weight` for the default
    envelope against the invariant and square-root ratios, and for the narrow
    envelope (theta = 3.5, tau = 0.5) against the sigma = 0.3 ratio, whose
    q* lies 3.3e-16 from 0.  Seeds are logit q* to three decimals."""
    import oracle

    ratio = qs.binormal_density_ratio(qs.BinormalParams())
    edge = qs.binormal_density_ratio(qs.BinormalParams(sigma=0.3))
    return {
        "invariant_ratio": oracle.mixture_weight(0.5, 1.4, ratio.log_slope, ratio.log_offset, 0.964),
        "sqrt_ratio": oracle.mixture_weight(0.5, 1.4, 0.5 * ratio.log_slope, 0.5 * ratio.log_offset, 1.485),
        "edge": oracle.mixture_weight(3.5, 0.5, edge.log_slope, edge.log_offset, -35.641),
    }


@pytest.fixture(scope="session")
def invariant_test(train):
    """Test conditionals for the invariant-density-ratio scenario (any prevalence)."""
    return qs.make_test_population(qs.ShiftKind.INVARIANT_RATIO, train)


@pytest.fixture(scope="session")
def sqrt_test(train):
    """Test conditionals for the square-root-ratio scenario (any prevalence)."""
    return qs.make_test_population(qs.ShiftKind.SQRT_RATIO, train)
