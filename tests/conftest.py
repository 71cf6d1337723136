import contextlib
import math
import signal

import pytest
from hypothesis import strategies as st

import quantshift as qs

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


def threshold_classifiers(features):
    """Classifiers of either orientation whose cut is one of ``features``
    (a tie), +-inf, or any other value."""
    infinite = st.sampled_from([-math.inf, math.inf])
    cuts = st.sampled_from(features) | infinite | st.floats(allow_nan=False)
    return st.builds(
        qs.ThresholdClassifier, cut=cuts, class0_below=st.booleans()
    )


@pytest.fixture(scope="session")
def train():
    """Default training population: binormal (0, 2, 1) at prevalence 0.5."""
    return qs.binormal_population(qs.BinormalParams(), 0.5)


@pytest.fixture(scope="session")
def invariant_test(train):
    """Test conditionals for the invariant-density-ratio scenario (any prevalence)."""
    scenario = qs.ShiftScenario(qs.ShiftKind.INVARIANT_RATIO, train, 0.5)
    return qs.make_test_population(scenario)


@pytest.fixture(scope="session")
def sqrt_test(train):
    """Test conditionals for the square-root-ratio scenario (any prevalence)."""
    scenario = qs.ShiftScenario(qs.ShiftKind.SQRT_RATIO, train, 0.5)
    return qs.make_test_population(scenario)
