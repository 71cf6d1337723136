"""Reference for :func:`quantshift.numerics.solve_prior_equation`: the same
solve over whole arrays of log R.

It holds log R and one scratch array of the measure's length, and computes c
in log R's storage, so it consumes its ``log_r``.  The blocked solver must
equal it bit for bit on a measure of at most one block, and agree with it to
a few ulp on longer ones.
"""

from __future__ import annotations

import math

import numpy as np

from quantshift.errors import NumericalFailure
from quantshift.numerics import _MAX_SOLVER_STEPS, PriorEquationRoot, reciprocal_excess


def _log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))), overwriting ``values``."""
    peak = float(values.max())
    if not math.isfinite(peak):
        return peak
    values -= peak
    np.exp(values, out=values)
    return peak + math.log(float(values.sum()))


def _weighted_sum(values: np.ndarray, weights) -> float:
    return float(values.sum()) if np.ndim(weights) == 0 else float(np.dot(values, weights))


def solve_prior_equation(log_r, weights, tol: float = 1e-12) -> PriorEquationRoot:
    """The root of E_w[(R - 1) / (1 + q (R - 1))] = 0 from log R at every
    point, by the steps :func:`quantshift.numerics.solve_prior_equation`
    takes; ``log_r`` is consumed."""
    log_r = np.asarray(log_r, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    if np.ndim(weights) == 0:
        log_total = float(log_w) + math.log(log_r.size)
    else:
        total = float(np.sum(weights))
        if not total > 0.0:
            raise NumericalFailure(f"the measure's weights sum to {total!r}; its nodes carry no mass")
        log_total = math.log(total)
    g = np.add(log_w, log_r, out=np.empty_like(log_r))
    log_moment_r = _log_sum_exp(g) - log_total
    np.subtract(log_w, log_r, out=g)
    log_moment_inv = _log_sum_exp(g) - log_total
    if not log_moment_r > 0.0:
        return PriorEquationRoot(0.0, 1.0, log_moment_r, log_moment_inv, 0)
    if not log_moment_inv > 0.0:
        return PriorEquationRoot(1.0, 0.0, log_moment_r, log_moment_inv, 0)

    upper = _weighted_sum(np.tanh(np.multiply(log_r, 0.5, out=g), out=g), weights) > 0.0
    if upper:
        np.negative(log_r, out=log_r)
    c = reciprocal_excess(log_r, out=log_r)
    lo, hi, x, last_step = 0.0, 0.5, 0.5, math.inf
    for steps in range(1, _MAX_SOLVER_STEPS + 1):
        np.add(c, x, out=g)
        np.divide(x, g, out=g)
        value = _weighted_sum(g, weights)
        if value > 0.0:
            lo = x
        else:
            hi = x
        np.multiply(g, g, out=g)
        slope = _weighted_sum(g, weights)
        step = x * (value / slope) if slope else math.inf
        nxt = x + step
        if abs(step) > tol * x and (not lo < nxt < hi or abs(step) > 0.5 * abs(last_step)):
            nxt = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else max(hi * hi, math.ulp(0.0))
        x, last_step = nxt, nxt - x
        if abs(last_step) <= tol * x:
            break
    value, complement = (1.0 - x, x) if upper else (x, 1.0 - x)
    return PriorEquationRoot(value, complement, log_moment_r, log_moment_inv, steps)
