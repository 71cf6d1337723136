"""Deterministic numerics: the likelihood-equation solver, Gauss-Legendre
node measures, bracketed root finding and adaptive quadrature, and seeded
random-number streams.

Everything in this module is pure given its inputs.  The random stream is a
small explicit generator (splitmix64) implemented here so that sampled results
are bit-reproducible independently of any library RNG: uniforms on every
platform, gaussians wherever libm's log/cos/sin agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss


class NoSignChange(ValueError):
    """The supplied bracket does not enclose a sign change."""


class NonFinite(ArithmeticError):
    """An integrand returned a non-finite value inside the integration range."""


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] known to enclose a root."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def find_root_bracketed(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-12) -> float:
    """Locate a root of ``f`` inside ``bracket`` by bisection.

    Refines until the bracket width is at most ``tol`` (or an exact zero of
    ``f`` is hit), then returns the midpoint.  ``f`` must be continuous on the
    bracket and have opposite (or zero) signs at the endpoints.

    Raises:
        NoSignChange: if f(lo) and f(hi) have the same nonzero sign.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NoSignChange(f"f({lo}) = {flo} and f({hi}) = {fhi} have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket narrower than float spacing
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# 15-point Gauss-Legendre rule; exact for polynomials up to degree 29.
_GL_NODES, _GL_WEIGHTS = leggauss(15)
_MAX_DEPTH = 48
_INITIAL_PANELS = 16
# Node measures of populations and envelopes use this many panels.
NODE_PANELS = 256


def _panel(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _GL_NODES), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = float((mid + half * _GL_NODES)[~np.isfinite(vals)][0])
        raise NonFinite(f"integrand returned a non-finite value at x = {bad}")
    return half * float(np.dot(_GL_WEIGHTS, vals))


def _adapt(f, a: float, b: float, whole: float, tol: float, depth: int) -> float:
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    if abs(left + right - whole) <= tol or depth >= _MAX_DEPTH:
        return left + right
    half_tol = 0.5 * tol
    return _adapt(f, a, mid, left, half_tol, depth + 1) + _adapt(f, mid, b, right, half_tol, depth + 1)


def integrate_interval(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-12,
    rel_tol: float = 1e-10,
) -> float:
    """Adaptive composite Gauss-Legendre integral of ``f`` over [a, b].

    ``f`` must accept a numpy array of evaluation points and return the
    corresponding values (plain ufunc arithmetic suffices).
    """
    if a == b:
        return 0.0
    edges = np.linspace(a, b, _INITIAL_PANELS + 1)
    coarse = [_panel(f, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    tol = max(abs_tol, rel_tol * abs(sum(coarse))) / _INITIAL_PANELS
    return sum(
        _adapt(f, lo, hi, est, tol, 0)
        for lo, hi, est in zip(edges[:-1], edges[1:], coarse)
    )


def gauss_legendre_nodes(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite 15-point Gauss-Legendre nodes and weights on [lo, hi].

    ``NODE_PANELS`` equal panels each carry the 15-point rule; the two flat
    arrays list the nodes panel by panel.  A weighted sum over them
    integrates a smooth function over [lo, hi].
    """
    edges = np.linspace(lo, hi, NODE_PANELS + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    points = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
    weights = halves[:, None] * _GL_WEIGHTS[None, :]
    return points.ravel(), weights.ravel()


def reciprocal_excess(log_r: np.ndarray) -> np.ndarray:
    """c = 1 / (R - 1) from an array of log R, as a new array.

    The likelihood term (R - 1) / (1 + q (R - 1)) equals 1 / (c + q).  That
    never overflows: c is never inside (-1, 0), so the term lies between
    -1 / (1 - q) and 1 / q.  Where R - 1 overflows (log R > 709) c is 0, and
    where R = 1 it is infinite; the term then takes its limits 1 / q and 0.
    """
    with np.errstate(over="ignore", divide="ignore"):
        c = np.expm1(np.asarray(log_r, dtype=float))
        np.divide(1.0, c, out=c)
    return c


@dataclass(frozen=True)
class PriorEquationRoot:
    """Outcome of :func:`solve_prior_equation`.

    ``value`` is the root in (0, 1), or 0.0 when E_w[R] <= 1 and 1.0 when
    E_w[1/R] <= 1.  ``log_moment_r`` and ``log_moment_inv`` are log E_w[R] and
    log E_w[1/R]; ``steps`` counts the Newton and bisection steps.
    """

    value: float
    log_moment_r: float
    log_moment_inv: float
    steps: int


# Iterates stay in [_Q_FLOOR, 1 - _Q_FLOOR], where no term exceeds 1 / _Q_FLOOR.
_Q_FLOOR = 1e-12
_MAX_SOLVER_STEPS = 200


def _log_sum_exp(values: np.ndarray) -> float:
    """log(sum(exp(values))), overwriting ``values``."""
    peak = float(values.max())
    if not math.isfinite(peak):
        return peak
    values -= peak
    np.exp(values, out=values)
    return peak + math.log(float(values.sum()))


def _weighted_sum(values: np.ndarray, weights) -> float:
    # equal weights come as one number, which scales every sum alike
    return float(values.sum()) if np.ndim(weights) == 0 else float(np.dot(values, weights))


def solve_prior_equation(log_r, weights, tol: float = 1e-12) -> PriorEquationRoot:
    """Solve the likelihood equation E_w[(R - 1) / (1 + q (R - 1))] = 0 for q.

    ``log_r`` holds log R at the points of a discrete measure, and
    ``weights`` their nonnegative weights: an array of the same length, or
    one number for equal weights.  A root in (0, 1) exists iff E_w[R] > 1
    and E_w[1/R] > 1.  Both moments are decided by a log-sum-exp of
    log R + log w, so neither R nor a weight has to be representable.

    The terms are 1 / (c + q) with c from :func:`reciprocal_excess`, so no
    step overflows.  Newton steps use f'(q) = -E_w[(1 / (c + q))^2]; a step
    that leaves the bracket of the root, or is more than half as long as the
    step before it, is replaced by bisection.  The solve stops once a step is
    at most ``tol``.  Besides ``log_r`` it holds two arrays of its length.
    """
    log_r = np.asarray(log_r, dtype=float)
    with np.errstate(divide="ignore"):
        log_w = np.log(weights)
    if np.ndim(weights) == 0:
        log_total = float(log_w) + math.log(log_r.size)
    else:
        log_total = math.log(float(np.sum(weights)))
    g = np.add(log_w, log_r, out=np.empty_like(log_r))
    log_moment_r = _log_sum_exp(g) - log_total
    np.subtract(log_w, log_r, out=g)
    log_moment_inv = _log_sum_exp(g) - log_total
    if not log_moment_r > 0.0:
        return PriorEquationRoot(0.0, log_moment_r, log_moment_inv, 0)
    if not log_moment_inv > 0.0:
        return PriorEquationRoot(1.0, log_moment_r, log_moment_inv, 0)

    c = reciprocal_excess(log_r)
    lo, hi = _Q_FLOOR, 1.0 - _Q_FLOOR
    q, last_step = 0.5, hi - lo
    for steps in range(1, _MAX_SOLVER_STEPS + 1):
        np.add(c, q, out=g)
        np.divide(1.0, g, out=g)
        value = _weighted_sum(g, weights)
        if value == 0.0:
            break
        if value > 0.0:
            lo = q
        else:
            hi = q
        np.multiply(g, g, out=g)
        step = value / _weighted_sum(g, weights)
        # a step within tol is taken as it is: q + step may round to q, the
        # end of the bracket
        if abs(step) > tol and (not lo < q + step < hi or abs(step) > 0.5 * abs(last_step)):
            step = 0.5 * (lo + hi) - q
        q += step
        last_step = step
        if abs(step) <= tol:
            break
    return PriorEquationRoot(q, log_moment_r, log_moment_inv, steps)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_INVERSE = pow(_GOLDEN, -1, 1 << 64)
_INV_2_53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi

# Block methods work on at most this many Box-Muller pairs (twice as many
# words) at a time, which bounds their temporary memory.
_BLOCK_PAIRS = 4096


def _mix64(z: int) -> int:
    # splitmix64 finalizer (Steele, Lea & Flood)
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer on uint64 arrays (wrapping, in place)."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _libm(fn, values: np.ndarray) -> np.ndarray:
    # numpy's log/cos/sin are not guaranteed to round like the C library's,
    # so the block path calls the same ``math`` functions as the scalar path
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=len(values))


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine and sine gaussians of uniform pairs, exactly as
    :meth:`RngStream.next_gaussian` computes them (``u1`` must be nonzero)."""
    radius = np.sqrt(-2.0 * _libm(math.log, u1))
    angle = _TWO_PI * u2
    return radius * _libm(math.cos, angle), radius * _libm(math.sin, angle)


class RngStream:
    """Seeded, reproducible stream of uniforms and gaussians.

    A stream is a splitmix64 counter sequence whose starting state is derived
    from ``(seed, stream_id)``.  Identical pairs yield identical value
    sequences (the gaussians wherever libm agrees; see the module docstring).
    The block methods ``uniforms``/``gaussians`` give exactly the values of
    the same number of scalar calls.  Streams are cheap; give each logical
    sampling task its own ``stream_id`` rather than sharing one stream.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= seed < 1 << 64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not 0 <= stream_id < 1 << 64:
            raise ValueError("stream_id must be a 64-bit unsigned integer")
        self.seed = seed
        self.stream_id = stream_id
        self._state = _mix64(_mix64(seed) ^ _mix64(stream_id ^ _GOLDEN))
        self._start = self._state
        self._spare_gaussian: float | None = None

    @property
    def words_drawn(self) -> int:
        """Number of 64-bit words drawn since construction.

        The state advances by a fixed odd constant per word, so the count
        follows from the state alone (modulo 2**64).
        """
        return ((self._state - self._start) * _GOLDEN_INVERSE) & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * _INV_2_53

    def next_gaussian(self) -> float:
        """Standard normal draw via Box-Muller on the uniform stream."""
        if self._spare_gaussian is not None:
            value = self._spare_gaussian
            self._spare_gaussian = None
            return value
        u1 = self.next_uniform()
        while u1 == 0.0:  # log(0) guard; probability 2^-53 per draw
            u1 = self.next_uniform()
        u2 = self.next_uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = _TWO_PI * u2
        self._spare_gaussian = radius * math.sin(angle)
        return radius * math.cos(angle)

    def _advance(self, words: int) -> None:
        # skip ``words`` words, or step back over them when negative
        self._state = (self._state + words * _GOLDEN) & _MASK64

    def _uniform_block(self, n: int) -> np.ndarray:
        steps = np.arange(1, n + 1, dtype=np.uint64)
        steps *= np.uint64(_GOLDEN)
        steps += np.uint64(self._state)
        self._advance(n)
        return (_mix64_array(steps) >> np.uint64(11)).astype(float) * _INV_2_53

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` uniforms, identical to ``n`` calls of :meth:`next_uniform`."""
        out = np.empty(n)
        for start in range(0, n, 2 * _BLOCK_PAIRS):
            stop = min(n, start + 2 * _BLOCK_PAIRS)
            out[start:stop] = self._uniform_block(stop - start)
        return out

    def gaussians(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next ``n`` gaussians, identical to ``n`` calls of :meth:`next_gaussian`.

        The stream is left in the same state, pending spare included.  The
        values are written to ``out`` (a float array of length ``n``) when
        it is given, and returned.
        """
        out = np.empty(n) if out is None else out
        start = 0
        if n and self._spare_gaussian is not None:
            out[0] = self.next_gaussian()
            start = 1
        for block in range(start, n, 2 * _BLOCK_PAIRS):
            stop = min(n, block + 2 * _BLOCK_PAIRS)
            out[block:stop] = self._gaussian_block(stop - block)
        return out

    def _gaussian_block(self, count: int) -> np.ndarray:
        # called with no spare pending; an odd count leaves one
        pairs = (count + 1) // 2
        state = self._state
        u = self._uniform_block(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        if not u1.all():
            # the scalar loop redraws a zero u1, which shifts the pairing
            self._state = state
            return np.array([self.next_gaussian() for _ in range(count)])
        values = np.empty(2 * pairs)
        values[0::2], values[1::2] = _box_muller(u1, u2)
        if count % 2:
            self._spare_gaussian = float(values[-1])
        return values[:count]
