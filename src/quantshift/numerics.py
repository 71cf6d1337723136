"""Deterministic numerics: the likelihood-equation solver, Gauss-Legendre
node measures, bracketed root finding and adaptive quadrature, and seeded
random-number streams.

Everything in this module is pure given its inputs.  The random stream is a
small explicit generator (splitmix64) implemented here so that sampled results
are bit-reproducible independently of any library RNG: uniforms on every
platform, gaussians wherever libm's log/cos/sin agree and numpy computes
them as libm does.  The block gaussian path takes log from numpy's scalar
float64 loop, which calls libm's ``log``, through a reversed view (see
``_log``), and cos/sin from numpy, which on the Box-Muller angles
2*pi*k*2**-53 rounds as libm does (``tests/test_numerics.py`` checks both on
the running platform).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import NumericalFailure

if TYPE_CHECKING:
    from .models import DensityRatio


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
        NumericalFailure: if f(lo) and f(hi) have the same nonzero sign.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NumericalFailure(f"f({lo}) = {flo} and f({hi}) = {fhi} have the same sign")
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


# 15-point Gauss-Legendre rule; exact for polynomials up to degree 29.  The
# nonnegative nodes and their weights are numpy's ``leggauss(15)`` values,
# which it makes exactly symmetric; mirroring them gives its arrays bit for
# bit without importing numpy.polynomial.
_GL_HALF_NODES = np.array([
    0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
    0.7244177313601701, 0.8482065834104272, 0.9372733924007058, 0.9879925180204854,
])
_GL_HALF_WEIGHTS = np.array([
    0.2025782419255613, 0.1984314853271116, 0.1861610000155622, 0.16626920581699398,
    0.13957067792615444, 0.10715922046717141, 0.0703660474881084, 0.030753241996117203,
])
_GL_NODES = np.concatenate((-_GL_HALF_NODES[:0:-1], _GL_HALF_NODES))
_GL_WEIGHTS = np.concatenate((_GL_HALF_WEIGHTS[:0:-1], _GL_HALF_WEIGHTS))
_MAX_DEPTH = 48
_INITIAL_PANELS = 16


def _panel(f, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _GL_NODES), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = float((mid + half * _GL_NODES)[~np.isfinite(vals)][0])
        raise NumericalFailure(f"integrand returned a non-finite value at x = {bad}")
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


def gauss_legendre_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Composite 15-point Gauss-Legendre nodes and weights on panels.

    ``edges`` are the strictly increasing panel edges; each panel carries the
    15-point rule, and the two flat arrays list the nodes panel by panel.  A
    weighted sum over them integrates a function over [edges[0], edges[-1]]
    that is smooth on each panel.
    """
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    points = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
    weights = halves[:, None] * _GL_WEIGHTS[None, :]
    return points.ravel(), weights.ravel()


def reciprocal_excess(log_r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c = 1 / (R - 1) from an array of log R, in ``out`` or, by default, a new array.

    ``out`` may be ``log_r`` itself, which then ends holding c.  The
    likelihood term (R - 1) / (1 + q (R - 1)) equals 1 / (c + q).  That
    never overflows: c is never inside (-1, 0), so the term lies between
    -1 / (1 - q) and 1 / q.  Where R - 1 overflows (log R > 709) c is 0, and
    where R = 1 it is infinite; the term then takes its limits 1 / q and 0.
    """
    with np.errstate(over="ignore", divide="ignore"):
        c = np.expm1(np.asarray(log_r, dtype=float), out=out)
        np.divide(1.0, c, out=c)
    return c


@dataclass(frozen=True)
class PriorEquationRoot:
    """Outcome of :func:`solve_prior_equation`.

    ``value`` is the root q in (0, 1), or 0.0 when E_w[R] <= 1 and 1.0 when
    E_w[1/R] <= 1, and ``complement`` is 1 - q; the smaller of the two keeps
    its full relative precision.  ``log_moment_r`` and ``log_moment_inv`` are
    log E_w[R] and log E_w[1/R]; ``steps`` counts the Newton and bisection steps.
    """

    value: float
    complement: float
    log_moment_r: float
    log_moment_inv: float
    steps: int


_MAX_SOLVER_STEPS = 200
# The solve reads its points in blocks of at most this many, so its two
# scratch arrays hold this many floats whatever the measure's size.
_SOLVE_BLOCK = 1 << 14


def _peak_and_sum(values: np.ndarray) -> tuple[float, float]:
    """The largest of ``values`` and the sum of exp(values - peak), which
    overwrites ``values``; the sum is 0.0 where the peak is not finite."""
    peak = float(values.max())
    if not math.isfinite(peak):
        return peak, 0.0
    values -= peak
    np.exp(values, out=values)
    return peak, float(values.sum())


def _log_sum_exp(parts: list[tuple[float, float]]) -> float:
    """log(sum(exp(values))) over blocks, from each block's :func:`_peak_and_sum`."""
    peak = float(np.max([p for p, _ in parts]))
    if not math.isfinite(peak):
        return peak
    return peak + math.log(sum(s * math.exp(p - peak) for p, s in parts))


def _weighted_sum(values: np.ndarray, weights) -> float:
    # equal weights come as one number, which scales every sum alike
    return float(values.sum()) if np.ndim(weights) == 0 else float(np.dot(values, weights))


def solve_prior_equation(points, ratio: DensityRatio, weights, tol: float = 1e-12) -> PriorEquationRoot:
    """Solve the likelihood equation E_w[(R - 1) / (1 + q (R - 1))] = 0 for q.

    ``points`` are the points of a discrete measure, ``ratio`` gives log R
    there, and ``weights`` are their nonnegative weights: an array of the
    same length, or one number for equal weights.  A root in (0, 1) exists
    iff E_w[R] > 1 and E_w[1/R] > 1.  Both moments are decided by a
    log-sum-exp of log R + log w, so neither R nor a weight has to be
    representable.

    The solve carries the smaller weight x = min(q, 1 - q), with no floor:
    where E_w[tanh(log R / 2)], half the value at q = 1/2, is positive, the
    root lies above 1/2 and log R is negated, as 1 - q solves the equation
    on 1/R.  The terms 1 / (c + x), with c from :func:`reciprocal_excess`
    and x in (0, 1/2], neither overflow nor cancel.  Newton steps use
    f'(x) = -E_w[(1 / (c + x))^2], summed as (x / (c + x))^2 in [0, 1].  A
    step that leaves the bracket, or is more than half as long as the one
    before, gives way to a bisection of log x (squaring the top while no
    point below the root is known), and the solve stops once a step is at
    most ``tol`` times x.

    The points are read in blocks of ``_SOLVE_BLOCK``: one pass finds both
    moments and the side of 1/2, and each step makes one more.  A pass
    writes a block's log R, then c, into one scratch array and its terms
    into another, so the solve allocates nothing of its input's length and
    leaves its input as it was.  A measure of at most one block is solved
    with the operations of a solve over whole arrays, in the same order.
    Weights whose total is not positive, given as an array or as one
    number, raise :class:`NumericalFailure`.
    """
    points = np.asarray(points, dtype=float)
    equal = np.ndim(weights) == 0
    total = float(weights) * points.size if equal else float(np.sum(weights))
    if not total > 0.0:
        raise NumericalFailure(f"the measure's weights sum to {total!r}; its nodes carry no mass")
    log_total = float(np.log(weights)) + math.log(points.size) if equal else math.log(total)
    size = min(points.size, _SOLVE_BLOCK)
    log_r_buffer, g_buffer = np.empty(size), np.empty(size)

    def blocks():
        """Each block's log R, a scratch array of its length, and its weights."""
        for start in range(0, points.size, _SOLVE_BLOCK):
            block = points[start : start + _SOLVE_BLOCK]
            m = block.size
            yield (
                ratio.log(block, out=log_r_buffer[:m]),
                g_buffer[:m],
                weights if equal else weights[start : start + m],
            )

    moment_r, moment_inv, side = [], [], 0.0
    for log_r, g, w in blocks():
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        moment_r.append(_peak_and_sum(np.add(log_w, log_r, out=g)))
        moment_inv.append(_peak_and_sum(np.subtract(log_w, log_r, out=g)))
        side += _weighted_sum(np.tanh(np.multiply(log_r, 0.5, out=g), out=g), w)
    log_moment_r = _log_sum_exp(moment_r) - log_total
    log_moment_inv = _log_sum_exp(moment_inv) - log_total
    if not log_moment_r > 0.0:
        return PriorEquationRoot(0.0, 1.0, log_moment_r, log_moment_inv, 0)
    if not log_moment_inv > 0.0:
        return PriorEquationRoot(1.0, 0.0, log_moment_r, log_moment_inv, 0)

    upper = side > 0.0
    lo, hi, x, last_step = 0.0, 0.5, 0.5, math.inf
    for steps in range(1, _MAX_SOLVER_STEPS + 1):
        value = slope = 0.0
        for log_r, g, w in blocks():
            if upper:
                np.negative(log_r, out=log_r)
            c = reciprocal_excess(log_r, out=log_r)
            np.add(c, x, out=g)
            np.divide(x, g, out=g)
            value += _weighted_sum(g, w)
            np.multiply(g, g, out=g)
            slope += _weighted_sum(g, w)
        if value > 0.0:
            lo = x
        else:
            hi = x
        # where every (x g)^2 underflows, the infinite step bisects
        step = x * (value / slope) if slope else math.inf
        # a step within tol is taken as it is: x + step may round to x, the
        # end of the bracket
        nxt = x + step
        if abs(step) > tol * x and (not lo < nxt < hi or abs(step) > 0.5 * abs(last_step)):
            nxt = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 else max(hi * hi, math.ulp(0.0))
        x, last_step = nxt, nxt - x
        if abs(last_step) <= tol * x:
            break
    value, complement = (1.0 - x, x) if upper else (x, 1.0 - x)
    return PriorEquationRoot(value, complement, log_moment_r, log_moment_inv, steps)


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


def _log(u: np.ndarray) -> np.ndarray:
    """``math.log`` of each element, bit for bit.

    numpy's SIMD float64 log rounds otherwise than libm's on about 0.35% of
    uniforms, and numpy 2.4 takes it only where the input stride is not
    negative.  On a reversed view numpy runs its scalar loop, which calls
    libm's ``log``.  The result is reversed afterwards: writing into a reversed
    ``out`` as well would let numpy flip both strides and take the SIMD loop.
    """
    return np.log(u[::-1])[::-1]


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cosine and sine gaussians of uniform pairs, exactly as
    :meth:`RngStream.next_gaussian` computes them (``u1`` must be nonzero)."""
    radius = np.sqrt(-2.0 * _log(u1))
    angle = _TWO_PI * u2
    return radius * np.cos(angle), radius * np.sin(angle)


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

        A pending spare is the first value.  The stream is left as those calls
        leave it, pending spare included; the values are written to ``out``
        (a float array of length ``n``) when it is given, and returned.
        """
        out = np.empty(n) if out is None else out
        filled = 0
        if n and self._spare_gaussian is not None:
            out[0], self._spare_gaussian = self._spare_gaussian, None
            filled = 1
        while filled < n:
            filled += self._gaussian_block(out[filled : filled + 2 * _BLOCK_PAIRS])
        return out

    def _gaussian_block(self, out: np.ndarray) -> int:
        # fill a prefix of out and return its length; called with no spare
        # pending, an odd length leaves one.  The scalar loop redraws a zero
        # u1, which shifts the pairing: stop before that pair and skip its word
        count = len(out)
        u = self._uniform_block(count + count % 2)
        zeros = np.flatnonzero(u[0::2] == 0.0)
        if zeros.size:
            count = 2 * int(zeros[0])
            self._advance(count + 1 - len(u))
            u = u[:count]
        cos_part, sin_part = _box_muller(u[0::2], u[1::2])
        out[:count:2], out[1:count:2] = cos_part, sin_part[: count // 2]
        if count % 2:
            self._spare_gaussian = float(sin_part[-1])
        return count
