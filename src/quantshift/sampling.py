"""Stratified dataset generation from population models.

A dataset is its features in class order and its class-0 count n0: the
first n0 features are class 0 and the rest class 1, so a class is a slice
and no label array is kept.  Normal class conditionals are sampled exactly;
a derived one keeps each envelope proposal x with probability accept(x).
Every sampling call owns its random stream, so datasets are reproducible
byte-for-byte from (seed, stream_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailure
from .models import Density, NormalSampler, PopulationModel
from .numerics import _BLOCK_PAIRS, RngStream, _box_muller

_MAX_EXPECTED_PROPOSALS = 1e12  # most proposals a draw may expect: about a day at 10 M/s


@dataclass(frozen=True)
class LabeledDataset:
    """Features in class order: ``features[:n0]`` are class 0 and ``features[n0:]`` class 1."""

    features: np.ndarray
    n0: int

    def __post_init__(self):
        if not 0 <= self.n0 <= len(self.features):
            raise ValueError("n0 must lie between 0 and the number of features")

    def __len__(self) -> int:
        return len(self.features)


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def stratified_sample(pop: PopulationModel, n: int, stream: RngStream) -> LabeledDataset:
    """Draw n instances, of which exactly n0 = round(n * prevalence0) are class 0.

    Class-0 features are drawn first, then class-1, from the same stream, so
    the dataset is a pure function of (pop, n, stream identity).  Above
    ``_MAX_EXPECTED_PROPOSALS`` draws it raises :class:`NumericalFailure`
    before it allocates or draws, and it raises the same before it draws if
    the sample cannot be allocated.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > _MAX_EXPECTED_PROPOSALS:
        raise NumericalFailure(f"{n} draws expect at least {n:.3g} proposals, one per exact draw")
    n0 = _round_half_up(n * pop.prevalence0)
    try:
        features = np.empty(n)
    except MemoryError as exc:
        raise NumericalFailure(f"a sample of {n} does not fit in memory: {exc}") from exc
    pop.sampler0.draw(stream, n0, features[:n0])
    pop.sampler1.draw(stream, n - n0, features[n0:])
    return LabeledDataset(features, n0)


def rejection_draw(accept: Density, candidate_sampler: Callable[[RngStream], float], stream: RngStream) -> float:
    """One accept-reject draw: the first candidate proposal x kept by a uniform u <= accept(x)."""
    while True:
        x = candidate_sampler(stream)
        if stream.next_uniform() <= accept(x):
            return x


@dataclass(frozen=True)
class RejectionSampler:
    """Accept-reject draws that keep candidate proposal x with probability ``accept(x)``.

    A target f under the envelope M h of the normal candidate density h,
    where M is ``envelope_constant`` (it sizes the blocks and the proposal
    budget), takes accept(x) = f(x) / (M h(x)).  ``draw`` gives exactly the
    values, and leaves the stream exactly where, ``n`` calls of
    ``rejection_draw(accept, candidate_sampler, stream)`` would: in numpy
    blocks of proposals, with one such call where a spare is pending.  It
    raises :class:`NumericalFailure` before it draws if ``n`` M exceeds
    ``_MAX_EXPECTED_PROPOSALS``.
    """

    accept: Density
    candidate_sampler: NormalSampler
    envelope_constant: float

    def draw(self, stream: RngStream, n: int, out: np.ndarray | None = None) -> np.ndarray:
        expected = n * self.envelope_constant
        if expected > _MAX_EXPECTED_PROPOSALS:
            raise NumericalFailure(f"{n} accept-reject draws expect {expected:.3g} proposals")
        out = np.empty(n) if out is None else out
        filled = 0
        while filled < n:
            if stream._spare_gaussian is None:
                filled += self._draw_block(stream, out[filled:])
            else:
                out[filled] = rejection_draw(self.accept, self.candidate_sampler, stream)
                filled += 1
        return out

    def _draw_block(self, stream: RngStream, out: np.ndarray) -> int:
        """Fill a prefix of ``out`` from one block of proposal pairs; return its length.

        Called with no spare pending.  From there the scalar loop uses four
        words per pair of proposals, [u1, u2, accept_even, accept_odd]: the
        even proposal is the Box-Muller cosine draw and the odd one its sine
        spare.  The block draws whole pairs, keeps the first acceptances and
        puts the stream just after the last word the scalar loop would use.
        The scalar loop redraws a zero u1, which shifts the pattern: the
        block stops before that pair and, short of ``len(out)`` acceptances,
        steps past its word as the redraw does.
        """
        need = len(out)
        # one acceptance per M proposals on average; the margin makes a
        # second block rare
        pairs = max(1, int(min(_BLOCK_PAIRS, 0.55 * need * self.envelope_constant + 16)))
        drawn = 4 * pairs
        words = stream._uniform_block(drawn).reshape(pairs, 4)
        zeros = np.flatnonzero(words[:, 0] == 0.0)
        if zeros.size:
            pairs = int(zeros[0])
            words = words[:pairs]
        normals = np.empty((pairs, 2))
        normals[:, 0], normals[:, 1] = _box_muller(words[:, 0], words[:, 1])
        x = (self.candidate_sampler.mean + self.candidate_sampler.sd * normals).ravel()
        # accept(x) first, so the copy of the accept words is not live
        # beside its temporaries
        accepted = np.flatnonzero(self.accept(x) >= words[:, 2:].ravel())[:need]
        last = int(accepted[-1]) if len(accepted) == need else 2 * pairs - 1
        # the scalar loop stops after the last proposal used and its accept
        # word; after an even proposal the sine spare is pending
        pair, odd = divmod(last, 2)
        skipped = int(len(accepted) < need and zeros.size > 0)
        stream._advance(4 * pair + 3 + odd + skipped - drawn)
        stream._spare_gaussian = None if odd else float(normals[pair, 1])
        out[: len(accepted)] = x[accepted]
        return len(accepted)
