"""Stratified dataset generation from population models.

Normal class conditionals are sampled exactly; derived (non-normal)
conditionals are sampled by accept-reject from their mixture envelope.
Every sampling call owns its random stream, so datasets are reproducible
byte-for-byte from (seed, stream_id).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .models import Density, NormalSampler, PopulationModel
from .numerics import _BLOCK_PAIRS, RngStream, _box_muller

_ENVELOPE_SLACK = 1.0 + 1e-9  # tolerated float rounding in the envelope test


class EnvelopeViolation(RuntimeError):
    """A proposal had target density above M * candidate density."""


@dataclass(frozen=True)
class LabeledDataset:
    """Features with binary labels and the stream identity that produced them."""

    features: np.ndarray
    labels: np.ndarray
    seed_record: tuple[int, int]

    def __post_init__(self):
        if len(self.features) != len(self.labels):
            raise ValueError("features and labels must have equal length")

    def __len__(self) -> int:
        return len(self.features)


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def stratified_sample(pop: PopulationModel, n: int, stream: RngStream) -> LabeledDataset:
    """Draw n instances with exactly round(n * prevalence0) class-0 labels.

    Class-0 features are drawn first, then class-1, from the same stream, so
    the dataset is a pure function of (pop, n, stream identity).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    n0 = _round_half_up(n * pop.prevalence0)
    features = np.empty(n)
    pop.sampler0.draw(stream, n0, features[:n0])
    pop.sampler1.draw(stream, n - n0, features[n0:])
    labels = np.zeros(n, dtype=np.int8)
    labels[n0:] = 1
    return LabeledDataset(features, labels, (stream.seed, stream.stream_id))


def _violation(x: float, t: float, bound: float, envelope_constant: float) -> EnvelopeViolation:
    return EnvelopeViolation(
        f"target({x}) = {t} exceeds envelope {bound}; constant M = {envelope_constant} is too small"
    )


def rejection_draw(
    target: Density,
    candidate_sampler: Callable[[RngStream], float],
    candidate_density: Density,
    envelope_constant: float,
    stream: RngStream,
) -> float:
    """One accept-reject draw from ``target`` using candidate proposals.

    Requires target(x) <= envelope_constant * candidate_density(x) everywhere.
    """
    while True:
        x = candidate_sampler(stream)
        bound = envelope_constant * float(candidate_density(x))
        t = float(target(x))
        if t > bound * _ENVELOPE_SLACK:
            raise _violation(x, t, bound, envelope_constant)
        if stream.next_uniform() * bound <= t:
            return x


@dataclass(frozen=True)
class RejectionSampler:
    """Accept-reject draws from ``target`` with candidate proposals.

    Requires target(x) <= envelope_constant * candidate_density(x) everywhere.
    ``draw`` gives exactly the values, and leaves the stream exactly where,
    ``n`` calls of :func:`rejection_draw` would.  With a
    :class:`~quantshift.models.NormalSampler` candidate it evaluates whole
    blocks of proposals in numpy; any other candidate is called once per
    proposal.
    """

    target: Density
    candidate_sampler: Callable[[RngStream], float]
    candidate_density: Density
    envelope_constant: float

    def draw(self, stream: RngStream, n: int, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(n) if out is None else out
        blocks = isinstance(self.candidate_sampler, NormalSampler)
        filled = 0
        while filled < n:
            if blocks and stream._spare_gaussian is None:
                state = stream._state
                filled += self._draw_block(stream, out[filled:])
                if stream._state != state:
                    # the block drew words, with or without acceptances
                    continue
            # a pending spare, or a zero u1 at the first pair of a block
            out[filled] = rejection_draw(
                self.target, self.candidate_sampler, self.candidate_density, self.envelope_constant, stream
            )
            filled += 1
        return out

    def _draw_block(self, stream: RngStream, out: np.ndarray) -> int:
        """Fill a prefix of ``out`` from one block of proposal pairs; return its length.

        Called with no spare pending.  From there the scalar loop uses four
        words per pair of proposals, [u1, u2, accept_even, accept_odd]: the
        even proposal is the Box-Muller cosine draw and the odd one its sine
        spare.  The block draws whole pairs, keeps the first acceptances and
        puts the stream just after the last word the scalar loop would use.
        """
        need = len(out)
        # one acceptance per M proposals on average; the margin makes a
        # second block rare
        pairs = max(1, int(min(_BLOCK_PAIRS, 0.55 * need * self.envelope_constant + 16)))
        drawn = 4 * pairs
        words = stream._uniform_block(drawn).reshape(pairs, 4)
        zeros = np.flatnonzero(words[:, 0] == 0.0)
        if zeros.size:
            # the scalar loop redraws a zero u1, which shifts the pattern;
            # stop the block before that pair
            pairs = int(zeros[0])
            words = words[:pairs]
        normals = np.empty((pairs, 2))
        normals[:, 0], normals[:, 1] = _box_muller(words[:, 0], words[:, 1])
        x = (self.candidate_sampler.mean + self.candidate_sampler.sd * normals).ravel()
        bound = self.envelope_constant * self.candidate_density(x)
        t = self.target(x)
        accepted = np.flatnonzero(words[:, 2:].ravel() * bound <= t)[:need]
        last = int(accepted[-1]) if len(accepted) == need else 2 * pairs - 1
        violations = np.flatnonzero(t[: last + 1] > bound[: last + 1] * _ENVELOPE_SLACK)
        # the scalar loop stops after the last proposal used and its accept
        # word, or at the first violation, before its accept word; after an
        # even proposal the sine spare is pending
        stop = int(violations[0]) if violations.size else last
        pair, odd = divmod(stop, 2)
        stream._advance(4 * pair + 2 + odd + (not violations.size) - drawn)
        stream._spare_gaussian = None if odd else float(normals[pair, 1])
        if violations.size:
            raise _violation(float(x[stop]), float(t[stop]), float(bound[stop]), self.envelope_constant)
        out[: len(accepted)] = x[accepted]
        return len(accepted)
