"""Randomness sources for scheme constructors.

Every scheme takes a RandomSource and draws through two primitives only:
permutations of [1..n] and uniform indices in [0..n). Keeping the
interface this small lets the verifier enumerate the whole randomness
space of a scheme (every draw has a known finite domain) and replay any
single point of it.
"""
from __future__ import annotations

import math
import random
from typing import Iterator, Sequence

from .core import TranscriptError


class RandomSource:
    def permutation(self, n: int) -> tuple[int, ...]:
        """A permutation of [1..n], as the tuple (p(1), ..., p(n))."""
        raise NotImplementedError

    def choice_index(self, n: int) -> int:
        """A uniform index in [0..n)."""
        raise NotImplementedError

    def choice(self, seq: Sequence):
        return seq[self.choice_index(len(seq))]

    def sample_without_replacement(self, seq: Sequence, k: int) -> list:
        pool = list(seq)
        out = []
        for _ in range(k):
            out.append(pool.pop(self.choice_index(len(pool))))
        return out


class SeededSource(RandomSource):
    def __init__(self, seed) -> None:
        self._rng = random.Random(seed)

    def permutation(self, n: int) -> tuple[int, ...]:
        vals = list(range(1, n + 1))
        self._rng.shuffle(vals)
        return tuple(vals)

    def choice_index(self, n: int) -> int:
        if n <= 0:
            raise ValueError("empty choice")
        return self._rng.randrange(n)


class CanonicalSource(RandomSource):
    """Deterministic degenerate source: identity permutations, first
    choices. Used for rendering reference transcripts."""

    def permutation(self, n: int) -> tuple[int, ...]:
        return tuple(range(1, n + 1))

    def choice_index(self, n: int) -> int:
        if n <= 0:
            raise ValueError("empty choice")
        return 0


class ReplaySource(RandomSource):
    """Replays one point of a randomness space.

    `point` holds one value per draw of `shape`: the permutation itself
    for a permutation draw, the index for a choice draw. A run must draw
    exactly `shape`, in order; a draw that differs raises TranscriptError
    at once, and finish() raises it if values are left over.
    """

    def __init__(self, shape: list[tuple[str, int]], point: Sequence) -> None:
        self.shape = shape
        self.point = point
        self.pos = 0

    def _next(self, kind: str, n: int):
        if self.pos >= len(self.shape) or self.shape[self.pos] != (kind, n):
            raise TranscriptError(
                "draw shape depends on drawn values: draw %d is (%s, %d)"
                % (self.pos, kind, n)
            )
        val = self.point[self.pos]
        self.pos += 1
        return val

    def permutation(self, n: int) -> tuple[int, ...]:
        return self._next("perm", n)

    def choice_index(self, n: int) -> int:
        if n <= 0:
            raise ValueError("empty choice")
        return self._next("choice", n)

    def finish(self) -> None:
        if self.pos != len(self.shape):
            raise TranscriptError(
                "draw shape depends on drawn values: %d of %d draws made"
                % (self.pos, len(self.shape))
            )


class RecordingSource(RandomSource):
    """Records the shape (kind, domain size) of every draw while acting
    like the canonical source."""

    def __init__(self) -> None:
        self.shape: list[tuple[str, int]] = []

    def permutation(self, n: int) -> tuple[int, ...]:
        self.shape.append(("perm", n))
        return tuple(range(1, n + 1))

    def choice_index(self, n: int) -> int:
        if n <= 0:
            raise ValueError("empty choice")
        self.shape.append(("choice", n))
        return 0


def unrank_permutation(n: int, rank: int) -> tuple[int, ...]:
    """Permutation of [1..n] with the given lexicographic rank."""
    vals = list(range(1, n + 1))
    out = []
    for i in range(n, 0, -1):
        f = math.factorial(i - 1)
        idx, rank = divmod(rank, f)
        out.append(vals.pop(idx))
    return tuple(out)


class BudgetExceeded(Exception):
    pass


def domain_size(shape: Sequence[tuple[str, int]], budget: int) -> int:
    """Number of points of a randomness space with the given draw shape.

    Raises BudgetExceeded as soon as the product passes `budget`, so a
    space of astronomical size is refused without being computed.
    """
    total = 1
    for kind, n in shape:
        total *= math.factorial(n) if kind == "perm" else n
        if total > budget:
            raise BudgetExceeded(
                "randomness space exceeds the budget of %d points" % budget
            )
    return total


def record_shape(builder) -> list[tuple[str, int]]:
    """The draw shape of `builder`, learned from one run against a
    RecordingSource."""
    rec = RecordingSource()
    builder(rec)
    return rec.shape


def draw_point(src: RandomSource, shape: Sequence[tuple[str, int]]) -> tuple:
    """One value per draw of `shape`, drawn from `src` in order: the
    draws a run of that shape would make, as a point to replay."""
    return tuple([
        src.permutation(n) if kind == "perm" else src.choice_index(n)
        for kind, n in shape
    ])


def enumerate_sources(builder, budget: int = 1 << 20) -> Iterator[RandomSource]:
    """Yield one ReplaySource per point of the builder's randomness space.

    `builder` is a callable taking a RandomSource; it is first run once
    against a RecordingSource to learn the draw shape (which must not
    depend on drawn values), then each point is replayed.
    """
    shape = record_shape(builder)
    domain_size(shape, budget)
    sizes = [math.factorial(n) if k == "perm" else n for k, n in shape]

    point = [0] * len(shape)
    while True:
        yield ReplaySource(shape, [
            unrank_permutation(n, v) if kind == "perm" else v
            for (kind, n), v in zip(shape, point)
        ])
        for i in range(len(shape) - 1, -1, -1):
            point[i] += 1
            if point[i] < sizes[i]:
                break
            point[i] = 0
        else:
            return
