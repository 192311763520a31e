"""Randomness sources for scheme constructors.

Every scheme takes a RandomSource and draws through two primitives only:
permutations of [1..n] and uniform indices in [0..n). Keeping the
interface this small lets the verifier enumerate the whole randomness
space of a scheme (every draw has a known finite domain) and replay any
single point of it.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from typing import Iterator, Sequence

from .core import TranscriptError

# the most values SeededSource.counts holds at once, so its memory does not
# grow with the sample count
CHOICE_ROUND = 1 << 16


class RandomSource:
    def permutation(self, n: int) -> tuple[int, ...]:
        """A permutation of [1..n], as the tuple (p(1), ..., p(n))."""
        raise NotImplementedError

    def choice_index(self, n: int) -> int:
        """A uniform index in [0..n)."""
        raise NotImplementedError

    def sample_without_replacement(self, seq: Sequence, k: int) -> list:
        pool = list(seq)
        out = []
        for _ in range(k):
            out.append(pool.pop(self.choice_index(len(pool))))
        return out


class SeededSource(RandomSource):
    """random.Random's stream, drawn through getrandbits directly: a
    choice is randrange's rejection draw (redraw n.bit_length() bits
    while they are >= n) and a permutation is shuffle's Fisher-Yates
    walk, so every value is the one randrange or shuffle would draw."""

    def __init__(self, seed) -> None:
        self._rng = random.Random(seed)

    def permutation(self, n: int) -> tuple[int, ...]:
        getrandbits = self._rng.getrandbits
        vals = list(range(1, n + 1))
        for i in range(n - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            vals[i], vals[j] = vals[j], vals[i]
        return tuple(vals)

    def choice_index(self, n: int) -> int:
        if n <= 0:
            raise ValueError("empty choice")
        k = n.bit_length()
        r = self._rng.getrandbits(k)
        while r >= n:
            r = self._rng.getrandbits(k)
        return r

    def point(self, shape: Sequence[tuple[str, int]]) -> tuple:
        """The next draw point of `shape`: one value per draw, drawn in
        order by permutation or choice_index, as a run of that shape would
        draw them (see ReplaySource), leaving the generator in the state
        those draws leave it in. An empty shape gives () without drawing."""
        return tuple([self.permutation(n) if kind == "perm" else self.choice_index(n)
                      for kind, n in shape])

    def counts(self, shape: Sequence[tuple[str, int]], count: int) -> Counter:
        """Counter(self.point(shape) for _ in range(count)), item for item:
        each point of the stream with the times it was drawn, in first-drawn
        order, leaving the generator in the same state. An empty shape
        counts () `count` times without drawing. d choices of one domain of
        at most 255 per point are drawn by _choices and counted round by
        round from their bytes, no round kept: d-tuples zipped from a
        round's bytes when d > 1, and no tuple per sample when d = 1, where
        each value's bytes.count is added in the order bytes.find first
        meets it. Any other stream is counted point by point, so an empty
        choice is refused when it is drawn, not at all when count is 0."""
        if not shape:
            return Counter({(): count} if count > 0 else ())
        d, (kind, n) = len(shape), shape[0]
        if kind != "choice" or not 0 < n <= 255 or shape.count(shape[0]) != d:
            return Counter(self.point(shape) for _ in range(count))
        counts = Counter()
        for values in self._choices(n, count * d, d * max(1, CHOICE_ROUND // d)):
            if d > 1:
                counts.update(zip(*[iter(values)] * d))
                continue
            for _, v, k in sorted((values.find(v), v, k) for v in range(n)
                                  if (k := values.count(v))):
                counts[v,] += k
        return counts

    def _choices(self, n: int, m: int, size: int) -> Iterator[bytes]:
        """m successive choice_index(n) values, 1 <= n <= 255, one per
        byte, in rounds of `size` values, the last one shorter when `size`
        does not divide m. In CPython getrandbits(k), k <= 32, is the next
        32-bit word shifted right by 32 - k, and getrandbits(32 * m) is the
        next m words, least significant first; so each draw takes one word
        per value its round still needs, keeps each word's top byte, and
        maps it through _choice_table(n) to the value choice_index would
        take from that word, dropping rejected ones. No draw takes more
        words than values still needed, so no word past the last value is
        drawn, and the rounds draw the words one draw per value would."""
        table = _choice_table(n)
        for start in range(0, m, size):
            out, want = b"", min(size, m - start)
            while need := want - len(out):
                words = self._rng.getrandbits(32 * need).to_bytes(4 * need, "little")
                out += words[3::4].translate(table).replace(b"\xff", b"")
            yield out


@functools.cache
def _choice_table(n: int) -> bytes:
    """The value of a choice of n, 1 <= n <= 255, at each top byte of its
    word: the byte's top n.bit_length() bits, or 255 where they are >= n
    and the draw is rejected."""
    shift = 8 - n.bit_length()
    return bytes(b >> shift if b >> shift < n else 255 for b in range(256))


class CanonicalSource(RandomSource):
    """Deterministic degenerate source: identity permutations, first
    choices. Records the shape (kind, domain size) of every draw. Used
    for rendering reference transcripts and learning draw shapes."""

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


def record_shape(builder) -> tuple[list[tuple[str, int]], object]:
    """(shape, result): the draw shape of `builder`, learned from one run
    against a CanonicalSource, and what that run returned, the run of
    the shape's canonical_point."""
    rec = CanonicalSource()
    result = builder(rec)
    return rec.shape, result


def canonical_point(shape: Sequence[tuple[str, int]]) -> tuple:
    """The point a CanonicalSource draws on draw shape `shape`: the
    identity for every permutation, index 0 for every choice. It is the
    first point enumerate_sources yields, and the one point of an empty
    shape."""
    return tuple(tuple(range(1, n + 1)) if kind == "perm" else 0 for kind, n in shape)


def enumerate_sources(shape: Sequence[tuple[str, int]],
                      budget: int) -> Iterator[tuple]:
    """Yield every draw point of the randomness space of draw shape
    `shape` (as SeededSource.point does, one value per draw), in
    lexicographic order: permutations of [1..n] in lexicographic order,
    indices ascending, the last draw varying fastest. Raises
    BudgetExceeded, before yielding, when the space has more than
    `budget` points."""
    domain_size(shape, budget)
    yield from itertools.product(*(
        itertools.permutations(range(1, n + 1)) if kind == "perm" else range(n)
        for kind, n in shape
    ))
