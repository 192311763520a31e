"""SeededSource draws the stream of random.Random: its choices are
randrange's values and its permutations are shuffle's, draw for draw, so
every seeded transcript, tally and verdict keeps its value. A Python
whose randrange or shuffle draws differently fails here by name.
SeededSource.point draws one whole draw point from it, and
SeededSource.counts counts a stream of successive points, drawn in
batches where it can, on a premise about how CPython packs the words of
getrandbits that is tested here by name too."""
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from graphpir.rng import CHOICE_ROUND, SeededSource

# the verifier seeds its streams with strings such as "0/1.1/stat"
SEEDS = list(range(300)) + ["%d/1.1/stat" % s for s in range(20)]
# 2^20 + 3 needs 21 bits and is rejected almost half the time
SIZES = (1, 2, 3, 5, 7, 8, 9, 12, 48, 100, 768, (1 << 20) + 3)
# a permutation of 2^20 elements per seed would take seconds
PERM_MAX = 768


def _draws(seed, flip):
    """(source, reference) pairs of one seed's draws: a choice and a
    permutation per size, the permutation first when `flip` is set."""
    src, ref = SeededSource(seed), random.Random(seed)
    for n in SIZES:
        calls = [("choice", n)] + ([("perm", n)] if n <= PERM_MAX else [])
        for kind, n in (calls[::-1] if flip else calls):
            if kind == "choice":
                yield src.choice_index(n), ref.randrange(n)
            else:
                vals = list(range(1, n + 1))
                ref.shuffle(vals)
                yield src.permutation(n), tuple(vals)


def test_seeded_draws_equal_randrange_and_shuffle():
    for i, seed in enumerate(SEEDS):
        for got, want in _draws(seed, i % 2):
            assert got == want, seed


def test_seeded_choice_of_an_empty_domain_is_refused():
    with pytest.raises(ValueError, match="empty choice"):
        SeededSource(0).choice_index(0)


def draw_point(src, shape):
    """One value per draw of `shape`, drawn from `src` in order, one
    primitive call per draw: the reference for SeededSource.point."""
    return tuple([
        src.permutation(n) if kind == "perm" else src.choice_index(n)
        for kind, n in shape
    ])


SHAPES = st.lists(st.tuples(st.sampled_from(["perm", "choice"]), st.integers(1, 40)),
                  max_size=6)


@settings(max_examples=200, deadline=None)
@given(SHAPES, st.integers(0, 20), st.integers(0, 1 << 32))
def test_points_are_successive_draw_points(shape, count, seed):
    src, ref = SeededSource(seed), SeededSource(seed)
    assert [src.point(shape) for _ in range(count)] == [draw_point(ref, shape) for _ in range(count)]
    # both left the generator in the same state
    assert src.choice_index(1 << 40) == ref.choice_index(1 << 40)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 20), st.integers(0, 1 << 32))
def test_points_of_an_empty_shape_draw_nothing(count, seed):
    src = SeededSource(seed)
    state = src._rng.getstate()
    assert [src.point([]) for _ in range(count)] == [()] * count
    assert src._rng.getstate() == state


@pytest.mark.parametrize("shape", [[("choice", 0)], [("perm", 3), ("choice", -1)]])
def test_points_of_an_empty_choice_are_refused(shape):
    with pytest.raises(ValueError, match="empty choice"):
        SeededSource(0).point(shape)


def test_getrandbits_packs_32_bit_words():
    """The premise of SeededSource._choices: getrandbits(k), k <= 32, is
    the next 32-bit word shifted right by 32 - k, and getrandbits(32 * m)
    is the next m words, least significant first."""
    for seed in SEEDS[:20] + SEEDS[-20:]:
        words = [random.Random(seed).getrandbits(32 * m) for m in (1, 7)]
        stream = random.Random(seed)
        assert words[1] == sum(stream.getrandbits(32) << 32 * i for i in range(7)), seed
        assert words[1] & 0xFFFFFFFF == words[0], seed
        for k in range(1, 33):
            assert random.Random(seed).getrandbits(k) == words[0] >> (32 - k), (seed, k)


# counts draws choices of at most 255 in batches, at the edges of a bit
# length; 256 is not
BATCH_SIZES = (1, 2, 3, 127, 128, 254, 255, 256)


@pytest.mark.parametrize("count", [0, 1, 2, 1000, 20000])
@pytest.mark.parametrize("n", BATCH_SIZES)
def test_batched_points_are_successive_draw_points(n, count):
    for d in range(1, 7):
        shape = [("choice", n)] * d
        src, ref = SeededSource("%d/1.1/stat" % d), SeededSource("%d/1.1/stat" % d)
        assert [src.point(shape) for _ in range(count)] == [draw_point(ref, shape) for _ in range(count)]
        assert src._rng.getstate() == ref._rng.getstate(), d


def _same_counts(shape, count, seed):
    """counts equals a Counter of successive points item for item, in
    first-drawn order, and leaves the generator where they leave it."""
    src, ref = SeededSource(seed), SeededSource(seed)
    points = Counter(ref.point(shape) for _ in range(count))
    assert list(src.counts(shape, count).items()) == list(points.items())
    assert src._rng.getstate() == ref._rng.getstate()


@pytest.mark.parametrize("count", [0, 1, 2, 1000, 20000])
@pytest.mark.parametrize("n", BATCH_SIZES)
def test_counts_equal_a_counter_of_points(n, count):
    for d in range(4):
        _same_counts([("choice", n)] * d, count, "%d/1.1/stat" % d)
    _same_counts([("choice", n), ("perm", 3)], count, "perm/1.1/stat")


@pytest.mark.parametrize("d", [1, 2, 3])
def test_counts_past_one_round_equal_a_counter_of_points(d):
    _same_counts([("choice", 3)] * d, CHOICE_ROUND + 7, "%d/1.1/stat" % d)


@pytest.mark.parametrize("shape", [[("choice", 0)], [("perm", 3), ("choice", -1)]])
def test_counts_of_an_empty_choice_are_refused(shape):
    with pytest.raises(ValueError, match="empty choice"):
        SeededSource(0).counts(shape, 1)


@pytest.mark.parametrize("shape", [[("choice", 0)], [("perm", 3), ("choice", -1)]])
def test_counts_of_no_points_of_an_empty_choice_draw_nothing(shape):
    # an empty choice is refused when it is drawn, so none is when no
    # point is
    src = SeededSource(0)
    state = src._rng.getstate()
    assert src.counts(shape, 0) == Counter()
    assert src._rng.getstate() == state


def test_counts_hold_one_round_at_a_time():
    # the stream's bytes are counted round by round and dropped, so the
    # peak does not grow with the sample count
    src = SeededSource("0/1.1/stat")
    tracemalloc.start()
    try:
        counts = src.counts([("choice", 3)], 2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == 2 * 10**6
    assert peak < 4 * 10**6, peak
