import random

import pytest
from hypothesis import given, settings, strategies as st

from graphpir.core import (
    FileId,
    TranscriptError,
    answer_all,
    answer_bit,
    assemble_transcript,
    decode,
    dump_transcript,
    measured_rate,
    random_store,
    request_pattern,
    server_pattern,
    srp_attribution,
    symbolic_decode_check,
    wire_sort_key,
    xor_forms,
)
from graphpir.graphs import build_family
from graphpir.rng import CanonicalSource, SeededSource
from graphpir.schemes import path_scheme, star_scheme

A = FileId(1, 1)
B = FileId(2, 1)


def test_xor_forms_cancels():
    f1 = frozenset({(A, 1), (B, 2)})
    f2 = frozenset({(B, 2), (A, 3)})
    assert xor_forms([f1, f2]) == frozenset({(A, 1), (A, 3)})
    assert xor_forms([f1, f1]) == frozenset()


def test_answer_bit():
    store = {A: (1, 0, 1), B: (0, 1, 1)}
    assert answer_bit(store, frozenset({(A, 1)})) == 1
    assert answer_bit(store, frozenset({(A, 1), (B, 2)})) == 0
    assert answer_bit(store, frozenset()) == 0


def _tiny_transcript(**kw):
    g = build_family("path", [2])
    requests = [(1, frozenset({(A, 1)})), (2, frozenset({(A, 2)}))]
    plan = [(0,), (1,)]
    return assemble_transcript(g, 2, A, requests, plan, SeededSource(0), **kw)


def test_assemble_resolves_plan_positions():
    t = _tiny_transcript()
    assert t.decoding_plan[0] in (frozenset({(1, 1)}), frozenset({(2, 1)}))
    assert symbolic_decode_check(t)


def test_assemble_validation():
    g = build_family("path", [3])
    with pytest.raises(TranscriptError):
        assemble_transcript(
            g, 2, A, [(1, frozenset({(A, 3)}))], [(0,), (0,)], SeededSource(0)
        )
    with pytest.raises(TranscriptError):
        # server 3 does not store edge 1
        assemble_transcript(
            g, 2, A, [(3, frozenset({(A, 1)}))], [(0,), (0,)], SeededSource(0)
        )
    with pytest.raises(TranscriptError):
        # plan must cover every target index
        assemble_transcript(
            g, 2, A, [(1, frozenset({(A, 1)}))], [(0,)], SeededSource(0)
        )


def test_decode_end_to_end_random_stores():
    g = build_family("path", [5])
    data = random.Random(11)
    for theta in range(1, 5):
        t = path_scheme(g, theta, SeededSource("store-%d" % theta))
        store = random_store(g, t.file_length, data)
        got = decode(t, answer_all(store, t))
        assert got == store[FileId(theta, 1)]


def test_symbolic_check_detects_corruption():
    t = _tiny_transcript()
    broken = t.__class__(
        t.graph, t.file_length, t.theta, t.requests,
        (t.decoding_plan[0], t.decoding_plan[0]), t.permutations,
    )
    assert not symbolic_decode_check(broken)


def test_measured_rate():
    g = build_family("path", [4])
    t = path_scheme(g, 2, SeededSource(0))
    assert measured_rate(t) == measured_rate(t).__class__(1, 2)
    assert t.total_requests == 4


def test_srp_attribution_path_and_star():
    t = path_scheme(build_family("path", [4]), 2, SeededSource(5))
    assert srp_attribution(t) == (1, 1)
    t = star_scheme(build_family("star", [5]), 3, SeededSource(5))
    assert srp_attribution(t) == (1, 1)


def test_request_pattern_examples():
    form = frozenset({(A, 5), (A, 2), (B, 7)})
    # two indices of file A become 1, 2; one index of B becomes 1
    assert request_pattern(form) == ((1, 1, 1), (1, 1, 2), (2, 1, 1))


@st.composite
def form_and_perm(draw):
    L = draw(st.integers(min_value=2, max_value=6))
    files = [FileId(e, 1) for e in (1, 2, 3)]
    coords = draw(
        st.lists(
            st.tuples(st.sampled_from(files), st.integers(1, L)),
            min_size=1, max_size=6, unique=True,
        )
    )
    perms = {}
    for f in files:
        vals = list(range(1, L + 1))
        draw(st.randoms(use_true_random=False)).shuffle(vals)
        perms[f] = vals
    return frozenset(coords), perms


@settings(max_examples=100, deadline=None)
@given(form_and_perm())
def test_request_pattern_invariant_under_per_file_permutation(fp):
    form, perms = fp
    mapped = frozenset((f, perms[f][b - 1]) for f, b in form)
    assert request_pattern(mapped) == request_pattern(form)


def test_server_pattern_keeps_wire_order():
    # same two singleton requests in both orders on different files:
    # order is observable, so the patterns must differ
    fa = frozenset({(A, 1)})
    fb = frozenset({(B, 1)})
    assert server_pattern([fa, fb]) != server_pattern([fb, fa])


def test_server_pattern_invariant_within_tie_groups():
    # two requests on the same file with equal per-request patterns can
    # swap positions under a different permutation draw; the canonical
    # pattern must not see the difference
    f1 = frozenset({(A, 1)})
    f2 = frozenset({(A, 2)})
    assert server_pattern([f1, f2]) == server_pattern([f2, f1])


def test_server_patterns_theta_invariant_on_path():
    g = build_family("path", [5])
    pats = {
        theta: tuple(
            server_pattern([r.form for r in server])
            for server in path_scheme(g, theta, SeededSource(9)).requests
        )
        for theta in range(1, 5)
    }
    vals = set(pats.values())
    assert len(vals) == 1


def test_wire_is_sorted_canonically():
    g = build_family("path", [4])
    t = path_scheme(g, 2, SeededSource(1))
    for server in t.requests:
        keys = [wire_sort_key(r.form) for r in server]
        assert keys == sorted(keys)


def test_dump_transcript_format():
    g = build_family("path", [3])
    t = path_scheme(g, 1, CanonicalSource(), identity_perms=True)
    text = dump_transcript(t)
    assert "theta 1.1" in text
    assert "1.1@1" in text
    assert "plan:" in text
    assert "1 <- " in text
