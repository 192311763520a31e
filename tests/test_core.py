import hashlib
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
    file_ids,
    measured_rate,
    random_store,
    server_pattern,
    srp_attribution,
    symbolic_decode_check,
    wire_sort_key,
    xor_forms,
)
from graphpir.graphs import build_family, parse_graph
from graphpir.rng import CanonicalSource, SeededSource
from graphpir.runner import all_thetas
from graphpir.schemes import bind, build

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


class NonInjectiveSource(SeededSource):
    """Draws a 'permutation' that sends every index to 1."""

    def permutation(self, n):
        return (1,) * n


@pytest.mark.parametrize("identity", (True, False))
@pytest.mark.parametrize("server,form,message", [
    (1, frozenset({(A, 1), (A, 3)}), "index 3 out of range"),
    (1, frozenset({(A, 0)}), "index 0 out of range"),
    (3, frozenset({(A, 1)}), r"server 3 asked for file \(1, 1\) it does not store"),
])
def test_assemble_checks_every_coordinate_under_both_permutations(
    identity, server, form, message
):
    # identity permutations skip the storage remap, not the checks
    g = build_family("path", [3])
    requests = [(1, frozenset({(A, 1)})), (server, form)]
    with pytest.raises(TranscriptError, match=message):
        assemble_transcript(
            g, 2, A, requests, [(0,), (0,)], SeededSource(0), identity_perms=identity
        )


def test_assemble_refuses_a_remap_that_collapses_coordinates():
    g = build_family("path", [3])
    requests = [(1, frozenset({(A, 1), (A, 2)}))]
    with pytest.raises(TranscriptError, match="request 0 collapses coordinates"):
        assemble_transcript(g, 2, A, requests, [(0,), (0,)], NonInjectiveSource(0))
    t = assemble_transcript(
        g, 2, A, requests, [(0,), (0,)], NonInjectiveSource(0), identity_perms=True
    )
    assert t.requests[0][0] == requests[0][1]


def test_decode_end_to_end_random_stores():
    g = build_family("path", [5])
    data = random.Random(11)
    for theta in range(1, 5):
        t = build(bind("path", g), g, theta, SeededSource("store-%d" % theta))
        store = random_store(g, t.file_length, data)
        got = decode(t, answer_all(store, t))
        assert got == store[FileId(theta, 1)]


def test_file_ids_is_a_new_list_on_every_call():
    # the file order is kept per graph, so a caller's edit of one result
    # must not reach the next
    g = parse_graph("path:3^2")
    files = file_ids(g)
    files.reverse()
    files.append(FileId(9, 9))
    assert file_ids(g) == [FileId(1, 1), FileId(1, 2), FileId(2, 1), FileId(2, 2)]
    assert file_ids(g) is not file_ids(g)


def test_the_file_order_cache_is_bounded_after_a_sweep(capsys):
    # a sweep reads a new graph on every row; the cache keeps FILE_ORDERS
    # of them, not one per row
    from graphpir import core
    from graphpir.cli import main

    assert main(["sweep", "--family", "path", "--n-max", "6", "--r-max", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 5 * 3  # path:2 to path:6
    assert core._file_order.cache_info().currsize <= core.FILE_ORDERS


@pytest.mark.parametrize("text,L,want", [
    ("path:5", 2,
     "8ebcbcee19a299b13b4e35e29104168989f0efe75be8859cecca7b842d730e9d"),
    ("complete:4^3", 48,
     "7819c10d67ac6eae2cdce20718d84b6a7806d79a87a1ad3c493d2efd697e5c93"),
])
def test_random_store_stream_is_pinned(text, L, want):
    # two stores from one generator, as the reliability check draws them;
    # recorded from the one-word-per-file draw
    g = parse_graph(text)
    rng = random.Random(text)
    h = hashlib.sha256()
    for _ in range(2):
        store = random_store(g, L, rng)
        assert list(store) == all_thetas(g)
        for f, bits in store.items():
            assert len(bits) == L
            assert all(type(b) is int and b in (0, 1) for b in bits)
            h.update(b"%d.%d:%s\n" % (f.edge, f.copy, "".join(map(str, bits)).encode()))
    assert h.hexdigest() == want


def test_symbolic_check_detects_corruption():
    t = _tiny_transcript()
    broken = t.__class__(
        t.graph, t.file_length, t.theta, t.requests,
        (t.decoding_plan[0], t.decoding_plan[0]), t.permutations,
    )
    assert not symbolic_decode_check(broken)


def test_measured_rate():
    g = build_family("path", [4])
    t = build(bind("path", g), g, 2, SeededSource(0))
    assert measured_rate(t) == measured_rate(t).__class__(1, 2)
    assert t.total_requests == 4


def test_srp_attribution_path_and_star():
    g = build_family("path", [4])
    t = build(bind("path", g), g, 2, SeededSource(5))
    assert srp_attribution(t) == (1, 1)
    g = build_family("star", [5])
    t = build(bind("star", g), g, 3, SeededSource(5))
    assert srp_attribution(t) == (1, 1)


def test_request_pattern_examples():
    form = frozenset({(A, 5), (A, 2), (B, 7)})
    # the file part of the wire key: one file per sorted coordinate,
    # whatever its bit index
    assert wire_sort_key(form)[0] == (A, A, B)


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
    assert wire_sort_key(mapped)[0] == wire_sort_key(form)[0]


def pattern_key(form):
    """The wire key as it was first written, kept as a reference: the
    pattern, one (edge, copy, k) per sorted coordinate, k ranking the
    coordinate among its file's, then the sorted coordinates."""
    raw = tuple(sorted(form))
    pattern, prev, k = [], None, 0
    for f, _bit in raw:
        k = k + 1 if f == prev else 1
        prev = f
        pattern.append((f.edge, f.copy, k))
    return tuple(pattern), raw


@st.composite
def wires(draw):
    """Lists of forms over three files, two of them copies of one edge,
    with same-file runs, shared file prefixes and repeated forms."""
    coords = st.tuples(st.sampled_from([A, FileId(1, 2), B]), st.integers(1, 4))
    forms = draw(st.lists(st.frozensets(coords, min_size=1, max_size=5),
                          min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(forms), max_size=4))
    return draw(st.permutations(forms + repeats))


@settings(max_examples=200, deadline=None)
@given(wires())
def test_wire_key_orders_forms_as_the_pattern_key(wire):
    assert sorted(wire, key=wire_sort_key) == sorted(wire, key=pattern_key)
    keys = [(wire_sort_key(f), pattern_key(f)) for f in wire]
    for new_a, old_a in keys:
        for new_b, old_b in keys:
            assert (new_a < new_b, new_a == new_b) == (old_a < old_b, old_a == old_b)


@st.composite
def transcript_parts(draw):
    """(graph, theta, L, requests, plan) that assemble_transcript accepts.
    Each target's plan entry is up to three requests at one server
    hosting theta, whose forms XOR to the target; noise requests lie
    outside every plan entry. Half of the plans leave one planned
    request out of its entry, so that target does not decode."""
    g = parse_graph(draw(st.sampled_from(("path:3", "path:3^2", "star:4", "complete:4^2"))))
    files = file_ids(g)
    theta = draw(st.sampled_from(files))
    L = draw(st.integers(1, 4))

    def form(server):
        stored = [f for f in files if server in g.edges[f.edge - 1]]
        coords = st.tuples(st.sampled_from(stored), st.integers(1, L))
        return frozenset(draw(st.lists(coords, max_size=3, unique=True)))

    requests, plan = [], []
    for tp in range(1, L + 1):
        server = draw(st.sampled_from(g.edges[theta.edge - 1]))
        forms = [form(server) for _ in range(draw(st.integers(0, 2)))]
        forms.append(xor_forms(forms) ^ {(theta, tp)})
        plan.append(list(range(len(requests), len(requests) + len(forms))))
        requests += [(server, f) for f in forms]
    for _ in range(draw(st.integers(0, 3))):
        server = draw(st.integers(1, g.n_vertices))
        requests.append((server, form(server)))
    if draw(st.booleans()):
        entry = draw(st.sampled_from(plan))
        entry.pop(draw(st.integers(0, len(entry) - 1)))
    return g, theta, L, requests, plan


def _outcome(check, t):
    try:
        return check(t)
    except TranscriptError as exc:
        return repr(exc)


@settings(max_examples=200, deadline=None)
@given(transcript_parts(), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_checks_agree_under_random_and_identity_permutations(parts, seed, canonical):
    # a per-file permutation relabels every form and the decoding target
    # alike, so the checks cannot tell a permuted build from its identity
    # build
    g, theta, L, requests, plan = parts
    ident, perm = (
        assemble_transcript(g, L, theta, requests, plan, SeededSource(seed),
                            identity_perms=identity,
                            wire_key=wire_sort_key if canonical else None)
        for identity in (True, False))
    for check in (symbolic_decode_check, srp_attribution, measured_rate):
        assert _outcome(check, perm) == _outcome(check, ident)
    store = random_store(g, L, random.Random(seed))
    got = decode(perm, answer_all(store, perm))
    if symbolic_decode_check(ident):
        assert got == decode(ident, answer_all(store, ident)) == store[theta]
    # whether or not theta decodes, the permuted build decodes the store
    # as the identity build decodes the store read through the permutations
    pi = perm.permutations
    relabelled = {f: tuple(bits[m - 1] for m in pi[f]) for f, bits in store.items()}
    assert (tuple(got[m - 1] for m in pi[theta])
            == decode(ident, answer_all(relabelled, ident)))


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
            server_pattern(server)
            for server in build(bind("path", g), g, theta, SeededSource(9)).requests
        )
        for theta in range(1, 5)
    }
    vals = set(pats.values())
    assert len(vals) == 1


def test_wire_is_sorted_canonically():
    g = build_family("path", [4])
    t = build(bind("path", g), g, 2, SeededSource(1))
    for server in t.requests:
        keys = [wire_sort_key(form) for form in server]
        assert keys == sorted(keys)


def test_dump_transcript_format():
    g = build_family("path", [3])
    t = build(bind("path", g), g, 1, CanonicalSource(), identity_perms=True)
    text = dump_transcript(t)
    assert "theta 1.1" in text
    assert "1.1@1" in text
    assert "plan:" in text
    assert "1 <- " in text
