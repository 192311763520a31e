import dataclasses
import functools
import random
import time
from collections import Counter, defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import graphpir.verify as verify
from graphpir.core import (
    FileId, TranscriptError, dump_transcript, measured_rate, server_pattern,
    wire_sort_key,
)
from graphpir.graphs import build_family, parse_graph
from graphpir.mutants import (
    MUTANTS,
    compose_stars_no_decoy,
    compose_stars_theta_ordered,
    drop_planned_request,
)
from graphpir.rng import (
    BudgetExceeded,
    SeededSource,
    canonical_point,
    domain_size,
    enumerate_sources,
    record_shape,
)
from graphpir.runner import all_thetas, resolve_scheme
from graphpir.schemes import bind, build, compose_stars
from graphpir.verify import (
    EXACT_BUDGET,
    _colour_classes,
    _compare,
    _replay,
    _seed_for,
    _tally,
    _verdict,
    _walk,
    tv_distance,
    verify_privacy,
    verify_privacy_exact,
    verify_privacy_statistical,
    verify_privacy_structural,
    verify_rate,
    verify_reliability,
    verify_scheme,
    verify_srp,
)


def test_tv_distance():
    p = Counter(a=2, b=2)
    q = Counter(a=4)
    assert tv_distance(p, q, 4, 4) == 0.5
    assert tv_distance(p, p, 4, 4) == 0.0
    assert tv_distance(Counter(a=1), Counter(b=1), 1, 1) == 1.0


@pytest.mark.parametrize("scheme,graph", [
    ("path", "path:5"),
    ("star", "star:5"),
    ("compose-stars", "complete_bipartite:2,2"),
])
def test_exact_privacy_passes(scheme, graph):
    from graphpir.graphs import parse_graph
    c = verify_privacy_exact(scheme, parse_graph(graph))
    assert c.passed, c.detail


def test_exact_privacy_budget():
    g = build_family("complete", [5])
    with pytest.raises(BudgetExceeded):
        verify_privacy_exact("complete", g)
    # auto mode falls back to the structural tier
    c = verify_privacy("complete", g, mode="auto")
    assert c.name == "privacy-structural"
    assert c.passed
    # complete:4 has 16 points of its own draws per theta: exact
    c = verify_privacy("complete", build_family("complete", [4]), mode="auto")
    assert c.name == "privacy-exact"
    assert c.passed


def test_structural_and_statistical_pass_on_lift():
    g = build_family("path", [4], 2)
    assert verify_privacy_structural("lift:path", g).passed
    c = verify_privacy_statistical("lift:path", g, samples=10_000)
    assert c.passed
    assert "max TV 0.00000" in c.detail


def test_statistical_rejects_tiny_sample_counts():
    g = build_family("path", [3], 2)
    with pytest.raises(ValueError):
        verify_privacy_statistical("lift:path", g, samples=100)


def test_full_report_passes_and_serializes():
    g = build_family("path", [4])
    rep = verify_scheme("path", g, privacy="exact")
    assert rep.passed
    d = rep.to_dict()
    assert d["passed"] and len(d["checks"]) == 4
    md = rep.to_md()
    assert "| reliability | pass |" in md
    assert "privacy-exact" in md


def test_verify_srp_pass():
    assert verify_srp("star", build_family("star", [5])).passed


def test_mutant_registry_documents_expected_failures():
    assert set(MUTANTS) == {
        "drop-request", "theta-ordered-compose", "no-decoy-compose"
    }
    assert MUTANTS["drop-request"][1] == "reliability"


def test_mutant_drop_request_fails_reliability():
    def broken(g, theta, rng, **kw):
        return drop_planned_request(build(bind("path", g), g, theta, rng, **kw))

    g = build_family("path", [4])
    c = verify_reliability(broken, g, seeds=range(2))
    assert not c.passed
    assert "symbolic" in c.detail


def test_reliability_catches_a_wrong_end_to_end_decode(monkeypatch):
    # symbolic decoding still passes, so only the decode of the first
    # random store can catch the flipped bit
    import graphpir.verify as verify

    real = verify.decode

    def flipped(t, answers):
        out = real(t, answers)
        return (1 - out[0],) + out[1:]

    monkeypatch.setattr(verify, "decode", flipped)
    c = verify_reliability("path", build_family("path", [4]), seeds=[0])
    assert not c.passed
    assert c.detail == "end-to-end decode mismatch"
    assert c.witness["store"] == 0
    assert c.witness["seed"] == 0


def test_mutant_theta_ordered_fails_privacy():
    g = build_family("complete_bipartite", [2, 2])
    # caught by the exact tier (its randomness space is enumerable) ...
    assert not verify_privacy_exact(compose_stars_theta_ordered, g).passed
    # ... and by the sampled tiers
    c = verify_privacy_statistical(compose_stars_theta_ordered, g, samples=10_000)
    assert not c.passed
    assert not verify_privacy_structural(compose_stars_theta_ordered, g).passed


def test_mutant_no_decoy_fails_privacy_with_tv_one():
    g = build_family("complete_bipartite", [2, 2])
    c = verify_privacy_statistical(compose_stars_no_decoy, g, samples=10_000)
    assert not c.passed
    assert c.witness["max_tv"] == 1.0


def test_honest_compose_passes_statistical():
    g = build_family("complete_bipartite", [2, 2])
    c = verify_privacy_statistical("compose-stars", g, samples=10_000)
    assert c.passed, c.detail


def test_failed_check_carries_witness():
    g = build_family("complete_bipartite", [2, 2])
    c = verify_privacy_exact(compose_stars_theta_ordered, g)
    assert not c.passed
    assert "server" in c.witness


def test_domain_size_refuses_past_budget():
    assert domain_size([("perm", 4), ("choice", 3)], 72) == 72
    with pytest.raises(BudgetExceeded) as exc:
        domain_size([("choice", 2)] * 3 + [("perm", 5000)], 4)
    assert str(exc.value) == "randomness space exceeds the budget of 4 points"


@pytest.mark.parametrize("shape", [
    [("perm", 3), ("choice", 2)],
    [("choice", 3), ("perm", 1), ("perm", 2), ("choice", 1)],
    [("perm", 4)],
])
def test_enumerate_sources_yields_every_point_once(shape):
    points = list(enumerate_sources(shape, 1 << 20))
    assert len(points) == len(set(points)) == domain_size(shape, 1 << 20)
    for point in points:
        for (kind, n), v in zip(shape, point):
            assert (sorted(v) == list(range(1, n + 1))) if kind == "perm" else (0 <= v < n)


def test_enumerate_sources_order_is_lexicographic():
    shape = [("perm", 3), ("choice", 2)]
    points = list(enumerate_sources(shape, 1 << 20))
    assert points[:3] == [((1, 2, 3), 0), ((1, 2, 3), 1), ((1, 3, 2), 0)]
    assert points == sorted(points)


def test_enumerate_sources_of_an_empty_shape_is_one_point():
    assert list(enumerate_sources([], 1 << 20)) == [()]


def test_enumerate_sources_refuses_past_budget_before_yielding():
    it = enumerate_sources([("perm", 3), ("choice", 2)], budget=11)
    with pytest.raises(BudgetExceeded):
        next(it)
    assert list(enumerate_sources([("perm", 3), ("choice", 2)], budget=12))


def test_exact_privacy_refuses_huge_space_quickly():
    # complete:8's full space has thousands of digits: the refusal must
    # be quick and must not format that number
    g = parse_graph("complete:8")
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        verify_privacy_exact("complete", g)
    assert time.perf_counter() - start < 1.0
    assert str(EXACT_BUDGET) in str(exc.value)
    assert len(str(exc.value)) < 80


def test_exact_privacy_detail_counts_quotient_points():
    # one quotient point per theta stands for the 2^3 permutation draws
    c = verify_privacy_exact("path", build_family("path", [4]))
    assert c.passed
    assert "(3 quotient points)" in c.detail


def test_exact_privacy_fail_is_confirmed():
    g = build_family("complete_bipartite", [2, 2])
    c = verify_privacy_exact(compose_stars_no_decoy, g)
    assert not c.passed
    assert "(orbit invariant differs)" in c.detail


def test_exact_privacy_on_lifted_path_is_fast():
    g = parse_graph("path:3^2")
    start = time.perf_counter()
    c = verify_privacy_exact("lift:path", g)
    assert c.passed, c.detail
    assert time.perf_counter() - start < 5.0


def compose_stars_drop_request(g, theta, rng, **kw):
    return drop_planned_request(compose_stars(g, theta, rng, **kw))


def _canonical(scheme, g):
    """The runner of `scheme` on g, under the same name, with every
    server's wire in canonical order whatever its caller or the scheme
    asks for: it builds with wire_key=wire_sort_key, then sorts each wire
    itself, moving the plan's positions with it, as a scheme may
    override the key (the theta-ordered mutant sets None)."""
    name, run = resolve_scheme(scheme, g)

    def wrapped(g, theta, rng, **kw):
        t = run(g, theta, rng, **{**kw, "wire_key": wire_sort_key})
        orders = [sorted(range(len(w)), key=lambda i: wire_sort_key(w[i]))
                  for w in t.requests]
        moved = [{old + 1: new + 1 for new, old in enumerate(o)} for o in orders]
        return dataclasses.replace(
            t,
            requests=tuple(tuple(w[i] for i in o) for w, o in zip(t.requests, orders)),
            decoding_plan=tuple(frozenset((s, moved[s - 1][p]) for s, p in entry)
                                for entry in t.decoding_plan))

    wrapped.__name__ = name
    return wrapped


def _construction_order(scheme, g):
    """The runner of `scheme` on g, under the same name, with every
    server's wire in construction order whatever its caller asks for."""
    name, run = resolve_scheme(scheme, g)

    def wrapped(g, theta, rng, **kw):
        kw["wire_key"] = None
        return run(g, theta, rng, **kw)

    wrapped.__name__ = name
    return wrapped


WIRE_ORDER_CASES = (
    [("auto", text) for text in ("path:4", "complete:4", "complete_bipartite:2,3", "path:3^2")]
    + [(run, "complete_bipartite:2,3") for run in (
        compose_stars_drop_request, compose_stars_theta_ordered, compose_stars_no_decoy)]
)


@pytest.mark.parametrize(
    "scheme,graph", WIRE_ORDER_CASES,
    ids=["%s-%s" % (getattr(s, "__name__", s), g) for s, g in WIRE_ORDER_CASES],
)
def test_check_transcripts_do_not_read_the_wire_order(scheme, graph):
    # the checks read builds whose wires are sorted (a mutant may keep
    # its own order); keeping every wire in construction order, or
    # sorting every wire the mutant's included, changes no result, no
    # witness and no rate
    g = parse_graph(graph)
    names = ["reliability", "srp", "rate"]
    unsorted = _walk(_construction_order(scheme, g), g, names, seeds=range(3))
    assert _walk(scheme, g, names, seeds=range(3)) == unsorted
    assert _walk(_canonical(scheme, g), g, names, seeds=range(3)) == unsorted
    if scheme is compose_stars_drop_request:
        # its victim, min(plan[0]), moves with the wire order, and
        # reliability still fails on the first transcript
        rel = unsorted[1]["reliability"]
        assert (rel.passed, rel.detail) == (False, "symbolic decode failed")
        assert rel.witness["theta"] == FileId(1, 1) and rel.witness["seed"] == 0


REORDER_CASES = (("auto", "complete:4"), ("auto", "path:3^2"),
                 (compose_stars_theta_ordered, "complete_bipartite:2,3"))


@pytest.mark.parametrize(
    "scheme,graph", REORDER_CASES,
    ids=[g if s == "auto" else "%s-%s" % (s.__name__, g) for s, g in REORDER_CASES],
)
def test_canonical_runner_reorders_the_same_wire(scheme, graph):
    # the comparisons above are not vacuous: here the construction-order
    # wire and the canonical runner's send each server the same forms in
    # another order, the mutant's own construction order included
    g = parse_graph(graph)
    _, run = resolve_scheme(scheme, g)
    theta = all_thetas(g)[-1]  # in the mutant's wire, its part comes first
    built = run(g, theta, SeededSource(0), wire_key=None)
    sorted_ = _canonical(scheme, g)(g, theta, SeededSource(0), wire_key=None)
    assert built.requests != sorted_.requests
    assert [sorted(s, key=wire_sort_key) for s in built.requests] == [
        list(s) for s in sorted_.requests]


CROSS_VALIDATION = (
    [("auto", "path:%d" % n) for n in range(2, 7)]
    + [("auto", "star:%d" % n) for n in range(3, 7)]
    + [("auto", "complete_bipartite:2,%d" % n) for n in (2, 3, 4)]
    + [("auto", "path:2^2")]
    + [
        (mutant, "complete_bipartite:2,%d" % n)
        for mutant in (
            compose_stars_theta_ordered,
            compose_stars_no_decoy,
            compose_stars_drop_request,
        )
        for n in (2, 3)
    ]
)


@st.composite
def pattern_dists(draw):
    """{theta: (one Counter per server, runs)} over two to four thetas:
    copies, some scaled, of one distribution, then one server's entry
    redrawn at up to two thetas, so a differing pair may come late in
    the scan."""
    servers = draw(st.integers(1, 3))
    counts = st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any)
    base = [draw(counts) for _ in range(servers)]
    thetas = [FileId(e, 1) for e in range(1, draw(st.integers(2, 4)) + 1)]
    redrawn = draw(st.sets(st.sampled_from(thetas), max_size=2))
    dists = {}
    for theta in thetas:
        scale = draw(st.integers(1, 2))
        rows = [[scale * c for c in row] for row in base]
        if theta in redrawn:
            rows[draw(st.integers(0, servers - 1))] = draw(counts)
        dists[theta] = ([Counter(dict(zip("abc", row))) for row in rows],
                        sum(rows[0]))
    return dists


def _all_pairs(dists):
    """(differs, largest TV, witness) of a scan of every theta pair,
    servers innermost: the first pair whose counts differ, and the
    largest TV distance of any pair."""
    thetas, worst, diff = list(dists), 0.0, None
    for i, ta in enumerate(thetas):
        for tb in thetas[i + 1:]:
            (cas, na), (cbs, nb) = dists[ta], dists[tb]
            for s, (ca, cb) in enumerate(zip(cas, cbs), start=1):
                worst = max(worst, tv_distance(ca, cb, na, nb))
                if diff is None and any(ca[k] * nb != cb[k] * na for k in ca | cb):
                    diff = {"server": s, "theta_a": ta, "theta_b": tb}
    return diff is not None, worst, diff or {}


@settings(max_examples=300, deadline=None)
@given(pattern_dists())
def test_comparing_against_the_first_theta_finds_the_all_pairs_witness(dists):
    differs, worst, at = _all_pairs(dists)
    got = _compare(dists)
    assert (got[0], got[2]) == (differs, at)
    # at a numeric tolerance, 0 included, the TV is still over all pairs
    assert _compare(dists, 0) == (differs, worst, at)


def _per_theta(run, g, view, points, **run_kw):
    """{theta: the counts _tally makes of `view` over the draw points
    `points(theta, shape)`}, each run as run(g, theta, source, **run_kw)."""
    dists = {}
    for theta in all_thetas(g):
        build = functools.partial(run, g, theta, **run_kw)
        shape, _ = record_shape(build)
        dists[theta] = _tally(build, shape, Counter(points(theta, shape)), view, g.n_vertices)
    return dists


def _sweep(run, g, view, **run_kw):
    """(differs, witness) of `view` over every point of the randomness
    space of `run`, file permutations included unless `run_kw` drops
    them."""
    dists = _per_theta(
        run, g, view,
        lambda theta, shape: enumerate_sources(shape, 1 << 20),
        **run_kw,
    )
    differs, _, at = _compare(dists)
    return differs, at


@pytest.mark.parametrize(
    "scheme,graph", CROSS_VALIDATION,
    ids=["%s-%s" % (getattr(s, "__name__", s), g) for s, g in CROSS_VALIDATION],
)
def test_quotient_agrees_with_full_enumeration(scheme, graph):
    g = parse_graph(graph)
    _, run = resolve_scheme(scheme, g)
    quotient = _sweep(run, g, server_pattern, identity_perms=True)
    # the reference: raw requests over the full space
    full = _sweep(run, g, lambda forms: tuple(
        tuple(sorted((f.edge, f.copy, b) for f, b in form)) for form in forms
    ))
    assert quotient == full
    differs, witness = full
    c = verify_privacy_exact(scheme, g)
    assert c.passed == (not differs)
    if differs:
        assert {k: c.witness[k] for k in witness} == witness


FILES = [FileId(e, c) for e in (1, 2) for c in (1, 2)]


@st.composite
def request_sequences(draw):
    coords = st.tuples(st.sampled_from(FILES), st.integers(1, 8))
    n = draw(st.integers(0, 6))
    return [frozenset(draw(st.sets(coords, max_size=5))) for _ in range(n)]


def _incidences(requests) -> dict:
    """Per file, the multiset of request-index sets its bit indices occur
    in; equal for two sequences iff one is an injective per-file
    relabelling of the other."""
    where = defaultdict(set)
    for i, req in enumerate(requests):
        for edge, copy, bit in req:
            where[(edge, copy, bit)].add(i)
    out = defaultdict(Counter)
    for (edge, copy, _bit), idx in where.items():
        out[(edge, copy)][frozenset(idx)] += 1
    return out


@settings(max_examples=200, deadline=None)
@given(request_sequences())
def test_orbit_label_is_an_injective_per_file_relabelling(seq):
    label = server_pattern(seq)
    raw = [[(f.edge, f.copy, b) for f, b in form] for form in seq]
    assert len(label) == len(raw)
    for req, form in zip(label, raw):
        assert len(req) == len(form)
        assert list(req) == sorted(set(req))
    assert _incidences(label) == _incidences(raw)
    # names run 1, 2, ... per file
    for edge, copy in {(e, c) for req in label for e, c, _ in req}:
        names = {b for req in label for e, c, b in req if (e, c) == (edge, copy)}
        assert names == set(range(1, len(names) + 1))


@settings(max_examples=200, deadline=None)
@given(request_sequences(), st.randoms(use_true_random=False))
def test_colour_class_is_invariant_under_per_file_relabelling(seq, rnd):
    perms = {f: rnd.sample(range(1, 9), 8) for f in FILES}
    image = [frozenset((f, perms[f][b - 1]) for f, b in form) for form in seq]
    a, b = (server_pattern(sorted(s, key=wire_sort_key)) for s in (seq, image))
    classes = _colour_classes([a, b])
    assert classes[a] == classes[b]


def test_refinement_that_cannot_split_patterns_is_inconclusive():
    # the wire {a1,a2},{a1,b1},{a2,c1} and its image under the swap
    # a1<->a2 lie in one orbit; their patterns name a1 and a2 by index
    # and differ, and colour refinement cannot tell them apart
    a, b, c = FileId(1, 1), FileId(2, 1), FileId(3, 1)
    wire = [{(a, 1), (a, 2)}, {(a, 1), (b, 1)}, {(a, 2), (c, 1)}]
    swapped = [{(a, 1), (a, 2)}, {(a, 2), (b, 1)}, {(a, 1), (c, 1)}]
    p, q = (server_pattern([frozenset(r) for r in w]) for w in (wire, swapped))
    assert p != q
    classes = _colour_classes([p, q])
    assert classes[p] == classes[q]
    dists = {a: ([Counter({p: 1})], 1), b: ([Counter({q: 1})], 1)}
    for tolerance in (0, 0.02):
        with pytest.raises(TranscriptError, match="inconclusive"):
            _verdict(dists, tolerance)


def test_verify_rate_checks_every_theta():
    g = build_family("path", [3])
    first, second = all_thetas(g)

    def inflated(g, theta, rng, **kw):
        t = build(bind("path", g), g, theta, rng, **kw)
        return t if theta == first else drop_planned_request(t)

    c, rate = verify_rate(inflated, g)
    assert not c.passed
    assert c.witness["theta"] == second
    assert rate > verify_rate("path", g)[1]


def test_privacy_mode_names_are_checked():
    with pytest.raises(ValueError):
        verify_privacy("path", build_family("path", [3]), mode="bogus")


def test_zero_seeds_are_refused():
    with pytest.raises(ValueError, match="need at least one seed"):
        verify_privacy_structural("path", parse_graph("path:4"), seeds=range(0))


@pytest.mark.parametrize("graph", ["complete:6", "complete:4^3"])
def test_auto_verifies_graphs_with_large_tie_groups(graph):
    rep = verify_scheme("auto", parse_graph(graph), seeds=range(3))
    assert rep.passed, rep.to_md()
    assert rep.checks[1].name == "privacy-structural"


def test_empty_draw_shape_draws_no_points(monkeypatch):
    # a lifted path scheme draws nothing under identity permutations: its
    # one point is tallied once per sample without being drawn
    calls = 0
    real = random.Random.getrandbits

    def counted(rng, k):
        nonlocal calls
        calls += 1
        return real(rng, k)

    monkeypatch.setattr(random.Random, "getrandbits", counted)
    SeededSource(0).choice_index(2)
    assert calls > 0  # the seeded draws are seen
    calls = 0
    assert verify_privacy_statistical("lift:path", parse_graph("path:4^3")).passed
    assert calls == 0


def _witness(scheme, server, edge_b):
    return {
        "scheme": scheme,
        "server": str(server),
        "theta_a": "FileId(edge=1, copy=1)",
        "theta_b": "FileId(edge=%d, copy=1)" % edge_b,
    }


TIERS = {
    "exact": verify_privacy_exact,
    "structural": verify_privacy_structural,
    "statistical": lambda s, g: verify_privacy_statistical(s, g, samples=10_000),
}
NO_DECOY, THETA_ORDERED = compose_stars_no_decoy, compose_stars_theta_ordered

# (tier, scheme, graph, passed, detail, witness) of CheckResult.to_dict()
GOLDEN = [
    ("exact", "auto", "path:5", True,
     "distributions identical across 4 theta values "
     "(4 quotient points)", {}),
    ("exact", THETA_ORDERED, "complete_bipartite:2,2", False,
     "query distribution depends on theta (orbit invariant differs)",
     _witness("compose_stars_theta_ordered", 3, 3)),
    ("exact", NO_DECOY, "complete_bipartite:2,2", False,
     "query distribution depends on theta (orbit invariant differs)",
     _witness("compose_stars_no_decoy", 1, 3)),
    ("exact", compose_stars_drop_request, "complete_bipartite:2,2", False,
     "query distribution depends on theta (orbit invariant differs)",
     _witness("compose_stars_drop_request", 1, 3)),
    ("structural", "auto", "complete:3", True,
     "patterns theta-invariant over 20 seeds", {}),
    ("structural", THETA_ORDERED, "complete_bipartite:2,2", False,
     "pattern multiset depends on theta",
     _witness("compose_stars_theta_ordered", 3, 3)),
    ("statistical", "lift:path", "path:3^2", True,
     "max TV 0.00000 (tolerance 0.02, 10000 samples)",
     {"scheme": "lift:path", "max_tv": "0.0"}),
    # deterministic: one run per theta, so the TV is exactly 1
    ("statistical", NO_DECOY, "complete_bipartite:2,2", False,
     "max TV 1.00000 (tolerance 0.02, 10000 samples)",
     {"max_tv": "1.0", **_witness("compose_stars_no_decoy", 1, 3)}),
]


@pytest.mark.parametrize(
    "tier,scheme,graph,passed,detail,witness", GOLDEN,
    ids=["%s-%s-%s" % (t, getattr(s, "__name__", s), g)
         for t, s, g, *_ in GOLDEN],
)
def test_tier_outputs_are_pinned(tier, scheme, graph, passed, detail, witness):
    c = TIERS[tier](scheme, parse_graph(graph))
    assert c.to_dict() == {
        "check": "privacy-" + tier, "passed": passed, "detail": detail,
        "witness": witness,
    }


def _sources(theta):
    """Ten fresh seeded sources (the structural stream), then one source
    drawn from 200 times (the statistical stream)."""
    fresh = [SeededSource("%d/%s/memo" % (seed, tuple(theta))) for seed in range(10)]
    return fresh + [SeededSource("%s/memo" % (tuple(theta),))] * 200


def _points(theta, shape):
    """The draw points of _sources(theta), made as _walk makes them: one
    point(shape) per fresh source, then 200 successive point(shape) of
    the repeated one."""
    sources = _sources(theta)
    return [src.point(shape) for src in sources]


def _direct_counts(run, g):
    """The reference for the tally: one build and one pattern per source."""
    dists = {}
    for theta in all_thetas(g):
        counters = [Counter() for _ in range(g.n_vertices)]
        n = 0
        for src in _sources(theta):
            t = run(g, theta, src, identity_perms=True)
            for c, server in zip(counters, t.requests):
                c[server_pattern(server)] += 1
            n += 1
        dists[theta] = counters, n
    return dists


def compose_stars_cut_wires(g, theta, rng, **kw):
    """Every server's wire cut short at a drawn length: unlike the
    schemes, whose patterns are the same at every point, its views
    differ with each of its draws."""
    t = compose_stars(g, theta, rng, **kw)
    return dataclasses.replace(t, requests=tuple(
        server[:rng.choice_index(len(server) + 1)] for server in t.requests
    ))


MEMO_CASES = [
    (compose_stars_cut_wires, "complete_bipartite:2,3"),
    ("compose-stars", "complete_bipartite:2,3"),
    ("complete", "complete:4"),
    ("lift:complete", "complete:3^2"),
    ("lift:path", "path:3^2"),
] + [
    (mutant, "complete_bipartite:2,3")
    for mutant in (NO_DECOY, THETA_ORDERED, compose_stars_drop_request)
]


@pytest.mark.parametrize(
    "scheme,graph", MEMO_CASES,
    ids=["%s-%s" % (getattr(s, "__name__", s), g) for s, g in MEMO_CASES],
)
def test_memoised_counts_equal_a_run_per_source(scheme, graph):
    g = parse_graph(graph)
    _, run = resolve_scheme(scheme, g)
    dists = _per_theta(
        run, g, server_pattern, _points, identity_perms=True,
    )
    assert dists == _direct_counts(run, g)


@pytest.mark.parametrize("graph,repeats", [
    ("path:4^3", False), ("complete:3^2", False), ("complete:4", True),
])
def test_tally_views_each_distinct_server_wire_once_per_call(graph, repeats):
    # at the structural tier's ten seeded points per theta, the check
    # points of ten seeds, each distinct (server, wire) pair is viewed
    # once, however many points repeat it; the memo lives for one call,
    # so a second call views every wire again. The first two graphs draw
    # nothing (one point per theta), so only on complete:4 do distinct
    # points repeat a server's wire
    g = parse_graph(graph)
    _, run = resolve_scheme("auto", g)
    calls = 0

    def counted(forms):
        nonlocal calls
        calls += 1
        return server_pattern(forms)

    for theta in all_thetas(g):
        build = functools.partial(run, g, theta, identity_perms=True)
        shape, _ = record_shape(build)
        seeds = [SeededSource(_seed_for(seed, theta, "rel")) for seed in range(10)]
        points = [src.point(shape) for src in seeds]
        wires = {
            (s, wire)
            for seed in range(10)
            for s, wire in enumerate(
                build(SeededSource(_seed_for(seed, theta, "rel"))).requests)
        }
        assert (len(wires) < g.n_vertices * len(set(points))) == repeats
        for _ in range(2):
            calls = 0
            counts = _tally(build, shape, Counter(points), counted, g.n_vertices)
            assert calls == len(wires)
        assert counts == _tally(build, shape, Counter(points), server_pattern, g.n_vertices)


def test_theta_ordered_mutant_keeps_its_wire_order_under_a_wire_key():
    # the mutant asks for construction order, so a wire key the privacy
    # tiers hand it is never called and its wire is the one it builds
    # without a key; it still fails both tiers with the same witness
    g = parse_graph("complete_bipartite:2,3")
    keyed = 0

    def key(form):
        nonlocal keyed
        keyed += 1
        return wire_sort_key(form)

    unsorted = 0
    for theta in all_thetas(g):
        for seed in (1, 2):
            plain = THETA_ORDERED(g, theta, SeededSource(seed), identity_perms=True)
            t = THETA_ORDERED(g, theta, SeededSource(seed), identity_perms=True,
                              wire_key=key)
            assert t.requests == plain.requests
            unsorted += any(list(w) != sorted(w, key=wire_sort_key) for w in t.requests)
    assert keyed == 0
    assert unsorted
    for tier in ("exact", "structural"):
        c = TIERS[tier](THETA_ORDERED, g)
        assert not c.passed
        assert c.to_dict()["witness"] == _witness("compose_stars_theta_ordered", 3, 4)


def test_statistical_scheme_runs_do_not_grow_with_samples():
    g = parse_graph("complete_bipartite:2,3")

    def scheme_runs(samples):
        runs = 0

        def counted(g, theta, rng, **kw):
            nonlocal runs
            runs += 1
            return compose_stars(g, theta, rng, **kw)

        assert verify_privacy_statistical(counted, g, samples=samples).passed
        return runs

    # per theta: one run to learn the draw shape, one per distinct point
    assert scheme_runs(10_000) == scheme_runs(20_000) <= len(all_thetas(g)) * (1 + 3)


def _more_draws_after_one(g, theta, rng, **kw):
    if rng.choice_index(2):
        rng.choice_index(3)
    return build(bind("path", g), g, theta, rng, **kw)


def _fewer_draws_after_one(g, theta, rng, **kw):
    if not rng.choice_index(2):
        rng.choice_index(3)
    return build(bind("path", g), g, theta, rng, **kw)


@pytest.mark.parametrize("scheme", [_more_draws_after_one, _fewer_draws_after_one])
@pytest.mark.parametrize("tier", [
    verify_privacy_exact,
    verify_privacy_structural,
    lambda s, g: verify_privacy_statistical(s, g, samples=10_000),
], ids=["exact", "structural", "statistical"])
def test_value_dependent_draw_shape_is_refused(tier, scheme):
    with pytest.raises(TranscriptError, match="draw shape depends on drawn values"):
        tier(scheme, parse_graph("path:3"))


@pytest.mark.parametrize("scheme,message", [
    (_more_draws_after_one, "draw shape depends on drawn values: draw 1 is (choice, 3)"),
    (_fewer_draws_after_one, "draw shape depends on drawn values: 1 of 2 draws made"),
], ids=["more", "fewer"])
@pytest.mark.parametrize("walk", [verify_reliability, verify_srp, verify_rate])
def test_a_check_only_walk_refuses_a_value_dependent_draw_shape(walk, scheme, message):
    # the checks replay their points on the recorded draw shape, as the
    # privacy tiers do; seed 0's check point at theta 1 draws a 1 first
    with pytest.raises(TranscriptError) as exc:
        walk(scheme, parse_graph("path:3"))
    assert str(exc.value) == message


def test_seed_iterators_are_read_once():
    g = parse_graph("complete:3")
    once = verify_scheme("auto", g, seeds=iter(range(3)))
    assert once.to_dict() == verify_scheme("auto", g, seeds=range(3)).to_dict()
    assert once.checks[1].name == "privacy-exact"
    c = verify_privacy_structural("path", parse_graph("path:4"),
                                  seeds=(s for s in range(3)))
    assert c.detail == "patterns theta-invariant over 3 seeds"


FAMILY_MEMBERS = st.one_of(
    st.tuples(st.sampled_from(["path", "star"]), st.integers(2, 7).map(lambda n: [n]),
              st.integers(1, 3)),
    st.integers(3, 5).map(lambda n: ("complete", [n], 1)),
    st.tuples(st.just("complete"), st.integers(3, 4).map(lambda n: [n]), st.integers(2, 3)),
    st.tuples(st.integers(2, 4), st.integers(2, 4)).map(
        lambda mn: ("complete_bipartite", sorted(mn), 1)),
)


@settings(max_examples=30, deadline=None)
@given(FAMILY_MEMBERS, st.integers(0, 1 << 16))
def test_family_members_pass_the_transcript_checks(member, seed):
    # reliability, the even SRP split and the rate within every exact
    # upper bound, on one seeded transcript per theta
    family, params, r = member
    g = build_family(family, params, r)
    _, checks, _ = _walk("auto", g, ["reliability", "srp", "rate"], seeds=[seed])
    assert all(c.passed for c in checks.values()), [c.to_dict() for c in checks.values()]


def _counting(scheme):
    """A runner that counts its builds in `.builds`, else `scheme`."""
    def counted(g, theta, rng, **kw):
        counted.builds += 1
        return scheme(g, theta, rng, **kw)

    counted.builds = 0
    return counted


@pytest.mark.parametrize("mode,kwargs,message", [
    ("statistical", {"samples": 100}, "need at least 10^4 samples"),
    ("statistical", {"samples": 10_000, "tolerance": 1},
     "tolerance must be in [0, 1), got 1"),
    ("bogus", {}, "unknown privacy mode 'bogus'"),
    ("structural", {"seeds": range(0)}, "need at least one seed"),
])
def test_bad_privacy_arguments_are_refused_before_any_build(mode, kwargs, message):
    g = parse_graph("complete:5")
    run = _counting(resolve_scheme("auto", g)[1])
    for verify in (lambda: verify_scheme(run, g, privacy=mode, **kwargs),
                   lambda: verify_privacy(run, g, mode, **kwargs)):
        with pytest.raises(ValueError) as exc:
            verify()
        assert str(exc.value) == message
    assert run.builds == 0


def test_exact_refusal_costs_one_build():
    g = parse_graph("complete:5")
    run = _counting(resolve_scheme("auto", g)[1])
    with pytest.raises(BudgetExceeded) as exc:
        verify_scheme(run, g, privacy="exact")
    assert str(exc.value) == "randomness space exceeds the budget of %d points" % EXACT_BUDGET
    # theta 1's draw shape, learned before any check transcript
    assert run.builds == 1


def _budget_passed_at_theta_2(g, theta, rng, **kw):
    """The path scheme after 11 extra coin flips per edge past the first:
    its own draws fit EXACT_BUDGET at theta 1 and pass it at theta 2."""
    for _ in range(11 * (theta.edge - 1)):
        rng.choice_index(2)
    return build(bind("path", g), g, theta, rng, **kw)


def test_auto_falls_back_to_structural_at_a_later_theta():
    g = parse_graph("path:4")
    first, second = all_thetas(g)[:2]
    shapes = [record_shape(functools.partial(_budget_passed_at_theta_2, g, theta,
                                             identity_perms=True))[0]
              for theta in (first, second)]
    assert domain_size(shapes[0], EXACT_BUDGET) <= EXACT_BUDGET
    with pytest.raises(BudgetExceeded):
        domain_size(shapes[1], EXACT_BUDGET)
    rep = verify_scheme(_budget_passed_at_theta_2, g, privacy="auto", seeds=range(4))
    assert rep.checks[1] == verify_privacy_structural(_budget_passed_at_theta_2, g,
                                                      seeds=range(4))
    assert rep.checks[1].to_dict() == {
        "check": "privacy-structural", "passed": True,
        "detail": "patterns theta-invariant over 4 seeds", "witness": {},
    }
    assert verify_privacy(_budget_passed_at_theta_2, g, seeds=range(4)) == rep.checks[1]


def _budget_passed_by_one_at_theta_2(g, theta, rng, **kw):
    """The path scheme after one draw from EXACT_BUDGET values at theta 1
    and from one more past it: one value per point at every theta, in a
    space that fits EXACT_BUDGET at theta 1 only."""
    rng.choice_index(EXACT_BUDGET + (theta.edge > 1))
    return build(bind("path", g), g, theta, rng, **kw)


@pytest.mark.parametrize("privacy", ["auto", "structural", None])
def test_the_checks_read_transcripts_of_the_theta_they_check(monkeypatch, privacy):
    # over seeds 0-18, theta 1's check point at seed 18 is theta 2's at
    # seed 4: a memo of check transcripts that outlived one theta, or
    # that auto's fallback at theta 2 filled by re-tallying theta 1,
    # would hand theta 2's checks a transcript of theta 1, and a count of
    # checked points that outlived it would skip that point at theta 2;
    # the rate is read once per distinct check point of each theta
    import graphpir.verify as verify

    g = parse_graph("path:4")
    seeds = range(19)
    points = [dict.fromkeys(SeededSource(_seed_for(seed, theta, "rel")).point(
                  [("choice", EXACT_BUDGET + (theta.edge > 1))]) for seed in seeds)
              for theta in all_thetas(g)]
    assert points[0].keys() & points[1].keys()
    read = []

    def rate(t):
        read.append(t.theta)
        return measured_rate(t)

    monkeypatch.setattr(verify, "measured_rate", rate)
    _, results, _ = _walk(_budget_passed_by_one_at_theta_2, g,
                          ["reliability", "srp", "rate"], privacy, seeds)
    assert all(c.passed for c in results.values()), [c.to_dict() for c in results.values()]
    assert read == [theta for theta, drawn in zip(all_thetas(g), points) for _ in drawn]
    if privacy == "auto":
        assert results["privacy"].name == "privacy-structural"


@pytest.mark.parametrize("scheme,graph", [
    ("path", "path:3"),
    ("complete", "complete:4"),
    ("lift:complete", "complete:3^2"),
    ("compose-stars", "complete_bipartite:2,3"),
    (compose_stars_theta_ordered, "complete_bipartite:2,3"),
])
def test_the_shape_run_is_the_build_of_the_first_exact_point(scheme, graph):
    # _walk reads the shape run's transcript where a stream draws the
    # canonical point, so it must be that point's replay, byte for byte
    g = parse_graph(graph)
    _, run = resolve_scheme(scheme, g)
    for theta in all_thetas(g):
        build = functools.partial(run, g, theta, identity_perms=True)
        shape, t = record_shape(build)
        point = canonical_point(shape)
        assert point == next(enumerate_sources(shape, 1 << 60))
        assert dump_transcript(t) == dump_transcript(_replay(build, shape, point))


def test_a_tally_reads_the_transcripts_it_is_given(monkeypatch):
    g = parse_graph("complete:4")
    _, run = resolve_scheme("complete", g)
    build = functools.partial(run, g, all_thetas(g)[0], identity_perms=True)
    shape, t = record_shape(build)
    points = list(enumerate_sources(shape, EXACT_BUDGET))
    expected = _tally(build, shape, Counter(points), server_pattern, g.n_vertices)
    replays = Counter()

    def counted(build, shape, point):
        replays[point] += 1
        return _replay(build, shape, point)

    monkeypatch.setattr(verify, "_replay", counted)
    known = {points[0]: t}
    dists = _tally(build, shape, Counter(points), server_pattern, g.n_vertices, known)
    # the given point is read, not built; every other point is built
    # once; the given map is not written
    assert dists == expected
    assert replays == Counter(points[1:])
    assert known.keys() == {points[0]} and known[points[0]] is t


@pytest.mark.parametrize("privacy", [None, "exact", "structural", "statistical"])
@pytest.mark.parametrize("graph", ["path:4^3", "complete:3^2", "complete:4"])
def test_the_checks_read_the_builds_on_their_seeded_sources(monkeypatch, graph, privacy):
    # each distinct check point's checks read its build, whichever of the
    # shape run, the checks' own builds or a tier's stream drew it first:
    # the same transcript a run on the source of the seed that first drew
    # it builds; a seed that draws it again reads no rate
    g = parse_graph(graph)
    _, run = resolve_scheme("auto", g)
    read = []

    def rate(t):
        read.append(t.requests)
        return measured_rate(t)

    monkeypatch.setattr(verify, "measured_rate", rate)
    _, results, _ = _walk(run, g, ["rate"], privacy, range(5), samples=10_000)
    assert all(c.passed for c in results.values()), [c.to_dict() for c in results.values()]
    expected = []
    for theta in all_thetas(g):
        shape, _ = record_shape(functools.partial(run, g, theta, identity_perms=True))
        first = {}  # check point -> the first seed that drew it
        for seed in range(5):
            first.setdefault(SeededSource(_seed_for(seed, theta, "rel")).point(shape), seed)
        expected += [run(g, theta, SeededSource(_seed_for(seed, theta, "rel")),
                         identity_perms=True).requests for seed in first.values()]
    assert read == expected


def test_a_walk_stops_drawing_check_points_once_every_check_has_failed(monkeypatch):
    # the drop-request mutant fails reliability and SRP at theta 1, seed
    # 0, so no later seed or theta needs a check point drawn; seeds is a
    # long lazy range, walked only as far as the checks need
    draws = 0

    class Counted(SeededSource):
        def point(self, shape):
            nonlocal draws
            draws += 1
            return super().point(shape)

    monkeypatch.setattr(verify, "SeededSource", Counted)
    g = parse_graph("complete_bipartite:2,3")
    _, results, _ = _walk(compose_stars_drop_request, g, ["reliability", "srp"], None,
                          range(10**4))
    assert not results["reliability"].passed and not results["srp"].passed
    assert draws == 1


def test_the_transcript_checks_run_once_per_distinct_check_point(monkeypatch):
    # every check point of path:4 is (), the one point of its empty draw
    # shape, so each theta's transcript is decoded symbolically, attributed
    # and rated once, while every seed still decodes its two random stores,
    # and no source is seeded to draw ()
    calls = Counter()

    def count(name):
        real = getattr(verify, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, counted)

    for name in ("symbolic_decode_check", "srp_attribution", "measured_rate", "random_store"):
        count(name)

    class Counted(SeededSource):
        def __init__(self, seed):
            calls["SeededSource"] += 1
            super().__init__(seed)

    monkeypatch.setattr(verify, "SeededSource", Counted)
    g = parse_graph("path:4")
    assert verify_scheme("auto", g, seeds=range(10)).passed
    thetas = len(all_thetas(g))
    assert dict(calls) == {"symbolic_decode_check": thetas, "srp_attribution": thetas,
                           "measured_rate": thetas, "random_store": 2 * 10 * thetas}


def _drop_request_at_2(g, theta, rng, **kw):
    """The star composition after one choice of 3, with a planned request
    dropped where that choice is 2: it fails reliability and SRP at those
    points only."""
    drop = rng.choice_index(3) == 2
    t = compose_stars(g, theta, rng, **kw)
    return drop_planned_request(t) if drop else t


@pytest.mark.parametrize("scheme,seeds,theta,seed", [
    (compose_stars_drop_request, range(10), 1, 0),
    (_drop_request_at_2, range(10), 1, 6),
    (_drop_request_at_2, range(3), 3, 0),
    (_drop_request_at_2, [5, 1, 5, 9], 1, 9),
])
def test_a_failure_keeps_the_seed_that_first_drew_its_point(scheme, seeds, theta, seed):
    # a check skipped at a repeated check point passed there, so the first
    # failure is where it was before the skip: the first seed, theta-major,
    # whose check point fails (seed 5 repeats a passing point above)
    g = parse_graph("complete_bipartite:2,3")
    failing = []
    for th in all_thetas(g):
        shape, _ = record_shape(functools.partial(scheme, g, th, identity_perms=True))
        failing += [(th, s) for s in seeds
                    if not verify.symbolic_decode_check(_replay(
                        functools.partial(scheme, g, th, identity_perms=True), shape,
                        SeededSource(_seed_for(s, th, "rel")).point(shape)))]
    assert failing[0] == (FileId(theta, 1), seed)
    _, results, rate = _walk(scheme, g, ["reliability", "srp", "rate"], None, seeds)
    witness = {"scheme": scheme.__name__, "theta": FileId(theta, 1), "seed": seed}
    assert (results["reliability"].detail, results["reliability"].witness) == (
        "symbolic decode failed", witness)
    assert (results["srp"].detail, results["srp"].witness) == (
        "attribution undefined: target 1 has 0 fresh-coordinate requests", witness)
    assert results["rate"].passed and rate == Fraction(2, 7)


def test_a_statistical_walk_counts_its_stream_without_drawing_it_point_by_point(monkeypatch):
    # on complete_bipartite:2,3 each point is one choice of 3, so the
    # statistical stream is counted from its bytes; only the check
    # points, one per seed, are drawn by point
    draws = 0

    class Counted(SeededSource):
        def point(self, shape):
            nonlocal draws
            draws += 1
            return super().point(shape)

    monkeypatch.setattr(verify, "SeededSource", Counted)
    g = parse_graph("complete_bipartite:2,3")
    _, results, _ = _walk("compose-stars", g, ["reliability"], "statistical", range(3))
    assert all(c.passed for c in results.values())
    assert draws == 3 * len(all_thetas(g))


@pytest.mark.parametrize("scheme,checks", [
    ("compose-stars", ["reliability", "srp"]),
    (compose_stars_drop_request, ["reliability", "srp"]),
    ("compose-stars", []),
], ids=["checks-pass", "checks-fail-at-once", "no-checks"])
def test_a_structural_tally_counts_each_seeds_check_point_once(monkeypatch, scheme, checks):
    # the checks count the check points they draw and the tally draws the
    # seeds after them, so each seed's point is drawn once and counted
    # once, whether the checks pass, all fail at the first seed or are none
    g = parse_graph("complete_bipartite:2,3")
    _, run = resolve_scheme(scheme, g)
    seeds = range(6)
    tallied, draws = [], 0

    class Counted(SeededSource):
        def point(self, shape):
            nonlocal draws
            draws += 1
            return super().point(shape)

    def tally(build, shape, counts, *args):
        tallied.append(list(counts.items()))
        return _tally(build, shape, counts, *args)

    monkeypatch.setattr(verify, "SeededSource", Counted)
    monkeypatch.setattr(verify, "_tally", tally)
    _walk(run, g, checks, "structural", seeds)
    expected = []
    for theta in all_thetas(g):
        shape, _ = record_shape(functools.partial(run, g, theta, identity_perms=True))
        expected.append(list(Counter(
            SeededSource(_seed_for(seed, theta, "rel")).point(shape)
            for seed in seeds).items()))
    assert tallied == expected
    assert draws == len(seeds) * len(all_thetas(g))
