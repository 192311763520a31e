import functools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphpir.core import (
    FileId,
    answer_all,
    decode,
    dump_transcript,
    measured_rate,
    random_store,
    srp_attribution,
    symbolic_decode_check,
)
import graphpir.lift as lift
import graphpir.runner as runner
from graphpir.bounds import compose_stars_rate, discount
from graphpir.graphs import build_family, parse_graph
from graphpir.lift import build_block_plan, lift_scheme
from graphpir.kernels import KernelRun
from graphpir.rng import SeededSource
from graphpir.runner import SCHEME_NAMES, all_thetas, resolve_scheme
from graphpir.schemes import KernelFactory, SchemeError, bind, build, composite, kernel_factory
from graphpir.verify import verify_scheme


def fs(*xs):
    return frozenset(xs)


def test_block_plan_r2():
    bp = build_block_plan(2, 1)
    assert bp.u == {fs(): 1, fs(2): 2}
    assert bp.beta == {fs(1): 1, fs(2): 1, fs(1, 2): 2}


def test_block_plan_r3():
    bp = build_block_plan(3, 2)
    assert bp.u == {fs(): 1, fs(1): 2, fs(3): 3, fs(1, 3): 4}
    assert bp.beta == {
        fs(1): 1, fs(2, 3): 1,
        fs(2): 2, fs(1, 3): 2,
        fs(3): 3, fs(1, 2): 3,
        fs(1, 2, 3): 4,
    }


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_block_plan_invariants(r, data):
    j = data.draw(st.integers(1, r))
    bp = build_block_plan(r, j)
    assert sorted(bp.u.values()) == list(range(1, 2 ** (r - 1) + 1))
    # for every copy t, instances containing t use pairwise distinct
    # shared blocks, so their index windows never collide
    for t in range(1, r + 1):
        blocks = [b for a, b in bp.beta.items() if t in a]
        assert len(blocks) == len(set(blocks))


LIFT_MATRIX = (
    [("path", n, r) for n in (3, 4, 5) for r in (2, 3)]
    + [("star", n, 2) for n in (4, 5)]
    + [("complete", n, 2) for n in (3, 4)]
)


@pytest.mark.parametrize("kind,n,r", LIFT_MATRIX)
def test_lift_rate_and_downloads(kind, n, r):
    g = build_family(kind, [n], r)
    _, run = resolve_scheme(kind, g.base())
    base = run(g.base(), 1, SeededSource(0))
    for theta in [FileId(1, 1), FileId(g.n_base_edges, r)]:
        t = lift_scheme(kind, g, theta, SeededSource("%s%d%d" % (kind, n, r)))
        assert symbolic_decode_check(t)
        assert measured_rate(t) == measured_rate(base) / discount(r)
        assert t.total_requests == (2 ** r - 1) * base.total_requests
        assert t.file_length == 2 ** (r - 1) * base.file_length


def test_lift_srp_split():
    for kind, n, r in LIFT_MATRIX:
        g = build_family(kind, [n], r)
        t = lift_scheme(kind, g, FileId(1, 1), SeededSource(0))
        half = t.file_length // 2
        assert srp_attribution(t) == (half, half)


def test_lift_end_to_end_decode():
    data = random.Random(2)
    for r in (2, 3):
        g = build_family("path", [4], r)
        for e in (1, 3):
            for j in range(1, r + 1):
                t = lift_scheme("path", g, FileId(e, j), SeededSource("%d%d%d" % (r, e, j)))
                store = random_store(g, t.file_length, data)
                assert decode(t, answer_all(store, t)) == store[FileId(e, j)]


def test_lift_requests_touch_all_copies_of_non_desired_edges():
    g = build_family("path", [3], 2)
    t = lift_scheme("path", g, FileId(1, 1), SeededSource(7))
    # server 3 stores only edge 2; across its wire both copies appear
    copies = {f.copy for form in t.requests[2] for f, _ in form}
    assert copies == {1, 2}


def test_lift_r1_reduces_to_base():
    g = build_family("path", [4], 1)
    t = lift_scheme("path", g, FileId(2, 1), SeededSource(5))
    assert symbolic_decode_check(t)
    assert measured_rate(t) == Fraction(1, 2)
    assert t.total_requests == 4


@pytest.mark.parametrize("identity_perms", (False, True))
@pytest.mark.parametrize("text", ["path:6", "star:6", "complete:5", "complete:6"])
def test_lift_at_multiplicity_one_is_the_base_scheme(text, identity_perms):
    # at r = 1 the lift is one stage with every window at offset 0, so
    # its transcript is the base scheme's, draw for draw and byte for
    # byte, and it builds from the base factory, not through a stage
    g = parse_graph(text)
    kind = text.split(":")[0]
    assert lift.lift_factory(bind(kind, g), 1) is bind(kind, g)
    _, base = resolve_scheme(kind, g)
    _, lifted = resolve_scheme("lift:" + kind, g)
    for theta in all_thetas(g):
        for seed in range(3):
            a, b = (run(g, theta, SeededSource(seed), identity_perms=identity_perms)
                    for run in (base, lifted))
            assert dump_transcript(a) == dump_transcript(b)


# a graph that each scheme name without the "lift:" prefix binds
BINDS = {"path": "path:6", "star": "star:6", "complete": "complete:5",
         "compose-stars": "complete_bipartite:2,3"}


def test_the_lift_at_multiplicity_one_is_any_bound_factory_itself():
    assert set(BINDS) == {name for name in SCHEME_NAMES if not name.startswith("lift:")}
    for kind, text in BINDS.items():
        f = bind(kind, parse_graph(text))
        assert lift.lift_factory(f, 1) is f


@pytest.mark.parametrize("text", ["complete:3^2", "path:3^2"])
def test_lifted_builds_of_one_theta_share_their_forms(text):
    # neither base kernel draws anything on these graphs, so every form
    # comes from a draw-free kernel request, and each stage lifts it
    # once: two builds of one theta hold the same form objects
    g = parse_graph(text)
    _, run = resolve_scheme("auto", g)
    theta = all_thetas(g)[-1]
    a, b = (run(g, theta, SeededSource(seed), identity_perms=True) for seed in (1, 2))
    assert a.requests == b.requests
    assert all(x is y for wa, wb in zip(a.requests, b.requests) for x, y in zip(wa, wb))


def test_lifted_forms_that_are_equal_are_one_object():
    # complete:4 draws its leftover pools, so its drawn forms differ from
    # seed to seed; in construction order a form that two builds of one
    # theta share sits at one position, and is one object
    g = parse_graph("complete:4^2")
    _, run = resolve_scheme("auto", g)
    theta = all_thetas(g)[-1]
    a, b = (run(g, theta, SeededSource(seed), identity_perms=True, wire_key=None)
            for seed in (1, 2))
    pairs = [(x, y) for wa, wb in zip(a.requests, b.requests) for x, y in zip(wa, wb)]
    shared = [x for x, y in pairs if x == y]
    assert 0 < len(shared) < len(pairs)
    assert all(x is y for x, y in pairs if x == y)


def test_stage_tables_are_reused_per_theta_and_bounded():
    # one stage table per desired file, reused by every later build of
    # that file; however many files the lift has built, it keeps at most
    # STAGE_TABLES tables alive
    lift._stage_table.cache_clear()
    for text in ("complete:4^3", "path:4^3"):
        g = parse_graph(text)
        _, run = resolve_scheme("auto", g)
        for theta in all_thetas(g):
            for seed in (1, 2):
                assert symbolic_decode_check(run(g, theta, SeededSource(seed)))
    info = lift._stage_table.cache_info()
    assert info.currsize <= lift.STAGE_TABLES
    assert (info.misses, info.hits) == (18 + 9, 18 + 9)


@pytest.mark.parametrize("requests,message", [
    # server 1 delivers both fresh bits of the desired file
    (((1, fs((FileId(1, 1), 1))), (1, fs((FileId(1, 1), 2)))),
     "splits its fresh bits {1: 2}, not evenly between two servers"),
    # target 1's fresh bit comes in both of its planned requests
    (((1, fs((FileId(1, 1), 1))), (2, fs((FileId(1, 1), 1), (FileId(1, 1), 2)))),
     "target 1 has 2 fresh-bit requests"),
])
def test_a_base_run_without_an_even_split_is_refused(requests, message):
    # a test-only base run of path:2 has no half-swapping involution, so
    # the lift refuses it instead of building a broken transcript
    run = KernelRun(requests, (fs(0, 1), fs(1)))
    factory = KernelFactory(2, (1,), lambda f, rng: run)
    with pytest.raises(SchemeError, match=re.escape(message)):
        build(lift.lift_factory(factory, 2), parse_graph("path:2^2"), FileId(1, 1),
              SeededSource(0))


def test_the_even_split_is_the_lifts_only_check_of_a_factory():
    # the lift takes a composition as it takes a base scheme; one whose
    # desired part keeps every fresh bit at server 1 is refused at its
    # first build, and a desired file on the star part still lifts
    g = parse_graph("path:3^2")
    run = KernelRun(((1, fs((FileId(1, 1), 1))), (1, fs((FileId(1, 1), 2)))), (fs(0), fs(1)))
    uneven = KernelFactory(2, (1,), lambda f, rng: run)
    lifted = lift.lift_factory(composite([uneven, kernel_factory("star", g, (2,))]), 2)
    with pytest.raises(SchemeError, match="not evenly between two servers"):
        build(lifted, g, FileId(1, 1), SeededSource(0))
    assert symbolic_decode_check(build(lifted, g, FileId(2, 2), SeededSource(0)))


def test_the_star_composition_lifts():
    # the lift of the K(2,3) star composition passes every check; no
    # scheme name binds it yet, so auto still refuses the graph
    g = parse_graph("complete_bipartite:2,3^2")
    scheme = functools.partial(build, lift.lift_factory(bind("compose-stars", g.base()), 2))
    report = verify_scheme(scheme, g, seeds=range(3))
    assert [(c.name, c.passed) for c in report.checks] == [
        ("reliability", True), ("privacy-exact", True), ("srp", True), ("rate", True)]
    assert report.checks[1].detail.endswith("(324 quotient points)")
    assert Fraction(1, 6) == compose_stars_rate(2, 3) / discount(2)
    assert report.checks[3].detail == "measured rate 1/6 within all exact bounds"
    with pytest.raises(SchemeError, match="no scheme for family"):
        resolve_scheme("auto", g)


def test_auto_lifts_every_base_it_binds(monkeypatch):
    # auto names the lift of whatever base it picks at r >= 2, compose-stars
    # included, and refuses while that name is not a scheme name
    g = parse_graph("complete_bipartite:2,3^2")
    with pytest.raises(SchemeError) as refused:
        resolve_scheme("auto", g)
    assert str(refused.value) == "no scheme for family complete_bipartite at multiplicity 2"
    monkeypatch.setattr(runner, "SCHEME_NAMES", SCHEME_NAMES + ("lift:compose-stars",))
    assert runner.auto_scheme_name(g) == "lift:compose-stars"
    report = verify_scheme("auto", g, seeds=range(3))
    assert report.scheme == "lift:compose-stars"
    assert [(c.name, c.passed) for c in report.checks] == [
        ("reliability", True), ("privacy-exact", True), ("srp", True), ("rate", True)]
    assert report.checks[1].detail.endswith("(324 quotient points)")
    assert report.checks[3].detail == "measured rate 1/6 within all exact bounds"
