import dataclasses
import time
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from graphpir.core import FileId, TranscriptError, server_pattern
from graphpir.graphs import build_family, parse_graph
from graphpir.mutants import (
    MUTANTS,
    compose_stars_no_decoy,
    compose_stars_theta_ordered,
    drop_planned_request,
)
from graphpir.rng import BudgetExceeded, SeededSource, domain_size
from graphpir.runner import all_thetas, resolve_scheme
from graphpir.schemes import compose_stars, path_scheme
from graphpir.verify import (
    EXACT_BUDGET,
    _distributions,
    _privacy_sweep,
    _raw_view,
    orbit_label,
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
    g = build_family("complete", [4])
    with pytest.raises(BudgetExceeded):
        verify_privacy_exact("complete", g)
    # auto mode falls back to the structural tier
    c = verify_privacy("complete", g, mode="auto")
    assert c.name == "privacy-structural"
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
        return drop_planned_request(path_scheme(g, theta, rng, **kw))

    g = build_family("path", [4])
    c = verify_reliability(broken, g, seeds=range(2))
    assert not c.passed
    assert "symbolic" in c.detail


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
    assert "3 quotient points for 24 draws" in c.detail


def test_exact_privacy_fail_is_confirmed():
    g = build_family("complete_bipartite", [2, 2])
    c = verify_privacy_exact(compose_stars_no_decoy, g)
    assert not c.passed
    assert "confirmed by full enumeration of 64 draws" in c.detail


def test_exact_privacy_on_lifted_path_is_fast():
    g = parse_graph("path:3^2")
    start = time.perf_counter()
    c = verify_privacy_exact("lift:path", g)
    assert c.passed, c.detail
    assert time.perf_counter() - start < 5.0


def compose_stars_drop_request(g, theta, rng, **kw):
    return drop_planned_request(compose_stars(g, theta, rng, **kw))


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


@pytest.mark.parametrize(
    "scheme,graph", CROSS_VALIDATION,
    ids=["%s-%s" % (getattr(s, "__name__", s), g) for s, g in CROSS_VALIDATION],
)
def test_quotient_agrees_with_full_enumeration(scheme, graph):
    g = parse_graph(graph)
    _, run = resolve_scheme(scheme, g)
    quotient, _ = _privacy_sweep(
        run, g, orbit_label, EXACT_BUDGET, identity_perms=True
    )
    full, _ = _privacy_sweep(run, g, _raw_view, EXACT_BUDGET)
    assert quotient == full
    c = verify_privacy_exact(scheme, g)
    assert c.passed == (full is None)
    if full is not None:
        assert {k: c.witness[k] for k in full} == full


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
    label = orbit_label(seq)
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


def test_verify_rate_checks_every_theta():
    g = build_family("path", [3])
    first, second = all_thetas(g)

    def inflated(g, theta, rng, **kw):
        t = path_scheme(g, theta, rng, **kw)
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
     "(4 quotient points for 64 draws)", {}),
    ("exact", THETA_ORDERED, "complete_bipartite:2,2", False,
     "query distribution depends on theta "
     "(confirmed by full enumeration of 128 draws)",
     _witness("compose_stars_theta_ordered", 3, 3)),
    ("exact", NO_DECOY, "complete_bipartite:2,2", False,
     "query distribution depends on theta "
     "(confirmed by full enumeration of 64 draws)",
     _witness("compose_stars_no_decoy", 1, 3)),
    ("exact", compose_stars_drop_request, "complete_bipartite:2,2", False,
     "query distribution depends on theta "
     "(confirmed by full enumeration of 128 draws)",
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


def _direct_counts(run, g):
    """The reference for the memo: one build and one pattern per source."""
    dists = {}
    for theta in all_thetas(g):
        counters = [Counter() for _ in range(g.n_vertices)]
        n = 0
        for src in _sources(theta):
            t = run(g, theta, src, identity_perms=True, validate=False)
            for c, server in zip(counters, t.requests):
                c[server_pattern([r.form for r in server])] += 1
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
    dists, runs = _distributions(
        run, g, server_pattern, lambda theta, build: _sources(theta),
        memo=True, identity_perms=True, validate=False,
    )
    assert dists == _direct_counts(run, g)
    assert runs == 210 * len(all_thetas(g))


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
    return path_scheme(g, theta, rng, **kw)


def _fewer_draws_after_one(g, theta, rng, **kw):
    if not rng.choice_index(2):
        rng.choice_index(3)
    return path_scheme(g, theta, rng, **kw)


@pytest.mark.parametrize("scheme", [_more_draws_after_one, _fewer_draws_after_one])
@pytest.mark.parametrize("tier", [
    verify_privacy_exact,
    verify_privacy_structural,
    lambda s, g: verify_privacy_statistical(s, g, samples=10_000),
], ids=["exact", "structural", "statistical"])
def test_value_dependent_draw_shape_is_refused(tier, scheme):
    with pytest.raises(TranscriptError, match="draw shape depends on drawn values"):
        tier(scheme, parse_graph("path:3"))


def test_seed_iterators_are_read_once():
    g = parse_graph("complete:3")
    once = verify_scheme("auto", g, seeds=iter(range(3)))
    assert once.to_dict() == verify_scheme("auto", g, seeds=range(3)).to_dict()
    assert once.checks[1].name == "privacy-structural"
    c = verify_privacy_structural("path", parse_graph("path:4"),
                                  seeds=(s for s in range(3)))
    assert c.detail == "patterns theta-invariant over 3 seeds"
