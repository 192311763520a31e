import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import graphpir.bounds as bounds
from graphpir.bounds import (
    bound_report,
    complete_scheme_rate,
    compose_stars_rate,
    cycle_rate,
    discount,
    general_upper,
    hamiltonian_vt_upper,
    kmn_lower,
    kmn_upper,
    path_rate,
    star_trivial_rate,
    tightness_check,
)
from graphpir.graphs import (
    GraphSpec,
    GraphSpecError,
    build_family,
    classify_family,
    parse_graph,
    path_vertex_order,
    star_center,
)


def test_discount():
    assert discount(1) == 1
    assert discount(2) == Fraction(3, 2)
    assert discount(3) == Fraction(7, 4)


def test_rate_formulas():
    assert path_rate(6) == Fraction(1, 3)
    assert star_trivial_rate(5) == Fraction(2, 5)
    assert cycle_rate(5) == Fraction(1, 3)
    assert [complete_scheme_rate(n) for n in (3, 4, 5)] == [
        Fraction(1, 2), Fraction(1, 3), Fraction(24, 95)
    ]
    # same value as the closed form 6 / ((5 - 2^(3-N)) N)
    for n in (3, 4, 5, 6, 7):
        closed = 6 / ((5 - 2.0 ** (3 - n)) * n)
        assert abs(float(complete_scheme_rate(n)) - closed) < 1e-12
    assert compose_stars_rate(2, 3) == Fraction(1, 4)


def test_general_upper():
    assert general_upper(build_family("path", [6])) == Fraction(1, 3)
    assert general_upper(build_family("star", [5])) == 1
    assert general_upper(build_family("complete", [5])) == Fraction(2, 5)
    # disconnected pair of edges: matching 2 beats degree/edges
    g = GraphSpec(4, ((1, 2), (3, 4)))
    assert general_upper(g) == Fraction(1, 2)


@pytest.mark.parametrize(
    "text,status,lo,hi",
    [
        ("path:6", "tight", Fraction(1, 3), Fraction(1, 3)),
        ("path:4^2", "tight", Fraction(1, 3), Fraction(1, 3)),
        ("path:6^3", "tight", Fraction(4, 21), Fraction(4, 21)),
        ("path:5^2", "gap", Fraction(4, 15), Fraction(1, 3)),
        ("complete:3", "tight", Fraction(1, 2), Fraction(1, 2)),
        ("cycle:4", "tight", Fraction(2, 5), Fraction(2, 5)),
        ("cycle:5^2", "gap", Fraction(2, 9), Fraction(1, 4)),
        ("star:4^2", "gap", Fraction(1, 3), Fraction(2, 3)),
    ],
)
def test_tightness(text, status, lo, hi):
    t = tightness_check(parse_graph(text))
    assert t.status == status
    assert (t.lower, t.upper) == (lo, hi)
    if status == "tight":
        assert t.value == lo
        assert t.gap is None
    else:
        assert t.gap == hi - lo


def test_hamiltonian_bound_gated_by_flag():
    entries = bound_report(build_family("path", [4]))
    ham = [e for e in entries if "Hamiltonian" in e.source]
    assert ham and not ham[0].applicable
    entries = bound_report(build_family("cycle", [4], 2))
    ham = [e for e in entries if "Hamiltonian" in e.source]
    assert ham and ham[0].applicable
    assert ham[0].value == hamiltonian_vt_upper(4, 2) == Fraction(4, 13)


def test_asymptotic_entry_excluded_from_tightness():
    g = build_family("star", [9])
    entries = bound_report(g)
    asym = [e for e in entries if e.asymptotic]
    assert asym and asym[0].value == Fraction(1, 9)
    # trivial star rate 2/9 > asymptotic 1/9, and tightness ignores floats
    t = tightness_check(g)
    assert t.lower == Fraction(2, 9)


def test_exact_bounds_consistent_across_sweep():
    for fam in ("path", "cycle", "star", "complete"):
        lo_n = 2 if fam in ("path", "star") else 3
        for n in range(lo_n, 9):
            for r in range(1, 5):
                g = build_family(fam, [n], r)
                entries = bound_report(g)
                lows = [
                    e.value for e in entries
                    if e.kind == "lower" and e.exact and e.applicable and not e.asymptotic
                ]
                highs = [
                    e.value for e in entries
                    if e.kind == "upper" and e.exact and e.applicable and not e.asymptotic
                ]
                for lo in lows:
                    for hi in highs:
                        assert lo <= hi, (fam, n, r, lo, hi)


def test_kmn_float_bounds_and_improvement_conditions():
    for m, n in ((2, 3), (2, 8), (3, 27)):
        lo, hi = kmn_lower(m, n), kmn_upper(m, n)
        assert lo == pytest.approx(1 / (2 * m * math.sqrt(n) + m), abs=1e-15)
        assert hi == pytest.approx(1 / (math.sqrt(2 * m * n) - m / 2), abs=1e-15)
        assert lo <= hi
        # when N >= 9M/8 the square-root upper bound improves on 1/M
        assert n >= 9 * m / 8
        assert hi <= 1 / m + 1e-12
        # when N >= 25M^2 the square-root lower bound improves on the
        # rational bound 1/((1 - 2^(1-M-N)) (M+N))
        if n >= 25 * m * m:
            assert lo >= 1 / ((1 - 2.0 ** (1 - m - n)) * (m + n)) - 1e-12


def test_kmn_sandwiches_compose_rate():
    # the composed-stars rate sits between the float bounds for small K_{M,N}
    for m, n in ((2, 2), (2, 3), (3, 4)):
        rate = float(compose_stars_rate(m, n))
        assert kmn_lower(m, n) <= rate <= kmn_upper(m, n) + 1e-12


def test_multigraph_report_has_base_candidate():
    entries = bound_report(build_family("path", [5], 2))
    cands = [e for e in entries if e.source == "base capacity candidate / r"]
    assert cands and cands[0].value == Fraction(1, 5)


@pytest.mark.parametrize("n,edges,r,source,value", [
    (5, ((1, 2), (2, 3), (3, 4)), 1, "path scheme", Fraction(1, 2)),
    (5, ((1, 2), (2, 3), (3, 4)), 2, "multi-path lift", Fraction(1, 3)),
    (3, ((1, 2),), 2, "multi-path lift", Fraction(2, 3)),
    (5, ((1, 2), (1, 3), (1, 4)), 1, "trivial star scheme", Fraction(1, 2)),
    (5, ((1, 2), (1, 3), (1, 4)), 2, "trivial star lift", Fraction(1, 3)),
])
def test_path_or_star_beside_isolated_vertices_has_its_scheme_bound(n, edges, r, source, value):
    # the part the edges span sets the rate: 2/(k+1) for k path edges or
    # k star leaves, over the lift's discount; every vertex still counts
    # in the asymptotic 1/n
    entries = bound_report(GraphSpec(n, edges, r))
    assert [e.value for e in entries if e.kind == "lower" and e.source == source] == [value]
    assert [e.value for e in entries if e.asymptotic] == [Fraction(1, n)]


# SHA-256 of the JSON of each whole report's to_dict list: every entry's
# kind, value, precision, source, applicability, reason and order
REPORT_PINS = [
    ('path:4',
     '14440e634e7f780a266c800ee2b9e768685c30f5be958d1854a38d85d61ff1f8'),
    ('path:5^2',
     '759a7fceb583426a075f8985f5d01474577724faa9991b667d2982b2833a755f'),
    ('path:4^3',
     '18f6d68917e38459cb9360cfd529607a51a6b4eb54d6eba3510dce1360f36526'),
    ('cycle:5',
     'daa66c9e7836b4913c0409aee5896d1701af2d330494fbc6ee5ba21f6e7b1223'),
    ('cycle:4^2',
     'b23abcae6f37a0948036b2e0f930318fc91a2adccb084aa49102ff7035d69599'),
    ('star:6',
     '707ffc121ba3c48472a258d5b4c007648343194d9c44c8cb256e733d3c676717'),
    ('star:5^2',
     'e4a14991d95b61c5c2627351a52475fb7147fd3189e25fb962af62e93afc25e6'),
    ('complete:5',
     '2b8bad1dca279ef8fa692bfd9e2bf310cdb33e301cbabd5098048dbf995449a1'),
    ('complete:4^2',
     '2e1fb4c4aa7caa5f66dc3511a80b50e80f896d04ce19c085c3d93be00443d645'),
    ('complete:8',
     'e42634727739ca2dac8ccf79d5761543420dfe7610c7d38634b2cccf68a2a40a'),
    ('complete:9^2',
     '361aae04d35322dad5573ca14bba2160fb551a96f03fd0bd138d3bdd22c962a5'),
    ('complete_bipartite:2,3',
     'e56233d3ec84e31696fae2328776d483a5b19d780bab978b49f05993bbbf6041'),
    ('complete_bipartite:3,4',
     '30f6fe045a9ae856b28217ef8469a8bee4258b2d440fb4c1281d94abc1228a9e'),
    ('complete_bipartite:2,3^2',
     'ae95513957650d2cbfb702ab56ea5139ee146cdc8b1b8da58ab7f8e51dd7d1fd'),
    ('complete_bipartite:1,3^2',
     '8b6851181752b13d1972729931395ee22272d2acd4363f1ea8b1df8a42fa66b4'),
    ('{"n": 6, "edges": [[2, 3], [3, 4]]}',
     '25351752360747b5a643c0a7cc4d9d771a5f482dbd055939bb7990e872756727'),
    ('{"n": 6, "edges": [[2, 3], [3, 4]], "multiplicity": 2}',
     '0eefa9efcf3bd7deae9eb5bba2c65bc87bd4512a5510407b4e84bfe0b32e5c82'),
    ('{"n": 6, "edges": [[1, 2], [1, 3], [1, 4]]}',
     '52238e72ca3819c58e8ccfa97a95531cad4f2fa60b8d7a33891baa14e001a06e'),
    ('{"n": 6, "edges": [[1, 2], [1, 3], [1, 4]], "multiplicity": 2}',
     '45dd02bf1fecc0cf800b9a65848d72dc5d6724ef6b859d1b31fcff97ac536939'),
    ('{"n": 4, "edges": [[1, 2], [3, 4]]}',
     '3961e1d786ab1cb9e3b64d33cc20d288c5409d91230ab254a35e76060f6e927b'),
    ('{"n": 3, "edges": []}',
     '0dcaae739f8fe864233bd0e40ea5c5a7e11c217805055f18f954d987288a31c4'),
    ('{"n": 3, "edges": [], "multiplicity": 2}',
     'bb9d4e07c09f727618f1a7c2cc941db4984075495d29669040d959e1b2ae38f0'),
    ('{"n": 4, "edges": [[1, 2], [2, 3], [3, 4]], "flags": ["hamiltonian_vertex_transitive"]}',
     'a98aa613af13a44c37b90aa0f42662d75c91f7e96347b3258f92acc14d60c336'),
]


@pytest.mark.parametrize("graph,digest", REPORT_PINS, ids=[g for g, _ in REPORT_PINS])
def test_bound_report_is_pinned(graph, digest):
    text = json.dumps([e.to_dict() for e in bound_report(parse_graph(graph))], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def _reference_report(g: GraphSpec) -> list[dict]:
    """The to_dict list of the report as it was written before the one
    pass: an r == 1 / else pair per family, a separate block for edges
    beside isolated vertices, hand-built inapplicable entries with their
    own exact flags, and the candidate read off a second report of the
    base graph."""
    r = g.multiplicity
    base = g.base()
    n = g.n_vertices
    fam = classify_family(base)
    disc = discount(r)
    entries: list[dict] = []

    def entry(kind, value, exact, source, applicable=True, reason="", asymptotic=False):
        entries.append({
            "kind": kind, "value": str(value) if isinstance(value, Fraction) else value,
            "exact": exact, "source": source, "applicable": applicable, "reason": reason,
            "asymptotic": asymptotic,
        })

    def lb(value, source, **kw):
        entry("lower", value, isinstance(value, Fraction), source, **kw)

    def ub(value, source, **kw):
        entry("upper", value, isinstance(value, Fraction), source, **kw)

    if "path" in fam:
        if r == 1:
            lb(path_rate(n), "path scheme")
            ub(path_rate(n), "path capacity")
        else:
            lb(path_rate(n) / disc, "multi-path lift")
            if n % 2 == 0:
                ub(path_rate(n) / disc, "multi-path capacity (N even)")
            else:
                ub(Fraction(2, n - 1) / disc, "multi-path upper bound (N odd)")

    if "cycle" in fam:
        if r == 1:
            lb(cycle_rate(n), "cycle scheme (external, formula only)")
            ub(cycle_rate(n), "cycle capacity")
        else:
            lb(cycle_rate(n) / disc, "multi-cycle lift (external base, formula only)")
            ub(Fraction(2, n) / disc, "multi-cycle upper bound")

    if "star" in fam:
        leaves = n - 1
        if r == 1:
            lb(star_trivial_rate(n), "trivial star scheme")
            lb(kmn_lower(1, leaves), "star scheme (external, formula only)")
            ub(kmn_upper(1, leaves), "star upper bound")
        else:
            lb(star_trivial_rate(n) / disc, "trivial star lift")
            ub(1 / disc, "multi-star upper bound")

    if "path" not in fam and "star" not in fam:
        span = g.n_base_edges + 1
        if path_vertex_order(base) is not None:
            lb(path_rate(span) / disc, "path scheme" if r == 1 else "multi-path lift")
        elif star_center(base) is not None:
            lb(star_trivial_rate(span) / disc,
               "trivial star scheme" if r == 1 else "trivial star lift")

    if "complete_bipartite" in fam and "star" not in fam and r == 1:
        m, nl = fam["complete_bipartite"]
        lb(compose_stars_rate(m, nl), "star composition")
        lb(kmn_lower(m, nl), "complete bipartite lower bound")
        ub(kmn_upper(m, nl), "complete bipartite upper bound")

    if "complete" in fam and n >= 3:
        if r == 1:
            lb(complete_scheme_rate(n), "complete-graph scheme")
            ub(cycle_rate(n), "complete-graph capacity upper bound")
        else:
            lb(complete_scheme_rate(n) / disc, "complete-graph lift")
            ub(hamiltonian_vt_upper(n, r), "complete multigraph upper bound")

    try:
        gub = general_upper(base)
    except GraphSpecError as exc:
        entry("upper", None, False, "general graph upper bound",
              applicable=False, reason=str(exc))
    else:
        if r == 1:
            ub(gub, "general graph upper bound")
        else:
            ub(gub / disc, "multigraph upper bound")

    ham = hamiltonian_vt_upper(n, r)
    if "hamiltonian_vertex_transitive" in g.flags:
        ub(ham, "Hamiltonian vertex-transitive upper bound")
    else:
        entry("upper", ham, True, "Hamiltonian vertex-transitive upper bound",
              applicable=False, reason="graph not flagged hamiltonian_vertex_transitive")

    if r >= 2:
        base_lbs = [Fraction(e["value"]) for e in _reference_report(base)
                    if e["kind"] == "lower" and e["exact"] and e["applicable"]
                    and not e["asymptotic"]]
        if base_lbs:
            lb(max(base_lbs) / r, "base capacity candidate / r")

    if g.edges:
        lb(Fraction(1, n), "asymptotic capacity", asymptotic=True)
    else:
        entry("lower", None, False, "asymptotic capacity", applicable=False,
              reason="graph has no edges", asymptotic=True)

    return entries


@st.composite
def reported_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)) if pairs else []
    flags = draw(st.sampled_from([(), ("hamiltonian_vertex_transitive",)]))
    return GraphSpec(n, tuple(edges), draw(st.integers(min_value=1, max_value=4)),
                     frozenset(flags))


@settings(max_examples=300, deadline=None)
@given(reported_graphs())
def test_one_pass_report_matches_the_recursive_reference(g):
    want = _reference_report(g)
    if g.multiplicity >= 2:
        # the one declared change: an inapplicable general bound is named
        # by the multiplicity, as the applicable one always was
        for e in want:
            if e["source"] == "general graph upper bound":
                e["source"] = "multigraph upper bound"
    assert [e.to_dict() for e in bound_report(g)] == want


@pytest.mark.parametrize("graph", ["path:4^3", "complete:5^2", "complete_bipartite:2,3^2"])
def test_a_multigraph_report_classifies_its_base_once(graph, monkeypatch):
    # the candidate reads the base rates off the same pass, so a report
    # at r >= 2 builds no second report of its base graph
    calls = Counter()
    for name in ("classify_family", "general_upper"):
        def counted(g, fn=getattr(bounds, name), name=name):
            calls[name] += 1
            return fn(g)
        monkeypatch.setattr(bounds, name, counted)
    bound_report(parse_graph(graph))
    assert calls == {"classify_family": 1, "general_upper": 1}
