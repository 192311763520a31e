import math
from fractions import Fraction

import pytest

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
from graphpir.graphs import GraphSpec, build_family, parse_graph


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
