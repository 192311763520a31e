"""End-to-end acceptance checks.

Each test covers one release criterion, asserts its numeric claims with
pinned tolerances, enforces its runtime budget, and emits one PASS line
(visible with ``pytest -s``; the per-test PASSED/FAILED line of
``pytest -v`` carries the same information).
"""
import random
import time
from fractions import Fraction

from graphpir.bounds import (
    bound_report,
    discount,
    general_upper,
    kmn_lower,
    kmn_upper,
    tightness_check,
)
from graphpir.core import (
    FileId,
    measured_rate,
    srp_attribution,
    symbolic_decode_check,
)
from graphpir.graphs import build_family
from graphpir.lift import lift_scheme
from graphpir.mutants import (
    compose_stars_no_decoy,
    compose_stars_theta_ordered,
    drop_planned_request,
)
from graphpir.rng import SeededSource, enumerate_sources, record_shape
from graphpir.runner import all_thetas, resolve_scheme
from graphpir.schemes import bind, build, compose_stars
from graphpir.tables import table_four, table_three
from graphpir.verify import (
    verify_privacy_exact,
    verify_privacy_statistical,
    verify_privacy_structural,
    verify_reliability,
)
from test_tables import (
    REFERENCE_DOUBLED_P3,
    REFERENCE_K3,
    assert_grids_match_up_to_renaming,
)


class budget:
    """Context manager asserting a wall-clock budget and printing the
    criterion's PASS line on success."""

    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                "%s exceeded budget: %.1fs >= %.0fs"
                % (self.label, elapsed, self.seconds)
            )
            print("%s: PASS (%.2fs, budget %.0fs)"
                  % (self.label, elapsed, self.seconds))
        return False


def test_criterion_01_path_capacity_tight():
    with budget("criterion 1 (path capacity tight, N=2..8)", 5):
        for n in range(2, 9):
            g = build_family("path", [n])
            for theta in range(1, n):
                for seed in range(10):
                    t = build(bind("path", g), g, theta,
                              SeededSource("c1/%d/%d/%d" % (n, theta, seed)))
                    assert symbolic_decode_check(t)
                    assert measured_rate(t) == Fraction(2, n)
            tight = tightness_check(g)
            assert tight.status == "tight"
            assert tight.lower == tight.upper == Fraction(2, n)


def test_criterion_02_exact_privacy_paths():
    with budget("criterion 2 (exact path privacy, N=2..8)", 10):
        for n in range(2, 9):
            g = build_family("path", [n])
            # the randomness space is exactly the 2^(N-1) per-file
            # permutation tuples
            shape, _ = record_shape(lambda s: build(bind("path", g), g, 1, s))
            pts = sum(1 for _ in enumerate_sources(shape, 1 << 20))
            assert pts == 2 ** (n - 1)
            c = verify_privacy_exact("path", g)
            assert c.passed, c.detail


def test_criterion_03_complete_graph_scheme():
    with budget("criterion 3 (complete-graph scheme, N=3,4,5)", 60):
        rates = {3: Fraction(1, 2), 4: Fraction(1, 3), 5: Fraction(24, 95)}
        for n, want in rates.items():
            assert want == Fraction(6) / ((5 - Fraction(1, 2 ** (n - 3))) * n)
            g = build_family("complete", [n])
            half = 3 * 2 ** (n - 2) // 2
            for theta in all_thetas(g):
                for seed in range(20):
                    t = complete_scheme_run(g, theta, seed)
                    assert symbolic_decode_check(t)
                    assert measured_rate(t) == want
                    assert srp_attribution(t) == (half, half)
            c = verify_privacy_structural("complete", g)
            assert c.passed, c.detail


def complete_scheme_run(g, theta, seed):
    return build(bind("complete", g), g, theta, SeededSource("c3/%s/%d" % (theta, seed)))


def test_criterion_04_three_server_answer_grid():
    with budget("criterion 4 (complete-graph answer grid)", 5):
        grids = table_three()
        assert set(grids) == set(REFERENCE_K3)
        for key in grids:
            assert len(grids[key]) == 4 and all(len(r) == 3 for r in grids[key])
            assert_grids_match_up_to_renaming(grids[key], REFERENCE_K3[key])
        assert grids["theta=(1,2)"] == REFERENCE_K3["theta=(1,2)"]


def test_criterion_05_doubled_path_answer_grid():
    with budget("criterion 5 (doubled-path answer grid)", 5):
        grids = table_four()
        assert set(grids) == set(REFERENCE_DOUBLED_P3)
        for key in grids:
            assert len(grids[key]) == 3 and all(len(r) == 3 for r in grids[key])
            assert_grids_match_up_to_renaming(grids[key], REFERENCE_DOUBLED_P3[key])
        g = build_family("path", [3], 2)
        t = lift_scheme("path", g, FileId(1, 2), SeededSource(5))
        assert measured_rate(t) == Fraction(4, 9)


LIFT_MATRIX = (
    [("path", n, r) for n in (3, 4, 5) for r in (2, 3)]
    + [("star", n, 2) for n in (4, 5)]
    + [("complete", n, 2) for n in (3, 4)]
)


def test_criterion_06_multigraph_lift_rates():
    with budget("criterion 6 (lift rate/download matrix)", 120):
        for kind, n, r in LIFT_MATRIX:
            g = build_family(kind, [n], r)
            _, run = resolve_scheme(kind, g.base())
            base = run(g.base(), 1, SeededSource("c6/%s/%d/base" % (kind, n)))
            base_rate = measured_rate(base)
            for theta in all_thetas(g):
                t = lift_scheme(kind, g, theta, SeededSource("c6/%s/%d/%s" % (kind, n, theta)))
                assert symbolic_decode_check(t)
                assert measured_rate(t) == base_rate / (2 - Fraction(1, 2 ** (r - 1)))
                assert t.total_requests == (2 ** r - 1) * base.total_requests


def test_criterion_07_multi_path_tightness_even_n():
    with budget("criterion 7 (even multi-path tightness)", 5):
        for n in (4, 6):
            for r in (2, 3):
                g = build_family("path", [n], r)
                lift_lb = Fraction(2, n) / discount(r)
                multigraph_ub = general_upper(g.base()) / discount(r)
                assert lift_lb == multigraph_ub
                tight = tightness_check(g)
                assert tight.status == "tight"
                assert tight.value == lift_lb


def test_criterion_08_bound_consistency_sweep():
    with budget("criterion 8 (bound consistency sweep)", 30):
        data = random.Random(8)
        for fam in ("path", "cycle", "star", "complete"):
            lo_n = 2 if fam in ("path", "star") else 3
            for n in range(lo_n, 9):
                for r in (1, 2, 3, 4):
                    g = build_family(fam, [n], r)
                    entries = bound_report(g)
                    exact = [
                        e for e in entries
                        if e.exact and e.applicable and not e.asymptotic
                    ]
                    lows = [e.value for e in exact if e.kind == "lower"]
                    highs = [e.value for e in exact if e.kind == "upper"]
                    assert all(lo <= hi for lo in lows for hi in highs), (fam, n, r)
        # measured rates stay below every applicable exact upper bound
        for kind, n, r in [("path", 5, 1), ("star", 5, 1), ("complete", 4, 1)] + LIFT_MATRIX:
            g = build_family(kind, [n], r)
            if r == 1:
                _, run = resolve_scheme(kind, g)
                t = run(g, 1, SeededSource(data.random()))
            else:
                t = lift_scheme(kind, g, FileId(1, 1), SeededSource(data.random()))
            rate = measured_rate(t)
            for e in bound_report(g):
                if e.kind == "upper" and e.exact and e.applicable and not e.asymptotic:
                    assert rate <= e.value, (kind, n, r, e.source)
        # square-root bound improvement conditions for complete bipartite
        for m, n in ((2, 3), (2, 8), (3, 27)):
            assert n >= 9 * m / 8
            assert kmn_upper(m, n) <= 1 / m + 1e-12
            assert kmn_lower(m, n) <= kmn_upper(m, n) + 1e-12


def test_criterion_09_statistical_privacy_and_mutants():
    with budget("criterion 9 (statistical privacy + negative controls)", 600):
        cases = [("lift:path", build_family("path", [n], r))
                 for n in (3, 4) for r in (2, 3)]
        cases.append(("lift:complete", build_family("complete", [3], 2)))
        for name, g in cases:
            c = verify_privacy_statistical(name, g, samples=200_000, tolerance=0.02)
            assert c.passed, (name, c.detail)

        def broken(g, theta, rng, **kw):
            return drop_planned_request(build(bind("path", g), g, theta, rng, **kw))

        assert not verify_reliability(broken, build_family("path", [4]),
                                      seeds=range(2)).passed
        gb = build_family("complete_bipartite", [2, 2])
        assert not verify_privacy_statistical(
            compose_stars_theta_ordered, gb, samples=10_000
        ).passed
        assert not verify_privacy_statistical(
            compose_stars_no_decoy, gb, samples=10_000
        ).passed


def test_criterion_10_complete_bipartite_composition():
    with budget("criterion 10 (star composition on K_{2,2}, K_{2,3})", 120):
        for m, n in ((2, 2), (2, 3)):
            g = build_family("complete_bipartite", [m, n])
            c = verify_reliability("compose-stars", g, seeds=range(5))
            assert c.passed, c.detail
            c = verify_privacy_statistical("compose-stars", g, samples=10_000)
            assert c.passed, c.detail
            t = compose_stars(g, 1, SeededSource("c10"))
            assert measured_rate(t) == Fraction(2, m * (n + 1))
