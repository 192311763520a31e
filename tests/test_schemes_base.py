import hashlib
import itertools
from fractions import Fraction

import pytest

from graphpir.core import FileId, dump_transcript, measured_rate, symbolic_decode_check
from graphpir.graphs import GraphSpec, build_family
from graphpir.kernels import path_kernel, star_kernel
from graphpir.lift import _half_swap
from graphpir.rng import CanonicalSource, SeededSource
from graphpir.schemes import (
    SchemeError,
    bind,
    build,
    compose,
    compose_stars,
    kernel_factory,
)
from graphpir.tables import answer_grid
from graphpir.verify import verify_scheme


def test_path_kernel_three_servers():
    # the two-file case: desired file 1 vs desired file 2 only differ at
    # the middle server, which switches from position 1 to position 2
    kr1 = path_kernel([1, 2, 3], ["a", "b"], 1)
    kr2 = path_kernel([1, 2, 3], ["a", "b"], 2)
    assert kr1.requests == (
        (1, frozenset({("a", 1)})),
        (2, frozenset({("a", 2), ("b", 2)})),
        (3, frozenset({("b", 2)})),
    )
    assert kr2.requests == (
        (1, frozenset({("a", 1)})),
        (2, frozenset({("a", 1), ("b", 1)})),
        (3, frozenset({("b", 2)})),
    )
    assert kr1.plan == (frozenset({0}), frozenset({1, 2}))
    assert kr2.plan == (frozenset({0, 1}), frozenset({2}))


@pytest.mark.parametrize("n", (3, 4, 5, 6))
@pytest.mark.parametrize("kind", ("path", "star", "complete"))
def test_declared_involution_swaps_hosting_servers(kind, n):
    # the lift flips a stage by reading its run through the tau it
    # derives from a draw-free run (the name is kept from when each
    # factory declared tau), so tau must be an involution, and for every
    # target m of a seeded run the fresh (theta, m) and (theta, tau(m))
    # must come from the desired file's two different hosting servers
    g = build_family(kind, [n])
    factory = bind(kind, g)
    L = factory.length
    for e in range(1, g.n_base_edges + 1):
        tau = _half_swap(factory, e)
        assert sorted(tau) == list(range(1, L + 1))
        assert all(tau[tau[m - 1] - 1] == m for m in range(1, L + 1))
        theta = FileId(e, 1)
        kr = factory.run(theta, SeededSource(e))
        holder = []
        for m, entry in enumerate(kr.plan, start=1):
            (k,) = [k for k in entry if (theta, m) in kr.requests[k][1]]
            holder.append(kr.requests[k][0])
        assert set(holder) == set(g.edge_endpoints(e))
        assert all(holder[m - 1] != holder[tau[m - 1] - 1] for m in range(1, L + 1))


def test_star_kernel_shape():
    kr = star_kernel(9, [1, 2, 3], list("abc"), 2)
    assert kr.requests[0] == (9, frozenset({("a", 1), ("b", 1), ("c", 1)}))
    assert kr.requests[2] == (2, frozenset({("b", 2)}))
    assert kr.plan == (frozenset({0, 1, 3}), frozenset({2}))


@pytest.mark.parametrize("n", range(2, 11))
def test_path_scheme_rate_and_reliability(n):
    g = build_family("path", [n])
    for theta in range(1, n):
        t = build(bind("path", g), g, theta, SeededSource(theta))
        assert symbolic_decode_check(t)
        assert measured_rate(t) == Fraction(2, n)


def test_path_two_servers_rate_one():
    g = build_family("path", [2])
    t = build(bind("path", g), g, 1, SeededSource(0))
    assert measured_rate(t) == 1


def test_path_answer_grid_reference():
    # three-server answer grid with degenerate randomness
    g = build_family("path", [3])
    grids = {}
    for theta in (1, 2):
        t = build(bind("path", g), g, theta, CanonicalSource(), identity_perms=True,
                  wire_key=None)
        grids[theta] = answer_grid(t, {1: "a", 2: "b"})
    assert grids[1] == [["a_1", "a_2+b_2", "b_2"]]
    assert grids[2] == [["a_1", "a_1+b_1", "b_2"]]


def test_star_scheme_all_thetas():
    g = build_family("star", [6])
    for theta in range(1, 6):
        t = build(bind("star", g), g, theta, SeededSource(theta))
        assert symbolic_decode_check(t)
        assert measured_rate(t) == Fraction(2, 6)


def test_scheme_family_mismatch():
    star, path, multi, short = (build_family("star", [4]), build_family("path", [4]),
                                build_family("path", [3], 2), build_family("path", [3]))
    with pytest.raises(SchemeError):
        build(bind("path", star), star, 1, SeededSource(0))
    with pytest.raises(SchemeError):
        build(bind("star", path), path, 1, SeededSource(0))
    with pytest.raises(SchemeError):
        build(bind("path", multi), multi, 1, SeededSource(0))
    with pytest.raises(SchemeError):
        build(bind("path", short), short, 5, SeededSource(0))


def test_kernel_factory_rejects_wrong_edge():
    g = build_family("path", [4])
    fa = kernel_factory("path", g, [1, 2])
    with pytest.raises(SchemeError):
        fa.run(FileId(3, 1), SeededSource(0))


def test_compose_two_isolated_edges():
    g = GraphSpec(4, ((1, 2), (3, 4)))
    t = compose(g, [((1,), "path"), ((2,), "path")], 2, SeededSource(3))
    assert symbolic_decode_check(t)
    assert measured_rate(t) == Fraction(1, 2)
    # decoy part still gets queried
    assert all(len(server) == 1 for server in t.requests)


def test_compose_single_part_matches_standalone_rate():
    g = build_family("path", [5])
    t = compose(g, [(tuple(range(1, 5)), "path")], 3, SeededSource(1))
    assert symbolic_decode_check(t)
    assert measured_rate(t) == Fraction(2, 5)


def test_compose_requires_partition():
    g = build_family("path", [4])
    with pytest.raises(SchemeError):
        compose(g, [((1, 2), "path")], 1, SeededSource(0))
    with pytest.raises(SchemeError):
        compose(g, [((1, 2), "path"), ((2, 3), "path")], 1, SeededSource(0))
    with pytest.raises(SchemeError):
        compose(g, [], 1, SeededSource(0))


def test_compose_stars_k22_and_k23():
    for m, n, want in ((2, 2, Fraction(1, 3)), (2, 3, Fraction(1, 4))):
        g = build_family("complete_bipartite", [m, n])
        for e in range(1, g.n_base_edges + 1):
            t = compose_stars(g, e, SeededSource("c%d%d%d" % (m, n, e)))
            assert symbolic_decode_check(t)
            assert measured_rate(t) == want
            assert measured_rate(t) == Fraction(2, m * (n + 1))


def test_compose_mixed_kinds():
    # a path part and a star part sharing the host graph
    g = GraphSpec(6, ((1, 2), (2, 3), (4, 5), (4, 6)))
    parts = [((1, 2), "path"), ((3, 4), "star")]
    for theta in range(1, 5):
        t = compose(g, parts, theta, SeededSource(theta))
        assert symbolic_decode_check(t)
        assert measured_rate(t) == Fraction(1, 3)



def test_compose_with_repeated_parts_is_pinned_byte_for_byte():
    # the path part (length 2) runs three times on successive windows to
    # match the complete part (length 6); SHA-256 of the dumps recorded
    # before the binding handed kernels FileId symbols
    g = GraphSpec(6, ((1, 2), (1, 3), (2, 3), (4, 5), (5, 6)))
    parts = [((1, 2, 3), "complete"), ((4, 5), "path")]
    h = hashlib.sha256()
    for theta in range(1, 6):
        for seed in (1, 2):
            for identity in (False, True):
                t = compose(g, parts, theta, SeededSource(seed), identity_perms=identity)
                assert symbolic_decode_check(t)
                h.update(dump_transcript(t).encode() + b"\n\n")
    assert h.hexdigest() == (
        "8d214bcbdd2927e55eea901bb23d67a795b4a1a0837d5f5bbb81e408453acee8"
    )


def test_a_complete_part_binds_by_its_shape_not_its_labels():
    # K4 on vertices 1-4 beside vertex 5, and the same K4 moved to
    # vertices 2-5 by v -> v % 5 + 1, which keeps the edge order: the
    # second binds too, with the same verdicts, and each transcript is
    # the first's with its servers relabelled
    low = GraphSpec(5, tuple(itertools.combinations(range(1, 5), 2)))
    high = GraphSpec(5, tuple(itertools.combinations(range(2, 6), 2)))
    verdicts = [[(c.name, c.passed, c.detail) for c in verify_scheme(
        "complete", g, seeds=range(3)).checks] for g in (low, high)]
    assert verdicts[0] == verdicts[1]
    assert all(passed for _, passed, _ in verdicts[0])
    for theta in range(1, 7):
        for seed in range(3):
            a, b = (build(bind("complete", g), g, theta, SeededSource(seed))
                    for g in (low, high))
            assert b.requests == a.requests[-1:] + a.requests[:-1]
            assert b.decoding_plan == tuple(
                frozenset((s % 5 + 1, p) for s, p in entry) for entry in a.decoding_plan)
            assert (b.file_length, b.theta, b.permutations) == (
                a.file_length, a.theta, a.permutations)
    # a triangle part composed beside a path part, on either side of it
    for g, parts in (
        (GraphSpec(6, ((1, 2), (1, 3), (2, 3), (4, 5), (5, 6))),
         [((1, 2, 3), "complete"), ((4, 5), "path")]),
        (GraphSpec(6, ((1, 2), (2, 3), (4, 5), (4, 6), (5, 6))),
         [((1, 2), "path"), ((3, 4, 5), "complete")]),
    ):
        for theta in range(1, 6):
            t = compose(g, parts, theta, SeededSource(theta))
            assert symbolic_decode_check(t)
            assert measured_rate(t) == Fraction(2, 7)
