from fractions import Fraction

import pytest

from graphpir.complete import (
    build_families,
    build_sigma,
    complete_downloads_per_server,
    complete_length,
)
from graphpir.core import (
    FileId,
    answer_all,
    decode,
    measured_rate,
    random_store,
    srp_attribution,
    symbolic_decode_check,
)
from graphpir.graphs import build_family
from graphpir.rng import CanonicalSource, SeededSource
from graphpir.schemes import complete_scheme

import random


def fs(*xs):
    return frozenset(xs)


def test_subset_bijections_n3():
    bij = build_families(3, 1, 2)
    assert bij.phi == {fs(1): 1, fs(1, 3): 2, fs(2): 3, fs(2, 3): 4}
    assert bij.varphi == {fs(): 5}
    assert bij.pairs == ((fs(), fs(3)),)


def test_subset_bijections_n4():
    bij = build_families(4, 1, 2)
    assert len(bij.phi) == 8
    assert bij.varphi == {fs(): 9, fs(3): 10}
    assert bij.pairs == ((fs(), fs(3, 4)), ((fs(3)), fs(4)))
    # pair representative picks the smaller side
    assert bij.pair_rep(fs(3, 4)) == fs()
    assert bij.pair_rep(fs(4)) == fs(3)


def test_sigma_reference_values_n3():
    bij = build_families(3, 1, 2)
    sm = build_sigma(3, 1, 2, bij, CanonicalSource())
    assert sm.sigma[1] == {fs(2): 1, fs(2, 3): 2, fs(3): 6}
    assert sm.sigma[2] == {fs(1): 3, fs(1, 3): 4, fs(3): 5}
    assert sm.sigma[3] == {fs(1): 2, fs(2): 4, fs(1, 2): 5}
    assert sm.pair_bit_index[1] == {fs(): 5}
    assert sm.pair_bit_index[2] == {fs(): 6}
    assert sm.pair_bit_index[3] == {fs(): 6}


@pytest.mark.parametrize("n", (3, 4, 5))
def test_sigma_covers_every_server(n):
    bij = build_families(n, 1, 2)
    sm = build_sigma(n, 1, 2, bij, SeededSource(n))
    for j in range(1, n + 1):
        assert len(sm.sigma[j]) == 2 ** (n - 1) - 1
        for idx in sm.sigma[j].values():
            assert 1 <= idx <= complete_length(n)


def test_lengths_and_downloads():
    assert [complete_length(n) for n in (3, 4, 5)] == [6, 12, 24]
    assert [complete_downloads_per_server(n) for n in (3, 4, 5)] == [4, 9, 19]


@pytest.mark.parametrize("n,rate", [(3, Fraction(1, 2)), (4, Fraction(1, 3)), (5, Fraction(24, 95))])
def test_complete_scheme_rate_reliability_srp(n, rate):
    g = build_family("complete", [n])
    half = complete_length(n) // 2
    for e in range(1, g.n_base_edges + 1):
        for seed in range(3):
            t = complete_scheme(g, e, SeededSource("k%d-%d-%d" % (n, e, seed)))
            assert symbolic_decode_check(t)
            assert measured_rate(t) == rate
            assert srp_attribution(t) == (half, half)
            for server in t.requests:
                assert len(server) == complete_downloads_per_server(n)


def test_complete_scheme_end_to_end():
    g = build_family("complete", [4])
    data = random.Random(4)
    for e in (1, 3, 6):
        t = complete_scheme(g, e, SeededSource(e))
        store = random_store(g, t.file_length, data)
        assert decode(t, answer_all(store, t)) == store[FileId(e, 1)]


def test_complete_scheme_reads_a_tuple_theta_as_edge_and_copy():
    # (3, 1) is FileId(3, 1), as for every scheme, not the endpoint pair
    # (1, 3), which is edge 2
    g = build_family("complete", [4])
    t = complete_scheme(g, (3, 1), SeededSource(0))
    assert t.theta == FileId(3, 1)
    assert symbolic_decode_check(t)


@pytest.mark.parametrize("n", (3, 4))
def test_complete_scheme_flipped_orientation_still_decodes(n):
    g = build_family("complete", [n])
    for e in range(1, g.n_base_edges + 1):
        t = complete_scheme(g, e, SeededSource(e), orientation=-1)
        assert symbolic_decode_check(t)
        assert srp_attribution(t) == (complete_length(n) // 2,) * 2


def test_orientation_swaps_srp_halves_per_target():
    # with identity permutations the flipped run must attribute each
    # individual target to the opposite hosting server
    g = build_family("complete", [4])
    t_pos = complete_scheme(g, 1, CanonicalSource(), identity_perms=True)
    t_neg = complete_scheme(
        g, 1, CanonicalSource(), identity_perms=True, orientation=-1
    )

    def holders(t):
        out = []
        for tp in range(1, t.file_length + 1):
            fresh = (t.theta, tp)
            out.append(
                [
                    s
                    for s, p in t.decoding_plan[tp - 1]
                    if fresh in t.request_at(s, p).form
                ]
            )
        return out

    hp, hn = holders(t_pos), holders(t_neg)
    assert all(len(h) == 1 for h in hp + hn)
    assert all(a != b for a, b in zip(hp, hn))
