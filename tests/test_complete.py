import dataclasses
import functools
import hashlib
import itertools
from fractions import Fraction

import pytest

import graphpir.complete as complete
from graphpir.complete import (
    build_families,
    complement_rep,
    complete_kernel,
    complete_length,
)
from graphpir.core import (
    FileId,
    answer_all,
    decode,
    dump_transcript,
    measured_rate,
    random_store,
    srp_attribution,
    symbolic_decode_check,
    wire_sort_key,
    xor_forms,
)
from graphpir.graphs import build_family, parse_graph
from graphpir.kernels import KernelRun
from graphpir.mutants import MUTANTS
from graphpir.rng import CanonicalSource, SeededSource
from graphpir.lift import _half_swap
from graphpir.runner import all_thetas, resolve_scheme
from graphpir.schemes import KernelFactory, bind, build
from graphpir.verify import _seed_for
from test_core import _outcome
from test_verify import compose_stars_drop_request

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
    assert complement_rep(fs(3, 4), fs(3, 4)) == fs()
    assert complement_rep(fs(4), fs(3, 4)) == fs(3)


def sigma_view(n, i, i_prime, rng):
    """One run's sigma keyed by server, then subset, and its pair-bit
    indices keyed by server, then pair representative, read off the
    kernel's requests: each server's subsets in _server order, then its
    pair bits in the order of the pair classes."""
    run = complete_kernel(n, i, i_prime, edge_symbols(n), rng)
    indices = {j: [] for j in range(1, n + 1)}
    for server, form in run.requests:
        (idx,) = {m for _sym, m in form}
        indices[server].append(idx)
    reps = [rep for rep, _p2 in build_families(n, i, i_prime).pairs]
    sigma, pair_bit_index = {}, {}
    for j, idxs in indices.items():
        subsets = complete._server(n, j).subsets
        assert len(idxs) == len(subsets) + len(reps)
        sigma[j] = dict(zip(subsets, idxs))
        pair_bit_index[j] = dict(zip(reps, idxs[len(subsets):]))
    return sigma, pair_bit_index


def test_sigma_reference_values_n3():
    sigma, pair_bit_index = sigma_view(3, 1, 2, CanonicalSource())
    assert sigma[1] == {fs(2): 1, fs(2, 3): 2, fs(3): 6}
    assert sigma[2] == {fs(1): 3, fs(1, 3): 4, fs(3): 5}
    assert sigma[3] == {fs(1): 2, fs(2): 4, fs(1, 2): 5}
    assert pair_bit_index[1] == {fs(): 5}
    assert pair_bit_index[2] == {fs(): 6}
    assert pair_bit_index[3] == {fs(): 6}


@pytest.mark.parametrize("n", (3, 4, 5))
def test_sigma_covers_every_server(n):
    sigma, _ = sigma_view(n, 1, 2, SeededSource(n))
    for j in range(1, n + 1):
        assert len(sigma[j]) == 2 ** (n - 1) - 1
        for idx in sigma[j].values():
            assert 1 <= idx <= complete_length(n)


def test_lengths_and_downloads():
    assert [complete_length(n) for n in (3, 4, 5)] == [6, 12, 24]
    # 2^(N-1) - 1 subset requests and 2^(N-3) pair bits per server
    assert [2 ** (n - 1) + 2 ** (n - 3) - 1 for n in (3, 4, 5)] == [4, 9, 19]


@pytest.mark.parametrize("n,rate", [(3, Fraction(1, 2)), (4, Fraction(1, 3)), (5, Fraction(24, 95))])
def test_complete_scheme_rate_reliability_srp(n, rate):
    g = build_family("complete", [n])
    half = complete_length(n) // 2
    for e in range(1, g.n_base_edges + 1):
        for seed in range(3):
            t = build(bind("complete", g), g, e, SeededSource("k%d-%d-%d" % (n, e, seed)))
            assert symbolic_decode_check(t)
            assert measured_rate(t) == rate
            assert srp_attribution(t) == (half, half)
            for server in t.requests:
                assert len(server) == 2 ** (n - 1) + 2 ** (n - 3) - 1


def test_complete_scheme_end_to_end():
    g = build_family("complete", [4])
    data = random.Random(4)
    for e in (1, 3, 6):
        t = build(bind("complete", g), g, e, SeededSource(e))
        store = random_store(g, t.file_length, data)
        assert decode(t, answer_all(store, t)) == store[FileId(e, 1)]


def test_complete_scheme_reads_a_tuple_theta_as_edge_and_copy():
    # (3, 1) is FileId(3, 1), as for every scheme, not the endpoint pair
    # (1, 3), which is edge 2
    g = build_family("complete", [4])
    t = build(bind("complete", g), g, (3, 1), SeededSource(0))
    assert t.theta == FileId(3, 1)
    assert symbolic_decode_check(t)


# SHA-256 of the dumps in dump_digest, recorded before the draw-free
# part of a run was cached. A change in what a run draws, in which
# order, or how it turns the draws into forms changes the digest. The
# four standalone keys were re-recorded from the one orientation a
# standalone run has, before the kernels lost their orientation
# argument; the lifted keys still cover the flipped stages.
DUMP_DIGESTS = {
    "complete:3": "04ab26385e23f11bbb8dc88b125adaa78db22a1df2f17a0bec885742f23969f9",
    "complete:4": "020c331f99793ff25f43bb9aced5ce16d62e4d9cf273a7ef881cdd3eeca6f0a0",
    "complete:5": "1b4fe79d8644ef52f28e0e9931d407ec06e1fdec8a15a2b5c578c4b3a039d1ca",
    "complete:6": "f364675eda6e3045414367f35f3c362c78c9d155f21af6ab41ebdefff202f2ae",
    "complete:3^2": "e20ecde5e86ae2b428fd852d9e67136728f9400e9af64695dcd62321feba731a",
    "complete:4^2": "4eb09e823a5f3d1b424c363c8ed2f98ea3c5809b215690113deff4580d5028dd",
    "complete:4^3": "72a2114119871b9a5b80c56bf73c01f3b8b4d54296e9bc442c1fa48b46fc2c02",
}
# The same digests for lifted path and star schemes, the star
# composition and the two composition mutants, recorded before the
# lift precomputed its per-theta stage structure. A key is a graph, run
# by the scheme `auto` picks, or "<MUTANTS name> <graph>".
DUMP_DIGESTS.update({
    "path:2^2": "7fa1e76bf3e3f4813190d2c2391abca55205899473fbddf367cecdf5202aadca",
    "path:4^3": "601699d9956fa06463050894d1358848a20c2ce138c88b292a1f3db2169603f8",
    "star:5^2": "422843bd9267d4628c54442559875b670e545973904b51ec26a24e2a3af81995",
    "complete:6^2": "480133bf87c61d43e1bbc84af10f753af28e402bf1c0a8a190ac3385c9e05491",
    "complete_bipartite:2,3": "474239cf1d233f7f3fdba3bab90c555c55a3aab34f72affcc9a98d97235a7849",
    "complete_bipartite:2,4": "22fccc8e2a93e3d616ccfc383aacb94493024f467b1db7ef8a2011507fd7632f",
    "theta-ordered-compose complete_bipartite:2,3": "ddef534bf075ea83a1498034a7a834187ea9ba66843bcef9f981fa10b1357bdf",
    "no-decoy-compose complete_bipartite:2,3": "51f231d4e0c8d4471ec698a2c310144da7f8dd07c423ae24b204e5e6e752c33c",
})
# The drop-request mutant on the star composition, recorded while each
# wire entry was still a (server, form) record.
DUMP_DIGESTS["drop-request complete_bipartite:2,3"] = (
    "4a3d1deedde764427d36b19d585e5e9ae7c779759a695c12f8f52411d5490d77")
# Lifts at r = 4, recorded before the lift stopped building a
# generator per coordinate; the pins above stop at r = 3.
DUMP_DIGESTS.update({
    "path:3^4": "2fc9cf39f4307ae092e653b12106b5edbd4ab447997f1cc2447fbbac506db868",
    "star:4^4": "77d80986fa16983968ac13a68c70355a6021097dbe9c6c65fa5e05b671dbabd4",
    "complete:3^4": "59c6d4c269422f8e0431320f27236df3695ff2eed10053287401afb9fd339cb6",
})


def key_runner(key: str):
    """(graph, runner) of a DUMP_DIGESTS key."""
    mutant, _, text = key.rpartition(" ")
    g = parse_graph(text)
    if mutant == "drop-request":  # a transcript transform, not a runner
        return g, compose_stars_drop_request
    if mutant:
        return g, MUTANTS[mutant][0]
    return g, resolve_scheme("auto", g)[1]


def dump_digest(key: str, **run_kw) -> str:
    """SHA-256 over the dumps of every theta, seeds 1 and 2, random and
    identity permutations, each run with `run_kw` as well. Every desired
    pair is run more than once, so runs from a cold and a warm cache are
    both covered."""
    g, run = key_runner(key)
    h = hashlib.sha256()
    for theta in all_thetas(g):
        for seed in (1, 2):
            for identity in (False, True):
                t = run(g, theta, SeededSource(seed), identity_perms=identity, **run_kw)
                h.update(dump_transcript(t).encode() + b"\n\n")
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(DUMP_DIGESTS))
def test_transcripts_are_pinned_byte_for_byte(key):
    assert dump_digest(key) == DUMP_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(DUMP_DIGESTS))
def test_a_memoised_wire_key_keeps_every_dump(key):
    # the privacy tiers sort the canonical wire by one memoised
    # wire_sort_key per tally; here one memo serves every theta, seed and
    # permutation of a key, so it hits across all of them
    assert dump_digest(key, wire_key=functools.cache(wire_sort_key)) == DUMP_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(DUMP_DIGESTS))
def test_checks_agree_on_the_seeded_builds_with_and_without_permutations(key):
    # verify's "rel" builds, with random file permutations and with
    # identity ones, at every theta and seeds 0-2: a per-file
    # permutation relabels every form and the decoding target alike, so
    # the symbolic verdict, SRP attribution and rate agree, and each
    # build decodes a store as the other decodes it read through the
    # permutations; where theta decodes, both recover the same stores
    g, run = key_runner(key)
    for theta in all_thetas(g):
        for seed in range(3):
            perm, ident = (
                run(g, theta, SeededSource(_seed_for(seed, theta, "rel")),
                    identity_perms=identity, wire_key=None)
                for identity in (False, True))
            for check in (symbolic_decode_check, srp_attribution, measured_rate):
                assert _outcome(check, perm) == _outcome(check, ident)
            data = random.Random(_seed_for(seed, theta, "store"))
            pi = perm.permutations
            for store in (random_store(g, perm.file_length, data) for _ in range(2)):
                got = decode(perm, answer_all(store, perm))
                if symbolic_decode_check(ident):
                    assert got == decode(ident, answer_all(store, ident)) == store[theta]
                relabelled = {f: tuple(bits[m - 1] for m in pi[f]) for f, bits in store.items()}
                assert (tuple(got[m - 1] for m in pi[theta])
                        == decode(ident, answer_all(relabelled, ident)))


def edge_symbols(n: int, name=lambda k: k) -> dict:
    return {
        frozenset(e): name(k)
        for k, e in enumerate(itertools.combinations(range(1, n + 1), 2), start=1)
    }


class RepeatingSource(SeededSource):
    """Hands every pool its first free index, once per pooled subset."""

    def sample_without_replacement(self, seq, k):
        return [seq[0]] * k


class ShortSource(SeededSource):
    """Draws nothing for a pool."""

    def sample_without_replacement(self, seq, k):
        return []


class HeldIndexSource(SeededSource):
    """Draws as SeededSource does, except that its first pool's first
    subset takes the smallest index below the pool's largest that the
    pool leaves out, an index its server already holds."""

    first = True

    def sample_without_replacement(self, seq, k):
        out = super().sample_without_replacement(seq, k)
        if self.first:
            self.first = False
            out[0] = min(set(range(1, max(seq) + 1)) - set(seq))
        return out


@pytest.mark.parametrize("source", (RepeatingSource, ShortSource, HeldIndexSource))
def test_every_pool_draw_is_checked(source):
    # at server 3 of K_5 with desired pair (1, 2), the pool {4}, {4, 5},
    # {5} is drawn in that order; HeldIndexSource hands {4} the index 2,
    # which server 3 holds as sigma({1}) but no subset touching file
    # {3, 4} holds
    complete._template.cache_clear()
    symbols = edge_symbols(5)
    for _ in range(2):  # cold template, then warm
        with pytest.raises(AssertionError,
                           match="pool draw at server 3 is not 3 distinct free indices"):
            complete_kernel(5, 1, 2, symbols, source(0))
        complete_kernel(5, 1, 2, symbols, SeededSource(0))
    assert complete._template.cache_info().hits >= 3


def test_a_template_that_breaks_sigma_is_refused(monkeypatch):
    # families whose pair classes share one varphi index give server 1 two
    # equal pair bits, and each pair bit touches every file at its server
    def merged(n, i, i_prime):
        bij = build_families(n, i, i_prime)
        return dataclasses.replace(bij, varphi=dict.fromkeys(bij.varphi, min(bij.varphi.values())))

    monkeypatch.setattr(complete, "build_families", merged)
    complete._template.cache_clear()
    with pytest.raises(AssertionError, match=r"index collision for file \(1,2\) at server 1"):
        complete_kernel(4, 1, 2, edge_symbols(4), SeededSource(0))
    assert complete._template.cache_info().currsize == 0


def test_forms_use_the_symbols_of_each_call():
    ints = edge_symbols(5)
    names = edge_symbols(5, lambda k: "f%d" % k)
    first = complete_kernel(5, 2, 4, ints, SeededSource(7))
    second = complete_kernel(5, 2, 4, names, SeededSource(7))
    assert second.plan == first.plan
    # each plan entry XORs to its position of the desired pair's symbol
    desired = names[frozenset({2, 4})]
    for m, entry in enumerate(second.plan, start=1):
        assert xor_forms(second.requests[k][1] for k in entry) == {(desired, m)}
    renamed = tuple(
        (server, frozenset(("f%d" % sym, m) for sym, m in form))
        for server, form in first.requests
    )
    assert second.requests == renamed
    assert {sym for _, form in second.requests for sym, _ in form} == set(names.values())


def kernel_from_scratch(n, i, i_prime, symbols, rng):
    """complete_kernel as it was before templates: sigma from the subset
    families' equations, its leftover pools drawn here (server by server,
    each pool's subsets in lex_key order, from the indices of [2^(N-1)]
    the server leaves unused), and every request form built from it, with
    the template's plan. Checks the tau the lift derives from a run of
    the pair against one derived here from the subset families; the
    desired symbol must be FileId(e, 1) of some e."""
    tpl = complete._template(n, i, i_prime, tuple(symbols[e] for e in complete._edges(n)))
    # tau pairs the targets hosted at i (the phi targets whose subset
    # holds i, then the middle range) with those hosted at i' (phi
    # targets holding i', then the last range), in sorted order
    bij = build_families(n, i, i_prime)
    half, quarter = 2 ** (n - 1), 2 ** (n - 3)
    side_i = [bij.phi[p] for p in bij.phi if i in p]
    side_i += range(half + 1, half + quarter + 1)
    side_ip = [bij.phi[p] for p in bij.phi if i_prime in p]
    side_ip += range(half + quarter + 1, complete_length(n) + 1)
    tau = {}
    for a, b in zip(sorted(side_i), sorted(side_ip)):
        tau[a], tau[b] = b, a
    e = symbols[frozenset({i, i_prime})].edge
    factory = KernelFactory(complete_length(n), (e,),
                            lambda _e, src: complete_kernel(n, i, i_prime, symbols, src))
    assert _half_swap(factory, e) == tuple(tau[m] for m in range(1, complete_length(n) + 1))
    # varphi of the pair class of each subset of [n] - {i, i'}
    pair_of = {q: bij.varphi[rep] for rep, p2 in bij.pairs for q in (rep, p2)}
    requests = []
    for j in range(1, n + 1):
        nbrs = [v for v in range(1, n + 1) if v != j]
        subsets = sorted((frozenset(c) for k in range(1, n) for c in itertools.combinations(nbrs, k)),
                         key=lambda p: (len(p), sorted(p)))
        sigma = {}
        for p in subsets:
            if j in (i, i_prime):
                other = i_prime if j == i else i
                if other in p:
                    sigma[p] = bij.phi[p - {other} | {j}]
                else:
                    sigma[p] = pair_of[p] + (quarter if j == i else 0)
            elif len(p & {i, i_prime}) == 1:
                sigma[p] = bij.phi[p | {j}]
            elif len(p & {i, i_prime}) == 2:
                sigma[p] = pair_of[p - {i, i_prime} | {j}]
        pool = sorted((p for p in subsets if p not in sigma), key=sorted)
        if pool:
            free = [v for v in range(1, half + 1) if v not in sigma.values()]
            sigma.update(zip(pool, rng.sample_without_replacement(free, len(pool))))
        for p in subsets:
            requests.append((j, frozenset((symbols[frozenset({j, l})], sigma[p]) for l in p)))
        for rep, _p2 in bij.pairs:
            bit = bij.varphi[rep] + (0 if j == i else quarter)
            requests.append((j, frozenset((symbols[frozenset({j, l})], bit) for l in nbrs)))
    return KernelRun(tuple(requests), tpl.plan)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_template_runs_equal_runs_built_from_scratch(n):
    complete._template.cache_clear()
    symbols = edge_symbols(n, lambda k: FileId(k, 1))
    for i, i_prime in itertools.permutations(range(1, n + 1), 2):
        for seed in (1, 2, 3):  # a cold template, then warm ones
            a, b = SeededSource(seed), SeededSource(seed)
            assert (complete_kernel(n, i, i_prime, symbols, a)
                    == kernel_from_scratch(n, i, i_prime, symbols, b))
            # the same draws were made
            assert a.choice_index(1 << 30) == b.choice_index(1 << 30)


def test_kernel_templates_are_reused_per_theta_and_bounded():
    # theta by theta, as verify builds: one template per desired pair,
    # holding its run, reused by every later run of that pair; at most
    # KERNEL_TEMPLATES alive
    complete._template.cache_clear()
    for text in ("complete:4^3", "complete:6"):
        g = parse_graph(text)
        _, run = resolve_scheme("auto", g)
        for theta in all_thetas(g):
            for seed in (1, 2):
                assert symbolic_decode_check(run(g, theta, SeededSource(seed)))
    info = complete._template.cache_info()
    assert info.currsize <= complete.KERNEL_TEMPLATES
    # complete:4^3: 6 pairs built, 18 theta x 2 seeds lift calls, each
    # making 7 stage runs, and one draw-free run per theta for the
    # stage table's tau; complete:6: 15 pairs, 15 theta x 2 seeds
    assert (info.misses, info.hits) == (6 + 15, 18 * 2 * 7 + 18 - 6 + 30 - 15)
