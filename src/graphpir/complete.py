"""Complete-graph scheme: subset-family bijections, per-server index
maps, download bits, and the three-range decoding plan.

All index bookkeeping lives in permuted ("w") space; the kernel output
is later pushed through per-file permutations like any other kernel.

File length is L = 3 * 2^(N-2). The desired pair (i, i') partitions the
targets into three ranges: [2^(N-1)] decoded through single-subset bits,
then 2^(N-3) targets decoded through the pair bit at server i, then
2^(N-3) targets through the pair bit at server i'.

Only the leftover pools of sigma are drawn. Everything else a run
needs is fixed by the desired pair (i, i') and the file symbols, and
built once from the pair's subset families in one pass over the servers
(`_template`, the last KERNEL_TEMPLATES kept): the requests with their
plan, and each server's pooled subsets with the free indices they are
drawn from. sigma is proven once per template, for every run: the fixed
indices and pair bits touching each file are distinct, and the free
indices avoid both. A pooled subset's request is a slot that a run
fills straight from its server's pool draw, after checking that the
draw is distinct free indices. Each server's request layout, its
nonempty neighbourhood subsets with their edges, is one object shared
by every pair on K_n (`_server`).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .kernels import KernelRun
from .rng import RandomSource


def lex_key(subset: frozenset) -> tuple:
    return tuple(sorted(subset))


def complement_rep(subset: frozenset, universe: frozenset) -> frozenset:
    """Canonical representative of the complement pair class of `subset`
    within `universe`: the smaller side, ties broken lexicographically."""
    return min(subset, universe - subset, key=lambda p: (len(p), lex_key(p)))


def _subsets(base: list[int]):
    for k in range(len(base) + 1):
        yield from (frozenset(c) for c in itertools.combinations(base, k))


@dataclass(frozen=True)
class SubsetBijections:
    # phi: subsets P with |P & {i,i'}| == 1 -> [1 .. 2^(N-1)], lex rank
    phi: dict
    phi_inv: tuple
    # varphi: canonical pair-class representative P1 -> index in
    # [2^(N-1)+1 .. 2^(N-1)+2^(N-3)]
    varphi: dict
    pairs: tuple  # (P1, P2) in varphi order


def build_families(n: int, i: int, i_prime: int) -> SubsetBijections:
    if n < 3:
        raise ValueError("need N >= 3")
    if i == i_prime or not (1 <= i <= n and 1 <= i_prime <= n):
        raise ValueError("invalid desired pair (%d, %d)" % (i, i_prime))
    universe = list(range(1, n + 1))
    fam = [
        p for p in _subsets(universe) if len(p & {i, i_prime}) == 1
    ]
    fam.sort(key=lex_key)
    assert len(fam) == 2 ** (n - 1)
    phi = {p: k + 1 for k, p in enumerate(fam)}

    others = [v for v in universe if v not in (i, i_prime)]
    others_set = frozenset(others)
    reps = sorted((p for p in _subsets(others) if complement_rep(p, others_set) == p),
                  key=lex_key)
    assert len(reps) == 2 ** (n - 3)
    varphi = {p: 2 ** (n - 1) + k + 1 for k, p in enumerate(reps)}
    pairs = tuple((p, others_set - p) for p in reps)
    return SubsetBijections(phi, tuple(fam), varphi, pairs)


@dataclass(frozen=True)
class _Server:
    """Server j's subset requests on K_n, shared by every desired pair."""
    # every nonempty P subset of N(j) = [n] - {j}, by size, then lex_key
    subsets: tuple
    # edges[k] = the edges {j, l}, l in subsets[k]
    edges: tuple
    nbr_edges: tuple  # every edge {j, l}
    # (l, positions k of the subsets holding l) per l in N(j), ascending
    touching: tuple


@functools.cache
def _server(n: int, j: int) -> _Server:
    nbrs = [v for v in range(1, n + 1) if v != j]
    subsets = tuple(p for p in _subsets(nbrs) if p)
    edge = {l: frozenset({j, l}) for l in nbrs}
    return _Server(
        subsets,
        tuple(tuple(edge[l] for l in sorted(p)) for p in subsets),
        tuple(edge.values()),
        tuple((l, tuple(k for k, p in enumerate(subsets) if l in p)) for l in nbrs),
    )


def complete_length(n: int) -> int:
    return 3 * 2 ** (n - 2)


# Kernel templates kept alive at once. One entry holds a desired pair's
# run, and every caller builds theta by theta, so one template hits
# almost every time, and keeping more would only hold memory.
KERNEL_TEMPLATES = 1


@functools.cache
def _edges(n: int) -> tuple:
    """Every edge of K_n, the fixed order in which a template's symbols
    are given."""
    return tuple(frozenset(e) for e in itertools.combinations(range(1, n + 1), 2))


@dataclass(frozen=True)
class _Template:
    """Everything a run for one desired pair and set of symbols does not
    draw."""
    # (server, form) per request in run order, read only; a pooled
    # subset's request is its server with an empty placeholder form
    requests: tuple
    plan: tuple
    # pools[j-1] = (slots, free indices) of position j: per pooled subset
    # in lex_key order, (position in requests, the symbols of its
    # edges); the pool is drawn from the free indices, the indices of
    # [2^(N-1)] the server's fixed entries leave unused. Both are empty
    # at i and i'.
    pools: tuple


@functools.lru_cache(maxsize=KERNEL_TEMPLATES)
def _template(n: int, i: int, i_prime: int, symbols: tuple, servers=None) -> _Template:
    """The draw-free part of a run, following the construction's
    equations on positions 1..n, with `symbols` given in _edges(n)
    order; servers[j-1] names position j's server in every request."""
    bij = build_families(n, i, i_prime)
    half = 2 ** (n - 1)
    quarter = 2 ** (n - 3)
    L = complete_length(n)
    symbol = dict(zip(_edges(n), symbols))
    # varphi of the pair class of each subset of [n] - {i, i'}
    pair_index = {q: bij.varphi[rep] for rep, p2 in bij.pairs for q in (rep, p2)}

    def index(j: int, p: frozenset):
        if j == i:
            if i_prime in p:
                return bij.phi[frozenset({i}) | (p - {i_prime})]
            return pair_index[p] + quarter
        if j == i_prime:
            if i in p:
                return bij.phi[frozenset({i_prime}) | (p - {i})]
            return pair_index[p]
        cut = len(p & {i, i_prime})
        if cut == 1:
            return bij.phi[p | {j}]
        if cut == 2:
            return pair_index[frozenset({j}) | (p - {i, i_prime})]
        return None  # drawn from the leftover pool

    pools = []
    requests = []  # (server, form) per request, in run order
    subset_req: dict[tuple[int, frozenset], int] = {}  # request positions
    pair_req: dict[tuple[int, frozenset], int] = {}
    for j, host in enumerate(servers or range(1, n + 1), start=1):
        server = _server(n, j)
        sj = tuple(index(j, p) for p in server.subsets)
        bits = tuple(bij.varphi[rep] if j == i else bij.varphi[rep] + quarter
                     for rep, _p2 in bij.pairs)
        pooled = []  # (lex_key of the subset, its slot) per pooled subset
        for p, idx, edges in zip(server.subsets, sj, server.edges):
            subset_req[(j, p)] = len(requests)
            syms = [symbol[e] for e in edges]
            if idx is None:
                pooled.append((lex_key(p), (len(requests), tuple(syms))))
                requests.append((host, frozenset()))
            else:
                requests.append((host, frozenset([(sym, idx) for sym in syms])))
        used = set(sj)
        free = tuple(v for v in range(1, half + 1) if v not in used) if pooled else ()
        # sigma's proof for every run, whose pool draws are distinct free
        # indices: the fixed indices and pair bits touching each file
        # {j, l} are distinct, and the free indices avoid both (the
        # fixed ones by their making)
        for l, positions in server.touching:
            seen = [sj[k] for k in positions if sj[k] is not None]
            seen.extend(bits)
            if len(seen) != len(set(seen)):
                raise AssertionError(
                    "index collision for file (%d,%d) at server %d" % (j, l, j))
        if not set(bits).isdisjoint(free):
            raise AssertionError("a pair bit at server %d is free" % j)
        pools.append((tuple(slot for _key, slot in sorted(pooled)), free))
        for (rep, _p2), idx in zip(bij.pairs, bits):
            pair_req[(j, rep)] = len(requests)
            requests.append((host, frozenset([(symbol[e], idx) for e in server.nbr_edges])))

    plan: list[frozenset] = [frozenset()] * L
    for t in range(1, half + 1):
        p = bij.phi_inv[t - 1]
        x = i if i in p else i_prime
        x_other = i_prime if x == i else i
        entry = {subset_req[(x, frozenset({x_other}) | (p - {x}))]}
        for jj in p - {x}:
            entry.add(subset_req[(jj, p - {jj})])
        plan[t - 1] = frozenset(entry)
    for rep, p2 in bij.pairs:
        v = bij.varphi[rep]
        # middle range: recovered through the pair bit at server i
        entry = {pair_req[(i, rep)]}
        if rep:
            entry.add(subset_req[(i_prime, rep)])
        entry.add(subset_req[(i_prime, p2)])
        for part in (rep, p2):
            for jj in part:
                entry.add(
                    subset_req[(jj, (frozenset({i, i_prime}) | part) - {jj})]
                )
        plan[v - 1] = frozenset(entry)
        # last range: through the pair bit at server i'
        entry = {pair_req[(i_prime, rep)]}
        if rep:
            entry.add(subset_req[(i, rep)])
        entry.add(subset_req[(i, p2)])
        for jj in range(1, n + 1):
            if jj not in (i, i_prime):
                entry.add(pair_req[(jj, rep)])
        plan[v + quarter - 1] = frozenset(entry)
    return _Template(tuple(requests), tuple(plan), tuple(pools))


def complete_kernel(
    n: int,
    i: int,
    i_prime: int,
    symbols: dict,
    rng: RandomSource,
    servers=None,
) -> KernelRun:
    """One run of the complete-graph scheme on K_n, on positions 1..n
    with desired pair (i, i').

    `symbols` maps frozenset({u, v}) of positions to the file symbol of
    that edge; servers[j-1] is the server of position j (default j).
    Its forms are frozensets of (symbol, index) pairs in permuted index space.
    """
    tpl = _template(n, i, i_prime, tuple(symbols[e] for e in _edges(n)), servers)
    requests = list(tpl.requests)
    for slots, free in tpl.pools:
        if not slots:
            continue
        # one server's pooled subsets, in lex_key order, take its pool draw
        server = requests[slots[0][0]][0]
        drawn = rng.sample_without_replacement(free, len(slots))
        if not len(slots) == len(drawn) == len(set(drawn).intersection(free)):
            raise AssertionError("pool draw at server %d is not %d distinct free indices"
                                 % (server, len(slots)))
        for (pos, syms), idx in zip(slots, drawn):
            requests[pos] = (server, frozenset([(sym, idx) for sym in syms]))
    return KernelRun(tuple(requests), tpl.plan)

