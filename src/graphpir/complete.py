"""Complete-graph scheme: subset-family bijections, per-server index
maps, download bits, and the three-range decoding plan.

All index bookkeeping lives in permuted ("w") space; the kernel output
is later pushed through per-file permutations like any other kernel.

File length is L = 3 * 2^(N-2). The desired pair (i, i') partitions the
targets into three ranges: [2^(N-1)] decoded through single-subset bits,
then 2^(N-3) targets decoded through the pair bit at server i, then
2^(N-3) targets through the pair bit at server i'.

Only the leftover pools of sigma are drawn. Everything else a run needs
is fixed by (n, i, i') and built once per desired pair from its subset
families (`_skeleton`, cached for the life of the process): every
draw-free sigma entry, each server's pooled subsets with the free
indices they are drawn from, the pair-bit indices, the decoding plan
and the orientation involution tau. Each server's request layout, its
nonempty neighbourhood subsets with their edges, is one object shared
by every pair on K_n (`_server`).

The forms are bound once too, per desired pair, orientation and set of
symbols (`_template`, the last KERNEL_TEMPLATES kept): every request
whose index no draw changes, already oriented, the oriented plan, and
one slot per pooled subset. A pooled subset sits at a server outside
{i, i'}, so its form never carries the desired symbol and tau never
moves it. A run draws the pools, checks the drawn sigma, and builds
only the pooled forms into a copy of the template.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .kernels import KernelRun, _orient
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
    n: int
    i: int
    i_prime: int
    # phi: subsets P with |P & {i,i'}| == 1 -> [1 .. 2^(N-1)], lex rank
    phi: dict
    phi_inv: tuple
    # varphi: canonical pair-class representative P1 -> index in
    # [2^(N-1)+1 .. 2^(N-1)+2^(N-3)]
    varphi: dict
    pairs: tuple  # (P1, P2) in varphi order

    def pair_rep(self, subset: frozenset) -> frozenset:
        """complement_rep of a subset of [N] minus {i, i'}."""
        others = frozenset(range(1, self.n + 1)) - {self.i, self.i_prime}
        return complement_rep(subset, others)


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
    return SubsetBijections(n, i, i_prime, phi, tuple(fam), varphi, pairs)


@dataclass(frozen=True)
class SigmaMap:
    bij: SubsetBijections
    # sigma[j][P] = index in [L] for every nonempty P subset of N(j)
    sigma: dict
    # pair_bit_index[j][rep] = index of the pair-class download at server j
    pair_bit_index: dict


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


@dataclass(frozen=True)
class _Skeleton:
    """Everything a run for desired pair (i, i') does not draw. Per
    server (index j - 1), aligned with _server(n, j).subsets."""
    fixed: tuple  # fixed[j-1][k]: sigma index of subsets[k], None if pooled
    # pools[j-1] = (pooled positions k in lex_key order, free indices)
    pools: tuple
    pair_bits: tuple  # pair_bits[j-1]: pair-bit indices in bij.pairs order
    plan: tuple  # plan of an orientation +1 run, over request positions
    # the half-swapping involution of an orientation -1 run; shared by
    # every run, read only
    tau: dict


@functools.cache
def _skeleton(n: int, i: int, i_prime: int) -> _Skeleton:
    """The draw-free part of a run, following the construction's
    equations; built once per (n, i, i')."""
    bij = build_families(n, i, i_prime)
    half = 2 ** (n - 1)
    quarter = 2 ** (n - 3)

    def index(j: int, p: frozenset):
        if j == i:
            if i_prime in p:
                return bij.phi[frozenset({i}) | (p - {i_prime})]
            return bij.varphi[bij.pair_rep(p)] + quarter
        if j == i_prime:
            if i in p:
                return bij.phi[frozenset({i_prime}) | (p - {i})]
            return bij.varphi[bij.pair_rep(p)]
        cut = len(p & {i, i_prime})
        if cut == 1:
            return bij.phi[p | {j}]
        if cut == 2:
            tilde = frozenset({j}) | (p - {i, i_prime})
            return bij.varphi[bij.pair_rep(tilde)]
        return None  # drawn from the leftover pool

    fixed, pools, pair_bits = [], [], []
    position = itertools.count()  # of each request, in run order
    subset_req: dict[tuple[int, frozenset], int] = {}
    pair_req: dict[tuple[int, frozenset], int] = {}
    for j in range(1, n + 1):
        subsets = _server(n, j).subsets
        sj = tuple(index(j, p) for p in subsets)
        pooled = sorted((k for k, v in enumerate(sj) if v is None),
                        key=lambda k: lex_key(subsets[k]))
        used = set(sj)
        free = tuple(v for v in range(1, half + 1) if v not in used) if pooled else ()
        fixed.append(sj)
        pools.append((tuple(pooled), free))
        pair_bits.append(tuple(
            bij.varphi[rep] if j == i else bij.varphi[rep] + quarter
            for rep, _p2 in bij.pairs
        ))
        for p in subsets:
            subset_req[(j, p)] = next(position)
        for rep, _p2 in bij.pairs:
            pair_req[(j, rep)] = next(position)

    L = complete_length(n)
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

    side_i = [t for t in range(1, half + 1) if i in bij.phi_inv[t - 1]]
    side_i += list(range(half + 1, half + quarter + 1))
    side_ip = [t for t in range(1, half + 1) if i_prime in bij.phi_inv[t - 1]]
    side_ip += list(range(half + quarter + 1, L + 1))
    tau = {}
    for a, b in zip(sorted(side_i), sorted(side_ip)):
        tau[a] = b
        tau[b] = a
    return _Skeleton(tuple(fixed), tuple(pools), tuple(pair_bits), tuple(plan), tau)


def _draw_sigma(n: int, sk: _Skeleton, rng: RandomSource) -> list[list[int]]:
    """One run's sigma, aligned like sk.fixed: the leftover pool at
    servers outside the desired pair is drawn from the unused indices of
    [2^(N-1)], server by server."""
    sigma = []
    for j in range(1, n + 1):
        sj = list(sk.fixed[j - 1])
        pooled, free = sk.pools[j - 1]
        if pooled:
            for k, v in zip(pooled, rng.sample_without_replacement(free, len(pooled))):
                sj[k] = v
        if None in sj:
            raise AssertionError("sigma at server %d left subsets unassigned" % j)
        sigma.append(sj)

    # per-file injectivity: at server j, the indices touching file {j, l}
    # must be distinct
    for j in range(1, n + 1):
        sj = sigma[j - 1]
        for l, positions in _server(n, j).touching:
            seen = [sj[k] for k in positions]
            seen.extend(sk.pair_bits[j - 1])
            if len(seen) != len(set(seen)):
                raise AssertionError(
                    "index collision for file (%d,%d) at server %d" % (j, l, j)
                )
    return sigma


# Kept beside complete_kernel, which reads sigma as _draw_sigma's aligned
# lists: this is the same draw keyed by subset and pair representative,
# the readable view against which sigma's reference values and coverage
# are checked by hand.
def build_sigma(n: int, i: int, i_prime: int, bij: SubsetBijections,
                rng: RandomSource) -> SigmaMap:
    """Per-server index maps following the construction's equations; the
    leftover pool at servers outside the desired pair is drawn from the
    unused indices of [2^(N-1)]."""
    sk = _skeleton(n, i, i_prime)
    sigma = {
        j: dict(zip(_server(n, j).subsets, sj))
        for j, sj in enumerate(_draw_sigma(n, sk, rng), start=1)
    }
    pair_bit_index = {
        j: {rep: v for (rep, _p2), v in zip(bij.pairs, sk.pair_bits[j - 1])}
        for j in range(1, n + 1)
    }
    return SigmaMap(bij, sigma, pair_bit_index)


def complete_length(n: int) -> int:
    return 3 * 2 ** (n - 2)


def complete_downloads_per_server(n: int) -> int:
    return 2 ** (n - 1) + 2 ** (n - 3) - 1


# Kernel templates kept alive at once. A lift's stage runs alternate
# the two orientations of one desired pair, and every caller builds
# theta by theta, so two templates hit almost every time, and keeping
# more would only hold memory.
KERNEL_TEMPLATES = 2


@functools.cache
def _edges(n: int) -> tuple:
    """Every edge of K_n, the fixed order in which a template's symbols
    are given."""
    return tuple(frozenset(e) for e in itertools.combinations(range(1, n + 1), 2))


@dataclass(frozen=True)
class _Template:
    """Every request of a run for one desired pair, orientation and set
    of symbols that the draws do not change, already oriented; a pooled
    subset's request is an empty placeholder."""
    requests: tuple  # (server, form) in run order
    plan: tuple
    # (position in requests, server j, subset index k in sigma[j-1],
    # the symbols of the subset's edges) per pooled subset
    slots: tuple


@functools.lru_cache(maxsize=KERNEL_TEMPLATES)
def _template(n: int, i: int, i_prime: int, orientation: int,
              symbols: tuple) -> _Template:
    """The draw-free part of a run's forms, with `symbols` given in
    _edges(n) order. Orienting leaves the placeholders as they are: tau
    moves only the desired symbol's positions, which no pooled form
    carries."""
    sk = _skeleton(n, i, i_prime)
    symbol = dict(zip(_edges(n), symbols))
    theta_symbol = symbol[frozenset({i, i_prime})]
    requests, slots = [], []
    for j in range(1, n + 1):
        server = _server(n, j)
        for k, (idx, edges) in enumerate(zip(sk.fixed[j - 1], server.edges)):
            syms = [symbol[e] for e in edges]
            if idx is None:
                assert j not in (i, i_prime) and theta_symbol not in syms
                slots.append((len(requests), j, k, tuple(syms)))
                requests.append((j, frozenset()))
            else:
                requests.append((j, frozenset([(sym, idx) for sym in syms])))
        for idx in sk.pair_bits[j - 1]:
            requests.append(
                (j, frozenset([(symbol[e], idx) for e in server.nbr_edges]))
            )
    requests, plan = tuple(requests), sk.plan
    if orientation == -1:
        requests, plan = _orient(requests, plan, theta_symbol, sk.tau)
    return _Template(requests, plan, tuple(slots))


def complete_kernel(
    n: int,
    i: int,
    i_prime: int,
    symbols: dict,
    rng: RandomSource,
    orientation: int = 1,
) -> KernelRun:
    """One run of the complete-graph scheme on K_n.

    `symbols` maps frozenset({u, v}) to the file symbol of that edge.
    Its forms are frozensets of (symbol, index) pairs in permuted index space.
    """
    sigma = _draw_sigma(n, _skeleton(n, i, i_prime), rng)
    tpl = _template(n, i, i_prime, orientation, tuple(symbols[e] for e in _edges(n)))
    requests = list(tpl.requests)
    for pos, j, k, syms in tpl.slots:
        idx = sigma[j - 1][k]
        requests[pos] = (j, frozenset([(sym, idx) for sym in syms]))
    return KernelRun(tuple(requests), tpl.plan)
