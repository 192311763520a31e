"""Complete-graph scheme: subset-family bijections, per-server index
maps, download bits, and the three-range decoding plan.

All index bookkeeping lives in permuted ("w") space; the kernel output
is later pushed through per-file permutations like any other kernel.

File length is L = 3 * 2^(N-2). The desired pair (i, i') partitions the
targets into three ranges: [2^(N-1)] decoded through single-subset bits,
then 2^(N-3) targets decoded through the pair bit at server i, then
2^(N-3) targets through the pair bit at server i'.
"""
from __future__ import annotations

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


def build_sigma(n: int, i: int, i_prime: int, bij: SubsetBijections,
                rng: RandomSource) -> SigmaMap:
    """Per-server index maps following the construction's equations; the
    leftover pool at servers outside the desired pair is drawn from the
    unused indices of [2^(N-1)]."""
    quarter = 2 ** (n - 3)
    sigma: dict[int, dict] = {}
    for j in range(1, n + 1):
        nbrs = [v for v in range(1, n + 1) if v != j]
        sj: dict = {}
        pool_sets = []
        for p in _subsets(nbrs):
            if not p:
                continue
            if j == i:
                if i_prime in p:
                    sj[p] = bij.phi[frozenset({i}) | (p - {i_prime})]
                else:
                    sj[p] = bij.varphi[bij.pair_rep(p)] + quarter
            elif j == i_prime:
                if i in p:
                    sj[p] = bij.phi[frozenset({i_prime}) | (p - {i})]
                else:
                    sj[p] = bij.varphi[bij.pair_rep(p)]
            else:
                cut = len(p & {i, i_prime})
                if cut == 1:
                    sj[p] = bij.phi[p | {j}]
                elif cut == 2:
                    tilde = frozenset({j}) | (p - {i, i_prime})
                    sj[p] = bij.varphi[bij.pair_rep(tilde)]
                else:
                    pool_sets.append(p)
        if pool_sets:
            used = set(sj.values())
            free = [v for v in range(1, 2 ** (n - 1) + 1) if v not in used]
            pool_sets.sort(key=lex_key)
            drawn = rng.sample_without_replacement(free, len(pool_sets))
            for p, v in zip(pool_sets, drawn):
                sj[p] = v
        if len(sj) != 2 ** (n - 1) - 1:
            raise AssertionError("sigma at server %d left subsets unassigned" % j)
        sigma[j] = sj

    pair_bit_index: dict[int, dict] = {}
    for j in range(1, n + 1):
        pb = {}
        for rep, _p2 in bij.pairs:
            v = bij.varphi[rep]
            pb[rep] = v if j == i else v + quarter
        pair_bit_index[j] = pb

    # per-file injectivity: at server j, the indices touching file {j, l}
    # must be distinct
    for j in range(1, n + 1):
        for l in range(1, n + 1):
            if l == j:
                continue
            seen = [idx for p, idx in sigma[j].items() if l in p]
            seen.extend(pair_bit_index[j].values())
            if len(seen) != len(set(seen)):
                raise AssertionError(
                    "index collision for file (%d,%d) at server %d" % (j, l, j)
                )
    return SigmaMap(bij, sigma, pair_bit_index)


def complete_length(n: int) -> int:
    return 3 * 2 ** (n - 2)


def complete_downloads_per_server(n: int) -> int:
    return 2 ** (n - 1) + 2 ** (n - 3) - 1


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
    Request forms are (symbol, index) pairs in permuted index space.
    """
    bij = build_families(n, i, i_prime)
    smap = build_sigma(n, i, i_prime, bij, rng)
    L = complete_length(n)
    half = 2 ** (n - 1)
    quarter = 2 ** (n - 3)

    requests = []
    subset_req: dict[tuple[int, frozenset], int] = {}
    pair_req: dict[tuple[int, frozenset], int] = {}
    for j in range(1, n + 1):
        nbrs = [v for v in range(1, n + 1) if v != j]
        for p in sorted(
            (p for p in _subsets(nbrs) if p), key=lambda s: (len(s), lex_key(s))
        ):
            idx = smap.sigma[j][p]
            form = frozenset((symbols[frozenset({j, l})], idx) for l in p)
            subset_req[(j, p)] = len(requests)
            requests.append((j, form))
        for rep, _p2 in bij.pairs:
            idx = smap.pair_bit_index[j][rep]
            form = frozenset(
                (symbols[frozenset({j, l})], idx) for l in nbrs
            )
            pair_req[(j, rep)] = len(requests)
            requests.append((j, form))

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

    theta_symbol = symbols[frozenset({i, i_prime})]
    if orientation == -1:
        side_i = [t for t in range(1, half + 1) if i in bij.phi_inv[t - 1]]
        side_i += list(range(half + 1, half + quarter + 1))
        side_ip = [t for t in range(1, half + 1) if i_prime in bij.phi_inv[t - 1]]
        side_ip += list(range(half + quarter + 1, L + 1))
        tau = {}
        for a, b in zip(sorted(side_i), sorted(side_ip)):
            tau[a] = b
            tau[b] = a
        requests, plan = _orient(tuple(requests), tuple(plan), theta_symbol, tau)
    return KernelRun(L, theta_symbol, tuple(requests), tuple(plan))
