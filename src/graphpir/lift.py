"""Lifting an SRP base scheme to the r-multigraph extension.

The lifted scheme runs the base scheme once per nonempty subset A of
[r], in r stages ordered by |A|. Each run operates on virtual files:

* the desired edge e carries, when the desired copy j is in A, the sum
  of w_{e,j} windowed to block u(A - {j}) and of each other copy t in A
  windowed to block u(A - {j,t}); when j is not in A, the sum of each
  copy t in A windowed to block u(A - {t});
* every other edge s carries the sum over t in A of w_{s,t}, all
  windowed to the common block beta(A).

Blocks are L'-length index windows; u maps subsets of [r] minus {j}
bijectively onto [1 .. 2^(r-1)] (stage-banded, lexicographic within a
stage, u(empty) = 1). beta pairs each A with its complement so that for
every copy t the blocks used by instances containing t are pairwise
distinct; this keeps every per-file index reference fresh, which is what
makes the per-server query patterns independent of theta.

Each instance's base run is oriented so that the halves of the virtual
desired file land on the right servers: instances with j in A beyond
stage 1 run with the base orientation flipped. Block u(B) of the desired
file is then decoded by XORing instance B union {j} against instance B.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import FileId, Transcript, assemble_transcript
from .graphs import GraphSpec
from .rng import RandomSource
from .schemes import BASE_KINDS, SchemeError, _theta_file, bind


def _lex(subset: frozenset) -> tuple:
    return tuple(sorted(subset))


@dataclass(frozen=True)
class BlockPlan:
    r: int
    j: int
    u: dict  # subsets of [r] minus {j}, including empty -> [1 .. 2^(r-1)]
    beta: dict  # nonempty subsets of [r] -> [1 .. 2^(r-1)]


def build_block_plan(r: int, j: int) -> BlockPlan:
    if r < 1 or not 1 <= j <= r:
        raise ValueError("need 1 <= j <= r")
    rest = [t for t in range(1, r + 1) if t != j]
    u: dict = {frozenset(): 1}
    offset = 1
    for size in range(1, r):
        subs = sorted(
            (frozenset(c) for c in itertools.combinations(rest, size)), key=_lex
        )
        for k, b in enumerate(subs, start=1):
            u[b] = offset + k
        offset += len(subs)
    assert sorted(u.values()) == list(range(1, 2 ** (r - 1) + 1))

    # complement-pair classes: representative is the smaller side (ties
    # broken lexicographically); classes ranked lexicographically by
    # representative, the self-paired full set last
    full = frozenset(range(1, r + 1))
    reps = []
    for k in range(1, r):
        for c in itertools.combinations(range(1, r + 1), k):
            a = frozenset(c)
            b = full - a
            if (len(a), _lex(a)) <= (len(b), _lex(b)):
                reps.append(a)
    reps.sort(key=_lex)
    beta: dict = {}
    for rank, a in enumerate(reps, start=1):
        beta[a] = rank
        beta[full - a] = rank
    beta[full] = len(reps) + 1
    assert len(reps) + 1 == 2 ** (r - 1)
    for t in range(1, r + 1):
        blocks = [b for a, b in beta.items() if t in a]
        assert len(blocks) == len(set(blocks))
    return BlockPlan(r, j, u, beta)


def lifted_rate(base_rate, r: int) -> Fraction:
    """base_rate / (2 - 2^(1-r)); total downloads become (2^r - 1) times
    the base download count."""
    if r < 1:
        raise ValueError("r >= 1 required")
    return Fraction(base_rate) / (2 - Fraction(1, 2 ** (r - 1)))


def lift_scheme(
    base_kind: str,
    g: GraphSpec,
    theta,
    rng: RandomSource,
    **assemble_kw,
) -> Transcript:
    """Lift the named base scheme (path, star, or complete) of g's base
    graph to g's multiplicity."""
    if base_kind not in BASE_KINDS:
        raise SchemeError("no SRP base scheme of kind %r" % base_kind)
    (factory,) = bind(base_kind, g.base())
    r = g.multiplicity
    f = _theta_file(g, theta)
    e, j = f
    Lp = factory.length
    L = 2 ** (r - 1) * Lp
    bp = build_block_plan(r, j)

    def window(block: int, m: int) -> int:
        return (block - 1) * Lp + m

    requests: list = []
    req_ids: dict = {}
    plans: dict = {}
    for size in range(1, r + 1):
        for c in sorted(itertools.combinations(range(1, r + 1), size)):
            A = frozenset(c)
            orient = -1 if (j in A and size > 1) else 1
            kr = factory.run(e, orient, rng)
            if j in A:
                desired = {
                    t: bp.u[A - {j, t}] if t != j else bp.u[A - {j}]
                    for t in A
                }
            else:
                desired = {t: bp.u[A - {t}] for t in A}
            shared = bp.beta[A]

            ids = []
            for server, form in kr.requests:
                coords = set()
                for sym, m in form:
                    if sym == e:
                        for t, block in desired.items():
                            coords.add((FileId(e, t), window(block, m)))
                    else:
                        for t in A:
                            coords.add((FileId(sym, t), window(shared, m)))
                ids.append(len(requests))
                requests.append((server, frozenset(coords)))
            req_ids[A] = ids
            plans[A] = kr.plan

    plan: list = [None] * L
    for B, block in bp.u.items():
        hi = plans[B | {j}]
        hi_ids = req_ids[B | {j}]
        lo_ids = req_ids[B] if B else None
        lo = plans.get(B)
        for m in range(1, Lp + 1):
            entry = {hi_ids[k] for k in hi[m - 1]}
            if B:
                entry |= {lo_ids[k] for k in lo[m - 1]}
            plan[window(block, m) - 1] = frozenset(entry)
    return assemble_transcript(g, L, f, requests, plan, rng, **assemble_kw)
