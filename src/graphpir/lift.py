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

Every base run is built one way. The halves of the virtual desired file
must land on the right servers, so the instances with j in A beyond
stage 1 are flipped stages: they read their run through its
half-swapping involution tau, which the lift derives from one draw-free
run (_half_swap) and which a run whose fresh bits do not split evenly
between two servers lacks. A flipped stage relabels the desired
symbol's position m to tau(m) as it lifts forms, and takes target m
from plan entry tau(m). Block u(B) of the desired file is then decoded
by XORing instance B union {j} against instance B.

Each stage lifts a kernel form once (_Stage) and keeps it, in the stage
table, for every later build of the same desired file, so the builds of
one theta share their lifted form objects wherever their kernel runs
share forms.

The lifted factory's run (lift_factory) is the stage loop and the plan
merge. At r = 1 the lift is the base scheme itself, so no run passes
through a stage.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .complete import complement_rep, lex_key
from .core import FileId, Transcript
from .graphs import GraphSpec
from .kernels import KernelRun
from .rng import CanonicalSource, RandomSource
from .schemes import KernelFactory, SchemeError, bind, build


@dataclass(frozen=True)
class BlockPlan:
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
            (frozenset(c) for c in itertools.combinations(rest, size)), key=lex_key
        )
        for k, b in enumerate(subs, start=1):
            u[b] = offset + k
        offset += len(subs)
    assert sorted(u.values()) == list(range(1, 2 ** (r - 1) + 1))

    # complement-pair classes ranked lexicographically by representative
    # (complement_rep), the self-paired full set last
    full = frozenset(range(1, r + 1))
    reps = sorted((
        a for k in range(1, r)
        for a in map(frozenset, itertools.combinations(range(1, r + 1), k))
        if complement_rep(a, full) == a
    ), key=lex_key)
    beta: dict = {}
    for rank, a in enumerate(reps, start=1):
        beta[a] = rank
        beta[full - a] = rank
    beta[full] = len(reps) + 1
    assert len(reps) + 1 == 2 ** (r - 1)
    for t in range(1, r + 1):
        blocks = [b for a, b in beta.items() if t in a]
        assert len(blocks) == len(set(blocks))
    return BlockPlan(u, beta)


# Stage tables kept alive at once. Every caller builds theta by theta
# (all seeds or draw points of one theta, then the next), so one table
# hits almost every time, and keeping more would only hold memory.
STAGE_TABLES = 1

# The largest file length 2^(r-1) * L' built: the stages and block plan
# grow with 2^r, so a larger lift would exhaust memory unbuilt.
MAX_LIFT_LENGTH = 1 << 17


class _Stage(dict):
    """Stage instance A of the lift for one desired file (e, j): its
    window offsets, and a map, filled as runs reach them, from each
    kernel form to its lifted form. A frozenset caches its hash, so a
    form the kernel hands every run (a draw-free template request) is
    looked up at the cost of one equality, and every build of theta is
    handed the same lifted form object. A form is lifted coordinate by
    coordinate, in plain loops (a generator per coordinate cost more
    than its work): the desired symbol's position m, read as tau(m),
    over the desired blocks, every other symbol over the stage's copies."""

    def __init__(self, subset, tau, edge, desired, shared, file_id):
        super().__init__()
        self.subset = subset
        self.copies = tuple(sorted(subset))
        self.tau = tau  # the identity, or the run's involution if flipped
        self.edge = edge
        self.desired = desired  # (copy t, window offset) per desired block
        self.shared = shared  # window offset of every other file
        self.file_id = file_id  # one FileId per (edge, copy)

    def __missing__(self, form):
        file_id, out = self.file_id, []
        add = out.append
        for sym, m in form:
            if sym.edge == self.edge:
                m = self.tau[m - 1]
                for t, off in self.desired:
                    add((file_id(sym.edge, t), off + m))
            else:
                m += self.shared
                for t in self.copies:
                    add((file_id(sym.edge, t), m))
        lifted = self[form] = frozenset(out)
        return lifted


def _half_swap(factory: KernelFactory, e: int) -> tuple:
    """tau[m-1] = tau(m) of factory's runs for desired edge e, from one
    draw-free run: target m is held at the server of the one planned
    request holding the fresh (FileId(e, 1), m), as srp_attribution
    finds it, and tau pairs, in target order, the targets held at one
    server with those held at the other. Refuses a run whose fresh bits
    do not split so, one to one and evenly between two servers."""
    desired, sides = FileId(e, 1), {}
    kr = factory.run(desired, CanonicalSource())
    for m, entry in enumerate(kr.plan, start=1):
        holders = [kr.requests[k][0] for k in entry if (desired, m) in kr.requests[k][1]]
        if len(holders) != 1:
            raise SchemeError("base run of edge %d: target %d has %d fresh-bit requests"
                              % (e, m, len(holders)))
        sides.setdefault(holders[0], []).append(m)
    if len(sides) != 2 or len(set(map(len, sides.values()))) != 1:
        raise SchemeError("base run of edge %d splits its fresh bits %s, not evenly "
                          "between two servers" % (e, {s: len(ms) for s, ms in sides.items()}))
    tau = [0] * len(kr.plan)
    for a, b in zip(*sides.values()):
        tau[a - 1], tau[b - 1] = b, a
    return tuple(tau)


@functools.lru_cache(maxsize=STAGE_TABLES)
def _stage_table(r: int, j: int, e: int, factory: KernelFactory) -> tuple[tuple, tuple]:
    """The stages of a lift of desired file (e, j) whose base runs come
    from `factory`, in run order, and the plan merge: per block u(B),
    the stages whose plans it XORs (B + {j}, and B unless B is empty),
    each with the plan index it reads for each target, and the block's
    window offset."""
    tau = _half_swap(factory, e)
    bp = build_block_plan(r, j)
    file_id = functools.cache(FileId)
    Lp = len(tau)
    identity = tuple(range(1, Lp + 1))
    stages = []
    for size in range(1, r + 1):
        for c in sorted(itertools.combinations(range(1, r + 1), size)):
            A = frozenset(c)
            desired = {t: bp.u[A - {j, t}] for t in A}
            stages.append(_Stage(
                A,
                tau if (j in A and size > 1) else identity,
                e,
                tuple((t, (block - 1) * Lp) for t, block in desired.items()),
                (bp.beta[A] - 1) * Lp,
                file_id,
            ))
    at = {st.subset: k for k, st in enumerate(stages)}
    reads = [tuple(m - 1 for m in st.tau) for st in stages]
    merge = tuple(
        (tuple((at[A], reads[at[A]]) for A in (B | {j}, B) if A), (block - 1) * Lp)
        for B, block in bp.u.items()
    )
    return tuple(stages), merge


def lift_factory(base: KernelFactory, r: int) -> KernelFactory:
    """`base`, any bound factory, lifted to multiplicity r if it fits
    MAX_LIFT_LENGTH; at r = 1, `base` itself. The first build of a
    desired edge refuses a factory whose runs do not split that file's
    fresh bits evenly between two servers (_half_swap)."""
    Lp = base.length
    L = Lp << (r - 1)
    if L > MAX_LIFT_LENGTH:
        raise SchemeError("lift too large to build: file length 2^%d * %d is above %d"
                          % (r - 1, Lp, MAX_LIFT_LENGTH))
    if r == 1:
        return base

    def run(f, rng):
        e, j = f
        stages, merge = _stage_table(r, j, e, base)
        desired = FileId(e, 1)
        requests: list = []
        starts: list = []  # index in `requests` of each stage's first request
        plans: list = []
        for st in stages:
            kr = base.run(desired, rng)
            starts.append(len(requests))
            plans.append(kr.plan)
            requests.extend((server, st[form]) for server, form in kr.requests)

        plan: list = [None] * L
        for merged, off in merge:
            for m in range(Lp):
                plan[off + m] = frozenset(
                    starts[s] + k for s, read in merged for k in plans[s][read[m]]
                )
        return KernelRun(tuple(requests), tuple(plan))

    return KernelFactory(L, base.edge_indices, run)


def lift_scheme(base_kind: str, g: GraphSpec, theta, rng: RandomSource,
                **assemble_kw) -> Transcript:
    """The scheme `base_kind` of g's base graph, lifted to g's
    multiplicity: the `lift:<base_kind>` scheme."""
    factory = lift_factory(bind(base_kind, g.base()), g.multiplicity)
    return build(factory, g, theta, rng, **assemble_kw)
