"""Linear-protocol substrate: coordinates, GF(2) forms, transcripts.

Every downloaded bit is a GF(2) sum of file-bit coordinates. A
Transcript is one full protocol run: per-server ordered request lists,
the decoding plan, the desired file index theta, and the per-file
permutations that constitute the user's private randomness.

Plan indices are in permuted position space: the plan for target t'
reconstructs bit pi_theta(t') of the stored file, so decoding applies
the inverse permutation at the end.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .graphs import GraphSpec


class FileId(NamedTuple):
    edge: int
    copy: int


# A coordinate is (FileId, bit index); a form is a frozenset of them.
LinearForm = frozenset


@dataclass(frozen=True)
class Request:
    server: int
    form: LinearForm


class TranscriptError(ValueError):
    pass


class AttributionUndefined(TranscriptError):
    pass


def xor_forms(forms: Iterable[LinearForm]) -> LinearForm:
    out: frozenset = frozenset()
    for f in forms:
        out = out ^ f
    return out


def _raw_encoding(form: LinearForm) -> tuple[tuple[int, int, int], ...]:
    return tuple(sorted((f.edge, f.copy, b) for f, b in form))


def request_pattern(form: LinearForm) -> tuple[tuple[int, int, int], ...]:
    """Per-request index pattern: bit indices renamed 1,2,... per file in
    sorted order. Invariant under per-file index permutations."""
    raw = _raw_encoding(form)
    counts: dict[tuple[int, int], int] = {}
    out = []
    for edge, copy, _bit in raw:
        k = counts.get((edge, copy), 0) + 1
        counts[(edge, copy)] = k
        out.append((edge, copy, k))
    return tuple(out)


def wire_sort_key(form: LinearForm):
    return (request_pattern(form), _raw_encoding(form))


@dataclass(frozen=True)
class Transcript:
    graph: GraphSpec
    file_length: int
    theta: FileId
    requests: tuple[tuple[Request, ...], ...]  # index = server - 1
    # decoding_plan[t'-1] = set of (server, position) pairs, 1-based
    decoding_plan: tuple[frozenset, ...]
    permutations: Mapping[FileId, tuple[int, ...]]

    @property
    def total_requests(self) -> int:
        return sum(len(r) for r in self.requests)

    def request_at(self, server: int, pos: int) -> Request:
        return self.requests[server - 1][pos - 1]


def assemble_transcript(
    graph: GraphSpec,
    file_length: int,
    theta: FileId,
    requests,  # list of (server, form over (FileId, permuted index))
    plan,  # per target t' in [1..L], iterable of indices into `requests`
    rng,
    *,
    identity_perms: bool = False,
    canonical_order: bool = True,
    validate: bool = True,
) -> Transcript:
    """Draw per-file permutations, map permuted-index forms to storage
    coordinates, canonically order each server's wire, and resolve the
    plan's request references to (server, position) pairs.

    Scheme constructors describe their queries in permuted index space
    (position m of file f means storage bit perm_f(m)); the plan entry
    for target t' must XOR to position t' of the desired file.
    """
    L = file_length
    file_ids = [
        FileId(e, c)
        for e in range(1, graph.n_base_edges + 1)
        for c in range(1, graph.multiplicity + 1)
    ]
    if identity_perms:
        ident = tuple(range(1, L + 1))
        perms = {f: ident for f in file_ids}
    else:
        perms = {f: rng.permutation(L) for f in file_ids}

    per_server: list[list[tuple[LinearForm, int]]] = [
        [] for _ in range(graph.n_vertices)
    ]
    for idx, (server, wform) in enumerate(requests):
        if validate:
            for f, m in wform:
                if not 1 <= m <= L:
                    raise TranscriptError("index %d out of range" % m)
                u, v = graph.edge_endpoints(f.edge)
                if server not in (u, v):
                    raise TranscriptError(
                        "server %d asked for file %s it does not store"
                        % (server, (f.edge, f.copy))
                    )
        storage = frozenset((f, perms[f][m - 1]) for f, m in wform)
        if validate and len(storage) != len(wform):
            raise TranscriptError("request %d collapses coordinates" % idx)
        per_server[server - 1].append((storage, idx))

    position: dict[int, tuple[int, int]] = {}
    final: list[tuple[Request, ...]] = []
    for s0, lst in enumerate(per_server):
        if canonical_order:
            lst = sorted(lst, key=lambda item: wire_sort_key(item[0]))
        reqs = []
        for pos0, (storage, idx) in enumerate(lst):
            position[idx] = (s0 + 1, pos0 + 1)
            reqs.append(Request(s0 + 1, storage))
        final.append(tuple(reqs))

    if len(plan) != L:
        raise TranscriptError("plan must cover all %d targets" % L)
    plan_out = tuple(frozenset(position[i] for i in entry) for entry in plan)
    return Transcript(graph, L, theta, tuple(final), plan_out, perms)


# ---------------------------------------------------------------------------
# stores and answers

def random_store(graph: GraphSpec, file_length: int, rng) -> dict:
    """Random file contents; rng is a random.Random."""
    return {
        FileId(e, c): tuple(rng.randrange(2) for _ in range(file_length))
        for e in range(1, graph.n_base_edges + 1)
        for c in range(1, graph.multiplicity + 1)
    }


def answer_bit(store: Mapping, form: LinearForm) -> int:
    val = 0
    for f, b in form:
        val ^= store[f][b - 1]
    return val


def answer_all(store: Mapping, t: Transcript) -> list[list[int]]:
    return [[answer_bit(store, r.form) for r in server] for server in t.requests]


def decode(t: Transcript, answers: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Recover the stored (unpermuted) desired file from the answers."""
    perm = t.permutations[t.theta]
    out = [0] * t.file_length
    for tp in range(1, t.file_length + 1):
        val = 0
        for server, pos in t.decoding_plan[tp - 1]:
            val ^= answers[server - 1][pos - 1]
        out[perm[tp - 1] - 1] = val
    return tuple(out)


def symbolic_decode_check(t: Transcript) -> bool:
    """True iff every plan entry XORs, as linear forms, to exactly the
    single desired coordinate it claims to recover. Certifies zero-error
    decoding for all file contents at once."""
    perm = t.permutations[t.theta]
    for tp in range(1, t.file_length + 1):
        form = xor_forms(
            t.request_at(s, p).form for s, p in t.decoding_plan[tp - 1]
        )
        if form != frozenset({(t.theta, perm[tp - 1])}):
            return False
    return True


def measured_rate(t: Transcript) -> Fraction:
    if t.total_requests == 0:
        raise TranscriptError("no requests")
    return Fraction(t.file_length, t.total_requests)


def srp_attribution(t: Transcript) -> tuple[int, int]:
    """Per-target fresh-bit attribution to the two servers hosting theta.

    For each target bit there must be exactly one planned request whose
    form contains the fresh desired coordinate; the bit is attributed to
    that request's server. Returns counts in endpoint order (u, v) with
    u < v.
    """
    u, v = t.graph.edge_endpoints(t.theta.edge)
    perm = t.permutations[t.theta]
    counts = {u: 0, v: 0}
    for tp in range(1, t.file_length + 1):
        fresh = (t.theta, perm[tp - 1])
        holders = [
            s
            for s, p in t.decoding_plan[tp - 1]
            if fresh in t.request_at(s, p).form
        ]
        if len(holders) != 1:
            raise AttributionUndefined(
                "target %d has %d fresh-coordinate requests" % (tp, len(holders))
            )
        if holders[0] not in counts:
            raise AttributionUndefined(
                "fresh bit served by non-hosting server %d" % holders[0]
            )
        counts[holders[0]] += 1
    return counts[u], counts[v]


# ---------------------------------------------------------------------------
# canonical per-server query patterns

_PATTERN_COMBO_CAP = 100_000


def server_pattern(forms: Sequence[LinearForm]):
    """Canonical pattern of one server's ordered request list.

    Per-file bit indices are renamed 1,2,3,... in order of first
    appearance; adjacent requests whose per-request patterns tie are
    reordered to make the result minimal. The wire order itself is kept:
    on a canonically ordered wire a different permutation draw can only
    permute requests within such a tie group, so the result is invariant
    under any per-file index permutation of the underlying queries,
    while order anomalies (a non-canonical wire) stay visible.
    """
    keyed = [(request_pattern(f), _raw_encoding(f)) for f in forms]
    groups: list[list[tuple]] = []
    for pat, raw in keyed:
        if groups and groups[-1][0][0] == pat:
            groups[-1].append((pat, raw))
        else:
            groups.append([(pat, raw)])

    combos = 1
    for grp in groups:
        for i in range(2, len(grp) + 1):
            combos *= i
        if combos > _PATTERN_COMBO_CAP:
            raise TranscriptError("pattern tie groups too large to canonicalize")

    def rename(order: list[tuple]) -> tuple:
        seen: dict[tuple[int, int], dict[int, int]] = {}
        out = []
        for _pat, raw in order:
            toks = []
            for edge, copy, bit in raw:
                per_file = seen.setdefault((edge, copy), {})
                if bit not in per_file:
                    per_file[bit] = len(per_file) + 1
                toks.append((edge, copy, per_file[bit]))
            out.append(tuple(toks))
        return tuple(out)

    if all(len(g) == 1 for g in groups):
        return rename([g[0] for g in groups])

    best = None
    for perm_choice in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        order = [item for grp in perm_choice for item in grp]
        cand = rename(order)
        if best is None or cand < best:
            best = cand
    return best


# ---------------------------------------------------------------------------
# text dump

def coordinate_token(coord: tuple[FileId, int]) -> str:
    f, b = coord
    return "%d.%d@%d" % (f.edge, f.copy, b)


def form_text(form: LinearForm) -> str:
    if not form:
        return "0"
    return "+".join(coordinate_token(c) for c in sorted(form))


def dump_transcript(t: Transcript) -> str:
    lines = []
    lines.append(
        "theta %d.%d  L=%d  rate %s"
        % (t.theta.edge, t.theta.copy, t.file_length, measured_rate(t))
    )
    for s0, server in enumerate(t.requests):
        lines.append("server %d:" % (s0 + 1))
        for r in server:
            lines.append("  " + form_text(r.form))
    lines.append("plan:")
    for tp, entry in enumerate(t.decoding_plan, start=1):
        refs = " ".join("(%d,%d)" % sp for sp in sorted(entry))
        lines.append("  %d <- %s" % (tp, refs))
    return "\n".join(lines)
