"""Linear-protocol substrate: coordinates, GF(2) forms, transcripts.

Every downloaded bit is a GF(2) sum of file-bit coordinates. A
Transcript is one full protocol run: per-server ordered tuples of
request forms, the decoding plan, the desired file index theta, and the
per-file permutations that constitute the user's private randomness.

Plan indices are in permuted position space: the plan for target t'
reconstructs bit pi_theta(t') of the stored file, so decoding applies
the inverse permutation at the end.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .graphs import GraphSpec


class FileId(NamedTuple):
    edge: int
    copy: int


# File orders kept at once. Every caller reads one graph's files build
# after build (a walk, a sweep row), so one order hits almost every time,
# and one order can hold 2^17 files (path:3^65536).
FILE_ORDERS = 1


@functools.lru_cache(maxsize=FILE_ORDERS)
def _file_order(edges: int, copies: int) -> tuple[FileId, ...]:
    """The files of `edges` edges of `copies` copies each, in FileId order."""
    return tuple(FileId(e, c) for e in range(1, edges + 1) for c in range(1, copies + 1))


def file_ids(graph: GraphSpec) -> list[FileId]:
    """Every file of graph in FileId order: edge by edge, each edge's
    copies in turn; a new list on every call."""
    return list(_file_order(graph.n_base_edges, graph.multiplicity))


# A coordinate is (FileId, bit index); a form is a frozenset of them.
LinearForm = frozenset


class TranscriptError(ValueError):
    pass


class AttributionUndefined(TranscriptError):
    pass


def xor_forms(forms: Iterable[LinearForm]) -> LinearForm:
    out: frozenset = frozenset()
    for f in forms:
        out = out ^ f
    return out


def wire_sort_key(form: LinearForm):
    """The key of a form in a server's canonical wire order: the file of
    each sorted coordinate (invariant under per-file index permutations),
    then the sorted coordinates. It orders and ties forms as renaming each
    file's bit indices 1, 2, ... would: a coordinate's rank among its
    file's depends only on the files before it. FileId is a tuple, so
    sorting (FileId, bit) pairs orders them as (edge, copy, bit) triples."""
    raw = tuple(sorted(form))
    return tuple(map(itemgetter(0), raw)), raw


@dataclass(frozen=True)
class Transcript:
    graph: GraphSpec
    file_length: int
    theta: FileId
    requests: tuple[tuple[LinearForm, ...], ...]  # index = server - 1
    # decoding_plan[t'-1] = set of (server, position) pairs, 1-based
    decoding_plan: tuple[frozenset, ...]
    permutations: Mapping[FileId, tuple[int, ...]]

    @property
    def total_requests(self) -> int:
        return sum(len(r) for r in self.requests)


def assemble_transcript(
    graph: GraphSpec,
    file_length: int,
    theta: FileId,
    requests,  # list of (server, form over (FileId, permuted index))
    plan,  # per target t' in [1..L], iterable of indices into `requests`
    rng,
    *,
    identity_perms: bool = False,
    wire_key=wire_sort_key,
) -> Transcript:
    """Draw per-file permutations, map permuted-index forms to storage
    coordinates, canonically order each server's wire, and resolve the
    plan's request references to (server, position) pairs.

    Each wire is sorted by `wire_key`, which must order forms as
    wire_sort_key does (a memoised wire_sort_key, say); wire_key=None
    keeps each wire in construction order.

    Scheme constructors describe their queries in permuted index space
    (position m of file f means storage bit perm_f(m)); the plan entry
    for target t' must XOR to position t' of the desired file.
    """
    L = file_length
    files = _file_order(graph.n_base_edges, graph.multiplicity)
    if identity_perms:
        perms = dict.fromkeys(files, tuple(range(1, L + 1)))
    else:
        perms = {f: rng.permutation(L) for f in files}

    per_server: list[list[tuple[LinearForm, int]]] = [
        [] for _ in range(graph.n_vertices)
    ]
    edges = graph.edges
    for idx, (server, wform) in enumerate(requests):
        for f, m in wform:
            if not 1 <= m <= L:
                raise TranscriptError("index %d out of range" % m)
            if server not in edges[f.edge - 1]:
                raise TranscriptError(
                    "server %d asked for file %s it does not store"
                    % (server, (f.edge, f.copy))
                )
        if identity_perms:  # the storage form is the wire form
            storage = frozenset(wform)
        else:
            storage = frozenset((f, perms[f][m - 1]) for f, m in wform)
        if len(storage) != len(wform):
            raise TranscriptError("request %d collapses coordinates" % idx)
        per_server[server - 1].append((storage, idx))

    position: dict[int, tuple[int, int]] = {}
    final: list[tuple[LinearForm, ...]] = []
    for s0, lst in enumerate(per_server):
        if wire_key is not None:
            lst = sorted(lst, key=lambda item: wire_key(item[0]))
        forms = []
        for pos0, (storage, idx) in enumerate(lst):
            position[idx] = (s0 + 1, pos0 + 1)
            forms.append(storage)
        final.append(tuple(forms))

    if len(plan) != L:
        raise TranscriptError("plan must cover all %d targets" % L)
    plan_out = tuple(frozenset(position[i] for i in entry) for entry in plan)
    return Transcript(graph, L, theta, tuple(final), plan_out, perms)


# ---------------------------------------------------------------------------
# stores and answers

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def random_store(graph: GraphSpec, file_length: int, rng) -> dict:
    """Random file contents as tuples of 0/1 ints: one
    rng.getrandbits(L) word per file, in FileId order, read most
    significant bit first as bits 1..L; rng is a random.Random."""
    fmt = "0%db" % file_length
    return {
        f: tuple(
            format(rng.getrandbits(file_length), fmt).encode().translate(_BIT_BYTES))
        for f in _file_order(graph.n_base_edges, graph.multiplicity)
    }


def answer_bit(store: Mapping, form: LinearForm) -> int:
    val = 0
    for f, b in form:
        val ^= store[f][b - 1]
    return val


def answer_all(store: Mapping, t: Transcript) -> list[list[int]]:
    return [[answer_bit(store, form) for form in server] for server in t.requests]


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
            t.requests[s - 1][p - 1] for s, p in t.decoding_plan[tp - 1]
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
            if fresh in t.requests[s - 1][p - 1]
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
# per-server query patterns

def server_pattern(forms: Sequence[LinearForm]) -> tuple:
    """One server's request sequence with each file's bit indices renamed
    1, 2, ... in order of first appearance along the wire (within one
    request, in index order), and each request's tokens sorted.

    The renaming is an injective per-file relabelling, so sequences with
    equal patterns lie in one orbit of the per-file index permutations.
    The converse can fail: two fresh bits of one file in one request are
    named by their index order, which a permutation can swap.
    """
    names: dict[tuple[int, int], dict[int, int]] = {}
    out = []
    for form in forms:
        toks = []
        for f, bit in sorted(form):
            per_file = names.setdefault(f, {})
            toks.append((f.edge, f.copy, per_file.setdefault(bit, len(per_file) + 1)))
        out.append(tuple(sorted(toks)))
    return tuple(out)


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
        for form in server:
            lines.append("  " + form_text(form))
    lines.append("plan:")
    for tp, entry in enumerate(t.decoding_plan, start=1):
        refs = " ".join("(%d,%d)" % sp for sp in sorted(entry))
        lines.append("  %d <- %s" % (tp, refs))
    return "\n".join(lines)
