"""Verification engine: reliability, privacy, SRP, and rate checks.

One walk over the desired files theta (_walk), on one resolution of
the scheme, proves every check a call asks for, reading only builds of
theta with identity file permutations, each wire sorted by
wire_sort_key. All of theta's builds share one memoised wire_sort_key.
For each theta it learns the draw shape once (record_shape); that
run's transcript, the build of the shape's canonical_point, starts
theta's one map from point to transcript. The exact tier checks the
shape against EXACT_BUDGET next, so a refusal costs that one build.
The checks come first: seed by seed (the CLI's --seeds), theta's check
point, one point of a fresh seeded source, is drawn, counted, built by
_replay unless the map holds it, and added to the map; reliability, SRP
and rate all read that transcript, and once every named check has
failed no further point is drawn. A check point is a function of the
shape and the seed, and an empty shape's is (), drawn from no source.
What reads only the transcript (symbolic decoding, SRP attribution, the
rate) runs once per distinct check point of theta: a seed that draws a
point already checked reads the same transcript, where every check
still running has passed, so only its two random stores are decoded.
The privacy tally (_tally) comes second: it takes theta's stream as
counts, a map from each point drawn to the times it was drawn, reads
the transcript map at each point it holds (the exact stream's first
point, the one point of an empty shape, every check point) and builds
each other point by the same replay, writing nothing. The map, the
count of check points and the wire key memo are theta's alone, and are
dropped when the walk moves to the next theta.
Decoding, SRP attribution and the rate resolve the plan to positions
in the order the wire has, and a permutation relabels every form and
the decoding target alike, so neither changes them. A runner, a
callable one included, passes identity_perms and wire_key on to
assemble_transcript.

A scheme is private when each server's query distribution is the same
for every desired file theta. One engine checks this for every privacy
tier: _tally counts one view of each server's request sequence, its
pattern (core.server_pattern), over the runs of a per-theta stream of
points of the scheme's own draws, given as the count of each point,
and _verdict turns the counts into a verdict at a tolerance on the
total-variation (TV) distance; tolerance 0 means exact equality, tested
in integers, and None the same equality against the first theta only,
with no TV (_compare). The tiers differ
only in their stream and tolerance:

* exact: every point of the scheme's own draws (rng.enumerate_sources),
  at most EXACT_BUDGET points per theta (BudgetExceeded past it);
  tolerance None;
* structural: the check points, one per seed, each drawn once: the
  checks count the ones they draw and the tier draws the seeds after
  them; tolerance None;
* statistical: `samples` successive points of one seeded source, counted
  as they are drawn (SeededSource.counts); the given tolerance.

auto stays exact unless some theta passes EXACT_BUDGET; then, before
that theta's checks, it turns structural and re-tallies the thetas
already walked from their kept shapes.

Every tier runs the scheme with identity file permutations. Every
scheme draws its per-file index permutations in assemble_transcript,
uniformly and independently of everything else, and uses them nowhere
else (a runner passed in as a callable must do the same for a verdict
to hold). For a fixed point of the scheme's own draws, a server's view
is therefore uniform over the orbit of its identity-permutation view
under per-file index permutations: the wire is re-sorted when it is
canonical, and kept in insertion order, which no permutation changes,
when it is not. So the raw query distributions of two thetas are as
far apart in TV as the distributions of these orbits, and the exact
tier's budget counts only the scheme's own draws (16 points per theta
on complete:4, against 1.9e53 with the permutations). _verdict
brackets that TV between two views:

* pass: the pattern distributions are within the tolerance. A pattern
  is an injective per-file relabelling of the view, so equal patterns
  lie in one orbit and the pattern TV bounds the true TV from above.
* confirmed fail: otherwise the distinct patterns are coloured by
  colour refinement (1-WL) on their request/bit incidence graphs, and
  the distributions pushed through the colour classes are beyond the
  tolerance. A colour class is an isomorphism invariant, the same on
  every view of one orbit, so its TV bounds the true TV from below;
  the witness is that of the pushed comparison.
* inconclusive: the patterns differ and the colour classes do not.
  Refinement cannot separate every pair of orbits, so this is refused
  (TranscriptError), never passed.

With identity permutations a run's views are a function of the
scheme's own draws, which take few values (3 points per theta for the
K_{2,3} star composition), so each distinct point is built once per
theta, and each distinct server wire viewed once per tally (_tally); a
wire's forms repeat across points too, so each distinct form's wire
key is computed once per theta.
Every build replays a point of the recorded draw shape, so every walk,
a check-only one included, refuses a scheme whose draw shape depends
on its drawn values (TranscriptError).
"""
from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bounds import bound_report, exact_entries
from .core import (
    answer_all,
    decode,
    measured_rate,
    random_store,
    srp_attribution,
    server_pattern,
    symbolic_decode_check,
    wire_sort_key,
    AttributionUndefined,
    TranscriptError,
)
from .graphs import GraphSpec
from .rng import (
    BudgetExceeded,
    ReplaySource,
    SeededSource,
    canonical_point,
    domain_size,
    enumerate_sources,
    record_shape,
)
from .runner import all_thetas, resolve_scheme

EXACT_BUDGET = 1 << 10
DEFAULT_SAMPLES = 200_000
DEFAULT_TOLERANCE = 0.02
PRIVACY_MODES = ("auto", "exact", "structural", "statistical")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "witness": {k: str(v) for k, v in self.witness.items()},
        }


def _seed_for(base_seed, theta, tag: str) -> str:
    return "%s/%d.%d/%s" % (base_seed, theta.edge, theta.copy, tag)


def _replay(build, shape, point):
    """The transcript of `build` run on a replay of `point`, a point of
    draw shape `shape`; a run that draws past its values or leaves some
    undrawn is refused (TranscriptError)."""
    replay = ReplaySource(shape, point)
    t = build(replay)
    replay.finish()
    return t


def _tally(build, shape, counts, view, servers: int, built=None):
    """(one Counter of `view` per server, runs): the counts of running
    `build`, whose draw shape is `shape` (record_shape), once per draw of
    each point of `counts`, a mapping from point to the times it was
    drawn, over `servers` servers. A point holds one value per draw of
    the shape, in the order the run draws them (SeededSource.counts or
    enumerate_sources). `built` maps points to their transcripts (none by
    default); a point of it is read, never built, and the map is never
    written. Callers name the view (say server_pattern) at call time,
    never in a default or a table, so a rebinding of the module
    attribute, as a tracer does, sees every call.

    Each point of `counts` not in `built` is built once, by _replay, and
    each distinct server wire viewed once; a point's views count as
    often as it was drawn. A view is a function of the wire, so a wire
    already seen, at any server of any point, reuses its view; that memo
    does not outlive the call.
    """
    counters = [Counter() for _ in range(servers)]
    views: dict = {}  # wire -> view
    built = built or {}  # point -> its transcript, read only
    for point, k in counts.items():
        if (t := built.get(point)) is None:
            t = _replay(build, shape, point)
        for c, wire in zip(counters, t.requests):
            if (seen := views.get(wire)) is None:
                seen = views[wire] = view(wire)
            c[seen] += k
    return counters, sum(counts.values())


def _walk(scheme, g: GraphSpec, checks: Sequence[str] = (), privacy: str | None = None,
          seeds: Sequence = (0,), samples: int = DEFAULT_SAMPLES,
          tolerance: float = DEFAULT_TOLERANCE):
    """(name, results, rate) of one walk over all_thetas(g) (see the
    module docstring). results maps each of `checks`, theta-major over
    `seeds` and each failing at its own first failing transcript, and
    "privacy" when `privacy` names a mode, to its CheckResult. The
    checks: reliability, symbolic zero-error decoding and decoding of
    two random stores; srp, theta's fresh bits split evenly between its
    two servers; rate, within every applicable exact upper bound. A
    seed whose check point theta has already checked decodes its stores
    and nothing else. rate is the largest rate measured, or the failing
    one (None unless rate is checked)."""
    if not isinstance(seeds, range):  # a range is walked lazily, however long
        seeds = list(seeds)
    if not seeds and (checks or privacy in ("auto", "structural")):
        raise ValueError("need at least one seed")
    if privacy not in (None,) + PRIVACY_MODES:
        raise ValueError("unknown privacy mode %r" % privacy)
    if privacy == "statistical" and samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    if privacy == "statistical" and not 0 <= tolerance < 1:
        raise ValueError("tolerance must be in [0, 1), got %r" % tolerance)
    name, run = resolve_scheme(scheme, g)
    bounds = exact_entries(bound_report(g), "upper") if "rate" in checks else []
    rates = []

    def reliability(t, theta, seed, repeat):
        if not repeat and not symbolic_decode_check(t):
            return "symbolic decode failed", {"seed": seed}
        data_rng = random.Random(_seed_for(seed, theta, "store"))
        for k in range(2):
            store = random_store(g, t.file_length, data_rng)
            if decode(t, answer_all(store, t)) != store[theta]:
                return "end-to-end decode mismatch", {"seed": seed, "store": k}

    def srp(t, theta, seed, repeat):
        if repeat:
            return
        half = t.file_length // 2
        try:
            attr = srp_attribution(t)
        except AttributionUndefined as exc:
            return "attribution undefined: %s" % exc, {"seed": seed}
        if attr != (half, half):
            return "attribution %s, expected (%d, %d)" % (attr, half, half), {"seed": seed}

    def rate(t, theta, seed, repeat):
        if repeat:
            return
        rates.append(measured_rate(t))
        for e in bounds:
            if rates[-1] > e.value:
                return ("measured rate %s exceeds bound %s (%s)"
                        % (rates[-1], e.value, e.source), {})

    def builder(theta):
        """theta's build, whose runs share one memoised wire_sort_key."""
        return functools.partial(run, g, theta, identity_perms=True,
                                 wire_key=functools.cache(wire_sort_key))

    def check_point(theta, seed):
        """theta's check point at `seed`; an empty shape's is (), no source
        seeded."""
        shape = shapes[theta]
        return SeededSource(_seed_for(seed, theta, "rel")).point(shape) if shape else ()

    def tally(theta, build, built=None, checked=()):
        """theta's counts; `checked` counts the check points the checks
        drew, seed by seed from the first, so the structural stream draws
        only the seeds after them."""
        shape = shapes[theta]
        if tier == "exact":
            counts = Counter(enumerate_sources(shape, EXACT_BUDGET))
        elif tier == "structural":
            counts = Counter(checked)
            counts.update(check_point(theta, seed)
                          for seed in seeds[sum(counts.values()):])
        else:
            counts = SeededSource(_seed_for(0, theta, "stat")).counts(shape, samples)
        return _tally(build, shape, counts, server_pattern, g.n_vertices, built)

    faults = {"reliability": reliability, "srp": srp, "rate": rate}
    tier = "exact" if privacy == "auto" else privacy
    shapes, dists, failed = {}, {}, {}
    for theta in all_thetas(g):
        build = builder(theta)
        shape, t = record_shape(build)
        shapes[theta] = shape
        built = {canonical_point(shape): t}  # point -> its transcript, this theta only
        if tier == "exact":
            try:
                domain_size(shape, EXACT_BUDGET)
            except BudgetExceeded:
                if privacy == "exact":
                    raise
                tier = "structural"
                dists = {walked: tally(walked, builder(walked)) for walked in dists}
        checked = Counter()  # check point -> how many seeds drew it
        for seed in seeds:
            if len(failed) == len(checks):
                break
            point = check_point(theta, seed)
            repeat = point in checked  # each check still running passed there
            checked[point] += 1
            if (t := built.get(point)) is None:
                t = built[point] = _replay(build, shape, point)
            for check in checks:
                if check not in failed and (fault := faults[check](t, theta, seed, repeat)):
                    failed[check] = CheckResult(
                        check, False, fault[0], {"scheme": name, "theta": theta, **fault[1]})
        if tier:
            dists[theta] = tally(theta, build, built, checked)
    top = rates[-1] if "rate" in failed else max(rates, default=None)
    passes = {
        "reliability": "all theta and seeds decode",
        "srp": "every theta splits evenly",
        "rate": "measured rate %s within all exact bounds" % top,
    }
    results = {c: failed.get(c) or CheckResult(c, True, passes[c]) for c in checks}
    if tier:
        results["privacy"] = _privacy_check(tier, name, dists, len(seeds), samples, tolerance)
    return name, results, top


def _privacy_check(tier: str, name: str, dists, seeds: int, samples: int,
                   tolerance: float) -> CheckResult:
    """The CheckResult of privacy tier `tier` on the pattern
    distributions `dists` of scheme `name`."""
    passed, tv, at = _verdict(dists, tolerance if tier == "statistical" else None)
    witness = {} if passed else {"scheme": name, **at}
    if tier == "statistical":
        detail = "max TV %.5f (tolerance %g, %d samples)" % (tv, tolerance, samples)
        witness = {"scheme": name, "max_tv": tv, **at}
    elif tier == "exact":
        detail = ("distributions identical across %d theta values (%d quotient points)"
                  % (len(dists), sum(n for _, n in dists.values())) if passed
                  else "query distribution depends on theta (orbit invariant differs)")
    else:
        detail = ("patterns theta-invariant over %d seeds" % seeds if passed
                  else "pattern multiset depends on theta")
    return CheckResult("privacy-" + tier, passed, detail, witness)


def verify_reliability(scheme, g: GraphSpec, seeds: Sequence = range(10)) -> CheckResult:
    """Zero-error decoding over all theta and seeds (see _walk)."""
    return _walk(scheme, g, ["reliability"], seeds=seeds)[1]["reliability"]


def _compare(dists, tolerance: float | None = None):
    """(differs, largest TV distance, witness) of `dists` over the theta
    pairs in order, servers innermost. The distributions differ when
    their TV passes `tolerance` (the witness is the pair of the largest
    TV) or, at tolerance 0 or None, when their counts differ in integers
    (the witness is the first such pair); a witness is {"server",
    "theta_a", "theta_b"}, or {} when none differ. Equality is
    transitive, so a differing pair is first found against the first
    theta: at None only those pairs are scanned, and the TV is None."""
    first_only = tolerance is None
    thetas, worst, worst_at, diff = list(dists), 0.0, {}, None
    for i, ta in enumerate(thetas[:1] if first_only else thetas):
        for tb in thetas[i + 1:]:
            (cas, na), (cbs, nb) = dists[ta], dists[tb]
            for s, (ca, cb) in enumerate(zip(cas, cbs), start=1):
                at = {"server": s, "theta_a": ta, "theta_b": tb}
                if not first_only and (d := tv_distance(ca, cb, na, nb)) > worst:
                    worst, worst_at = d, at
                if diff is None and any(ca[k] * nb != cb[k] * na for k in ca | cb):
                    diff = at
    if tolerance:
        return worst > tolerance, worst, worst_at
    return diff is not None, None if first_only else worst, diff or {}


def _colour_classes(patterns) -> dict:
    """{pattern: colour class} for each of `patterns`, by colour
    refinement (1-WL) run jointly on their request/bit incidence graphs.

    A request starts coloured by its tie group (the index of its run of
    adjacent requests with one file multiset, the runs a permutation can
    reorder requests within) and its file multiset, a bit by its file.
    Each round recolours every node by its colour and the multiset of
    its neighbours' colours, from one palette for all graphs, until no
    class of their union splits. A class is the multiset of a graph's
    final colours, so an index permutation, which keeps every starting
    colour, keeps it.
    """
    colours, edges = [], []
    for pat in patterns:
        colour, adj, group, prev = {}, {}, -1, None
        for i, req in enumerate(pat):
            files = tuple((e, c) for e, c, _ in req)
            group, prev = group + (files != prev), files
            colour[i], adj[i] = (group, files), list(req)
            for tok in req:
                colour[tok] = tok[:2]
                adj.setdefault(tok, []).append(i)
        colours.append(colour)
        edges.append(adj)
    classes = -1
    while True:
        palette = {}
        colours = [
            {v: palette.setdefault((col[v], tuple(sorted(col[u] for u in adj[v]))),
                                   len(palette)) for v in col}
            for col, adj in zip(colours, edges)
        ]
        if len(palette) == classes:
            return {p: tuple(sorted(col.values())) for p, col in zip(patterns, colours)}
        classes = len(palette)


def _verdict(dists, tolerance: float | None = None) -> tuple[bool, float | None, dict]:
    """(passed, TV, witness) of pattern distributions `dists`: a pass when
    they are within `tolerance` (as _compare reads it); a confirmed
    fail, with the TV and witness of the colour classes, when their
    colour classes are not; TranscriptError (inconclusive) otherwise."""
    differs, tv, at = _compare(dists, tolerance)
    if not differs:
        return True, tv, at
    classes = _colour_classes(list(dict.fromkeys(
        p for counters, _ in dists.values() for c in counters for p in c)))
    pushed = {}
    for theta, (counters, n) in dists.items():
        pushed[theta] = [Counter() for _ in counters], n
        for c, p in zip(pushed[theta][0], counters):
            for pattern, k in p.items():
                c[classes[pattern]] += k
    differs, tv, at = _compare(pushed, tolerance)
    if not differs:
        raise TranscriptError(
            "inconclusive: query patterns differ across theta, "
            "their colour refinement does not")
    return False, tv, at


def verify_privacy_exact(scheme, g: GraphSpec) -> CheckResult:
    """Exact per-server query distributions compared across theta, by
    enumerating every point of the scheme's own draws under identity
    file permutations. Raises BudgetExceeded when those points number
    more than EXACT_BUDGET for some theta."""
    return verify_privacy(scheme, g, "exact")


def verify_privacy_structural(
    scheme, g: GraphSpec, seeds: Sequence = range(20)
) -> CheckResult:
    """Per-server pattern multisets must be identical across theta (over
    the same number of seeds)."""
    return verify_privacy(scheme, g, "structural", seeds=seeds)


def tv_distance(p: Counter, q: Counter, n_p: int, n_q: int) -> float:
    return 0.5 * sum(abs(p.get(k, 0) / n_p - q.get(k, 0) / n_q) for k in set(p) | set(q))


def verify_privacy_statistical(
    scheme,
    g: GraphSpec,
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckResult:
    """Empirical per-server pattern distributions per theta, compared by
    max pairwise total-variation distance."""
    return verify_privacy(scheme, g, "statistical", samples, tolerance)


def verify_privacy(
    scheme,
    g: GraphSpec,
    mode: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
    seeds: Sequence = range(20),
) -> CheckResult:
    return _walk(scheme, g, (), mode, seeds, samples, tolerance)[1]["privacy"]


def verify_srp(scheme, g: GraphSpec, seeds: Sequence = range(5)) -> CheckResult:
    return _walk(scheme, g, ["srp"], seeds=seeds)[1]["srp"]


def verify_rate(scheme, g: GraphSpec) -> tuple[CheckResult, Fraction]:
    """The measured rate at every theta against every applicable exact
    upper bound; returns the check and the largest rate measured."""
    _, results, rate = _walk(scheme, g, ["rate"])
    return results["rate"], rate


@dataclass
class VerifyReport:
    scheme: str
    graph: GraphSpec
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "graph": self.graph.to_dict(),
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_md(self) -> str:
        lines = ["# verify %s on %s" % (self.scheme, self.graph.to_dict()), ""]
        lines.append("| check | result | detail |")
        lines.append("| --- | --- | --- |")
        for c in self.checks:
            lines.append(
                "| %s | %s | %s |"
                % (c.name, "pass" if c.passed else "FAIL", c.detail)
            )
            if not c.passed and c.witness:
                lines.append("")
                lines.append(
                    "witness: "
                    + ", ".join("%s=%s" % kv for kv in sorted(c.witness.items()))
                )
        return "\n".join(lines)


def verify_scheme(
    scheme,
    g: GraphSpec,
    privacy: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
    seeds: Sequence = range(10),
) -> VerifyReport:
    name, results, _ = _walk(scheme, g, ["reliability", "srp", "rate"], privacy, seeds,
                             samples, tolerance)
    return VerifyReport(name, g, [results[c] for c in ("reliability", "privacy", "srp", "rate")])
