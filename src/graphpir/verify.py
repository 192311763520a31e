"""Verification engine: reliability, privacy, SRP, and rate checks.

A scheme is private when each server's query distribution is the same
for every desired file theta. One engine checks this for every privacy
tier: _distributions counts a view of each server's request sequence
over the runs of a per-theta stream of random sources; _compare
finds the first theta pair whose counts differ (exactly, in integers)
and the largest total-variation distance. The tiers configure it:

* exact: every point of the scheme's own draws, viewed through
  orbit_label; passes when no pair differs;
* structural: one seeded run per seed and theta, viewed through the
  canonical pattern (core.server_pattern); passes when no pair differs;
* statistical: `samples` seeded runs per theta, viewed through the
  pattern; passes when the largest distance is within the tolerance.

With identity file permutations a run's views are a function of the
scheme's own draws, and those draws take few values (3 points per
theta for the K_{2,3} star composition), so the seeded and sampled
streams build and view each distinct point once per theta: each source
is drawn from exactly as the scheme would draw, the points are tallied,
and each point's views count as often as it was drawn. Sample streams,
counts and verdicts are those of a run per source. The enumerated
stream of the exact tier never repeats a point, so it keeps no memo.
Every tier refuses a scheme whose draw shape depends on its drawn
values (TranscriptError).

Why the exact tier may leave the file permutations out: every scheme
draws its per-file index permutations in assemble_transcript, uniformly
and independently of everything else, and uses them nowhere else (a
runner passed in as a callable must do the same for a pass to be
exact). For a fixed point of the scheme's own draws (choices, and any
permutation the scheme draws itself), a server's view is therefore
uniform over the orbit of its identity-permutation view under per-file
index permutations: the wire is re-sorted when it is canonical, and
kept in insertion order, which no permutation changes, when it is not.
So raw-view distributions agree across theta exactly when the
distributions of those orbits do, and the tier runs the scheme with
identity permutations. orbit_label is an injective per-file
relabelling of the view, so equal labels mean equal orbits and a pass
is exact. Labels of one orbit can differ, so a difference is only a
candidate fail: it is confirmed by enumerating the full space, file
permutations included, which then gives the verdict and the witness.
The budget applies to the full space, so the tier runs, and confirms,
on exactly the graphs where full enumeration fits.

The structural and statistical tiers view canonical patterns rather
than raw queries. By the same orbit argument, conditioned on the
pattern the concrete indices are uniform over the pattern's orbit
regardless of theta; the total-variation distance between raw query
distributions therefore equals the distance between pattern
distributions, and the pattern is a sufficient statistic with a far
smaller support.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .bounds import bound_report
from .core import (
    LinearForm,
    _raw_encoding,
    answer_all,
    decode,
    measured_rate,
    random_store,
    srp_attribution,
    server_pattern,
    symbolic_decode_check,
    AttributionUndefined,
)
from .graphs import GraphSpec
from .rng import (
    BudgetExceeded,
    ReplaySource,
    SeededSource,
    domain_size,
    draw_point,
    enumerate_sources,
    record_shape,
)
from .runner import all_thetas, resolve_scheme

EXACT_BUDGET = 1 << 20
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


def _seeded(g: GraphSpec, seeds: Sequence, tag: str):
    """(theta, seed, source) for every theta and, within it, every seed;
    each source is seeded from (seed, theta, tag)."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    for theta in all_thetas(g):
        for seed in seeds:
            yield theta, seed, SeededSource(_seed_for(seed, theta, tag))


def verify_reliability(
    scheme, g: GraphSpec, seeds: Sequence = range(10), n_stores: int = 2
) -> CheckResult:
    """Symbolic zero-error decoding over all theta and seeds, plus
    end-to-end decoding on random stores."""
    name, run = resolve_scheme(scheme, g)
    for theta, seed, src in _seeded(g, seeds, "rel"):
        t = run(g, theta, src)
        if not symbolic_decode_check(t):
            return CheckResult(
                "reliability", False, "symbolic decode failed",
                {"scheme": name, "theta": theta, "seed": seed},
            )
        data_rng = random.Random(_seed_for(seed, theta, "store"))
        for k in range(n_stores):
            store = random_store(g, t.file_length, data_rng)
            if decode(t, answer_all(store, t)) != store[theta]:
                return CheckResult(
                    "reliability", False, "end-to-end decode mismatch",
                    {"scheme": name, "theta": theta, "seed": seed, "store": k},
                )
    return CheckResult("reliability", True, "all theta and seeds decode")


def orbit_label(forms: Sequence[LinearForm]) -> tuple:
    """One server's request sequence with each file's bit indices renamed
    1, 2, ... in order of first appearance along the wire (within one
    request, in index order), and each request's tokens sorted.

    The renaming is an injective per-file relabelling, so sequences with
    equal labels lie in one orbit of the per-file index permutations.
    The converse can fail: two fresh bits of one file in one request are
    named by their index order, which a permutation can swap.
    """
    names: dict[tuple[int, int], dict[int, int]] = {}
    out = []
    for form in forms:
        toks = []
        for edge, copy, bit in _raw_encoding(form):
            per_file = names.setdefault((edge, copy), {})
            toks.append((edge, copy, per_file.setdefault(bit, len(per_file) + 1)))
        out.append(tuple(sorted(toks)))
    return tuple(out)


def _raw_view(forms: Sequence[LinearForm]) -> tuple:
    return tuple(_raw_encoding(f) for f in forms)


def _distributions(run, g: GraphSpec, view, sources, memo: bool, **run_kw):
    """({theta: (one Counter of `view` per server, runs)}, runs in all),
    running `run` (with `run_kw`) once per source that
    `sources(theta, build)` yields (ReplaySources, unless `memo`); a run
    that leaves values of its replay undrawn is refused, like one that
    draws past them. Callers name the view (say
    server_pattern) at call time, never in a default or a table, so a
    rebinding of the module attribute, as a tracer does, sees every call.

    With `memo`, each distinct point of the scheme's own draws is built
    and viewed once per theta, with the counts of a run per source: the
    draw shape is learned once (record_shape), each source gives up one
    value per draw of it in the order the run would draw them
    (draw_point), and the points are tallied; then each point runs the
    scheme on a replay of its values, which must draw exactly that
    shape, and its views count as often as it was drawn. The tally
    holds at most one entry per distinct point drawn and is dropped
    after each theta.
    """
    dists = {}
    for theta in all_thetas(g):
        def build(src, theta=theta):
            return run(g, theta, src, **run_kw)

        def views(replay):
            t = build(replay)
            replay.finish()
            return tuple(view([r.form for r in server]) for server in t.requests)

        if memo:
            shape = record_shape(build)
            tally = Counter(draw_point(src, shape) for src in sources(theta, build))
            weighted = (
                (views(ReplaySource(shape, point)), k) for point, k in tally.items()
            )
        else:
            weighted = ((views(src), 1) for src in sources(theta, build))
        counters = [Counter() for _ in range(g.n_vertices)]
        n = 0
        for vs, k in weighted:
            for c, v in zip(counters, vs):
                c[v] += k
            n += k
        dists[theta] = counters, n
    return dists, sum(n for _, n in dists.values())


def _compare(dists):
    """Over the theta pairs of `dists` in order, servers innermost:
    (largest total-variation distance, its witness, first pair whose
    distributions differ or None), each witness {"server", "theta_a",
    "theta_b"}. Equality is transitive, so a differing pair is first
    found against the first theta."""
    thetas, worst, worst_at, diff = list(dists), 0.0, {}, None
    for i, ta in enumerate(thetas):
        for tb in thetas[i + 1:]:
            (cas, na), (cbs, nb) = dists[ta], dists[tb]
            for s, (ca, cb) in enumerate(zip(cas, cbs), start=1):
                at = {"server": s, "theta_a": ta, "theta_b": tb}
                if (d := tv_distance(ca, cb, na, nb)) > worst:
                    worst, worst_at = d, at
                if diff is None and any(ca[k] * nb != cb[k] * na for k in ca | cb):
                    diff = at
    return worst, worst_at, diff


def _privacy_sweep(run, g: GraphSpec, view, budget: int, **run_kw):
    """The engine over every point of the randomness space of `run`
    (called with `run_kw`): (first differing pair or None, points)."""
    dists, points = _distributions(
        run, g, view, lambda theta, build: enumerate_sources(build, budget),
        memo=False, **run_kw,
    )
    return _compare(dists)[2], points


def verify_privacy_exact(scheme, g: GraphSpec, budget: int = EXACT_BUDGET) -> CheckResult:
    """Exact per-server query distributions compared across theta, by
    enumerating the scheme's own draws under identity file permutations
    and comparing orbit labels; a difference is confirmed by enumerating
    the full space. Raises BudgetExceeded when the full randomness space
    (file permutations included) is too large for enumeration."""
    name, run = resolve_scheme(scheme, g)
    thetas = all_thetas(g)
    draws = 0
    for theta in thetas:
        shape = record_shape(lambda src: run(g, theta, src))
        draws += domain_size(shape, budget)
    diff, points = _privacy_sweep(
        run, g, orbit_label, budget, identity_perms=True
    )
    how = "%d quotient points for %d draws" % (points, draws)
    if diff is not None:
        diff, _ = _privacy_sweep(run, g, _raw_view, budget)
        how = "full enumeration of %d draws; quotient labels differed" % draws
    if diff is None:
        return CheckResult(
            "privacy-exact", True,
            "distributions identical across %d theta values (%s)" % (len(thetas), how),
        )
    return CheckResult(
        "privacy-exact", False,
        "query distribution depends on theta "
        "(confirmed by full enumeration of %d draws)" % draws,
        {"scheme": name, **diff},
    )


def verify_privacy_structural(
    scheme, g: GraphSpec, seeds: Sequence = range(20)
) -> CheckResult:
    """Canonical pattern multisets per server must be identical across
    theta (over the same number of seeds)."""
    name, run = resolve_scheme(scheme, g)
    seeds = list(seeds)
    runs = {}
    for theta, _, src in _seeded(g, seeds, "struct"):
        runs.setdefault(theta, []).append(src)
    dists, _ = _distributions(
        run, g, server_pattern, lambda theta, build: runs[theta],
        memo=True, identity_perms=True, validate=False,
    )
    diff = _compare(dists)[2]
    if diff is not None:
        return CheckResult(
            "privacy-structural", False, "pattern multiset depends on theta",
            {"scheme": name, **diff},
        )
    return CheckResult(
        "privacy-structural", True,
        "patterns theta-invariant over %d seeds" % len(seeds),
    )


def tv_distance(p: Counter, q: Counter, n_p: int, n_q: int) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(
        abs(p.get(k, 0) / n_p - q.get(k, 0) / n_q) for k in keys
    )


def verify_privacy_statistical(
    scheme,
    g: GraphSpec,
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
    seed=0,
) -> CheckResult:
    """Empirical per-server pattern distributions per theta, compared by
    max pairwise total-variation distance."""
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    name, run = resolve_scheme(scheme, g)

    def sampled(theta, build):
        return itertools.repeat(SeededSource(_seed_for(seed, theta, "stat")), samples)

    dists, _ = _distributions(
        run, g, server_pattern, sampled,
        memo=True, identity_perms=True, validate=False,
    )
    worst, worst_at, _ = _compare(dists)
    return CheckResult(
        "privacy-statistical", worst <= tolerance,
        "max TV %.5f (tolerance %g, %d samples)" % (worst, tolerance, samples),
        {"scheme": name, "max_tv": worst, **worst_at},
    )


def verify_privacy(
    scheme,
    g: GraphSpec,
    mode: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    tolerance: float = DEFAULT_TOLERANCE,
    seeds: Sequence = range(20),
) -> CheckResult:
    if mode == "exact":
        return verify_privacy_exact(scheme, g)
    if mode == "structural":
        return verify_privacy_structural(scheme, g, seeds)
    if mode == "statistical":
        return verify_privacy_statistical(scheme, g, samples, tolerance)
    if mode == "auto":
        try:
            return verify_privacy_exact(scheme, g)
        except BudgetExceeded:
            return verify_privacy_structural(scheme, g, seeds)
    raise ValueError("unknown privacy mode %r" % mode)


def verify_srp(scheme, g: GraphSpec, seeds: Sequence = range(5)) -> CheckResult:
    name, run = resolve_scheme(scheme, g)
    for theta, seed, src in _seeded(g, seeds, "srp"):
        t = run(g, theta, src)
        half = t.file_length // 2
        try:
            attr = srp_attribution(t)
        except AttributionUndefined as exc:
            return CheckResult(
                "srp", False, "attribution undefined: %s" % exc,
                {"scheme": name, "theta": theta, "seed": seed},
            )
        if attr != (half, half):
            return CheckResult(
                "srp", False, "attribution %s, expected (%d, %d)" % (attr, half, half),
                {"scheme": name, "theta": theta, "seed": seed},
            )
    return CheckResult("srp", True, "every theta splits evenly")


def verify_rate(scheme, g: GraphSpec) -> tuple[CheckResult, Fraction]:
    """The measured rate at every theta against every applicable exact
    upper bound; returns the check and the largest rate measured."""
    name, run = resolve_scheme(scheme, g)
    bounds = [
        e for e in bound_report(g)
        if e.kind == "upper" and e.exact and e.applicable and not e.asymptotic
    ]
    rates = []
    for theta, _, src in _seeded(g, [0], "rate"):
        rate = measured_rate(run(g, theta, src))
        for e in bounds:
            if rate > e.value:
                return (
                    CheckResult(
                        "rate", False,
                        "measured rate %s exceeds bound %s (%s)"
                        % (rate, e.value, e.source),
                        {"scheme": name, "theta": theta},
                    ),
                    rate,
                )
        rates.append(rate)
    rate = max(rates)
    return CheckResult("rate", True, "measured rate %s within all exact bounds" % rate), rate


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
    check_srp: bool = True,
) -> VerifyReport:
    name, _ = resolve_scheme(scheme, g)
    seeds = list(seeds)
    checks = [verify_reliability(scheme, g, seeds)]
    checks.append(verify_privacy(scheme, g, privacy, samples, tolerance, seeds))
    if check_srp:
        checks.append(verify_srp(scheme, g))
    rate_check, _rate = verify_rate(scheme, g)
    checks.append(rate_check)
    return VerifyReport(name, g, checks)
