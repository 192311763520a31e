"""Verification engine: reliability, privacy, SRP, and rate checks.

Privacy is checked at one of three tiers:

* exact: per-server query distributions are compared exactly across
  theta, by enumeration (see below);
* structural: canonical per-server query patterns (bit indices renamed
  per file by first appearance) are compared as multisets over seeds;
* statistical: empirical pattern distributions are sampled and compared
  by total-variation distance.

The exact tier enumerates only the scheme's own draws. Every scheme
draws its per-file index permutations in assemble_transcript, uniformly
and independently of everything else, and uses them nowhere else (a
runner passed in as a callable must do the same for a pass to be
exact). For a fixed point of the scheme's own draws, a server's view is
therefore uniform over the orbit of its identity-permutation view under
per-file index permutations: the wire is re-sorted when it is
canonical, and kept in insertion order, which no permutation changes,
when it is not. So raw-view distributions agree across theta exactly
when the distributions of those orbits do. The tier runs the scheme
with identity permutations, enumerates the remaining draws (choices,
and any permutation the scheme draws itself), and compares the exact
distributions of each server's orbit_label. The label is an injective
per-file relabelling of the view, so equal labels mean equal orbits and
a pass is exact. Labels of one orbit can differ, so a difference is
only a candidate fail: it is confirmed by enumerating the full space,
file permutations included, which then gives the verdict and the
witness. The budget applies to the full space, so the tier runs, and
confirms, on exactly the graphs where full enumeration fits.

The statistical tier samples canonical patterns rather than raw
queries. By the same orbit argument, conditioned on the pattern the
concrete indices are uniform over the pattern's orbit regardless of
theta; the total-variation distance between raw query distributions
therefore equals the distance between pattern distributions, and the
pattern is a sufficient statistic with a far smaller support.
"""
from __future__ import annotations

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
    symbolic_decode_check,
    transcript_patterns,
    AttributionUndefined,
)
from .graphs import GraphSpec
from .rng import (
    BudgetExceeded,
    SeededSource,
    domain_size,
    enumerate_sources,
    record_shape,
)
from .runner import all_thetas, resolve_scheme

EXACT_BUDGET = 1 << 20
DEFAULT_SAMPLES = 200_000
DEFAULT_TOLERANCE = 0.02


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


def verify_reliability(
    scheme, g: GraphSpec, seeds: Sequence = range(10), n_stores: int = 2
) -> CheckResult:
    """Symbolic zero-error decoding over all theta and seeds, plus
    end-to-end decoding on random stores."""
    name, run = resolve_scheme(scheme, g)
    for theta in all_thetas(g):
        for seed in seeds:
            t = run(g, theta, SeededSource(_seed_for(seed, theta, "rel")))
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


def _privacy_sweep(run, g: GraphSpec, view, budget: int, **run_kw):
    """Enumerate the randomness space of `run` (called with `run_kw`) per
    theta and compare the exact distributions of `view` of each server's
    request sequence. Returns (first difference or None, points); the
    difference is {"server", "theta_a", "theta_b"}."""
    dists = {}
    points = 0
    for theta in all_thetas(g):
        def build(src, theta=theta):
            return run(g, theta, src, **run_kw)

        counters = [Counter() for _ in range(g.n_vertices)]
        total = 0
        for src in enumerate_sources(build, budget):
            t = build(src)
            for c, server in zip(counters, t.requests):
                c[view([r.form for r in server])] += 1
            total += 1
        dists[theta] = [
            {q: Fraction(n, total) for q, n in c.items()} for c in counters
        ]
        points += total
    ref = next(iter(dists))
    for theta, d in dists.items():
        for s, (da, db) in enumerate(zip(dists[ref], d), start=1):
            if da != db:
                return {"server": s, "theta_a": ref, "theta_b": theta}, points
    return None, points


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
    if diff is None:
        return CheckResult(
            "privacy-exact", True,
            "distributions identical across %d theta values "
            "(%d quotient points for %d draws)" % (len(thetas), points, draws),
        )
    diff, _ = _privacy_sweep(run, g, _raw_view, budget)
    if diff is None:
        return CheckResult(
            "privacy-exact", True,
            "distributions identical across %d theta values "
            "(full enumeration of %d draws; quotient labels differed)"
            % (len(thetas), draws),
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
    dists = {}
    for theta in all_thetas(g):
        counters = [Counter() for _ in range(g.n_vertices)]
        for seed in seeds:
            t = run(
                g, theta, SeededSource(_seed_for(seed, theta, "struct")),
                identity_perms=True, validate=False,
            )
            for c, p in zip(counters, transcript_patterns(t)):
                c[p] += 1
        dists[theta] = counters
    ref = next(iter(dists))
    for theta, counters in dists.items():
        for s, (ca, cb) in enumerate(zip(dists[ref], counters), start=1):
            if ca != cb:
                return CheckResult(
                    "privacy-structural", False,
                    "pattern multiset depends on theta",
                    {"scheme": name, "server": s, "theta_a": ref, "theta_b": theta},
                )
    return CheckResult(
        "privacy-structural", True,
        "patterns theta-invariant over %d seeds" % len(list(seeds)),
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
    max pairwise total-variation distance.

    If a scheme consumes no randomness beyond the file permutations
    (already factored out of the pattern statistic), its pattern per
    theta is a constant and one evaluation stands for all samples.
    """
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples")
    name, run = resolve_scheme(scheme, g)
    dists = {}
    totals = {}
    for theta in all_thetas(g):
        counters = [Counter() for _ in range(g.n_vertices)]
        src = SeededSource(_seed_for(seed, theta, "stat"))
        t = run(g, theta, src, identity_perms=True, validate=False)
        first = transcript_patterns(t)
        deterministic = src.draws == 0
        n = 1 if deterministic else samples
        for c, p in zip(counters, first):
            c[p] += 1 if not deterministic else n
        if not deterministic:
            for _ in range(samples - 1):
                t = run(g, theta, src, identity_perms=True, validate=False)
                for c, p in zip(counters, transcript_patterns(t)):
                    c[p] += 1
        dists[theta] = counters
        totals[theta] = n
    thetas = list(dists)
    worst = 0.0
    worst_at = {}
    for a_i, ta in enumerate(thetas):
        for tb in thetas[a_i + 1:]:
            for s in range(g.n_vertices):
                d = tv_distance(
                    dists[ta][s], dists[tb][s], totals[ta], totals[tb]
                )
                if d > worst:
                    worst = d
                    worst_at = {"server": s + 1, "theta_a": ta, "theta_b": tb}
    passed = worst <= tolerance
    return CheckResult(
        "privacy-statistical", passed,
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
    for theta in all_thetas(g):
        for seed in seeds:
            t = run(g, theta, SeededSource(_seed_for(seed, theta, "srp")))
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
    for theta in all_thetas(g):
        t = run(g, theta, SeededSource(_seed_for(0, theta, "rate")))
        rate = measured_rate(t)
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
    checks = [verify_reliability(scheme, g, seeds)]
    checks.append(verify_privacy(scheme, g, privacy, samples, tolerance, seeds))
    if check_srp:
        checks.append(verify_srp(scheme, g))
    rate_check, _rate = verify_rate(scheme, g)
    checks.append(rate_check)
    return VerifyReport(name, g, checks)
