"""The benchmark's four workloads and the known answer of every job.

A job is a callable that returns ``(ok, summary)``: ``ok`` says whether
the program's output matches the job's known answer, and ``summary``
holds the seed-independent facts the answer was judged on (verdicts,
rates, counts), so that two runs can be compared exactly. Importing
this module imports graphpir, so a traced run installs its tracer first.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from pathlib import Path

from graphpir import (
    compose_stars,
    decode,
    measured_rate,
    parse_graph,
    srp_attribution,
    symbolic_decode_check,
    tightness_check,
    verify_scheme,
)
from graphpir.cli import main as cli_main
from graphpir.core import answer_all, random_store
from graphpir.mutants import MUTANTS
from graphpir.rng import SeededSource
from graphpir.runner import all_thetas, resolve_scheme

REFERENCE = Path(__file__).resolve().parent / "reference"


def compose_stars_drop_request(g, theta, rng, **kw):
    """The drop-request mutant applied to the star composition."""
    drop = MUTANTS["drop-request"][0]
    return drop(compose_stars(g, theta, rng, **kw))


THETA_ORDERED = MUTANTS["theta-ordered-compose"][0]
NO_DECOY = MUTANTS["no-decoy-compose"][0]
# Mutant runner -> the check MUTANTS says it must fail.
EXPECTED_FAILURE = {
    THETA_ORDERED: MUTANTS["theta-ordered-compose"][1],
    NO_DECOY: MUTANTS["no-decoy-compose"][1],
    compose_stars_drop_request: MUTANTS["drop-request"][1],
}

# (scheme, graph, extra verify_scheme arguments) per verify workload.
VERIFY_PANELS = {
    "exact": [
        ("auto", "path:12", {}),
        ("auto", "star:10", {}),
        ("auto", "complete_bipartite:2,4", {}),
        ("auto", "path:2^2", {}),
        (THETA_ORDERED, "complete_bipartite:2,3", {}),
        (NO_DECOY, "complete_bipartite:2,3", {}),
        (compose_stars_drop_request, "complete_bipartite:2,3", {}),
    ],
    "structural": [
        ("auto", "complete:5", {}),
        ("auto", "complete:4^2", {}),
        ("auto", "complete:3^2", {}),
        ("auto", "path:4^3", {}),
        ("auto", "star:5^2", {}),
        (THETA_ORDERED, "complete_bipartite:2,3", {"privacy": "structural"}),
        # Expected to pass; today both are refused ("pattern tie groups
        # too large to canonicalize") and count as failed jobs.
        ("auto", "complete:6", {}),
        ("auto", "complete:4^3", {}),
    ],
    "statistical": [
        ("auto", "complete_bipartite:2,3", {}),
        (NO_DECOY, "complete_bipartite:2,3", {}),
        (THETA_ORDERED, "complete_bipartite:2,2", {}),
    ],
}
STATISTICAL = {"privacy": "statistical", "samples": 10_000}

BUILD_GRAPHS = ("complete:8^3", "complete:7^3", "complete:6^4", "complete:8",
                "path:8^4", "star:8^4")
SWEEP_FAMILIES = ("path", "cycle", "star", "complete")
TABLES = ("tableI", "tableII", "tableIII", "tableIV")


def sweep_argv(family: str, seed: int) -> list[str]:
    return ["sweep", "--family", family, "--n-min", "3", "--n-max", "8",
            "--r-min", "1", "--r-max", "3", "--seed", str(seed)]


def closed_form_rate(text: str, g) -> Fraction:
    """The README's rate for the scheme `auto` picks, computed here
    rather than taken from graphpir.bounds."""
    family = text.split(":")[0]
    n = g.n_vertices
    if family in ("path", "star"):
        base = Fraction(2, n)
    elif family == "complete":
        base = Fraction(6) / ((5 - Fraction(2) ** (3 - n)) * n)
    else:
        raise ValueError("no closed form for %s" % text)
    r = g.multiplicity
    return base / (2 - Fraction(2) ** (1 - r))


def _label(scheme, text: str) -> str:
    name = scheme if isinstance(scheme, str) else scheme.__name__
    return "%s %s" % (name, text)


def verify_job(scheme, g, kwargs: dict, seed: int):
    expect = EXPECTED_FAILURE.get(scheme)

    def run():
        report = verify_scheme(scheme, g, seeds=range(seed, seed + 10), **kwargs)
        checks = [[c.name, c.passed, c.detail] for c in report.checks]
        if expect is None:
            ok = all(passed for _, passed, _ in checks)
        else:
            ok = any(name.split("-")[0] == expect and not passed
                     for name, passed, _ in checks)
        return ok, checks

    return run


def transcript_job(text: str, g, theta, seed: int):
    def run():
        name, scheme = resolve_scheme("auto", g)
        t = scheme(g, theta, SeededSource("%d/%s/%s" % (seed, text, tuple(theta))))
        store = random_store(g, t.file_length,
                             random.Random("%d/%s/%s/store" % (seed, text, tuple(theta))))
        half = t.file_length // 2
        rate = measured_rate(t)
        facts = {
            "symbolic": symbolic_decode_check(t),
            "decodes": decode(t, answer_all(store, t)) == store[theta],
            "srp": srp_attribution(t) == (half, half),
            "rate": rate == closed_form_rate(text, g),
        }
        summary = dict(facts, scheme=name, measured_rate=str(rate),
                       requests=t.total_requests,
                       tightness=tightness_check(g).status)
        return all(facts.values()), summary

    return run


def cli_job(argv: list[str], reference: bytes):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        data = out.getvalue().encode()
        summary = {"exit": code, "bytes": len(data),
                   "sha256": hashlib.sha256(data).hexdigest()}
        return code == 0 and data == reference, summary

    return run


def build_jobs(workload: str, seed: int) -> list[tuple[str, object]]:
    """(label, job) pairs of one pass, with every graph parsed."""
    if workload in VERIFY_PANELS:
        extra = STATISTICAL if workload == "statistical" else {}
        return [
            (_label(scheme, text),
             verify_job(scheme, parse_graph(text), dict(extra, **kwargs), seed))
            for scheme, text, kwargs in VERIFY_PANELS[workload]
        ]
    if workload == "build":
        jobs = []
        for text in BUILD_GRAPHS:
            g = parse_graph(text)
            for theta in all_thetas(g)[:2]:
                jobs.append(("build %s theta %d.%d" % (text, *theta),
                             transcript_job(text, g, theta, seed)))
        calls = [(sweep_argv(f, seed), "sweep-%s.csv" % f) for f in SWEEP_FAMILIES]
        calls += [(["table", "--name", name], name + ".md") for name in TABLES]
        for argv, reference in calls:
            ref = (REFERENCE / reference).read_bytes()
            jobs.append(("cli " + " ".join(argv[:3]), cli_job(argv, ref)))
        return jobs
    raise ValueError("unknown workload %r" % workload)
