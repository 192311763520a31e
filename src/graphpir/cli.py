"""Command-line front end.

Subcommands: run, verify, bounds, table, sweep. Exit codes:

0  success;
1  verification failure (a check of `verify` failed);
2  usage error (bad flag, graph, theta, or a scheme that does not fit
   the graph);
3  cannot verify: the verifier refused a valid request (a transcript it
   cannot canonicalise or attribute, or a randomness space beyond the
   exact tier's budget).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from .bounds import bound_report, tightness_check
from .core import FileId, TranscriptError, dump_transcript, measured_rate
from .graphs import GraphSpecError, build_family, parse_graph
from .rng import BudgetExceeded, SeededSource
from .runner import SCHEME_NAMES, all_thetas, resolve_scheme
from .schemes import SchemeError
from .tables import render_table
from .verify import DEFAULT_SAMPLES, DEFAULT_TOLERANCE, verify_scheme

SWEEP_N_CAP = 8
SWEEP_R_CAP = 4


class UsageError(Exception):
    pass


def parse_theta(text: str) -> FileId:
    try:
        if "." in text:
            e, j = text.split(".")
            return FileId(int(e), int(j))
        return FileId(int(text), 1)
    except ValueError as exc:
        raise UsageError("bad theta %r (use E or E.J)" % text) from exc


def default_seed() -> int:
    return int(os.environ.get("GRAPHPIR_SEED", "0"))


def cmd_run(args) -> int:
    g = parse_graph(args.graph)
    _name, run = resolve_scheme(args.scheme, g)
    theta = parse_theta(args.theta)
    t = run(g, theta, SeededSource(args.seed))
    print(dump_transcript(t))
    print("rate %s" % measured_rate(t))
    return 0


def cmd_verify(args) -> int:
    g = parse_graph(args.graph)
    report = verify_scheme(
        args.scheme,
        g,
        privacy=args.privacy,
        samples=args.samples,
        tolerance=args.tol,
        seeds=range(args.seeds),
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.to_md())
    return 0 if report.passed else 1


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return str(v)
    return "%.12g" % v


def cmd_bounds(args) -> int:
    g = parse_graph(args.graph)
    entries = bound_report(g)
    tight = tightness_check(g)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "graph": g.to_dict(),
                    "entries": [e.to_dict() for e in entries],
                    "tightness": {
                        "status": tight.status,
                        "lower": _fmt_value(tight.lower),
                        "upper": _fmt_value(tight.upper),
                    },
                },
                indent=2,
            )
        )
        return 0
    rows = [
        [e.kind, _fmt_value(e.value), "exact" if e.exact else "float",
         e.source, "yes" if e.applicable else "no (%s)" % e.reason]
        for e in entries
    ]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["kind", "value", "precision", "source", "applicable"])
        w.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        print("| kind | value | precision | source | applicable |")
        print("| --- | --- | --- | --- | --- |")
        for r in rows:
            print("| " + " | ".join(r) + " |")
        print()
        print(
            "tightness: %s (lower %s, upper %s)"
            % (tight.status, _fmt_value(tight.lower), _fmt_value(tight.upper))
        )
    return 0


def cmd_table(args) -> int:
    print(render_table(args.name))
    return 0


def cmd_sweep(args) -> int:
    if args.n_max > SWEEP_N_CAP or args.r_max > SWEEP_R_CAP:
        raise UsageError(
            "sweep capped at N <= %d, r <= %d" % (SWEEP_N_CAP, SWEEP_R_CAP)
        )
    w = csv.writer(sys.stdout)
    w.writerow(["graph", "scheme", "rate", "best_lower", "best_upper", "tight"])
    for n in range(args.n_min, args.n_max + 1):
        for r in range(args.r_min, args.r_max + 1):
            if args.family == "complete_bipartite":
                g = build_family(args.family, [n, n], r)
                label = "%s:%d,%d" % (args.family, n, n)
            else:
                g = build_family(args.family, [n], r)
                label = "%s:%d" % (args.family, n)
            if r > 1:
                label += "^%d" % r
            try:
                name, run = resolve_scheme("auto", g)
                t = run(g, all_thetas(g)[0], SeededSource(args.seed))
                rate = str(measured_rate(t))
            except SchemeError:
                name, rate = "", ""
            tight = tightness_check(g)
            w.writerow(
                [
                    label,
                    name,
                    rate,
                    _fmt_value(tight.lower),
                    _fmt_value(tight.upper),
                    "yes" if tight.status == "tight" else "no",
                ]
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphpir",
        description="PIR schemes, verification, and capacity bounds for "
        "graph-replicated storage",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scheme and dump the transcript")
    run.add_argument("--scheme", default="auto",
                     choices=("auto",) + SCHEME_NAMES)
    run.add_argument("--graph", required=True)
    run.add_argument("--theta", default="1")
    run.add_argument("--seed", type=int, default=default_seed())
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="verify a scheme on a graph")
    ver.add_argument("--scheme", default="auto",
                     choices=("auto",) + SCHEME_NAMES)
    ver.add_argument("--graph", required=True)
    ver.add_argument(
        "--privacy", default="auto",
        choices=("auto", "exact", "structural", "statistical"),
    )
    ver.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    ver.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE)
    ver.add_argument("--seeds", type=int, default=10)
    ver.add_argument("--format", default="md", choices=("md", "json"))
    ver.set_defaults(func=cmd_verify)

    bd = sub.add_parser("bounds", help="capacity bound report for a graph")
    bd.add_argument("--graph", required=True)
    bd.add_argument("--format", default="md", choices=("md", "csv", "json"))
    bd.set_defaults(func=cmd_bounds)

    tb = sub.add_parser("table", help="render a reference table")
    tb.add_argument("--name", required=True,
                    choices=("tableI", "tableII", "tableIII", "tableIV"))
    tb.set_defaults(func=cmd_table)

    sw = sub.add_parser("sweep", help="rate/bound sweep over a family")
    sw.add_argument("--family", default="path",
                    choices=("path", "cycle", "star", "complete",
                             "complete_bipartite"))
    sw.add_argument("--n-min", type=int, default=2)
    sw.add_argument("--n-max", type=int, default=8)
    sw.add_argument("--r-min", type=int, default=1)
    sw.add_argument("--r-max", type=int, default=1)
    sw.add_argument("--seed", type=int, default=default_seed())
    sw.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (TranscriptError, BudgetExceeded) as exc:
        print("error: cannot verify: %s" % exc, file=sys.stderr)
        return 3
    except (UsageError, GraphSpecError, SchemeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
