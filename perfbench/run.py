"""Run one workload of the graphpir benchmark and print its metrics.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree (a git checkout or a copy of its
files). The metric names and units come from BENCHMARK.json at that
root. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (commit, Python version, nproc, seed). The run
record, with the per-job outcomes and, for a traced run, the span
table, is also written to ``perfbench/out/``.

With ``--trace 0`` the metrics are the end-to-end ones, from one
untraced workload process plus a few processes that only set up; their
times are scaled to a reference CPU speed (see speed.py). With
``--trace 1`` they are the per-layer ones: an untraced and a traced
workload process, each given half of ``--seconds``, run the same passes,
and the run is correct only if their outcomes are identical. See
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact", "structural", "statistical", "build")
SETUP_SAMPLES = 11  # set-ups per run, the workload process included
DEADLINE_S = 170.0

# Functions whose traced call count must be nonzero, per workload: the
# layers each workload is meant to exercise.
EXPECTED_CALLS = {
    "exact": ("graphs.parse_graph", "graphs.star_decomposition",
              "graphs.path_vertex_order", "kernels.path_kernel",
              "kernels.star_kernel", "schemes.kernel_factory", "schemes.compose",
              "lift.lift_scheme", "lift.build_block_plan",
              "core.assemble_transcript", "core.symbolic_decode_check",
              "core.answer_all", "core.decode", "core.srp_attribution",
              "rng.enumerate_sources", "runner.resolve_scheme",
              "verify.verify_reliability", "verify.verify_privacy_exact",
              "verify.verify_srp", "verify.verify_rate", "bounds.bound_report"),
    "structural": ("graphs.parse_graph", "kernels.path_kernel",
                   "kernels.star_kernel", "complete.complete_kernel",
                   "schemes.kernel_factory", "lift.lift_scheme",
                   "lift.build_block_plan", "core.assemble_transcript",
                   "core.server_pattern", "core.symbolic_decode_check",
                   "rng.enumerate_sources", "runner.resolve_scheme",
                   "verify.verify_privacy_structural", "bounds.bound_report"),
    "statistical": ("graphs.parse_graph", "graphs.star_decomposition",
                    "kernels.star_kernel", "schemes.kernel_factory",
                    "schemes.compose", "core.assemble_transcript",
                    "core.server_pattern", "verify.verify_privacy_statistical"),
    "build": ("graphs.parse_graph", "graphs.matching_number",
              "kernels.path_kernel", "kernels.star_kernel",
              "complete.complete_kernel", "schemes.kernel_factory",
              "lift.lift_scheme", "lift.build_block_plan",
              "core.assemble_transcript", "core.symbolic_decode_check",
              "core.answer_all", "core.decode", "core.srp_attribution",
              "runner.resolve_scheme", "bounds.bound_report",
              "bounds.tightness_check", "tables.render_table", "cli.main"),
}
TIERS = ("exact", "structural", "statistical")


class BenchError(Exception):
    pass


def run_record(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "graphpir").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def start_worker(args, mode: str, deadline: float, seconds: float = 0.0) -> dict:
    """Run worker.py to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds),
            "--mode", mode, "--t0", repr(t0)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0),
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s worker passed the deadline" % mode) from exc
    if proc.returncode != 0:
        raise BenchError("%s worker exited with %d" % (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(worker: dict) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over every pass of one worker.

    A job fails when it raised or its output differs from the known
    answer. Only a wrong answer makes the run incorrect: a job that
    raised produced no output to be wrong."""
    passes = len(worker["walls"])
    outcomes = worker["outcomes"]
    failed = sum(not o["ok"] for o in outcomes)
    wrong = any(not o["ok"] and o["raised"] is None for o in outcomes)
    return len(outcomes) * passes, failed * passes, worker["consistent"] and not wrong


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    """(result, metric values, detail for the run file) of an untraced run."""
    setups = [start_worker(args, "setup", deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    worker = start_worker(args, "run", deadline, args.seconds)
    setups.append(worker)
    attempted, failed, correct = tally(worker)
    values = {
        "wall_s": statistics.median(worker["scaled"]),
        "setup_s": statistics.median(w["setup_scaled_s"] for w in setups),
        "peak_rss_mb": worker["peak_rss_mb"],
        "ok_frac": 1 - failed / attempted,
    }
    detail = {"scaled": worker["scaled"], "walls": worker["walls"],
              "samples": worker["samples"], "sample_s": worker["sample_s"],
              "setups": [[w["setup_s"], w["setup_scaled_s"]] for w in setups],
              "outcomes": worker["outcomes"]}
    result = {"correct": correct, "attempted": attempted, "failed": failed}
    return result, values, detail


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    """(result, metric values, detail for the run file) of a traced run."""
    plain = start_worker(args, "run", deadline, args.seconds / 2)
    traced = start_worker(args, "trace", deadline, args.seconds / 2)
    attempted, failed, correct = tally(traced)
    same = traced["outcomes"] == plain["outcomes"]
    layers = traced["layers"]
    passes = len(traced["walls"])
    values = dict(layers)
    values["schemes.kernel_factory.per_transcript"] = (
        layers["schemes.kernel_factory.calls"]
        / max(1, layers["core.assemble_transcript.calls"]))
    for tier in TIERS:
        # Verify jobs summarise as a list of [check, passed, detail].
        values["verify.tier_%s.jobs" % tier] = sum(
            any(check[0] == "privacy-" + tier for check in o["summary"])
            for o in traced["outcomes"] if isinstance(o["summary"], list))
    values["trace.overhead_frac"] = (statistics.median(traced["scaled"])
                                     / statistics.median(plain["scaled"]) - 1)
    values["trace.unattributed_s"] = statistics.median(traced["unattributed"])
    missing = [name for name in EXPECTED_CALLS[args.workload]
               if not layers[name + ".calls"]]
    if missing:
        print("warning: no traced calls on %s: %s"
              % (args.workload, ", ".join(missing)), file=sys.stderr)
    detail = {"passes": passes, "outcomes_match_untraced": same,
              "uncovered_layers": missing, "all_layers": values,
              "outcomes": traced["outcomes"], "spans": traced["edges"]}
    result = {"correct": correct and same, "attempted": attempted, "failed": failed}
    return result, values, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "graphpir" / "__init__.py").is_file():
        print("error: no graphpir source tree at %s/src" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = run_record(args.seed)
    try:
        measure = per_layer if args.trace else end_to_end
        result, values, detail = measure(args, deadline)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    unknown = [m["name"] for m in wanted if m["name"] not in values]
    if unknown:
        print("error: not measured: %s" % ", ".join(unknown), file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    full = dict(record, workload=args.workload, seconds=args.seconds,
                trace=args.trace, result=result, detail=detail)
    (out_dir / name).write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(dict(record, workload=args.workload, trace=args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
