"""One workload process: set up, then run passes over the job list.

Started by run.py, never by hand. Prints one JSON object as its last
line of standard output. ``--mode setup`` stops after set-up; ``run``
runs passes while one more still fits in ``--seconds`` (at least one);
``trace`` does the same with the tracer installed.

Set-up time runs from ``--t0``, a ``time.monotonic()`` reading the
parent took just before starting this process, to the moment the job
list is built: interpreter start, ``import graphpir``, parsing every
graph of the panel and reading the reference files.

Times are also reported at a reference CPU speed, measured by a
``speed.Sampler`` that runs all through set-up's end and the passes;
see speed.py. Wall times leave out the time spent taking samples.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import jobs
    from speed import CAL_REF_S, Sampler

    joblist = jobs.build_jobs(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    sampler = Sampler()
    for _ in range(SETUP_SAMPLES):
        sampler.sample()
    speed = statistics.median(took for _, took in sampler.samples)
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s * CAL_REF_S / speed}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer is not None:
        tracer.clock = sampler.clock
    walls, scaled, unattributed = [], [], []
    outcomes = None
    consistent = True
    sampler.start()
    start = sampler.clock()
    while True:
        if tracer is not None:
            tracer.top_s = 0.0
        this_pass = []
        wall = pass_scaled = 0.0
        for label, job in joblist:
            if tracer is not None:
                tracer.job = label
            first = len(sampler.samples) - 1
            job_start = sampler.clock()
            try:
                ok, summary = job()
                this_pass.append({"job": label, "ok": ok, "raised": None,
                                  "summary": summary})
            except Exception as exc:  # a refusal or crash is a failed job
                this_pass.append({"job": label, "ok": False,
                                  "raised": "%s: %s" % (type(exc).__name__, exc),
                                  "summary": None})
            wall += sampler.clock() - job_start
            sampler.sample()
            pass_scaled += sampler.scaled(first, len(sampler.samples) - 1)
        walls.append(wall)
        scaled.append(pass_scaled)
        if tracer is not None:
            unattributed.append(wall - tracer.top_s)
        if outcomes is None:
            outcomes = this_pass
        elif this_pass != outcomes:
            consistent = False
        # Start another pass only if one as long as the mean pass so far
        # still fits.
        elapsed = sampler.clock() - start
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break
    sampler.stop()

    result.update(
        walls=walls,
        scaled=scaled,
        samples=len(sampler.samples),
        sample_s=statistics.median(took for _, took in sampler.samples),
        outcomes=outcomes,
        consistent=consistent,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        result.update(
            unattributed=unattributed,
            layers=tracer.layer_stats(len(walls)),
            edges=tracer.edge_table(len(walls)),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
