"""In-memory spans around graphpir's public functions.

A Tracer wraps each listed function and replaces every reference to it
in the graphpir modules, so a name imported into another module
(``assemble_transcript`` into ``schemes`` and ``lift``, for example) is
traced wherever it is looked up. Nothing inside graphpir changes; the
wrappers live only in the traced process.

Spans are kept as aggregates keyed by (job, caller, callee): call
count, total time, self time (total minus the time covered by child
spans) and the number of calls that raised. Keeping every span
individually would cost hundreds of megabytes on the statistical
workload, which builds about 100k transcripts.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

# (module, function) pairs wrapped in the traced run, by layer.
TRACED = (
    ("graphs", "parse_graph"),
    ("graphs", "star_decomposition"),
    ("graphs", "path_vertex_order"),
    ("graphs", "matching_number"),
    ("kernels", "path_kernel"),
    ("kernels", "star_kernel"),
    ("complete", "complete_kernel"),
    ("schemes", "kernel_factory"),
    ("schemes", "compose"),
    ("lift", "lift_scheme"),
    ("lift", "build_block_plan"),
    ("core", "assemble_transcript"),
    ("core", "server_pattern"),
    ("core", "symbolic_decode_check"),
    ("core", "answer_all"),
    ("core", "decode"),
    ("core", "srp_attribution"),
    ("rng", "enumerate_sources"),
    ("runner", "resolve_scheme"),
    ("verify", "verify_reliability"),
    ("verify", "verify_privacy_exact"),
    ("verify", "verify_privacy_structural"),
    ("verify", "verify_privacy_statistical"),
    ("verify", "verify_srp"),
    ("verify", "verify_rate"),
    ("bounds", "bound_report"),
    ("bounds", "tightness_check"),
    ("tables", "render_table"),
    ("cli", "main"),
)

STATS = ("calls", "self_s", "total_s", "errors")


def _count_requests(tracer, args, kwargs, result):
    tracer.counts["core.assemble_transcript.requests"] += result.total_requests


def _count_forms(tracer, args, kwargs, result):
    forms = args[0] if args else kwargs["forms"]
    tracer.counts["core.server_pattern.forms"] += len(forms)


# Extra counts taken from a call's arguments and result.
ON_RESULT = {
    "core.assemble_transcript": _count_requests,
    "core.server_pattern": _count_forms,
}
# Counts of items yielded by a traced generator.
ON_ITEM = {"rng.enumerate_sources": "rng.enumerate_sources.points"}
COUNTS = ("core.assemble_transcript.requests", "core.server_pattern.forms",
          "rng.enumerate_sources.points")


class Tracer:
    def __init__(self) -> None:
        self.job = "setup"
        self.edges: dict[tuple, list] = {}  # (job, caller, callee) -> stats
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        self.top_s = 0.0  # time covered by spans that have no traced caller
        self.clock = time.perf_counter
        self._stack: list[list] = []  # [name, start, child time]

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, call: bool) -> None:
        caller = self._stack[-1][0] if self._stack else None
        rec = self.edges.setdefault((self.job, caller, name), [0, 0.0, 0.0, 0])
        rec[0] += call
        self._stack.append([name, self.clock(), 0.0])

    def _exit(self, error: bool) -> None:
        end = self.clock()
        name, start, child = self._stack.pop()
        dur = end - start
        caller = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_s += dur
        rec = self.edges[(self.job, caller, name)]
        rec[1] += dur - child
        rec[2] += dur
        rec[3] += error

    def wrap(self, name: str, fn):
        on_result = ON_RESULT.get(name)
        if inspect.isgeneratorfunction(fn):
            item_count = ON_ITEM.get(name)

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    # Each resumption is a span; the call counts once.
                    self._enter(name, first)
                    first = False
                    try:
                        item = next(it)
                    except StopIteration:
                        self._exit(False)
                        return
                    except BaseException:
                        self._exit(True)
                        raise
                    self._exit(False)
                    if item_count:
                        self.counts[item_count] += 1
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, True)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(True)
                raise
            self._exit(False)
            if on_result:
                on_result(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every TRACED function and rebind each graphpir module
        attribute that refers to it. Import graphpir code that binds
        these names (``from graphpir... import``) only after this."""
        for module, _ in TRACED:
            importlib.import_module("graphpir." + module)
        wrappers = {}
        for module, func in TRACED:
            original = getattr(sys.modules["graphpir." + module], func)
            wrappers[id(original)] = (original, self.wrap(module + "." + func, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "graphpir" and not mod_name.startswith("graphpir."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    # -- results -----------------------------------------------------------

    def layer_stats(self, passes: int) -> dict[str, float]:
        """Per-function stats for one set-up plus one pass: spans of the
        set-up phase as recorded, pass spans divided by `passes`."""
        out: dict[str, float] = {}
        for module, func in TRACED:
            for stat in STATS:
                out["%s.%s.%s" % (module, func, stat)] = 0
        for (job, _caller, name), rec in self.edges.items():
            scale = 1 if job == "setup" else passes
            for stat, value in zip(STATS, rec):
                out["%s.%s" % (name, stat)] += value / scale
        for key, value in self.counts.items():
            out[key] = value / passes
        return out

    def edge_table(self, passes: int) -> list[dict]:
        """The aggregated spans, per pass, for the trace file."""
        rows = []
        for (job, caller, name), rec in sorted(
            self.edges.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])
        ):
            scale = 1 if job == "setup" else passes
            row = {"job": job, "caller": caller, "callee": name}
            row.update({stat: value / scale for stat, value in zip(STATS, rec)})
            rows.append(row)
        return rows
