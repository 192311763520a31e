"""The benchmark's tracer wraps a fixed list of graphpir functions by
(module, name); a rename or deletion there would crash every traced
run, so each listed name must exist and be callable, and the generator
whose items it counts must stay one."""
import importlib
import importlib.util
import inspect
from pathlib import Path

from graphpir import rng

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_is_a_graphpir_callable():
    traced = _traced()
    assert traced
    missing = [
        "%s.%s" % (module, func)
        for module, func in traced
        if not callable(getattr(importlib.import_module("graphpir." + module), func, None))
    ]
    assert missing == []


def test_enumerate_sources_is_a_generator_function():
    # the tracer counts rng.enumerate_sources.points per item yielded, and
    # only for a generator function: a function returning an iterator
    # would read 0 points
    assert inspect.isgeneratorfunction(rng.enumerate_sources)
