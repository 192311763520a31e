"""The benchmark's tracer wraps a fixed list of graphpir functions by
(module, name), and its jobs import graphpir names; a rename or
deletion there would crash every traced run or every run, so each
listed name must exist and be callable, the jobs module must import,
and the generator whose items the tracer counts must stay one."""
import importlib
import importlib.util
import inspect
from pathlib import Path

from graphpir import rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location("perfbench_" + name,
                                                  PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _load("spans").TRACED


def test_every_traced_name_is_a_graphpir_callable():
    traced = _traced()
    assert traced
    missing = [
        "%s.%s" % (module, func)
        for module, func in traced
        if not callable(getattr(importlib.import_module("graphpir." + module), func, None))
    ]
    assert missing == []


def test_the_benchmark_jobs_import():
    # loading the jobs module imports every graphpir name it uses
    # (compose_stars, all_thetas, resolve_scheme, MUTANTS and its keys)
    jobs = _load("jobs")
    assert all(callable(getattr(jobs, name))
               for name in ("compose_stars", "all_thetas", "resolve_scheme"))


def test_enumerate_sources_is_a_generator_function():
    # the tracer counts rng.enumerate_sources.points per item yielded, and
    # only for a generator function: a function returning an iterator
    # would read 0 points
    assert inspect.isgeneratorfunction(rng.enumerate_sources)
