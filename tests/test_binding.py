"""Binding a scheme to a graph: factories are built once per (scheme,
graph) rather than once per transcript, and the cached binding carries
no state from one run to the next."""
import sys
from collections import Counter

import pytest

import graphpir.graphs as graphs
import graphpir.schemes as schemes
from graphpir.core import dump_transcript
from graphpir.graphs import parse_graph
from graphpir.mutants import MUTANTS
from graphpir.rng import SeededSource
from graphpir.runner import SCHEME_NAMES, all_thetas, resolve_scheme
from graphpir.schemes import compose_stars
from graphpir.verify import verify_privacy_statistical


@pytest.fixture
def calls(monkeypatch):
    """Call counts of the functions that build a binding. Every graphpir
    module attribute bound to one of them is rebound to its counter, so
    names imported into other modules are counted too."""
    counts = Counter()
    for module, name in ((schemes, "kernel_factory"),
                         (graphs, "star_decomposition")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "graphpir" or mod_name.startswith("graphpir."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    return counts


def cold_counts(calls, action) -> dict:
    """Binding calls made by `action` starting from an empty cache."""
    schemes.bind.cache_clear()
    calls.clear()
    action()
    return dict(calls)


def test_statistical_privacy_binds_once(calls):
    g = parse_graph("complete_bipartite:2,3")
    one = cold_counts(calls, lambda: compose_stars(g, 1, SeededSource(0)))
    assert one == {"kernel_factory": 2, "star_decomposition": 1}
    # 10^4 samples per theta build 60,000 transcripts on the same binding
    assert cold_counts(calls, lambda: verify_privacy_statistical(
        "compose-stars", g, samples=10_000)) == one
    no_decoy = MUTANTS["no-decoy-compose"][0]
    for samples in (10_000, 20_000):
        assert cold_counts(calls, lambda: verify_privacy_statistical(
            no_decoy, g, samples=samples)) == one


GRAPH_FOR = {
    "path": "path:5",
    "star": "star:5",
    "complete": "complete:4",
    "compose-stars": "complete_bipartite:2,3",
    "lift:path": "path:3^2",
    "lift:star": "star:4^2",
    "lift:complete": "complete:3^2",
}


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_cached_binding_keeps_runs_reproducible(name):
    schemes.bind.cache_clear()
    dumps = []
    for _ in range(2):  # cold cache, then warm; an equal graph, not the same
        g = parse_graph(GRAPH_FOR[name])
        _, run = resolve_scheme(name, g)
        dumps.append([dump_transcript(run(g, theta, SeededSource(3)))
                      for theta in all_thetas(g)])
    assert dumps[0] == dumps[1]
