"""Binding a scheme to a graph: factories are built once per (scheme,
graph) rather than once per transcript, and the cached binding carries
no state from one run to the next. Likewise the draw-free part of a
complete-graph run is built once per desired pair. Every run becomes a
transcript in the one build, which pauses the cyclic collector."""
import ast
import gc
import pathlib
import sys
from collections import Counter

import pytest

import graphpir.complete as complete
import graphpir.core as core
import graphpir.graphs as graphs
import graphpir.lift as lift
import graphpir.schemes as schemes
from graphpir.core import FileId, TranscriptError, dump_transcript
from graphpir.graphs import parse_graph
from graphpir.kernels import KernelRun
from graphpir.mutants import MUTANTS
from graphpir.rng import SeededSource
from graphpir.runner import SCHEME_NAMES, all_thetas, resolve_scheme
from graphpir.schemes import KernelFactory, compose_stars
from graphpir.verify import verify_privacy_statistical, verify_scheme
from test_verify import compose_stars_drop_request


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


# The mutants break the star composition, so they run on its graph.
GRAPH_FOR.update(dict.fromkeys(MUTANTS, "complete_bipartite:2,3"))


def runner(name, g):
    """The run of a SCHEME_NAMES or MUTANTS entry on g."""
    if name == "drop-request":  # a transcript transform, not a runner
        return compose_stars_drop_request
    if name in MUTANTS:
        return MUTANTS[name][0]
    return resolve_scheme(name, g)[1]


@pytest.mark.parametrize("name", SCHEME_NAMES + tuple(MUTANTS))
def test_cached_binding_keeps_runs_reproducible(name):
    schemes.bind.cache_clear()
    dumps = []
    for _ in range(2):  # cold cache, then warm; an equal graph, not the same
        g = parse_graph(GRAPH_FOR[name])
        run = runner(name, g)
        runs = [run(g, theta, SeededSource(3)) for theta in all_thetas(g)]
        for t in runs:
            # t.requests[s - 1] is server s's wire: a tuple of forms,
            # each a frozenset of (FileId, bit) coordinates
            assert len(t.requests) == g.n_vertices
            for server in t.requests:
                assert type(server) is tuple
                for form in server:
                    assert type(form) is frozenset
                    assert all(type(f) is FileId and type(bit) is int
                               for f, bit in form)
        dumps.append([dump_transcript(t) for t in runs])
    assert dumps[0] == dumps[1]


def test_verify_scheme_builds_each_seeded_transcript_once(monkeypatch):
    built = Counter()

    def counted(*args, **kwargs):
        unsorted = "wire_key" in kwargs and kwargs["wire_key"] is None
        built[kwargs.get("identity_perms", False), unsorted] += 1
        return core.assemble_transcript(*args, **kwargs)

    monkeypatch.setattr(schemes, "assemble_transcript", counted)
    g = parse_graph("path:4")
    assert verify_scheme("auto", g, seeds=range(3)).passed
    # verify never draws a file permutation, nor keeps a wire in
    # construction order; per theta, one run learns the draw shape, and
    # its transcript is the one point of that empty shape: the exact
    # tier's stream and the check point of every seed, which the
    # reliability, SRP and rate checks read
    assert built == Counter({(True, False): len(all_thetas(g))}) == Counter(
        {(True, False): 3})
    # on complete:5 the structural tier's stream is the check points:
    # per theta, the shape's run and one build per seed, as no check
    # point of seeds 0-2 is the shape run's point
    built.clear()
    g = parse_graph("complete:5")
    report = verify_scheme("auto", g, seeds=range(3))
    assert report.passed and report.checks[1].name == "privacy-structural"
    assert built == Counter({(True, False): len(all_thetas(g)) * (1 + 3)}) == Counter(
        {(True, False): 40})


@pytest.mark.parametrize("seeds", (range(1), range(3)))
def test_complete_template_is_built_once_per_verify(monkeypatch, seeds):
    built = Counter()
    original = complete.build_families

    def counted(n, i, i_prime):
        built[(n, i, i_prime)] += 1
        return original(n, i, i_prime)

    monkeypatch.setattr(complete, "build_families", counted)
    complete._template.cache_clear()
    g = parse_graph("complete:5")
    assert verify_scheme("auto", g, seeds=seeds).passed
    # every transcript of every theta and seed, the privacy tier's and
    # the checks' alike, runs from the one template of its desired pair,
    # built once in the single theta pass
    assert built == Counter({(5, i, ip): 1 for i, ip in g.edges})
    assert sum(built.values()) == 10


def test_lift_stage_table_is_built_once_per_theta():
    g = parse_graph("complete:3^2")
    lift._stage_table.cache_clear()
    assert verify_scheme("auto", g, seeds=range(3)).passed
    assert lift._stage_table.cache_info().misses == len(all_thetas(g)) == 6


def test_verify_scheme_resolves_the_scheme_once(monkeypatch):
    import graphpir.verify as verify

    calls = 0

    def counted(scheme, g):
        nonlocal calls
        calls += 1
        return resolve_scheme(scheme, g)

    monkeypatch.setattr(verify, "resolve_scheme", counted)
    for privacy in ("auto", "structural"):
        calls = 0
        assert verify_scheme("auto", parse_graph("complete:5"), privacy=privacy,
                             seeds=range(1)).passed
        assert calls == 1


def _references(node, name):
    """The Name and Attribute nodes under `node` that read `name`, and
    the imports of it."""
    return [n for n in ast.walk(node)
            if (n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)) == name
            or isinstance(n, ast.alias) and n.name == name]


def test_build_is_the_only_caller_of_assemble_transcript():
    # schemes.build pauses the collector around the one assembly; any
    # other call, or an alias to call later, would assemble without it
    refs, trees = {}, {}
    for path in sorted(pathlib.Path(schemes.__file__).parent.glob("*.py")):
        trees[path.stem] = ast.parse(path.read_text(), filename=str(path))
        if found := _references(trees[path.stem], "assemble_transcript"):
            refs[path.stem] = found
    build = next(fn for fn in trees["schemes"].body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "build")
    calls = [n.func for n in ast.walk(build) if isinstance(n, ast.Call)]
    imported, *used = refs.pop("schemes")
    assert refs == {}
    assert isinstance(imported, ast.alias) and imported.asname is None
    assert used == _references(build, "assemble_transcript")
    assert len(used) == 1 and used[0] in calls


def _set_collector(enabled):
    (gc.enable if enabled else gc.disable)()


def _out_of_range(f, rng):
    """A run whose one request asks for bit 3 of a file of length 2."""
    return KernelRun(((1, frozenset({(f, 3)})),), (frozenset({0}), frozenset({0})))


@pytest.mark.parametrize("enabled", (True, False))
def test_build_restores_the_collector_setting(enabled):
    g = parse_graph("path:3")
    base = schemes.bind("path", g)
    during = []

    def watched(f, rng):
        during.append(gc.isenabled())
        return base.run(f, rng)

    factories = {
        "ok": KernelFactory(base.length, base.edge_indices, watched),
        "bad": KernelFactory(2, base.edge_indices, _out_of_range),
    }
    before = gc.isenabled()
    try:
        _set_collector(enabled)
        schemes.build(factories["ok"], g, 1, SeededSource(0))
        assert during == [False] and gc.isenabled() is enabled
        with pytest.raises(TranscriptError, match="index 3 out of range"):
            schemes.build(factories["bad"], g, 1, SeededSource(0))
        assert gc.isenabled() is enabled
        with pytest.raises(schemes.SchemeError, match="not in this part"):
            schemes.build(KernelFactory(2, (2,), watched), g, 1, SeededSource(0))
        assert gc.isenabled() is enabled
    finally:
        _set_collector(before)


@pytest.mark.parametrize("name,graph", [
    ("lift:complete", "complete:4^3"),
    ("complete", "complete:6"),
    ("compose-stars", "complete_bipartite:2,3"),
] + [(name, "complete_bipartite:2,3") for name in MUTANTS])
def test_builds_leave_no_garbage(name, graph):
    # a transcript holds no reference cycle, so the collector, paused
    # for every build, has nothing to free after one
    g = parse_graph(graph)
    run = runner(name, g)
    before = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for theta in all_thetas(g):
            run(g, theta, SeededSource(5))
            run(g, theta, SeededSource(5), identity_perms=True)
        assert gc.collect() == 0
    finally:
        _set_collector(before)
