import gc
import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from graphpir.bounds import bound_report
from graphpir.graphs import (
    GraphSpec,
    GraphSpecError,
    bipartition,
    build_family,
    classify_family,
    graph_from_dict,
    matching_number,
    max_degree,
    parse_graph,
    path_vertex_order,
    star_center,
    star_decomposition,
)


def test_path_family():
    g = build_family("path", [4])
    assert g.n_vertices == 4
    assert g.edges == ((1, 2), (2, 3), (3, 4))
    assert g.multiplicity == 1
    assert g.multiplicity * g.n_base_edges == 3  # files


def test_star_family_center_is_last_vertex():
    g = build_family("star", [5])
    assert g.edges == ((1, 5), (2, 5), (3, 5), (4, 5))
    assert star_center(g) == 5
    assert g.degree(5) == 4


def test_cycle_and_complete_flags():
    c = build_family("cycle", [5])
    k = build_family("complete", [4])
    assert "hamiltonian_vertex_transitive" in c.flags
    assert "vertex_transitive" in k.flags
    # K_2 is a single edge, no symmetry flags claimed
    assert build_family("complete", [2]).flags == frozenset()


def test_complete_bipartite_orientation():
    g = build_family("complete_bipartite", [2, 3])
    assert g.n_vertices == 5
    assert g.n_base_edges == 6
    with pytest.raises(GraphSpecError):
        build_family("complete_bipartite", [3, 2])


def test_edges_are_canonicalized():
    g = GraphSpec(3, ((3, 2), (2, 1)))
    assert g.edges == ((1, 2), (2, 3))
    assert g.edge_endpoints(1) == (1, 2)


def test_invalid_graphs_rejected():
    with pytest.raises(GraphSpecError):
        GraphSpec(3, ((1, 1),))
    with pytest.raises(GraphSpecError):
        GraphSpec(3, ((1, 4),))
    with pytest.raises(GraphSpecError):
        GraphSpec(3, ((1, 2), (2, 1)))
    with pytest.raises(GraphSpecError):
        GraphSpec(3, ((1, 2),), 0)
    with pytest.raises(GraphSpecError):
        GraphSpec(3, ((1, 2),), 1, frozenset({"bogus"}))


@pytest.mark.parametrize(
    "text,n,k,r",
    [
        ("path:4", 4, 3, 1),
        ("cycle:5^2", 5, 5, 2),
        ("complete:4^3", 4, 6, 3),
        ("star:6", 6, 5, 1),
        ("complete_bipartite:2,3", 5, 6, 1),
    ],
)
def test_parse_shorthand(text, n, k, r):
    g = parse_graph(text)
    assert (g.n_vertices, g.n_base_edges, g.multiplicity) == (n, k, r)


def test_parse_json_roundtrip():
    g = build_family("cycle", [4], 2)
    g2 = parse_graph(json.dumps(g.to_dict()))
    assert g2 == g


def test_parse_rejects_garbage():
    with pytest.raises(GraphSpecError):
        parse_graph("pentagon:5")
    with pytest.raises(GraphSpecError):
        parse_graph('{"edges": [[1,2]]}')
    with pytest.raises(GraphSpecError):
        graph_from_dict([1, 2])


def test_degree_sum_is_twice_edges():
    for text in ("path:6", "complete:5", "star:7", "complete_bipartite:2,4"):
        g = parse_graph(text)
        assert sum(g.degree(v) for v in range(1, g.n_vertices + 1)) == 2 * g.n_base_edges


def _matching_oracle(g: GraphSpec) -> int:
    """Brute force over all edge subsets."""
    best = 0
    for size in range(len(g.edges), 0, -1):
        for sub in itertools.combinations(g.edges, size):
            verts = [v for e in sub for v in e]
            if len(verts) == len(set(verts)):
                return size
    return best


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    all_edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    k = draw(st.integers(min_value=1, max_value=min(10, len(all_edges))))
    edges = draw(
        st.lists(st.sampled_from(all_edges), min_size=k, max_size=k, unique=True)
    )
    return GraphSpec(n, tuple(edges))


@settings(max_examples=120, deadline=None)
@given(small_graphs())
def test_matching_number_matches_brute_force(g):
    assert matching_number(g) == _matching_oracle(g)


def test_matching_known_values():
    assert matching_number(build_family("path", [6])) == 3
    assert matching_number(build_family("path", [7])) == 3
    assert matching_number(build_family("star", [9])) == 1
    assert matching_number(build_family("complete", [5])) == 2
    assert matching_number(build_family("complete_bipartite", [2, 8])) == 2


def test_matching_number_leaves_no_garbage():
    # the search holds no reference cycle, so the collector has nothing
    # to free after it
    graphs = [parse_graph("complete:6"), parse_graph("path:8")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert [matching_number(g) for g in graphs] == [3, 4]
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_matching_size_cap():
    g = build_family("complete", [8])  # 28 edges
    with pytest.raises(GraphSpecError):
        matching_number(g)


def test_max_degree():
    assert max_degree(build_family("path", [5])) == 2
    assert max_degree(build_family("star", [6])) == 5
    assert max_degree(GraphSpec(3, ())) == 0


def test_star_decomposition_partitions_edges():
    g = build_family("complete_bipartite", [3, 4], 2)
    stars = star_decomposition(g)
    assert len(stars) == 3
    seen = [e for s in stars for e in s.edges]
    assert sorted(seen) == list(g.edges)
    for s in stars:
        assert s.multiplicity == 2
        assert star_center(s) in (1, 2, 3)
    with pytest.raises(GraphSpecError):
        star_decomposition(build_family("cycle", [5]))


def test_bipartition():
    g = build_family("complete_bipartite", [2, 3])
    assert bipartition(g) == ([1, 2], [3, 4, 5])
    assert bipartition(build_family("cycle", [5])) is None
    assert bipartition(build_family("path", [4])) is None  # P4 = K_{1,1} plus extras? no: not complete bipartite


def test_classify_family_overlaps():
    assert set(classify_family(build_family("path", [2]))) >= {"path", "star"}
    fam = classify_family(build_family("complete", [3]))
    assert fam["complete"] == (3,)
    assert fam["cycle"] == (3,)
    fam = classify_family(build_family("star", [4]))
    assert fam["star"] == (4,)
    assert fam["complete_bipartite"] == (1, 3)


def _family_members(n):
    """(name, params) of every build_family member on n vertices."""
    out = [(name, (n,)) for name, least in
           (("path", 2), ("cycle", 3), ("star", 2), ("complete", 2)) if n >= least]
    return out + [("complete_bipartite", (m, n - m)) for m in range(1, n // 2 + 1)]


def test_classify_family_matches_brute_force_isomorphism():
    # every labelled graph on n <= 5 vertices belongs exactly to the
    # family members some vertex permutation carries onto it
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        orbits = {}
        for name, params in _family_members(n):
            base = build_family(name, params).edges
            for perm in itertools.permutations(range(1, n + 1)):
                image = frozenset(
                    tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in base)
                orbits.setdefault(image, {})[name] = params
        for k in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                g = GraphSpec(n, edges)
                assert classify_family(g) == orbits.get(frozenset(edges), {}), edges
    two_triangles = GraphSpec(6, ((1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)))
    assert max_degree(two_triangles) == 2
    assert "cycle" not in classify_family(two_triangles)


@st.composite
def graphs_with_isolated_vertices(draw):
    """A graph on 1-9 vertices with 0-12 edges; vertices no edge touches
    are left in."""
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True)
                 if pairs else st.just([]))
    return GraphSpec(n, tuple(edges))


def _bipartition_oracle(g):
    """Over every vertex set L whose cross pairs with the rest V - L are
    exactly g's edges, (L, V - L) with |L| < |V - L|, or |L| = |V - L|
    and g.edges[0][0] in L; None if there is none."""
    vertices = range(1, g.n_vertices + 1)
    found = []
    for size in range(1, g.n_vertices):
        for left in itertools.combinations(vertices, size):
            right = [v for v in vertices if v not in left]
            if {tuple(sorted(p)) for p in itertools.product(left, right)} != set(g.edges):
                continue
            if len(left) < len(right) or (len(left) == len(right) and g.edges[0][0] in left):
                found.append((list(left), right))
    assert len(found) <= 1, found
    return found[0] if found else None


def _degree_list_families(g):
    """The cycle, complete and complete_bipartite entries by degree lists:
    a cycle is 2-regular with n edges and leaves a path when its first
    edge is dropped, a complete graph is (n - 1)-regular with n(n - 1)/2
    edges, and a complete bipartite graph's parts are the oracle's."""
    n, k = g.n_vertices, g.n_base_edges
    degs = sorted(g.degree(v) for v in range(1, n + 1))
    out = {}
    if k == 0:
        return out
    if k == n and degs == [2] * n and (
            path_vertex_order(GraphSpec(n, g.edges[1:])) is not None):
        out["cycle"] = (n,)
    if n >= 2 and k == n * (n - 1) // 2 and degs == [n - 1] * n:
        out["complete"] = (n,)
    parts = _bipartition_oracle(g)
    if parts is not None:
        out["complete_bipartite"] = (len(parts[0]), len(parts[1]))
    return out


@settings(max_examples=300, deadline=None)
@given(graphs_with_isolated_vertices())
def test_families_read_off_the_edges_match_the_degree_list_rules(g):
    assert bipartition(g) == _bipartition_oracle(g)
    fam = classify_family(g)
    assert {name: fam[name] for name in ("cycle", "complete", "complete_bipartite")
            if name in fam} == _degree_list_families(g)


def test_families_and_bounds_of_a_sparse_graph_scan_no_vertex():
    # two edges among 2 * 10^5 vertices: families and bounds are read off
    # the edges, so neither time nor memory grows with the vertex count
    g = GraphSpec(2 * 10**5, ((1, 2), (2, 3)))
    tracemalloc.start()
    try:
        fam = classify_family(g)
        entries = bound_report(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam == {}
    assert ("lower", "path scheme") in [(e.kind, e.source) for e in entries]
    assert peak < 5 * 10**6, peak


def test_path_vertex_order():
    g = build_family("path", [5])
    assert path_vertex_order(g) == [1, 2, 3, 4, 5]
    scrambled = GraphSpec(5, ((3, 5), (1, 3), (2, 4), (4, 5)))
    assert path_vertex_order(scrambled) == [1, 3, 5, 4, 2]
    assert path_vertex_order(build_family("cycle", [4])) is None
    assert path_vertex_order(build_family("star", [4])) is None
    # vertices no edge touches are ignored, as for a path part of a host graph
    assert path_vertex_order(GraphSpec(5, ((1, 2), (2, 3)))) == [1, 2, 3]


def test_base_and_with_multiplicity():
    g = build_family("cycle", [4], 3)
    assert g.base().multiplicity == 1
    assert g.base().flags == g.flags
    base = g.base()
    assert GraphSpec(base.n_vertices, base.edges, 3, base.flags) == g
