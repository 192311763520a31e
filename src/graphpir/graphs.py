"""Graph descriptions of 2-replicated storage systems.

Vertices are servers, base edges are files stored on exactly their two
endpoint servers, and a uniform multiplicity r turns each base edge into
r parallel files.

classify_family names the paper's graph families (build_family) from
the edges alone: the edge count, one path walk (path_vertex_order) and
one neighbourhood (bipartition), never a scan of every vertex.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

KNOWN_FLAGS = frozenset({"vertex_transitive", "hamiltonian_vertex_transitive"})

MATCHING_EDGE_LIMIT = 24

# The largest multiplicity: the exact bounds compute 2^r, so past it
# `bounds` would work on numbers too long to print in reasonable time.
MAX_MULTIPLICITY = 1 << 16


class GraphSpecError(ValueError):
    pass


@dataclass(frozen=True)
class GraphSpec:
    """A base simple graph plus a uniform edge multiplicity.

    Edges are kept in canonical order (lexicographic by endpoint pair);
    file indices are 1-based positions in this order.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    multiplicity: int = 1
    flags: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n_vertices < 1:
            raise GraphSpecError("need at least one vertex")
        if self.multiplicity < 1:
            raise GraphSpecError("multiplicity must be positive")
        if self.multiplicity > MAX_MULTIPLICITY:
            raise GraphSpecError("multiplicity above the limit of %d" % MAX_MULTIPLICITY)
        norm = []
        for e in self.edges:
            if len(e) != 2:
                raise GraphSpecError("edge must have two endpoints: %r" % (e,))
            u, v = e
            if u == v:
                raise GraphSpecError("self-loop at vertex %d" % u)
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise GraphSpecError("edge %r out of vertex range" % (e,))
            norm.append((min(u, v), max(u, v)))
        norm.sort()
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise GraphSpecError(
                    "duplicate edge %r; use multiplicity for parallel files" % (a,)
                )
        object.__setattr__(self, "edges", tuple(norm))
        unknown = set(self.flags) - KNOWN_FLAGS
        if unknown:
            raise GraphSpecError("unknown flags: %s" % sorted(unknown))
        object.__setattr__(self, "flags", frozenset(self.flags))

    @property
    def n_base_edges(self) -> int:
        return len(self.edges)

    def edge_endpoints(self, edge_index: int) -> tuple[int, int]:
        """Endpoints of 1-based base-edge index."""
        return self.edges[edge_index - 1]

    def degree(self, vertex: int) -> int:
        """Number of base edges at `vertex`."""
        return sum(vertex in e for e in self.edges)

    def base(self) -> "GraphSpec":
        """The same graph with multiplicity 1."""
        if self.multiplicity == 1:
            return self
        return GraphSpec(self.n_vertices, self.edges, 1, self.flags)

    def to_dict(self) -> dict:
        return {
            "n": self.n_vertices,
            "edges": [list(e) for e in self.edges],
            "multiplicity": self.multiplicity,
            "flags": sorted(self.flags),
        }


def build_family(family_name: str, params: Sequence[int], multiplicity: int = 1) -> GraphSpec:
    """Canonical graph for a named family.

    path:N, cycle:N, complete:N, star:N (vertex N is the center storing
    all N-1 files), complete_bipartite:M,N (left part 1..M, right part
    M+1..M+N).
    """
    params = list(params)
    if family_name == "path":
        (n,) = params
        if n < 2:
            raise GraphSpecError("path needs N >= 2")
        edges = [(i, i + 1) for i in range(1, n)]
        return GraphSpec(n, tuple(edges), multiplicity)
    if family_name == "cycle":
        (n,) = params
        if n < 3:
            raise GraphSpecError("cycle needs N >= 3")
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        return GraphSpec(n, tuple(edges), multiplicity,
                         frozenset({"vertex_transitive", "hamiltonian_vertex_transitive"}))
    if family_name == "star":
        (n,) = params
        if n < 2:
            raise GraphSpecError("star needs N >= 2")
        edges = [(i, n) for i in range(1, n)]
        return GraphSpec(n, tuple(edges), multiplicity)
    if family_name == "complete":
        (n,) = params
        if n < 2:
            raise GraphSpecError("complete needs N >= 2")
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        flags = frozenset({"vertex_transitive", "hamiltonian_vertex_transitive"}) \
            if n >= 3 else frozenset()
        return GraphSpec(n, tuple(edges), multiplicity, flags)
    if family_name == "complete_bipartite":
        m, n = params
        if m < 1 or n < 1:
            raise GraphSpecError("complete_bipartite needs M, N >= 1")
        if m > n:
            raise GraphSpecError(
                "complete_bipartite:%d,%d has M > N; write it as %d,%d" % (m, n, n, m)
            )
        edges = [(i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)]
        return GraphSpec(m + n, tuple(edges), multiplicity)
    raise GraphSpecError("unknown family %r" % family_name)


_FAMILY_RE = re.compile(
    r"^(path|cycle|star|complete|complete_bipartite):(\d+(?:,\d+)?)(?:\^(\d+))?$"
)


def parse_graph(text: str) -> GraphSpec:
    """Parse a family shorthand like ``path:4`` / ``complete:4^3`` /
    ``complete_bipartite:2,3``, or a JSON object with keys n, edges,
    multiplicity, flags."""
    text = text.strip()
    m = _FAMILY_RE.match(text)
    if m:
        name, params, mult = m.group(1), m.group(2), m.group(3)
        return build_family(
            name, [int(p) for p in params.split(",")], int(mult) if mult else 1
        )
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphSpecError("cannot parse graph spec %r: %s" % (text, exc)) from exc
    return graph_from_dict(obj)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def graph_from_dict(obj: dict) -> GraphSpec:
    """The graph of a JSON object: integer n and multiplicity, a list of
    integer endpoint pairs, a list of string flags."""
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphSpecError("graph object needs keys 'n' and 'edges'")
    n, edges = obj["n"], obj["edges"]
    r, flags = obj.get("multiplicity", 1), obj.get("flags", [])
    if not (_is_int(n) and _is_int(r)):
        raise GraphSpecError("'n' and 'multiplicity' must be integers")
    if not isinstance(edges, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges
    ):
        raise GraphSpecError("'edges' must be a list of integer pairs")
    if not isinstance(flags, list) or not all(isinstance(f, str) for f in flags):
        raise GraphSpecError("'flags' must be a list of strings")
    return GraphSpec(n, tuple(map(tuple, edges)), r, frozenset(flags))


def max_degree(g: GraphSpec) -> int:
    """Maximum vertex degree of the base simple graph."""
    return max(Counter(v for e in g.edges for v in e).values(), default=0)


def _matching_search(edges, idx: int, used: int, size: int, best: int) -> int:
    """The larger of `best` and the largest matching that extends one of
    `size` edges, whose vertices are the bits of `used`, by edges from
    edges[idx:]; a branch that cannot pass `best` is cut."""
    if size + (len(edges) - idx) <= best:
        return best
    if idx == len(edges):
        return size
    u, v = edges[idx]
    bit = (1 << u) | (1 << v)
    if not used & bit:
        best = _matching_search(edges, idx + 1, used | bit, size + 1, best)
    return _matching_search(edges, idx + 1, used, size, best)


def matching_number(g: GraphSpec) -> int:
    """Size of a maximum matching of the base simple graph, by exact search."""
    if g.n_base_edges > MATCHING_EDGE_LIMIT:
        raise GraphSpecError(
            "matching_number limited to %d edges" % MATCHING_EDGE_LIMIT
        )
    return _matching_search(g.edges, 0, 0, 0, 0)


def star_decomposition(g: GraphSpec) -> list[GraphSpec]:
    """Split a complete bipartite graph into edge-disjoint stars, one per
    left vertex, all on the shared vertex set."""
    parts = bipartition(g)
    if parts is None:
        raise GraphSpecError("graph is not complete bipartite")
    left, right = parts
    out = []
    for c in left:
        edges = tuple((min(c, w), max(c, w)) for w in right)
        out.append(GraphSpec(g.n_vertices, edges, g.multiplicity))
    return out


def bipartition(g: GraphSpec) -> tuple[list[int], list[int]] | None:
    """(left, right) parts of a complete bipartite graph with |left| <=
    |right|, the side of g.edges[0][0] left on a tie, or None if g is not
    one. The neighbours N of u = g.edges[0][0] are then one part and every
    other vertex the other, so g is one exactly when its edges number
    (n - |N|)|N| and each has one end in N."""
    if not g.edges:
        return None
    u = g.edges[0][0]
    near = {v for e in g.edges if u in e for v in e if v != u}
    n, k = g.n_vertices, len(near)
    if (n - k) * k != g.n_base_edges or any((a in near) == (b in near) for a, b in g.edges):
        return None
    far = [v for v in range(1, n + 1) if v not in near]
    return (far, sorted(near)) if n - k <= k else (sorted(near), far)


def classify_family(g: GraphSpec) -> dict[str, tuple[int, ...]]:
    """All named families the base graph belongs to, with their parameters.

    A graph can match several (star:2 is also path:2, complete:3 is also
    cycle:3); callers pick what they need. g is a path when its n - 1
    edges form one, a cycle when dropping the first of its n edges leaves
    a path whose two ends that edge joins, and complete when it has all
    n(n - 1)/2 edges (GraphSpec allows no loop or duplicate).
    """
    out: dict[str, tuple[int, ...]] = {}
    n, k = g.n_vertices, g.n_base_edges
    if k == 0:
        return out
    if k == n - 1 and path_vertex_order(g) is not None:
        out["path"] = (n,)
    if k == n and (order := path_vertex_order(GraphSpec(n, g.edges[1:]))) and (
            {order[0], order[-1]} == set(g.edges[0])):
        out["cycle"] = (n,)
    if star_center(g) is not None and k == n - 1:
        out["star"] = (n,)
    if k == n * (n - 1) // 2:
        out["complete"] = (n,)
    parts = bipartition(g)
    if parts is not None:
        out["complete_bipartite"] = (len(parts[0]), len(parts[1]))
    return out


def path_vertex_order(g: GraphSpec) -> list[int] | None:
    """The vertices g's edges touch, in path order from the smaller
    endpoint, or None if those edges do not form a path.

    Vertices no edge touches are ignored, so a path part of a larger
    host graph reads as it stands.
    """
    adj: dict[int, list[int]] = {}
    for u, v in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    ends = [v for v in adj if len(adj[v]) == 1]
    # |V| - 1 edges and two ends leave every other vertex at degree 2
    if len(g.edges) != len(adj) - 1 or len(ends) != 2:
        return None
    order = [min(ends)]
    prev = None
    while len(order) < len(adj):
        nxts = [w for w in adj[order[-1]] if w != prev]
        if len(nxts) != 1:
            return None
        prev = order[-1]
        order.append(nxts[0])
    return order


def star_center(g: GraphSpec) -> int | None:
    """The common vertex of all edges, preferring the highest-labeled
    candidate (a single edge has two), or None."""
    if not g.edges:
        return None
    common = set(g.edges[0])
    for e in g.edges[1:]:
        common &= set(e)
    if not common:
        return None
    return max(common)
