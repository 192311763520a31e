"""Standalone schemes, edge-disjoint composition, and kernel factories.

A kernel factory binds a base kernel kind to a set of a graph's base
edges and can then produce kernel runs for any desired edge and
orientation. `bind` is the one place where a scheme kind meets a graph:
it validates the pair once and returns the scheme's factories, which
standalone schemes, compositions and the lift all run from.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import complete as comp
from .core import FileId, Transcript, assemble_transcript
from .graphs import (
    GraphSpec,
    build_family,
    path_vertex_order,
    star_center,
    star_decomposition,
)
from .kernels import KernelRun, path_kernel, star_kernel
from .rng import RandomSource


BASE_KINDS = ("path", "star", "complete")


class SchemeError(ValueError):
    pass


@dataclass(frozen=True)
class KernelFactory:
    """Bound (kind, edge set) ready to run for any theta edge."""

    kind: str
    length: int
    downloads: int
    edge_indices: tuple[int, ...]
    _runner: object

    def run(self, theta_edge: int, orientation: int, rng: RandomSource) -> KernelRun:
        if theta_edge not in self.edge_indices:
            raise SchemeError("edge %d not in this part" % theta_edge)
        return self._runner(theta_edge, orientation, rng)


def kernel_factory(
    kind: str, g: GraphSpec, edge_indices: Sequence[int] | None = None
) -> KernelFactory:
    """Build a factory for a scheme kind over a subset of g's base edges
    (default: all of them). Kernel symbols are base-edge indices."""
    if edge_indices is None:
        edge_indices = tuple(range(1, g.n_base_edges + 1))
    edge_indices = tuple(sorted(edge_indices))
    pairs = [g.edge_endpoints(e) for e in edge_indices]
    vertices = sorted({v for p in pairs for v in p})

    if kind == "path":
        sub = GraphSpec(g.n_vertices, tuple(pairs))
        order = path_vertex_order(sub, vertices)
        if order is None:
            raise SchemeError("edges do not form a path")
        by_pair = {frozenset(p): e for p, e in zip(pairs, edge_indices)}
        symbols = [
            by_pair[frozenset({order[k], order[k + 1]})]
            for k in range(len(order) - 1)
        ]

        def run(theta_edge, orientation, rng):
            return path_kernel(
                order, symbols, symbols.index(theta_edge) + 1, orientation
            )

        return KernelFactory(kind, 2, len(order), edge_indices, run)

    if kind == "star":
        sub = GraphSpec(g.n_vertices, tuple(pairs))
        center = star_center(sub)
        if center is None:
            raise SchemeError("edges do not form a star")
        leaf_of = {}
        for p, e in zip(pairs, edge_indices):
            u, v = p
            leaf_of[e] = u if v == center else v
        order = sorted(edge_indices, key=lambda e: leaf_of[e])
        leaves = [leaf_of[e] for e in order]

        def run(theta_edge, orientation, rng):
            return star_kernel(
                center, leaves, order, order.index(theta_edge) + 1, orientation
            )

        return KernelFactory(kind, 2, len(leaves) + 1, edge_indices, run)

    if kind == "complete":
        n = len(vertices)
        if vertices != list(range(1, n + 1)) or len(pairs) != n * (n - 1) // 2:
            raise SchemeError("edges do not form a complete graph on [1..N]")
        if n < 3:
            raise SchemeError("complete scheme needs N >= 3")
        symbols = {frozenset(p): e for p, e in zip(pairs, edge_indices)}

        def run(theta_edge, orientation, rng):
            i, ip = g.edge_endpoints(theta_edge)
            return comp.complete_kernel(n, i, ip, symbols, rng, orientation)

        return KernelFactory(
            kind,
            comp.complete_length(n),
            n * comp.complete_downloads_per_server(n),
            edge_indices,
            run,
        )

    raise SchemeError("unknown scheme kind %r" % kind)


@functools.cache
def bind(
    kind: str, g: GraphSpec, parts: tuple | None = None
) -> tuple[KernelFactory, ...]:
    """The kernel factories of scheme `kind` on g, validated once.

    `kind` is a base kind (one part over all of g's base edges),
    "compose" over `parts`, a tuple of (edge index tuple, base kind)
    pairs, or "compose-stars", the "compose" binding with one star
    part per left vertex of a complete bipartite graph. g must have
    multiplicity 1, the parts must partition its base edges, and each
    part's edges must form its kind's graph.

    Cached for the life of the process, per (kind, g, parts): GraphSpec
    is frozen and hashable, and a factory is immutable and draws no
    randomness until it runs, so a binding carries no state from one
    run to the next.
    """
    if g.multiplicity != 1:
        raise SchemeError("%s scheme runs on multiplicity-1 graphs" % kind)
    if kind == "compose-stars":
        stars = tuple(
            (tuple(g.edges.index(e) + 1 for e in s.edges), "star")
            for s in star_decomposition(g)
        )
        return bind("compose", g, stars)
    if kind in BASE_KINDS:
        parts = ((tuple(range(1, g.n_base_edges + 1)), kind),)
    elif kind != "compose":
        raise SchemeError("unknown scheme kind %r" % kind)
    if not parts:
        raise SchemeError("no parts")
    covered = sorted(e for edges, _ in parts for e in edges)
    if covered != list(range(1, g.n_base_edges + 1)):
        raise SchemeError("part edge sets must partition the graph's edges")
    return tuple(kernel_factory(k, g, edges) for edges, k in parts)


def _theta_file(g: GraphSpec, theta) -> FileId:
    if isinstance(theta, FileId):
        f = theta
    elif isinstance(theta, tuple):
        f = FileId(*theta)
    else:
        f = FileId(int(theta), 1)
    if not (1 <= f.edge <= g.n_base_edges and 1 <= f.copy <= g.multiplicity):
        raise SchemeError("theta %r out of range" % (f,))
    return f


def _run_bound(
    g: GraphSpec,
    factories: Sequence[KernelFactory],
    theta,
    rng,
    *,
    orientation: int = 1,
    skip_decoys: bool = False,
    theta_part_first: bool = False,
    **assemble_kw,
) -> Transcript:
    """One transcript from bound factories, composed as `compose`
    describes; every kernel runs with the given orientation."""
    f = _theta_file(g, theta)
    if theta_part_first:
        factories = sorted(factories, key=lambda fa: f.edge not in fa.edge_indices)
    L = math.lcm(*(fa.length for fa in factories))

    requests: list = []
    plan: list = [None] * L
    for fa in factories:
        is_theta_part = f.edge in fa.edge_indices
        if skip_decoys and not is_theta_part:
            continue
        target = f.edge if is_theta_part else fa.edge_indices[
            rng.choice_index(len(fa.edge_indices))
        ]
        for rep in range(L // fa.length):
            off = rep * fa.length
            kr = fa.run(target, orientation, rng)
            base_idx = len(requests)
            for server, form in kr.requests:
                requests.append(
                    (
                        server,
                        frozenset((FileId(sym, 1), m + off) for sym, m in form),
                    )
                )
            if is_theta_part:
                for m, entry in enumerate(kr.plan, start=1):
                    plan[off + m - 1] = frozenset(base_idx + k for k in entry)
    if any(p is None for p in plan):
        raise SchemeError("desired part did not cover all targets")
    return assemble_transcript(g, L, f, requests, plan, rng, **assemble_kw)


def _as_graph(g, kind: str) -> GraphSpec:
    return g if isinstance(g, GraphSpec) else build_family(kind, [int(g)])


def _standalone(kind: str, g, theta, rng, orientation: int, **assemble_kw) -> Transcript:
    """One base kernel over all of g's base edges."""
    g = _as_graph(g, kind)
    return _run_bound(
        g, bind(kind, g), theta, rng, orientation=orientation, **assemble_kw
    )


def path_scheme(g, theta, rng, orientation: int = 1, **assemble_kw) -> Transcript:
    """Path scheme; g may be a GraphSpec or the vertex count N."""
    return _standalone("path", g, theta, rng, orientation, **assemble_kw)


def star_scheme(g, theta, rng, orientation: int = 1, **assemble_kw) -> Transcript:
    """Trivial star scheme; g may be a GraphSpec or the vertex count N."""
    return _standalone("star", g, theta, rng, orientation, **assemble_kw)


def complete_scheme(g, theta, rng, orientation: int = 1, **assemble_kw) -> Transcript:
    """Complete-graph scheme; g may be a GraphSpec or the vertex count N,
    and theta an edge index or endpoint pair."""
    g = _as_graph(g, "complete")
    if isinstance(theta, tuple) and not isinstance(theta, FileId) and len(theta) == 2:
        u, v = sorted(theta)
        if (u, v) in g.edges:
            theta = g.edges.index((u, v)) + 1
    return _standalone("complete", g, theta, rng, orientation, **assemble_kw)


def compose(
    g: GraphSpec,
    parts: Sequence[tuple[Sequence[int], str]],
    theta,
    rng,
    *,
    skip_decoys: bool = False,
    theta_part_first: bool = False,
    **assemble_kw,
) -> Transcript:
    """Edge-disjoint composition: run one scheme per part, the desired
    part with the true theta and every other part with a random decoy.

    Parts are (edge index list, scheme kind) pairs whose edge sets must
    partition g's base edges. Part lengths are aligned to their lcm by
    running each part's scheme repeatedly on successive index windows.

    skip_decoys (no queries at all for non-desired parts) and
    theta_part_first (insertion order starts with the desired part,
    visible when canonical ordering is disabled) deliberately break
    privacy; they exist as negative controls for the verifier.
    """
    parts = tuple((tuple(edges), kind) for edges, kind in parts)
    return _run_bound(
        g, bind("compose", g, parts), theta, rng,
        skip_decoys=skip_decoys, theta_part_first=theta_part_first,
        **assemble_kw,
    )


def compose_stars(g: GraphSpec, theta, rng, **kw) -> Transcript:
    """Composition of one trivial star scheme per left vertex of a
    complete bipartite graph."""
    parts = [(fa.edge_indices, fa.kind) for fa in bind("compose-stars", g)]
    return compose(g, parts, theta, rng, **kw)


def compose_rate(part_rates: Sequence[Fraction]) -> Fraction:
    return 1 / sum(Fraction(1) / Fraction(r) for r in part_rates)
