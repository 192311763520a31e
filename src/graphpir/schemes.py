"""Kernel factories, edge-disjoint composition, and the one build.

A kernel factory binds a scheme to a set of a graph's base edges and
runs it for any desired file on them. `bind` is the one place where a
scheme kind meets a graph: it validates the pair once and returns the
scheme's one factory, which the lift (`lift.lift_factory`) wraps
whatever its kind. `build` turns any factory's run into a transcript,
so a scheme named `kind` runs as `build(bind(kind, g), g, theta, rng)`;
`compose` and `compose_stars` below are that call on their binding.
"""
from __future__ import annotations

import functools
import gc
import math
from dataclasses import dataclass
from typing import Sequence

from . import complete as comp
from .core import FileId, Transcript, assemble_transcript
from .graphs import GraphSpec, path_vertex_order, star_center, star_decomposition
from .kernels import KernelRun, path_kernel, star_kernel
from .rng import RandomSource


BASE_KINDS = ("path", "star", "complete")


class SchemeError(ValueError):
    pass


@dataclass(frozen=True)
class KernelFactory:
    """A scheme bound to a set of a graph's base edges, ready to run for
    any desired file on them."""

    length: int
    edge_indices: tuple[int, ...]
    _runner: object
    parts: tuple = ()  # a composite's part factories in run order

    def run(self, f: FileId, rng: RandomSource) -> KernelRun:
        if f.edge not in self.edge_indices:
            raise SchemeError("edge %d not in this part" % f.edge)
        return self._runner(f, rng)


def kernel_factory(kind: str, g: GraphSpec, edge_indices: Sequence[int]) -> KernelFactory:
    """Build a factory for a scheme kind over a subset of g's base edges.
    Kernel symbols are the files FileId(e, 1) of those edges, made once
    here, so a run's forms are already over g's copy-1 files."""
    edge_indices = tuple(sorted(edge_indices))
    pairs = [g.edge_endpoints(e) for e in edge_indices]
    sub = GraphSpec(g.n_vertices, tuple(pairs))

    if kind == "path":
        order = path_vertex_order(sub)
        if order is None:
            raise SchemeError("edges do not form a path")
        by_pair = {frozenset(p): e for p, e in zip(pairs, edge_indices)}
        path_edges = [by_pair[frozenset(uv)] for uv in zip(order, order[1:])]
        symbols = [FileId(e, 1) for e in path_edges]

        def run(f, rng):
            return path_kernel(order, symbols, path_edges.index(f.edge) + 1)

        return KernelFactory(2, edge_indices, run)

    if kind == "star":
        center = star_center(sub)
        if center is None:
            raise SchemeError("edges do not form a star")
        leaf_of = {e: u if v == center else v for (u, v), e in zip(pairs, edge_indices)}
        order = sorted(edge_indices, key=lambda e: leaf_of[e])
        leaves = [leaf_of[e] for e in order]
        symbols = [FileId(e, 1) for e in order]

        def run(f, rng):
            return star_kernel(center, leaves, symbols, order.index(f.edge) + 1)

        return KernelFactory(2, edge_indices, run)

    if kind == "complete":
        # the kernel runs on positions 1..n, the touched vertices in order
        vertices = tuple(sorted({v for p in pairs for v in p}))
        n = len(vertices)
        if len(pairs) != n * (n - 1) // 2:
            raise SchemeError("edges do not form a complete graph")
        if n < 3:
            raise SchemeError("complete scheme needs N >= 3")
        position = {v: k for k, v in enumerate(vertices, start=1)}
        symbols = {frozenset(map(position.get, p)): FileId(e, 1)
                   for p, e in zip(pairs, edge_indices)}

        def run(f, rng):
            i, i_prime = map(position.get, g.edge_endpoints(f.edge))
            return comp.complete_kernel(n, i, i_prime, symbols, rng, vertices)

        return KernelFactory(comp.complete_length(n), edge_indices, run)

    raise SchemeError("unknown scheme kind %r" % kind)


def composite(factories: Sequence[KernelFactory]) -> KernelFactory:
    """The edge-disjoint composition of the factories; one is its own.
    A run runs every part in order, the desired part with the desired
    file and every other part with a decoy edge drawn uniformly from its
    own, each repeatedly on successive index windows up to the lcm of
    the part lengths."""
    if len(factories) == 1:
        return factories[0]
    L = math.lcm(*(fa.length for fa in factories))

    def run(f, rng):
        requests: list = []
        plan: list = [None] * L
        for fa in factories:
            is_theta_part = f.edge in fa.edge_indices
            target = f if is_theta_part else FileId(fa.edge_indices[
                rng.choice_index(len(fa.edge_indices))], 1)
            for rep in range(L // fa.length):
                off = rep * fa.length
                kr = fa.run(target, rng)
                base_idx = len(requests)
                if off:
                    requests.extend(
                        (server, frozenset((sym, m + off) for sym, m in form))
                        for server, form in kr.requests
                    )
                else:
                    requests.extend(kr.requests)
                if is_theta_part:  # the first run's plan already indexes `requests`
                    for m, entry in enumerate(kr.plan):
                        if base_idx:
                            entry = frozenset(base_idx + k for k in entry)
                        plan[off + m] = entry
        if any(p is None for p in plan):
            raise SchemeError("desired part did not cover all targets")
        return KernelRun(tuple(requests), tuple(plan))

    edges = tuple(sorted(e for fa in factories for e in fa.edge_indices))
    return KernelFactory(L, edges, run, tuple(factories))


@functools.cache
def bind(kind: str, g: GraphSpec, parts: tuple | None = None) -> KernelFactory:
    """The factory of scheme `kind` on g, validated once.

    `kind` is a base kind (one part over all of g's base edges),
    "compose" over `parts`, a tuple of (edge index tuple, base kind)
    pairs, or "compose-stars", the "compose" binding with one star
    part per left vertex of a complete bipartite graph. g must have
    multiplicity 1, the parts must partition its base edges, and each
    part's edges must form its kind's graph. The factory is the
    composite of one kernel factory per part.

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
    return composite([kernel_factory(k, g, edges) for edges, k in parts])


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


def build(factory: KernelFactory, g: GraphSpec, theta, rng, **assemble_kw) -> Transcript:
    """One transcript of the scheme `factory` runs on g: theta is a
    FileId, an (edge, copy) pair or an edge index, as for every scheme.

    The cyclic garbage collector is paused for the run and the assembly
    and then restored to the caller's setting, an exception included. A
    transcript's tuples and frozensets of (FileId, bit) coordinates hold
    no reference cycles, so reference counting frees all a build drops,
    and graphpir is single-threaded; the pause only spares the
    collector's scans of a large build's many tracked tuples."""
    f = _theta_file(g, theta)
    enabled = gc.isenabled()
    gc.disable()
    try:
        kr = factory.run(f, rng)
        return assemble_transcript(g, factory.length, f, kr.requests, kr.plan, rng,
                                   **assemble_kw)
    finally:
        if enabled:
            gc.enable()


def compose(g: GraphSpec, parts: Sequence[tuple[Sequence[int], str]], theta, rng,
            **assemble_kw) -> Transcript:
    """Edge-disjoint composition of the parts, (edge index list, scheme
    kind) pairs whose edge sets partition g's base edges (see
    `composite`)."""
    parts = tuple((tuple(edges), kind) for edges, kind in parts)
    return build(bind("compose", g, parts), g, theta, rng, **assemble_kw)


def compose_stars(g: GraphSpec, theta, rng, **kw) -> Transcript:
    """Composition of one trivial star scheme per left vertex of a
    complete bipartite graph."""
    return build(bind("compose-stars", g), g, theta, rng, **kw)
