"""Name-based scheme dispatch shared by the CLI and the verifier."""
from __future__ import annotations

from .core import file_ids
from .graphs import GraphSpec, classify_family, path_vertex_order, star_center
from .lift import lift_factory, lift_scheme
from .schemes import (
    BASE_KINDS,
    SchemeError,
    bind,
    complete_scheme,
    compose_stars,
    path_scheme,
    star_scheme,
)

# Scheme names that run on a multiplicity-1 graph; every base kind also
# has a "lift:" name for its r-multigraph extension.
STANDALONE = {
    "path": path_scheme,
    "star": star_scheme,
    "complete": complete_scheme,
    "compose-stars": compose_stars,
}
SCHEME_NAMES = tuple(STANDALONE) + tuple("lift:" + kind for kind in BASE_KINDS)


def auto_scheme_name(g: GraphSpec) -> str:
    """The scheme `auto` binds to g. A path or star scheme runs on any
    graph whose edges form one, vertices no edge touches included, so
    those are asked of the edges, not of the spanning families."""
    fam = classify_family(g.base())
    base = None
    if path_vertex_order(g) is not None:
        base = "path"
    elif star_center(g) is not None:
        base = "star"
    elif "complete" in fam:
        base = "complete"
    elif "complete_bipartite" in fam and g.multiplicity == 1:
        return "compose-stars"
    if base is None:
        family = ", ".join(sorted(fam)) or "unknown"
        if g.multiplicity > 1:
            family += " at multiplicity %d" % g.multiplicity
        raise SchemeError("no scheme for family %s" % family)
    return base if g.multiplicity == 1 else "lift:" + base


def resolve_scheme(scheme, g: GraphSpec):
    """(name, run) from a scheme name, 'auto', or a callable, where
    run(g, theta, rng, **assemble_kw) returns a Transcript. A named
    scheme is bound to g here, so one that does not fit g is refused
    before it runs."""
    if callable(scheme):
        return getattr(scheme, "__name__", "custom"), scheme
    name = auto_scheme_name(g) if scheme == "auto" else scheme
    if name not in SCHEME_NAMES:
        raise SchemeError("unknown scheme %r" % name)
    if name in STANDALONE:
        bind(name, g)
        return name, STANDALONE[name]
    kind = name.removeprefix("lift:")
    lift_factory(kind, g)

    def run(g, theta, rng, **kw):
        return lift_scheme(kind, g, theta, rng, **kw)

    return name, run


all_thetas = file_ids  # every file can be the desired one
