"""Name-based scheme dispatch shared by the CLI and the verifier."""
from __future__ import annotations

import functools

from .core import file_ids
from .graphs import GraphSpec, classify_family, path_vertex_order, star_center
from .lift import lift_factory
from .schemes import BASE_KINDS, SchemeError, bind, build

# Scheme names that `bind` runs on a multiplicity-1 graph, then one
# "lift:<kind>" name per base kind, bound as resolve_scheme says.
SCHEME_NAMES = BASE_KINDS + ("compose-stars",) + tuple("lift:" + k for k in BASE_KINDS)


def auto_scheme_name(g: GraphSpec) -> str:
    """The scheme `auto` binds to g. A path or star scheme runs on any
    graph whose edges form one, vertices no edge touches included, so
    those are asked of the edges, not of the spanning families. At
    r >= 2 every base is lifted, and refused if that name is unknown."""
    fam = classify_family(g.base())
    base = None
    if path_vertex_order(g) is not None:
        base = "path"
    elif star_center(g) is not None:
        base = "star"
    elif "complete" in fam:
        base = "complete"
    elif "complete_bipartite" in fam:
        base = "compose-stars"
    name = base if g.multiplicity == 1 or base is None else "lift:" + base
    if name not in SCHEME_NAMES:
        family = ", ".join(sorted(fam)) or "unknown"
        if g.multiplicity > 1:
            family += " at multiplicity %d" % g.multiplicity
        raise SchemeError("no scheme for family %s" % family)
    return name


def resolve_scheme(scheme, g: GraphSpec):
    """(name, run) from a scheme name, 'auto', or a callable, where
    run(g, theta, rng, **assemble_kw) returns a Transcript. A named
    scheme is bound to g here, to its one factory, so one that does not
    fit g is refused before it runs, and run builds from that factory.
    This is where a "lift:<kind>" name is bound: <kind> on g's base,
    lifted to g's multiplicity."""
    if callable(scheme):
        return getattr(scheme, "__name__", "custom"), scheme
    name = auto_scheme_name(g) if scheme == "auto" else scheme
    if name not in SCHEME_NAMES:
        raise SchemeError("unknown scheme %r" % name)
    if name.startswith("lift:"):
        factory = lift_factory(bind(name.removeprefix("lift:"), g.base()), g.multiplicity)
    else:
        factory = bind(name, g)
    return name, functools.partial(build, factory)


all_thetas = file_ids  # every file can be the desired one
