"""Deliberately broken scheme variants used as negative controls.

Each mutant is documented with the check it is expected to fail; the
verifier's test suite asserts these failures.
"""
from __future__ import annotations

from .core import Transcript
from .schemes import _theta_file, bind, build, composite


def drop_planned_request(t: Transcript) -> Transcript:
    """Remove one request that the decoding plan relies on.

    Expected failure: reliability (symbolic decode leaves residual
    coordinates for at least one target).
    """
    victim = min(t.decoding_plan[0])
    vs, vp = victim
    new_requests = []
    for s0, server in enumerate(t.requests):
        if s0 + 1 == vs:
            server = server[: vp - 1] + server[vp:]
        new_requests.append(server)

    def remap(ref):
        s, p = ref
        if s == vs and p > vp:
            return (s, p - 1)
        return ref

    new_plan = tuple(
        frozenset(remap(ref) for ref in entry if ref != victim)
        for entry in t.decoding_plan
    )
    return Transcript(
        t.graph, t.file_length, t.theta, tuple(new_requests), new_plan,
        t.permutations,
    )


def _star_parts(g) -> tuple:
    """The star composition's part factories, in run order."""
    factory = bind("compose-stars", g)
    return factory.parts or (factory,)


def compose_stars_theta_ordered(g, theta, rng, **kw) -> Transcript:
    """Star composition whose wire order puts the desired part's
    requests first instead of canonical order.

    Expected failure: privacy (the request order at shared servers
    reveals which part holds theta). Detected by the exact and
    structural/statistical tiers alike.
    """
    kw["wire_key"] = None  # set, not defaulted: the privacy tiers' key would sort it
    edge = _theta_file(g, theta).edge
    parts = sorted(_star_parts(g), key=lambda fa: edge not in fa.edge_indices)
    return build(composite(parts), g, theta, rng, **kw)


def compose_stars_no_decoy(g, theta, rng, **kw) -> Transcript:
    """Star composition that skips the decoy runs entirely: servers of
    non-desired parts receive no queries.

    Expected failure: privacy with total-variation distance near 1.
    """
    edge = _theta_file(g, theta).edge
    theta_part = [fa for fa in _star_parts(g) if edge in fa.edge_indices]
    return build(composite(theta_part), g, theta, rng, **kw)


MUTANTS = {
    "drop-request": (drop_planned_request, "reliability"),
    "theta-ordered-compose": (compose_stars_theta_ordered, "privacy"),
    "no-decoy-compose": (compose_stars_no_decoy, "privacy"),
}
