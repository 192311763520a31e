"""Capacity bound formulas and per-graph bound reports.

Rates and bounds are exact rationals wherever the formula is rational;
square-root formulas are evaluated in floating point, which makes them
inexact (an entry is exact when its value is a Fraction), and kept out
of exact tightness claims.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    GraphSpec,
    GraphSpecError,
    classify_family,
    matching_number,
    max_degree,
    path_vertex_order,
    star_center,
)


@dataclass(frozen=True)
class BoundEntry:
    kind: str  # "lower" or "upper"
    value: object  # Fraction, float for square-root formulas, or None
    source: str
    reason: str = ""  # why the entry does not apply; empty when it does
    asymptotic: bool = False

    @property
    def exact(self) -> bool:
        return isinstance(self.value, Fraction)

    @property
    def applicable(self) -> bool:
        return not self.reason

    def to_dict(self) -> dict:
        v = self.value
        return {
            "kind": self.kind,
            "value": str(v) if isinstance(v, Fraction) else v,
            "exact": self.exact,
            "source": self.source,
            "applicable": self.applicable,
            "reason": self.reason,
            "asymptotic": self.asymptotic,
        }


def exact_entries(entries: list[BoundEntry], kind: str) -> list[BoundEntry]:
    """The exact, applicable, non-asymptotic entries of `kind`: the only
    ones that tightness claims and the rate check rest on."""
    return [e for e in entries
            if e.kind == kind and e.exact and e.applicable and not e.asymptotic]


def discount(r: int) -> Fraction:
    """The lift's rate divisor 2 - 2^(1-r)."""
    return 2 - Fraction(1, 2 ** (r - 1))


def path_rate(n: int) -> Fraction:
    return Fraction(2, n)


def star_trivial_rate(n_vertices: int) -> Fraction:
    return Fraction(2, n_vertices)


def complete_scheme_rate(n: int) -> Fraction:
    """6 / ((5 - 2^(3-N)) N), written with integer terms."""
    return Fraction(3 * 2 ** (n - 2), n * (2 ** (n - 1) + 2 ** (n - 3) - 1))


def cycle_rate(n: int) -> Fraction:
    return Fraction(2, n + 1)


def compose_stars_rate(m: int, n_leaves: int) -> Fraction:
    return Fraction(2, m * (n_leaves + 1))


def kmn_lower(m: int, n_leaves: int) -> float:
    return 1.0 / (2 * m * math.sqrt(n_leaves) + m)


def kmn_upper(m: int, n_leaves: int) -> float:
    return 1.0 / (math.sqrt(2 * m * n_leaves) - m / 2)


def hamiltonian_vt_upper(n: int, r: int) -> Fraction:
    return 1 / (n - (n - 1) * Fraction(1, 2 ** r))


def general_upper(g: GraphSpec) -> Fraction:
    """min(Delta/|E|, 1/nu) on the base simple graph."""
    if not g.edges:
        raise GraphSpecError("graph has no edges")
    return min(
        Fraction(max_degree(g), g.n_base_edges),
        Fraction(1, matching_number(g)),
    )


def bound_report(g: GraphSpec) -> list[BoundEntry]:
    """Every known bound on g's capacity, in one pass over its base graph.

    Each scheme's rate is written once for every multiplicity r: as
    itself under the scheme's name at r = 1, or divided by the lift's
    2 - 2^(1-r) under its lifted name at r >= 2. The multigraph
    candidate is the best of those base rates over r.
    """
    r = g.multiplicity
    base = g.base()
    n, k = g.n_vertices, g.n_base_edges
    fam = classify_family(base)
    disc = discount(r)
    entries: list[BoundEntry] = []
    rates: list[Fraction] = []  # the base schemes' rates, for the candidate

    def lb(value, source, **kw):
        entries.append(BoundEntry("lower", value, source, **kw))

    def ub(value, source, **kw):
        entries.append(BoundEntry("upper", value, source, **kw))

    def scheme(rate: Fraction, source: str, lifted: str | None) -> None:
        # no entry at r >= 2 for a scheme the lift does not take yet
        rates.append(rate)
        if r == 1:
            lb(rate, source)
        elif lifted:
            lb(rate / disc, lifted)

    # A path or star scheme runs on the k + 1 vertices its edges touch,
    # beside isolated vertices too; auto binds the path before the star,
    # so such edges that are both get the star entry only when they span.
    order, center = path_vertex_order(base), star_center(base)
    if order is not None:
        scheme(path_rate(k + 1), "path scheme", "multi-path lift")
    if "path" in fam:
        if r == 1:
            ub(path_rate(n), "path capacity")
        elif n % 2 == 0:
            ub(path_rate(n) / disc, "multi-path capacity (N even)")
        else:
            ub(Fraction(2, n - 1) / disc, "multi-path upper bound (N odd)")

    if center is not None and (order is None or "star" in fam):
        scheme(star_trivial_rate(k + 1), "trivial star scheme", "trivial star lift")
    if "star" in fam:
        if r == 1:
            lb(kmn_lower(1, k), "star scheme (external, formula only)")
            ub(kmn_upper(1, k), "star upper bound")
        else:
            ub(1 / disc, "multi-star upper bound")

    if "cycle" in fam:
        scheme(cycle_rate(n), "cycle scheme (external, formula only)",
               "multi-cycle lift (external base, formula only)")
        if r == 1:
            ub(cycle_rate(n), "cycle capacity")
        else:
            ub(Fraction(2, n) / disc, "multi-cycle upper bound")

    if "complete_bipartite" in fam and "star" not in fam:
        m, nl = fam["complete_bipartite"]
        scheme(compose_stars_rate(m, nl), "star composition", None)
        if r == 1:
            lb(kmn_lower(m, nl), "complete bipartite lower bound")
            ub(kmn_upper(m, nl), "complete bipartite upper bound")

    if "complete" in fam and n >= 3:
        scheme(complete_scheme_rate(n), "complete-graph scheme", "complete-graph lift")
        if r == 1:
            ub(cycle_rate(n), "complete-graph capacity upper bound")
        else:
            ub(hamiltonian_vt_upper(n, r), "complete multigraph upper bound")

    general = "general graph upper bound" if r == 1 else "multigraph upper bound"
    try:
        ub(general_upper(base) / disc, general)
    except GraphSpecError as exc:
        ub(None, general, reason=str(exc))

    flagged = "hamiltonian_vertex_transitive" in g.flags
    ub(hamiltonian_vt_upper(n, r), "Hamiltonian vertex-transitive upper bound",
       reason="" if flagged else "graph not flagged hamiltonian_vertex_transitive")

    if r >= 2 and rates:
        lb(max(rates) / r, "base capacity candidate / r")

    lb(Fraction(1, n) if g.edges else None, "asymptotic capacity", asymptotic=True,
       reason="" if g.edges else "graph has no edges")

    return entries


@dataclass(frozen=True)
class TightnessResult:
    status: str  # "tight", "gap", or "unknown"
    lower: object = None
    upper: object = None

    @property
    def value(self):
        return self.lower if self.status == "tight" else None

    @property
    def gap(self):
        if self.status != "gap":
            return None
        return self.upper - self.lower


def tightness_check(g: GraphSpec) -> TightnessResult:
    """tightness(bound_report(g))."""
    return tightness(bound_report(g))


def tightness(entries) -> TightnessResult:
    """Compare the best exact lower and upper bounds of a bound report's
    `entries`; asymptotic and floating-point entries never participate."""
    lows = [e.value for e in exact_entries(entries, "lower")]
    highs = [e.value for e in exact_entries(entries, "upper")]
    if not lows or not highs:
        return TightnessResult("unknown")
    lo, hi = max(lows), min(highs)
    return TightnessResult("tight" if lo == hi else "gap", lo, hi)
