"""Capacity bound formulas and per-graph bound reports.

Rates and bounds are exact rationals wherever the formula is rational;
square-root formulas are evaluated in floating point, flagged inexact,
and kept out of exact tightness claims.
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
)


@dataclass(frozen=True)
class BoundEntry:
    kind: str  # "lower" or "upper"
    value: object  # Fraction, or float for square-root formulas
    exact: bool
    source: str
    applicable: bool = True
    reason: str = ""
    asymptotic: bool = False

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
    return min(
        Fraction(max_degree(g), g.n_base_edges),
        Fraction(1, matching_number(g)),
    )


def bound_report(g: GraphSpec) -> list[BoundEntry]:
    r = g.multiplicity
    base = g.base()
    n = g.n_vertices
    fam = classify_family(base)
    disc = discount(r)
    entries: list[BoundEntry] = []

    def lb(value, source, **kw):
        entries.append(BoundEntry("lower", value, isinstance(value, Fraction), source, **kw))

    def ub(value, source, **kw):
        entries.append(BoundEntry("upper", value, isinstance(value, Fraction), source, **kw))

    if "path" in fam:
        if r == 1:
            lb(path_rate(n), "path scheme")
            ub(path_rate(n), "path capacity")
        else:
            lb(path_rate(n) / disc, "multi-path lift")
            if n % 2 == 0:
                ub(path_rate(n) / disc, "multi-path capacity (N even)")
            else:
                ub(Fraction(2, n - 1) / disc, "multi-path upper bound (N odd)")

    if "cycle" in fam:
        if r == 1:
            lb(cycle_rate(n), "cycle scheme (external, formula only)")
            ub(cycle_rate(n), "cycle capacity")
        else:
            lb(cycle_rate(n) / disc, "multi-cycle lift (external base, formula only)")
            ub(Fraction(2, n) / disc, "multi-cycle upper bound")

    if "star" in fam:
        leaves = n - 1
        if r == 1:
            lb(star_trivial_rate(n), "trivial star scheme")
            lb(kmn_lower(1, leaves), "star scheme (external, formula only)")
            ub(kmn_upper(1, leaves), "star upper bound")
        else:
            lb(star_trivial_rate(n) / disc, "trivial star lift")
            ub(1 / disc, "multi-star upper bound")

    if "complete_bipartite" in fam and "star" not in fam and r == 1:
        m, nl = fam["complete_bipartite"]
        lb(compose_stars_rate(m, nl), "star composition")
        lb(kmn_lower(m, nl), "complete bipartite lower bound")
        ub(kmn_upper(m, nl), "complete bipartite upper bound")

    if "complete" in fam and n >= 3:
        if r == 1:
            lb(complete_scheme_rate(n), "complete-graph scheme")
            ub(cycle_rate(n), "complete-graph capacity upper bound")
        else:
            lb(complete_scheme_rate(n) / disc, "complete-graph lift")
            ub(hamiltonian_vt_upper(n, r), "complete multigraph upper bound")

    try:
        gub = general_upper(base)
    except GraphSpecError as exc:
        entries.append(
            BoundEntry("upper", None, False, "general graph upper bound",
                       applicable=False, reason=str(exc))
        )
    else:
        if r == 1:
            ub(gub, "general graph upper bound")
        else:
            ub(gub / disc, "multigraph upper bound")

    ham = hamiltonian_vt_upper(n, r)
    if "hamiltonian_vertex_transitive" in g.flags:
        ub(ham, "Hamiltonian vertex-transitive upper bound")
    else:
        entries.append(
            BoundEntry("upper", ham, True, "Hamiltonian vertex-transitive upper bound",
                       applicable=False,
                       reason="graph not flagged hamiltonian_vertex_transitive")
        )

    if r >= 2:
        base_lbs = [
            e.value
            for e in bound_report(base)
            if e.kind == "lower" and e.exact and e.applicable and not e.asymptotic
        ]
        if base_lbs:
            lb(max(base_lbs) / r, "base capacity candidate / r")

    lb(Fraction(1, n), "asymptotic capacity", asymptotic=True)

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
    """Compare best exact lower and upper bounds; asymptotic and
    floating-point entries never participate."""
    entries = bound_report(g)
    lows = [
        e.value
        for e in entries
        if e.kind == "lower" and e.exact and e.applicable and not e.asymptotic
    ]
    highs = [
        e.value
        for e in entries
        if e.kind == "upper" and e.exact and e.applicable and not e.asymptotic
    ]
    if not lows or not highs:
        return TightnessResult("unknown")
    lo, hi = max(lows), min(highs)
    return TightnessResult("tight" if lo == hi else "gap", lo, hi)
