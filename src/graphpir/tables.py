"""Reference tables: capacity bound grids and worked answer tables.

Tables I and II are views of `bound_report`: each row names a graph and,
per cell, the source of the one applicable entry it shows, so a table
cell and `graphpir bounds` on that graph cannot disagree.

The two answer tables are rendered from actual scheme runs with
degenerate randomness (identity permutations, first-choice pool) and
with the wire kept in construction order, so the layout lines up with
the derivation order: subset bits then pair bits for the complete
graph, stage instances in stage order for the lifted path.
"""
from __future__ import annotations

from .bounds import bound_report
from .core import FileId, Transcript
from .graphs import build_family, parse_graph
from .lift import lift_scheme
from .rng import CanonicalSource
from .schemes import bind, build

_PRIMES = ("", "'", "''", "'''")


def _sym(letter_by_edge, f: FileId, idx: int) -> str:
    return "%s%s_%d" % (letter_by_edge[f.edge], _PRIMES[f.copy - 1], idx)


def form_symbols(form, letter_by_edge) -> str:
    return "+".join(_sym(letter_by_edge, f, b) for f, b in sorted(form))


def answer_grid(t: Transcript, letter_by_edge) -> list[list[str]]:
    """Rows = request position, columns = servers."""
    depth = max(len(s) for s in t.requests)
    grid = []
    for row in range(depth):
        grid.append(
            [
                form_symbols(server[row], letter_by_edge)
                if row < len(server)
                else ""
                for server in t.requests
            ]
        )
    return grid


def md_table(headers: list[str], rows: list[list[str]]) -> str:
    """A markdown table of `rows` under `headers`."""
    out = ["| " + " | ".join(headers) + " |"]
    out.append("| " + " | ".join("---" for _ in headers) + " |")
    for r in rows:
        out.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(out)


def table_three() -> dict:
    """Answer table of the complete-graph scheme on three servers, one
    grid per desired pair."""
    g = build_family("complete", [3])
    letters = {1: "a", 2: "b", 3: "c"}
    out = {}
    for e, (i, ip) in enumerate(g.edges, start=1):
        t = build(
            bind("complete", g), g, e, CanonicalSource(),
            identity_perms=True, wire_key=None,
        )
        out["theta=(%d,%d)" % (i, ip)] = answer_grid(t, letters)
    return out


def table_four() -> dict:
    """Answer table of the lifted path scheme on path:3^2, one grid per
    desired (edge, copy)."""
    g = build_family("path", [3], 2)
    letters = {1: "a", 2: "b"}
    out = {}
    for e in (1, 2):
        for j in (1, 2):
            t = lift_scheme(
                "path", g, FileId(e, j), CanonicalSource(),
                identity_perms=True, wire_key=None,
            )
            out["theta=(%d,%d)" % (e, j)] = answer_grid(t, letters)
    return out


def _grid(family, params, graph, lower, upper, values):
    """Row specs (family, params, graph text, lower source, upper
    source), one per tuple of `values`, which fill the {} fields."""
    return [(family, params.format(*v), graph.format(*v), lower, upper) for v in values]


_NR = [(n, r) for n in (3, 4, 5) for r in (2, 3)]
BOUND_ROWS = {
    "tableI": _grid("path", "N={0}", "path:{0}", "path scheme", "path capacity",
                    [(n,) for n in range(2, 9)])
    + _grid("star", "leaves={0}", "star:{1}", "star scheme", "star upper bound",
            [(k, k + 1) for k in (2, 3, 4, 5)])
    + _grid("complete_bipartite", "M={0},N={1}", "complete_bipartite:{0},{1}",
            "complete bipartite lower", "complete bipartite upper",
            [(2, 2), (2, 3), (3, 3)])
    + _grid("complete", "N={0}", "complete:{0}", "complete-graph scheme",
            "complete-graph capacity", [(n,) for n in (3, 4, 5, 6)]),
    # multi-path upper: a capacity for even N, an upper bound for odd N
    "tableII": _grid("multi-path", "N={0},r={1}", "path:{0}^{1}", "multi-path lift",
                     "multi-path", _NR + [(6, 2), (6, 3)])
    + _grid("multi-cycle", "N={0},r={1}", "cycle:{0}^{1}", "multi-cycle lift",
            "multi-cycle upper", _NR)
    + _grid("multi-star", "leaves={0},r={1}", "star:{2}^{1}", "trivial star lift",
            "multi-star upper", [(k, r, k + 1) for k in (2, 3, 4) for r in (2, 3)])
    + _grid("complete-multigraph", "N={0},r={1}", "complete:{0}^{1}",
            "complete-graph lift", "complete multigraph upper", _NR),
}


def bound_row(family, params, graph, lower, upper) -> list[str]:
    """[family, params, lower, upper]: each bound is the one applicable
    bound_report entry of its kind whose source starts with the row's
    text; floats print as %.6f, Fractions as themselves."""
    entries = bound_report(parse_graph(graph))
    row = [family, params]
    for kind, source in (("lower", lower), ("upper", upper)):
        hits = [e.value for e in entries
                if e.kind == kind and e.applicable and e.source.startswith(source)]
        if len(hits) != 1:
            raise LookupError("%s has %d applicable %s bounds from %r"
                              % (graph, len(hits), kind, source))
        row.append("%.6f" % hits[0] if isinstance(hits[0], float) else str(hits[0]))
    return row


def render_table(name: str) -> str:
    if name in BOUND_ROWS:
        rows = [bound_row(*spec) for spec in BOUND_ROWS[name]]
        if name == "tableI":
            rows.append(["general", "", "same as complete", "min(Delta/|E|, 1/nu)"])
        return md_table(["family", "params", "lower", "upper"], rows)
    if name in ("tableIII", "tableIV"):
        grids = table_three() if name == "tableIII" else table_four()
        blocks = []
        for key, grid in grids.items():
            headers = ["%s" % key] + [
                "S_%d" % s for s in range(1, len(grid[0]) + 1)
            ]
            rows = [[str(rix + 1)] + row for rix, row in enumerate(grid)]
            blocks.append(md_table(headers, rows))
        return "\n\n".join(blocks)
    raise ValueError("unknown table %r" % name)
