"""The coverage baseline: every isomorphism class of graphs with at least
one edge on 2-5 vertices (isolated vertices included), at r = 1 and 2,
through the CLI in process. Pins which classes `auto` binds a scheme to,
how their bounds read, and where a measured rate is not an exact lower
entry of the bound report. A measured rate never passes the best
exact upper bound; a change that moves any pin re-pins it."""
import contextlib
import functools
import io
import itertools
import json
import re
from collections import Counter
from fractions import Fraction

import pytest

from graphpir.bounds import bound_report, exact_entries, tightness_check
from graphpir.cli import main
from graphpir.graphs import GraphSpec


@functools.cache
def classes() -> tuple:
    """One graph per isomorphism class, as (n, edges), the edges the
    least sorted edge tuple of any labelling of the class."""
    out = []
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        seen = set()
        for k in range(1, len(pairs) + 1):
            for edges in itertools.combinations(pairs, k):
                canon = min(
                    tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges))
                    for p in itertools.permutations(range(1, n + 1)))
                if canon not in seen:
                    seen.add(canon)
                    out.append((n, canon))
    return tuple(out)


def test_there_are_47_classes():
    assert Counter(n for n, _ in classes()) == {2: 1, 3: 3, 4: 10, 5: 33}


def cli(*argv):
    """(exit code, stdout) of the CLI; an uncaught exception, which would
    print a traceback, fails the test."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


# per r: (auto binds a scheme, tightness status) -> number of classes
COUNTS = {
    1: {(False, "tight"): 1, (False, "unknown"): 28,
        (True, "gap"): 8, (True, "tight"): 10},
    2: {(False, "gap"): 3, (False, "unknown"): 28,
        (True, "gap"): 10, (True, "tight"): 6},
}

# (n, edges) -> measured rate at r = 1 and r = 2, where that rate is
# not an exact lower entry of bound_report: none, as `bounds` recognises
# a path or star beside isolated vertices where `auto` binds one.
KNOWN_GAPS = {}
# of those, the ones whose rate already equals the best exact upper bound
AT_THE_UPPER_BOUND = set()

# per r, the classes whose measured rate lies below the best exact lower
# bound: C4 at r = 1, where compose-stars measures 1/3 and the bound is
# the external cycle scheme's 2/5, a formula with no scheme here
BELOW_THE_BEST_LOWER = {1: {(4, ((1, 2), (1, 3), (2, 4), (3, 4)))}, 2: set()}


@pytest.mark.parametrize("r", (1, 2))
def test_every_small_graph_gets_a_verdict_or_a_clear_refusal(r):
    counts, gaps, at_upper, below = Counter(), {}, set(), set()
    for n, edges in classes():
        graph = json.dumps({"n": n, "edges": [list(e) for e in edges], "multiplicity": r})
        codes = [cli("bounds", "--graph", graph)[0],
                 cli("verify", "--graph", graph, "--seeds", "3")[0]]
        code, out = cli("run", "--graph", graph, "--theta", "1")
        codes.append(code)
        assert set(codes) <= {0, 2, 3}, (graph, codes)
        g = GraphSpec(n, edges, r)
        bound = code == 0
        # verify exits as run does: 0 where a scheme binds, 2 where none does
        assert codes[1] == codes[2], graph
        counts[bound, tightness_check(g).status] += 1
        if not bound:
            continue
        rate = Fraction(re.search(r"^rate (\S+)$", out, re.M).group(1))
        entries = bound_report(g)
        lows = [e.value for e in exact_entries(entries, "lower")]
        highs = [e.value for e in exact_entries(entries, "upper")]
        assert all(rate <= v for v in highs), graph
        if lows and rate < max(lows):
            below.add((n, edges))
        if rate not in lows:
            gaps[n, edges] = str(rate)
            if highs and rate == min(highs):
                at_upper.add((n, edges))
    assert counts == COUNTS[r]
    assert gaps == {k: rates[r - 1] for k, rates in KNOWN_GAPS.items()}
    assert at_upper == AT_THE_UPPER_BOUND
    assert below == BELOW_THE_BEST_LOWER[r]
