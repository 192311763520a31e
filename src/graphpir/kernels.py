"""Scheme kernels: query/plan shapes over abstract file symbols.

A kernel describes one run of a retrieval scheme with all index
randomization factored out: coordinates are (symbol, position) pairs
where positions live in permuted index space. A kernel treats its
symbols as opaque; the binding (`schemes.kernel_factory`) hands it the
copy-1 file FileId(e, 1) of each edge e it covers. Every scheme's run
is a KernelRun: a composite factory joins its parts' runs into one
(positions get a repetition offset), a lifted factory joins its
stages' base runs into one (each symbol's edge names a virtual file
that expands into real coordinates), and `schemes.build` turns any
run into a transcript through fresh uniform permutations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class KernelRun:
    # (server, form) with form a frozenset of (symbol, position)
    requests: tuple[tuple[int, frozenset], ...]
    # plan[m-1] = indices into `requests` whose XOR is the desired (symbol, m)
    plan: tuple[frozenset, ...]


def path_kernel(
    vertices: Sequence[int],
    symbols: Sequence,
    theta_pos: int,
) -> KernelRun:
    """One run of the path scheme on vertices in path order.

    Server order[0] asks position 1 of the first edge; interior server k
    asks the sum of its two incident edges, at position 1 up to the
    desired edge and position 2 after it; the far end asks position 2 of
    the last edge. Half 1 is the XOR of the servers up to theta, half 2
    the XOR of the rest.
    """
    n = len(vertices)
    if n < 2 or len(symbols) != n - 1:
        raise ValueError("path kernel needs n >= 2 vertices and n-1 symbols")
    if not 1 <= theta_pos <= n - 1:
        raise ValueError("theta position out of range")
    requests = []
    for k in range(1, n + 1):
        if k == 1:
            form = frozenset({(symbols[0], 1)})
        elif k == n:
            form = frozenset({(symbols[n - 2], 2)})
        elif k <= theta_pos:
            form = frozenset({(symbols[k - 2], 1), (symbols[k - 1], 1)})
        else:
            form = frozenset({(symbols[k - 2], 2), (symbols[k - 1], 2)})
        requests.append((vertices[k - 1], form))
    plan = (
        frozenset(range(theta_pos)),
        frozenset(range(theta_pos, n)),
    )
    return KernelRun(tuple(requests), plan)


def star_kernel(
    center: int,
    leaves: Sequence[int],
    symbols: Sequence,
    theta_pos: int,
) -> KernelRun:
    """One run of the trivial star scheme.

    The center returns the sum of position 1 of every file; each
    non-desired leaf returns position 1 of its own file; the desired leaf
    returns position 2. Half 1 comes from the center plus the other
    leaves, half 2 from the desired leaf.
    """
    if len(leaves) != len(symbols) or not symbols:
        raise ValueError("star kernel needs one symbol per leaf")
    if not 1 <= theta_pos <= len(symbols):
        raise ValueError("theta position out of range")
    requests = [(center, frozenset((s, 1) for s in symbols))]
    for i, leaf in enumerate(leaves, start=1):
        pos = 2 if i == theta_pos else 1
        requests.append((leaf, frozenset({(symbols[i - 1], pos)})))
    plan = (
        frozenset({0} | {i for i in range(1, len(leaves) + 1) if i != theta_pos}),
        frozenset({theta_pos}),
    )
    return KernelRun(tuple(requests), plan)
