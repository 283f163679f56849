"""The named graph families, built from their text with orbit data.

:func:`build` parses a family's text and returns the graph with a
partition of its vertices into blocks, each inside one automorphism orbit,
so Perron-coordinate symmetry can be checked block by block.  A block need
not be a whole orbit: ``SK2,2`` is C5, whose five vertices form one orbit
split over three blocks, and ``G1,b`` is isomorphic to ``SK2,b+1``, whose
hubs are the hub 0 and v2 of ``G1,b``.

Layouts:

* ``K{a},{b}``  - side A is 0..a-1, side B is a..a+b-1.
* ``SK2,{k}``   - hubs 0 and 1, subdivided-edge path 0-2-3-1, and k-1
  common neighbours 4..k+2 of the hubs (order k+3, size 2k+1).
* ``G{a},{b}``  - hub 0 adjacent to spokes 1..a+b; v1 = a+b+1 adjacent to
  spokes 1..a, v2 = a+b+2 adjacent to the rest, plus the edge v1 v2
  (order a+b+3, size 2(a+b)+1).
* ``C{n}``      - the n-cycle 0-1-...-n-1-0.
"""

from __future__ import annotations

import re

from .graphs import Graph

_FAMILY_RE = re.compile(r"(SK2,|K|G|C)(\d+)(?:,(\d+))?")

# Spectra come from dense n x n matrices, so a family text naming a larger
# order is refused before its edge list is built.  The largest member a
# campaign builds is K12,12 (lemma9).
MAX_FAMILY_ORDER = 1000


def build(text: str) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """The family member named by ``text`` (K{a},{b}, SK2,{k}, G{a},{b} or
    C{n}, surrounding spaces and leading zeros allowed) and its blocks."""
    match = _FAMILY_RE.fullmatch(text.strip())
    # K and G take two parameters, SK2 and C one.
    if not match or (match[1] in ("K", "G")) != (match[3] is not None):
        raise ValueError(f"unrecognized family syntax {text!r}")
    kind = match[1]
    params = [int(p) for p in match.groups()[1:] if p is not None]
    order = sum(params) + (3 if kind in ("SK2,", "G") else 0)
    if order > MAX_FAMILY_ORDER:
        raise ValueError(f"{text.strip()} has order {order}; families stop at {MAX_FAMILY_ORDER}")
    if kind == "K":
        a, b = params
        if a < 1 or b < 1:
            raise ValueError("complete bipartite sides must be at least 1")
        g = Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        if a == b:
            return g, (tuple(range(a + b)),)
        return g, (tuple(range(a)), tuple(range(a, a + b)))
    if kind == "SK2,":
        (k,) = params
        if k < 2:
            raise ValueError("subdivided K_{2,k} needs k >= 2")
        edges = [(0, 2), (2, 3), (3, 1)]
        edges += [(0, c) for c in range(4, k + 3)]
        edges += [(1, c) for c in range(4, k + 3)]
        return Graph.from_edges(k + 3, edges), ((0, 1), (2, 3), tuple(range(4, k + 3)))
    if kind == "G":
        a, b = params
        if not 1 <= a <= b:
            raise ValueError("G(a,b) needs 1 <= a <= b")
        v1, v2 = a + b + 1, a + b + 2
        edges = [(0, i) for i in range(1, a + b + 1)]
        edges += [(v1, i) for i in range(1, a + 1)]
        edges += [(v2, i) for i in range(a + 1, a + b + 1)]
        edges.append((v1, v2))
        g = Graph.from_edges(a + b + 3, edges)
        if a == b:
            return g, ((0,), tuple(range(1, 2 * a + 1)), (v1, v2))
        return g, ((0,), tuple(range(1, a + 1)), tuple(range(a + 1, a + b + 1)), (v1,), (v2,))
    (n,) = params
    if n < 3:
        raise ValueError("cycles need n >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]), (tuple(range(n)),)


def complete_bipartite(a: int, b: int) -> Graph:
    return build(f"K{a},{b}")[0]


def subdivided_k2(k: int) -> Graph:
    return build(f"SK2,{k}")[0]


def gab(a: int, b: int) -> Graph:
    return build(f"G{a},{b}")[0]


def cycle(n: int) -> Graph:
    return build(f"C{n}")[0]
