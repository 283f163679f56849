"""Parametric constructors for the named graph families, with orbit data.

Each builder fixes an explicit vertex layout and pairs the graph with a
partition of its vertices into blocks, each inside one automorphism orbit,
so Perron-coordinate symmetry can be checked block by block.

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
from dataclasses import dataclass

from .graphs import Graph


@dataclass(frozen=True)
class FamilyId:
    kind: str  # "K" | "SK2" | "G" | "C"
    params: tuple[int, ...]

    def __str__(self) -> str:
        if self.kind == "K":
            return f"K{self.params[0]},{self.params[1]}"
        if self.kind == "SK2":
            return f"SK2,{self.params[0]}"
        if self.kind == "G":
            return f"G{self.params[0]},{self.params[1]}"
        return f"C{self.params[0]}"


@dataclass(frozen=True)
class OrbitPartition:
    """Blocks that each lie inside one automorphism orbit.

    A block need not be a whole orbit: ``SK2,2`` is C5, whose five vertices
    form one orbit split over three blocks, and ``G1,b`` is isomorphic to
    ``SK2,b+1``, whose hubs are the hub 0 and v2 of ``G1,b``.
    """

    blocks: tuple[tuple[int, ...], ...]


_FAMILY_RE = re.compile(
    r"^(?:SK2,(?P<sk>\d+)|K(?P<ka>\d+),(?P<kb>\d+)|G(?P<ga>\d+),(?P<gb>\d+)|C(?P<cn>\d+))$"
)


def parse_family(text: str) -> FamilyId:
    """Parse the CLI syntax: K{a},{b}, SK2,{k}, G{a},{b}, C{n}."""
    match = _FAMILY_RE.match(text.strip())
    if not match:
        raise ValueError(f"unrecognized family syntax {text!r}")
    if match.group("sk") is not None:
        return FamilyId("SK2", (int(match.group("sk")),))
    if match.group("ka") is not None:
        return FamilyId("K", (int(match.group("ka")), int(match.group("kb"))))
    if match.group("ga") is not None:
        return FamilyId("G", (int(match.group("ga")), int(match.group("gb"))))
    return FamilyId("C", (int(match.group("cn")),))


def build(fid: FamilyId) -> tuple[Graph, OrbitPartition]:
    if fid.kind == "K":
        a, b = fid.params
        if a < 1 or b < 1:
            raise ValueError("complete bipartite sides must be at least 1")
        g = Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        if a == b:
            blocks = (tuple(range(a + b)),)
        else:
            blocks = (tuple(range(a)), tuple(range(a, a + b)))
        return g, OrbitPartition(blocks)
    if fid.kind == "SK2":
        (k,) = fid.params
        if k < 2:
            raise ValueError("subdivided K_{2,k} needs k >= 2")
        edges = [(0, 2), (2, 3), (3, 1)]
        edges += [(0, c) for c in range(4, k + 3)]
        edges += [(1, c) for c in range(4, k + 3)]
        g = Graph.from_edges(k + 3, edges)
        blocks = ((0, 1), (2, 3), tuple(range(4, k + 3)))
        return g, OrbitPartition(blocks)
    if fid.kind == "G":
        a, b = fid.params
        if not 1 <= a <= b:
            raise ValueError("G(a,b) needs 1 <= a <= b")
        v1, v2 = a + b + 1, a + b + 2
        edges = [(0, i) for i in range(1, a + b + 1)]
        edges += [(v1, i) for i in range(1, a + 1)]
        edges += [(v2, i) for i in range(a + 1, a + b + 1)]
        edges.append((v1, v2))
        g = Graph.from_edges(a + b + 3, edges)
        if a == b:
            blocks = ((0,), tuple(range(1, 2 * a + 1)), (v1, v2))
        else:
            blocks = (
                (0,),
                tuple(range(1, a + 1)),
                tuple(range(a + 1, a + b + 1)),
                (v1,),
                (v2,),
            )
        return g, OrbitPartition(blocks)
    if fid.kind == "C":
        (n,) = fid.params
        if n < 3:
            raise ValueError("cycles need n >= 3")
        g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        return g, OrbitPartition((tuple(range(n)),))
    raise ValueError(f"unknown family kind {fid.kind!r}")


def complete_bipartite(a: int, b: int) -> Graph:
    return build(FamilyId("K", (a, b)))[0]


def subdivided_k2(k: int) -> Graph:
    return build(FamilyId("SK2", (k,)))[0]


def gab(a: int, b: int) -> Graph:
    return build(FamilyId("G", (a, b)))[0]


def cycle(n: int) -> Graph:
    return build(FamilyId("C", (n,)))[0]
