"""Simple undirected graphs with bitrow adjacency and graph6 interchange.

Vertices are dense 0-based integers.  The adjacency of vertex ``v`` is one
machine integer whose bit ``u`` is set when ``uv`` is an edge, which makes
neighbourhood intersection (triangle and chord tests) a single ``&``.
Graphs are immutable values: every edit returns a new graph and never
touches its input, so enumeration and edge-deletion sweeps can share them
freely across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Structural precondition violated (bad vertex, non-edge, ...)."""


class NonEdgeError(GraphError):
    """Edge operation applied to a pair that is not an edge (or already is one)."""


class Graph6Error(GraphError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``rows[v]`` is the neighbour bitmask of ``v``; ``m`` is the edge count.
    Loop-freeness and symmetry are enforced at construction time.  Edits
    check their arguments and build their result through ``_trusted``,
    which skips that check: a valid graph edited by valid arguments is
    valid by construction.
    """

    n: int
    rows: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("graph must have at least one vertex")
        if len(self.rows) != self.n:
            raise GraphError("adjacency rows do not match vertex count")
        full = (1 << self.n) - 1
        twice_m = 0
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise GraphError(f"row {v} has bits outside the vertex range")
            if (row >> v) & 1:
                raise GraphError(f"self-loop at vertex {v}")
            twice_m += row.bit_count()
        for v in range(self.n):
            for u in iter_bits(self.rows[v]):
                if not (self.rows[u] >> v) & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")
        if twice_m != 2 * self.m:
            raise GraphError("cached edge count disagrees with adjacency")

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...], m: int) -> "Graph":
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        object.__setattr__(g, "m", m)
        return g

    @classmethod
    def from_rows(cls, rows: Iterable[int]) -> "Graph":
        rows = tuple(rows)
        m = sum(r.bit_count() for r in rows) // 2
        return cls(len(rows), rows, m)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"vertex out of range in edge ({u},{v})")
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls.from_rows(rows)

    # -- queries ---------------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.rows[u] >> (u + 1)
            for k in iter_bits(row):
                yield (u, u + 1 + k)

    # -- edits (value semantics) -----------------------------------------

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"invalid vertex pair ({u},{v})")
        if self.adjacent(u, v):
            raise NonEdgeError(f"({u},{v}) is already an edge")
        rows = list(self.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._trusted(self.n, tuple(rows), self.m + 1)

    def remove_edge(self, u: int, v: int) -> "Graph":
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"invalid vertex pair ({u},{v})")
        if not self.adjacent(u, v):
            raise NonEdgeError(f"({u},{v}) is not an edge")
        rows = list(self.rows)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._trusted(self.n, tuple(rows), self.m - 1)

    def add_vertex(self, neighbors: int = 0) -> "Graph":
        """New graph with vertex ``n`` joined to the bitmask ``neighbors``."""
        if neighbors & ~((1 << self.n) - 1):
            raise GraphError("neighbor mask outside existing vertices")
        rows = [r | (((neighbors >> v) & 1) << self.n) for v, r in enumerate(self.rows)]
        rows.append(neighbors)
        return Graph._trusted(self.n + 1, tuple(rows), self.m + neighbors.bit_count())

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Image under ``perm``: vertex ``v`` of self becomes ``perm[v]``."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("relabeling is not a permutation")
        rows = [0] * self.n
        for v in range(self.n):
            pv = perm[v]
            row = 0
            for u in iter_bits(self.rows[v]):
                row |= 1 << perm[u]
            rows[pv] = row
        return Graph._trusted(self.n, tuple(rows), self.m)


@dataclass(frozen=True)
class VertexProfile:
    """Degree sequence together with its extremes."""

    degrees: tuple[int, ...]
    min_degree: int
    max_degree: int


def profile(g: Graph) -> VertexProfile:
    degs = g.degrees()
    prof = VertexProfile(degs, min(degs), max(degs))
    if sum(degs) != 2 * g.m:
        raise GraphError("degree sum disagrees with edge count")
    return prof


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- graph6 interchange ---------------------------------------------------
#
# Header byte 63+n for n <= 62, or '~' plus three 6-bit chunks for larger
# orders.  Payload: upper-triangle bits x(0,1), x(0,2), x(1,2), x(0,3), ...
# packed big-endian six to a byte, each byte offset by 63, padding bits zero.

_G6_LONG_LIMIT = 258047


def emit_graph6(g: Graph) -> str:
    if g.n > _G6_LONG_LIMIT:
        raise GraphError(f"order {g.n} exceeds the graph6 long-form limit")
    if g.n <= 62:
        header = chr(63 + g.n)
    else:
        header = "~" + "".join(
            chr(63 + ((g.n >> shift) & 0x3F)) for shift in (12, 6, 0)
        )
    payload = []
    acc = 0
    nbits = 0
    for v in range(1, g.n):
        col = g.rows[v]
        for u in range(v):
            acc = (acc << 1) | ((col >> u) & 1)
            nbits += 1
            if nbits == 6:
                payload.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        payload.append(chr(63 + acc))
    return header + "".join(payload)


def parse_graph6(text: str) -> Graph:
    line = text.rstrip("\n")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise Graph6Error("empty graph6 string", 0)
    data = [ord(c) - 63 for c in line]
    for i, value in enumerate(data):
        if not 0 <= value <= 63:
            raise Graph6Error(f"character {line[i]!r} outside graph6 range", i)
    if data[0] == 63:  # '~' long-form size prefix
        if len(data) < 4:
            raise Graph6Error("truncated long-form order", len(line))
        if data[1] == 63:
            raise Graph6Error("8-byte graph6 orders are not supported", 1)
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        if n <= 62:
            raise Graph6Error("long-form used for an order that fits one byte", 0)
        pos = 4
    else:
        n = data[0]
        if n < 1:
            raise Graph6Error("order must be at least 1", 0)
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6Error("truncated bit payload", len(line))
    if len(data) - pos > nbytes:
        raise Graph6Error("trailing bytes after bit payload", pos + nbytes)
    rows = [0] * n
    acc = left = 0  # current byte, and its bits not yet read
    i = pos
    for v in range(1, n):
        for u in range(v):
            if not left:
                acc = data[i]
                i += 1
                left = 6
            left -= 1
            if (acc >> left) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    if acc & ((1 << left) - 1):
        raise Graph6Error("nonzero padding bits", i - 1)
    return Graph.from_rows(rows)

