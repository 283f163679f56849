"""Simple undirected graphs with bitrow adjacency and graph6 interchange.

Vertices are dense 0-based integers.  The adjacency of vertex ``v`` is one
machine integer whose bit ``u`` is set when ``uv`` is an edge, which makes
neighbourhood intersection (triangle and chord tests) a single ``&``.
Graphs are immutable values: every edit returns a new graph and never
touches its input, so enumeration and edge-deletion sweeps can share them
freely.
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
    valid by construction, and so is a graph ``parse_graph6`` decodes or
    ``from_edges`` builds from edges it has checked.
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
        if n < 1:
            raise GraphError("graph must have at least one vertex")
        # Symmetric and loop-free by construction, as with the edits.
        return cls._trusted(n, tuple(rows), sum(r.bit_count() for r in rows) // 2)

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
# Each data character -> its six payload bits, the first one last, so that
# the reversed payload reads as one binary integer in stream order.
_G6_BITS = str.maketrans({chr(63 + k): format(k, "06b")[::-1] for k in range(64)})


def emit_graph6(g: Graph) -> str:
    if g.n > _G6_LONG_LIMIT:
        raise GraphError(f"order {g.n} exceeds the graph6 long-form limit")
    if g.n <= 62:
        header = chr(63 + g.n)
    else:
        header = "~" + "".join(
            chr(63 + ((g.n >> shift) & 0x3F)) for shift in (12, 6, 0)
        )
    # The payload as parse_graph6 reads it: one integer whose bit k is
    # stream bit k, column v the v-bit field after columns 1..v-1.
    payload = 0
    for v in range(g.n - 1, 0, -1):
        payload = (payload << v) | (g.rows[v] & ((1 << v) - 1))
    nbits = 6 * ((g.n * (g.n - 1) // 2 + 5) // 6)
    stream = format(payload, f"0{nbits}b")[::-1]  # stream order, zero padding last
    return header + "".join(chr(63 + int(stream[i:i + 6], 2)) for i in range(0, nbits, 6))


def parse_graph6(text: str) -> Graph:
    line = text.rstrip("\n")
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise Graph6Error("empty graph6 string", 0)
    if not "?" <= min(line) or not max(line) <= "~":
        i = next(i for i, c in enumerate(line) if not "?" <= c <= "~")
        raise Graph6Error(f"character {line[i]!r} outside graph6 range", i)
    if line[0] == "~":  # long-form size prefix
        if len(line) < 4:
            raise Graph6Error("truncated long-form order", len(line))
        if line[1] == "~":
            raise Graph6Error("8-byte graph6 orders are not supported", 1)
        n = ((ord(line[1]) - 63) << 12) | ((ord(line[2]) - 63) << 6) | (ord(line[3]) - 63)
        if n <= 62:
            raise Graph6Error("long-form used for an order that fits one byte", 0)
        pos = 4
    else:
        n = ord(line[0]) - 63
        if n < 1:
            raise Graph6Error("order must be at least 1", 0)
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(line) - pos < nbytes:
        raise Graph6Error("truncated bit payload", len(line))
    if len(line) - pos > nbytes:
        raise Graph6Error("trailing bytes after bit payload", pos + nbytes)
    # The payload as one integer whose bit k is the k-th bit of the stream:
    # column v is then the next v-bit field, bit u of it the edge uv.
    payload = int(line[:pos - 1:-1].translate(_G6_BITS) or "0", 2)
    if payload >> nbits:
        raise Graph6Error("nonzero padding bits", pos + nbytes - 1)
    rows = [0] * n
    m = 0
    for v in range(1, n):
        column = payload & ((1 << v) - 1)
        payload >>= v
        rows[v] = column
        m += column.bit_count()
        mirror = 1 << v
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= mirror
            column ^= low
    # Symmetric and loop-free by construction, as with the edits.
    return Graph._trusted(n, tuple(rows), m)
