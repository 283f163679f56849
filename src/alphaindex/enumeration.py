"""Isomorph-free generation, canonical forms, and graph6 stream ingestion.

Canonical forms are exact: two graphs receive the same form precisely when
they are isomorphic.  The labeling is found by individualization-refinement
over the equitable degree partition, comparing adjacency bitstrings in
graph6 column order and keeping the minimum.  A homogeneity shortcut
collapses the search on cells whose internal and pairwise adjacency is
complete or empty (complete multipartite-like situations), which is where
naive backtracking degenerates.

The search prunes by automorphisms, as in McKay's individualization-
refinement (J. Algorithms 26, 1998; McKay and Piperno, J. Symb. Comput.
60, 2014).  A leaf whose bitstring equals the incumbent's gives the
automorphism ``incumbent order[i] -> leaf order[i]``.  The search then
jumps back to the node where the two orders part, since that automorphism
maps the explored subtree holding the incumbent onto the current one; and
a branch node skips every target vertex in the orbit of an explored
sibling under the recorded automorphisms that fix its prefix pointwise.
Both are exact: refinement, the choice of target cell and the homogeneity
test depend only on cell sets and the consumed prefix, so an automorphism
fixing the prefix carries one sibling's subtree onto another's with the
same bitstrings.  The minimum bitstring, which alone determines the
canonical graph, is therefore the one the unpruned search would find.

Two generators are provided:

* ears - one cached cell of minimally 2-connected classes per order ``n``
  and size ``m``.  Every minimally 2-connected non-cycle graph is a cycle
  plus a sequence of open ears of length >= 2 between non-adjacent
  endpoints, and every intermediate graph of such a decomposition is itself
  minimally 2-connected (subgraphs of chord-free graphs are chord-free;
  Dirac 1967, Plummer 1968).  A cell is therefore its cycle, if ``n == m``,
  plus the chord-free results of one ear added to a class of a smaller
  cell.  Which ears keep a parent G minimal is decided once per parent,
  with no test on the child: the ear's own edges are essential, and an old
  edge xy becomes inessential exactly when the ear closes the chain of
  blocks of G - xy, that is, runs from the interior of x's end block (the
  block minus its cut vertex) to the interior of y's
  (``connectivity.chording_ears``).  The minimally 2-connected classes of
  an order are the union of its cells over ``n <= m <= 2n - 4``, those of
  a size the union over ``n <= m``.
* brute force by order, for the ``all`` and ``two_connected`` filters -
  canonical augmentation: every class on ``n`` vertices arises from a class
  on ``n - 1`` vertices plus one new vertex with some neighbourhood,
  de-duplicated by canonical form.  It is also the independent oracle for
  the ear cells in the tests.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .connectivity import chording_ears, is_minimally_two_connected_by_chords, is_two_connected
from .graphs import Graph, Graph6Error, GraphError, emit_graph6, iter_bits, parse_graph6

MAX_CANONICAL_ORDER = 20
MAX_BUILTIN_ORDER = 9
MAX_MIN2C_ORDER = 13
MAX_SIZE = 16

_FILTERS: dict[str, Callable[[Graph], bool]] = {
    "all": lambda g: True,
    "two_connected": is_two_connected,
    "minimally_two_connected": is_minimally_two_connected_by_chords,
}


class EnumerationLimitError(GraphError):
    """Requested order or size beyond the builtin generator limits."""


# -- canonical labeling ----------------------------------------------------


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string; equal for two graphs iff they are isomorphic."""
    return emit_graph6(canonical_relabel(g))


def canonical_relabel(g: Graph) -> Graph:
    """The canonically labeled copy of ``g``."""
    if g.n > MAX_CANONICAL_ORDER:
        raise EnumerationLimitError(
            f"canonical form supports n <= {MAX_CANONICAL_ORDER}, got {g.n}"
        )
    order = _canonical_order(g.n, g.rows)
    perm = [0] * g.n
    for position, v in enumerate(order):
        perm[v] = position
    return g.relabel(tuple(perm))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)


def _canonical_order(n: int, rows: tuple[int, ...]) -> list[int]:
    """Vertex order minimizing the column-major adjacency bitstring over the
    refinement-consistent search tree."""
    if n == 1:
        return [0]
    degree_keys = sorted(set(r.bit_count() for r in rows))
    rank = {d: i for i, d in enumerate(degree_keys)}
    cells = [[] for _ in degree_keys]
    for v in range(n):
        cells[rank[rows[v].bit_count()]].append(v)
    cells = _refine(n, rows, [c for c in cells if c])

    best_cols: tuple[int, ...] | None = None
    best_order: list[int] = []
    automorphisms: list[list[int]] = []

    def column(v: int, order: list[int]) -> int:
        code = 0
        for u in order:
            code = (code << 1) | ((rows[v] >> u) & 1)
        return code

    def descend(cells: list[list[int]], order: list[int], cols: list[int], beats: bool) -> int:
        """Search the subtree; return the position to resume at (``n``: carry on)."""
        nonlocal best_cols, best_order

        def take(vertices: list[int]) -> bool:
            """Append forced vertices, pruning against the incumbent."""
            nonlocal beats
            for v in vertices:
                cols.append(column(v, order))
                order.append(v)
                if not beats and best_cols is not None:
                    ref = best_cols[len(cols) - 1]
                    if cols[-1] > ref:
                        return False
                    if cols[-1] < ref:
                        beats = True
            return True

        idx = 0
        while idx < len(cells) and len(cells[idx]) == 1:
            idx += 1
        if not take([cell[0] for cell in cells[:idx]]):
            return n
        remaining = cells[idx:]
        if remaining:
            if not _homogeneous(rows, remaining):
                target, rest = remaining[0], remaining[1:]
                explored = 0
                for v in target:
                    fixing = [g for g in automorphisms if all(g[u] == u for u in order)]
                    if _orbit(v, fixing) & explored:
                        continue
                    split = [[v], [u for u in target if u != v]] + [list(c) for c in rest]
                    refined = _refine(n, rows, [c for c in split if c])
                    back = descend(refined, list(order), list(cols), beats)
                    if back < len(order):
                        return back
                    explored |= 1 << v
                return n
            # Any consistent completion yields the same bitstring.
            if not take([v for cell in remaining for v in cell]):
                return n
        leaf = tuple(cols)
        if best_cols is None or leaf < best_cols:
            best_cols, best_order = leaf, list(order)
        elif leaf == best_cols:
            # Equal leaves differ by an automorphism, which maps the subtree
            # holding the incumbent onto the one we branched into at the
            # first position where the orders part: jump back there.
            gamma = [0] * n
            for a, b in zip(best_order, order):
                gamma[a] = b
            automorphisms.append(gamma)
            return next(i for i, (a, b) in enumerate(zip(best_order, order)) if a != b)
        return n

    descend(cells, [], [], False)
    return best_order


def _orbit(v: int, generators: list[list[int]]) -> int:
    """Mask of the orbit of ``v`` under the group the permutations generate."""
    orbit, frontier = 1 << v, [v]
    while frontier:
        x = frontier.pop()
        for g in generators:
            if not (orbit >> g[x]) & 1:
                orbit |= 1 << g[x]
                frontier.append(g[x])
    return orbit


def _refine(n: int, rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Split cells in place by neighbour-colour multisets until equitable."""
    cells = [list(c) for c in cells]
    changed = True
    while changed:
        changed = False
        color = [0] * n
        for i, cell in enumerate(cells):
            for v in cell:
                color[v] = i
        for i, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            keyed: dict[tuple, list[int]] = {}
            for v in cell:
                mask = rows[v]
                key = []
                while mask:
                    low = mask & -mask
                    key.append(color[low.bit_length() - 1])
                    mask ^= low
                key.sort()
                keyed.setdefault(tuple(key), []).append(v)
            if len(keyed) > 1:
                parts = [keyed[k] for k in sorted(keyed)]
                cells[i:i + 1] = parts
                changed = True
                break
    return cells


def _homogeneous(rows: tuple[int, ...], cells: list[list[int]]) -> bool:
    masks = [_mask(c) for c in cells]
    for cell, mask in zip(cells, masks):
        if len(cell) > 1:
            want = None
            for v in cell:
                d = (rows[v] & mask).bit_count()
                if d not in (0, len(cell) - 1):
                    return False
                if want is None:
                    want = d
                elif d != want:
                    return False
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            size = len(cells[j])
            want = None
            for v in cells[i]:
                d = (rows[v] & masks[j]).bit_count()
                if d not in (0, size):
                    return False
                if want is None:
                    want = d
                elif d != want:
                    return False
    return True


def _mask(cell: list[int]) -> int:
    mask = 0
    for v in cell:
        mask |= 1 << v
    return mask


# -- by-order generation (all classes) --------------------------------------


@lru_cache(maxsize=None)
def _all_classes(n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on ``n`` vertices, canonically labeled."""
    if n == 1:
        return (Graph.from_rows([0]),)
    seen: dict[str, Graph] = {}
    for parent in _all_classes(n - 1):
        for mask in range(1 << (n - 1)):
            child = parent.add_vertex(mask)
            key = canonical_form(child)
            if key not in seen:
                seen[key] = parse_graph6(key)
    return tuple(seen[key] for key in sorted(seen))


def graphs_by_order(n: int, filter: str = "all") -> list[Graph]:
    """One canonically labeled representative per class, sorted by form.

    Minimally 2-connected classes come from the ear cells and reach
    ``MAX_MIN2C_ORDER``.  The other filters run over every class up to
    ``MAX_BUILTIN_ORDER`` (the augmentation sweep takes minutes at n = 9
    and hours at n = 10).
    """
    if filter not in _FILTERS:
        raise ValueError(f"unknown filter {filter!r}")
    if n < 1:
        raise EnumerationLimitError("order must be at least 1")
    if filter == "minimally_two_connected":
        if n > MAX_MIN2C_ORDER:
            raise EnumerationLimitError(
                f"minimally 2-connected generation stops at n = {MAX_MIN2C_ORDER}; "
                "supply a graph6 stream for larger orders"
            )
        return _union(_ear_classes(n, m) for m in range(n, max(n, 2 * n - 4) + 1))
    if n > MAX_BUILTIN_ORDER:
        raise EnumerationLimitError(
            f"builtin by-order generation stops at n = {MAX_BUILTIN_ORDER}; "
            "supply a graph6 stream for larger orders"
        )
    predicate = _FILTERS[filter]
    return [g for g in _all_classes(n) if predicate(g)]


# -- ear generation (minimally 2-connected, by order and size) ---------------


@lru_cache(maxsize=None)
def _ear_classes(n: int, m: int) -> tuple[Graph, ...]:
    """Minimally 2-connected classes of order ``n`` and size ``m``, sorted by
    canonical form.

    Each ear of length L adds L - 1 vertices and L edges, so the parents of
    a cell all sit in cells ``(n - L + 1, m - L)``, one excess edge lower.
    """
    if not 3 <= n <= m <= max(n, 2 * n - 4):
        return ()
    seen: dict[str, Graph] = {}
    if n == m:
        key = canonical_form(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
        seen[key] = parse_graph6(key)
    for length in range(2, n - 2):
        # A parent needs a non-adjacent pair, so at least 4 vertices.
        for g in _ear_classes(n - length + 1, m - length):
            full = (1 << g.n) - 1
            for u, closing in enumerate(chording_ears(g)):
                # v > u, not adjacent to u, and every old edge stays essential.
                for v in iter_bits(full & ~((2 << u) - 1) & ~(closing | g.rows[u])):
                    key = canonical_form(_add_ear(g, u, v, length))
                    if key not in seen:
                        seen[key] = parse_graph6(key)
    return tuple(seen[key] for key in sorted(seen))


def _add_ear(g: Graph, u: int, v: int, length: int) -> Graph:
    """Open ear: a u-v path with ``length`` edges through new vertices."""
    if u == v or not (0 <= u < g.n and 0 <= v < g.n) or length < 2:
        raise GraphError(f"invalid open ear ({u},{v}) of length {length}")
    rows = list(g.rows) + [0] * (length - 1)
    chain = [u, *range(g.n, g.n + length - 1), v]
    for a, b in zip(chain, chain[1:]):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph._trusted(g.n + length - 1, tuple(rows), g.m + length)


def _union(cells: Iterable[tuple[Graph, ...]]) -> list[Graph]:
    return sorted((g for cell in cells for g in cell), key=emit_graph6)


def graphs_by_size(m: int) -> list[Graph]:
    """Minimally 2-connected classes of size ``m``, sorted by canonical form.

    The order window follows from 2-connectivity (n <= m) and the edge
    bound (m <= 2n - 4 for n >= 4); an order outside it gives an empty cell.
    """
    if m < 3:
        raise EnumerationLimitError("no 2-connected graph has fewer than 3 edges")
    if m > MAX_SIZE:
        raise EnumerationLimitError(
            f"builtin by-size generation stops at m = {MAX_SIZE}; "
            "supply a graph6 stream for larger sizes"
        )
    return _union(_ear_classes(n, m) for n in range(3, m + 1))


# -- graph6 stream ingestion -------------------------------------------------


def ingest_graph6(lines: Iterable[str], filter: str = "all") -> Iterator[Graph]:
    """Parse, filter, and de-duplicate a graph6 stream.

    De-duplication uses canonical forms up to the canonical-order cap;
    larger graphs pass through untouched (the generator is trusted).
    Parse errors carry the 1-based line number.
    """
    predicate = _FILTERS[filter]
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc.message}", exc.offset) from exc
        if not predicate(g):
            continue
        if g.n <= MAX_CANONICAL_ORDER:
            key = canonical_form(g)
            if key in seen:
                continue
            seen.add(key)
        yield g


__all__ = [
    "EnumerationLimitError",
    "MAX_BUILTIN_ORDER",
    "MAX_CANONICAL_ORDER",
    "MAX_MIN2C_ORDER",
    "MAX_SIZE",
    "canonical_form",
    "canonical_relabel",
    "graphs_by_order",
    "graphs_by_size",
    "ingest_graph6",
    "is_isomorphic",
]
