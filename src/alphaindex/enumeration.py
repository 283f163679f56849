"""Isomorph-free generation, canonical forms, and graph6 stream ingestion.

Canonical forms are exact: two graphs receive the same form precisely when
they are isomorphic.  Labeling is individualization-refinement (McKay,
J. Algorithms 26, 1998; McKay and Piperno, J. Symb. Comput. 60, 2014) over
one search tree, rooted at the equitable refinement of the unit partition.
A node fixes, in order, the vertex of each leading singleton cell
(``_node``).  If the cells that remain are homogeneous - each cell's
internal adjacency and each pair of cells' adjacency complete or empty,
where naive backtracking degenerates - every consistent completion yields
the same bitstring, so the node fixes them too and is a leaf.  Otherwise
it branches on the first remaining cell: the child for ``v`` splits ``v``
off in front of the rest of its cell and refines (``_individualize``).  A
leaf's bitstring is each vertex's adjacency to the vertices fixed before
it, one graph6 column code per position.  Refinement, the target cell and
the homogeneity test depend only on cell sets and the fixed prefix, so an
isomorphism carries one graph's tree onto the other's, bitstrings and all.

The tree is walked two ways.

* The search (``_canonical_order``) backtracks to the minimum leaf, which
  alone determines the canonical graph, pruning by automorphisms.  A leaf
  whose bitstring equals the incumbent's gives the automorphism
  ``incumbent order[i] -> leaf order[i]``; the search jumps back to the
  node where the two orders part, since that automorphism maps the
  explored subtree holding the incumbent onto the current one.  A branch
  node skips every target vertex in the orbit of an explored sibling
  under the recorded automorphisms that fix its prefix pointwise.  Both
  are exact, so the minimum is the one the unpruned search would find.
  ``_canonical`` is the one labeling entry.
* The match (``_matches``) tests a graph against a stored class's minimum
  bitstring, its target (testing isomorphism against a known leaf, as in
  McKay and Piperno 2014), comparing each column code with the target's.
  A larger code prunes the child; a smaller one means the graph's minimum
  lies below the target, so it is not in the class; and a branch node
  commits to the first child whose fixed vertices keep the prefix equal
  and never leaves it, so a failed match costs O(n |cell|) refinements.
  A complete equal leaf is an isomorphism onto the class's canonical
  graph, so a match is exact; a miss is possible, since the committed
  child may hold no equal leaf.

graph6 ingestion keys a graph by its signature: the order and the
quotient of its refined unit partition, label-invariant because
refinement orders cells by invariants alone.  A graph whose signature
belongs to exactly one stored class is matched against that class's
minimum bitstring.  A miss, a new signature or one that two stored
classes share falls back to the search, whose form the set of seen forms
checks as before, so a miss costs one search and never a wrong line.

Two generators are provided:

* ears - one stored cell of minimally 2-connected classes per order ``n``
  and size ``m``.  Every minimally 2-connected non-cycle graph is a cycle
  plus a sequence of open ears of length >= 2 between non-adjacent
  endpoints, and every intermediate graph of such a decomposition is itself
  minimally 2-connected (subgraphs of chord-free graphs are chord-free;
  Dirac 1967, Plummer 1968).  A cell is therefore its cycle, if ``n == m``,
  plus the chord-free results of one ear added to a class of a smaller
  cell.  Which ears keep a parent G minimal is decided once per parent,
  for every ear length, with no test on the child: the ear's own edges are
  essential, and an old edge xy becomes inessential exactly when the ear
  closes the chain of blocks of G - xy, that is, runs from the interior of
  x's end block (the block minus its cut vertex) to the interior of y's
  (``connectivity.chording_ears``, one block walk per thread of G and per
  edge between two vertices of degree >= 3).  The minimally 2-connected
  classes of an order are the union of its cells over
  ``n <= m <= 2n - 4``, those of a size the union over ``n <= m``.  Each
  class in a cell keeps the automorphisms its canonical search recorded,
  carried to its canonical labels, and a parent's ear pairs ``{u, v}`` are
  expanded once per orbit of the group they generate.  This is exact: an
  automorphism s of G maps ``G + ear(u, v, L)`` onto
  ``G + ear(s(u), s(v), L)``, so a pair in the orbit of an expanded one
  gives an isomorphic child.  Any subgroup of Aut(G) is therefore safe,
  and a generator set that misses part of the group costs speed only.  A
  cell's pairs, one per orbit, are recorded the first time it serves as a
  parent cell (``_ear_pairs``) and read for every ear length.  A child is
  labeled only if its new ear is a largest removable thread (McKay's
  canonical construction path, J. Algorithms 26, 1998).  A thread is a
  maximal path of length >= 2 whose inner vertices have degree 2 and whose
  ends a, b have degree >= 3; it is removable when the child minus its
  inner vertices is still 2-connected; its key is
  ``(length, deg(a) + deg(b))`` in the child.  The child is
  dropped when some removable thread has a larger key than the new ear,
  before any labeling (``connectivity.threads`` and ``is_removable``).
  No class is lost.  A non-cycle class G has a removable thread (the last
  ear of an ear decomposition); let T be one of largest key.  G minus T's
  inside is 2-connected and chord-free, so its canonical copy is a class
  of the cell one excess edge lower, and T's ends are non-adjacent there
  and keep it minimal.  The pair orbit expanded for those ends and T's
  length gives a child isomorphic to G by a map carrying the new ear onto
  T, so its new ear has T's key, which no removable thread beats.  Ties
  fall to the de-duplication by canonical form.
* brute force by order, for the ``all`` and ``two_connected`` filters -
  canonical augmentation: each class on ``n - 1`` vertices gains one new
  vertex w for every neighbourhood that gives w minimum degree in the
  child and no smaller neighbour-degree sum (the sum of its neighbours'
  degrees) than any other minimum-degree vertex, and the children are
  de-duplicated by canonical form (McKay, J. Algorithms 26, 1998).  The
  rule is a test on the parent's degrees and the neighbourhood alone, and
  it loses no class: a graph G is ``(G - w) + w`` for a minimum-degree
  vertex w of largest neighbour-degree sum, and an isomorphism from
  ``G - w`` onto its canonical parent maps N(w) to a neighbourhood that
  passes the test, giving a child isomorphic to G.  It is also the
  independent oracle for the ear cells in the tests.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .connectivity import (
    chording_ears,
    is_minimally_two_connected_by_chords,
    is_removable,
    is_two_connected,
    threads,
)
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


def _predicate(filter: str) -> Callable[[Graph], bool]:
    if filter not in _FILTERS:
        raise ValueError(f"unknown filter {filter!r}")
    return _FILTERS[filter]


class EnumerationLimitError(GraphError):
    """Requested order or size beyond the builtin generator limits."""


# -- canonical labeling ----------------------------------------------------


Generators = tuple[tuple[int, ...], ...]


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string; equal for two graphs iff they are isomorphic."""
    return _canonical(g)[1]


def _canonical(
    g: Graph, cells: list[list[int]] | None = None
) -> tuple[Graph, str, tuple[int, ...], Generators]:
    """The canonically labeled copy of ``g``, its graph6 form, its minimum
    bitstring, and the automorphisms the search recorded, carried to
    canonical labels.  ``cells`` is the refined unit partition, if the
    caller has it."""
    if g.n > MAX_CANONICAL_ORDER:
        raise EnumerationLimitError(
            f"canonical form supports n <= {MAX_CANONICAL_ORDER}, got {g.n}"
        )
    if cells is None:
        cells = _refine(g.n, g.rows, [list(range(g.n))])
    order, automorphisms, cols = _canonical_order(g.n, g.rows, cells)
    perm = [0] * g.n
    for position, v in enumerate(order):
        perm[v] = position
    h = g.relabel(tuple(perm))
    # Label i is vertex order[i], which gamma maps to label perm[gamma[order[i]]].
    generators = tuple(tuple(perm[gamma[v]] for v in order) for gamma in automorphisms)
    return h, emit_graph6(h), cols, generators


def _node(rows: tuple[int, ...], cells: list[list[int]]) -> tuple[list[int], list[list[int]] | None]:
    """The vertices the search-tree node at the equitable partition
    ``cells`` fixes, in order, and the cells it branches on (the first is
    the target cell), or ``None`` at a leaf."""
    idx = 0
    while idx < len(cells) and len(cells[idx]) == 1:
        idx += 1
    fixed, remaining = [cell[0] for cell in cells[:idx]], cells[idx:]
    if not remaining or _homogeneous(rows, remaining):
        # Any consistent completion yields the same bitstring.
        return fixed + [v for cell in remaining for v in cell], None
    return fixed, remaining


def _individualize(
    n: int, rows: tuple[int, ...], cells: list[list[int]], v: int
) -> list[list[int]]:
    """The child of the node branching on ``cells`` that fixes ``v``, a
    vertex of the target cell ``cells[0]``."""
    split = [[v], [u for u in cells[0] if u != v]] + cells[1:]
    return _refine(n, rows, [c for c in split if c])


def _canonical_order(
    n: int, rows: tuple[int, ...], cells: list[list[int]]
) -> tuple[list[int], list[list[int]], tuple[int, ...]]:
    """The order of the minimum leaf of the search tree rooted at ``cells``,
    the refined unit partition; the automorphisms recorded on the way
    (``gamma[v]`` the image of ``v``); and the minimum bitstring itself."""
    best_cols: tuple[int, ...] | None = None
    best_order: list[int] = []
    automorphisms: list[list[int]] = []

    def descend(cells: list[list[int]], order: list[int], cols: list[int], beats: bool) -> int:
        """Search the subtree; return the position to resume at (``n``: carry on)."""
        nonlocal best_cols, best_order
        fixed, branch = _node(rows, cells)
        for v in fixed:
            cols.append(_column(rows[v], order))
            order.append(v)
            if not beats and best_cols is not None:
                ref = best_cols[len(cols) - 1]
                if cols[-1] > ref:
                    return n
                beats = cols[-1] < ref
        if branch is not None:
            explored = 0
            for v in branch[0]:
                fixing = [g for g in automorphisms if all(g[u] == u for u in order)]
                if any(image & explored for image in _orbit(1 << v, fixing)):
                    continue
                back = descend(_individualize(n, rows, branch, v), list(order), list(cols), beats)
                if back < len(order):
                    return back
                explored |= 1 << v
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
    # descend's closure holds descend itself: clearing it frees the search's
    # state now instead of at the next cyclic collection.
    del descend
    return best_order, automorphisms, best_cols


def _column(row: int, order: list[int]) -> int:
    """Adjacency of a vertex with neighbour mask ``row`` to ``order``, as
    bits, the first vertex of ``order`` the most significant."""
    code = 0
    for u in order:
        code = (code << 1) | ((row >> u) & 1)
    return code


def _matches(n: int, rows: tuple[int, ...], cells: list[list[int]], target: tuple[int, ...]) -> bool:
    """Whether the greedy walk of the search tree rooted at ``cells`` that
    the module docstring describes reaches a leaf with bitstring ``target``,
    a stored class's minimum.  True is exact; False may be a miss."""
    order: list[int] = []

    def sign(vertices: list[int]) -> int:
        """Append ``vertices``; -1, 0 or 1 as their columns fall below,
        equal or above ``target``'s."""
        for v in vertices:
            code, ref = _column(rows[v], order), target[len(order)]
            order.append(v)
            if code != ref:
                return -1 if code < ref else 1
        return 0

    fixed, branch = _node(rows, cells)
    if sign(fixed):
        return False
    while branch is not None:
        depth = len(order)
        for v in branch[0]:
            fixed, child = _node(rows, _individualize(n, rows, branch, v))
            below = sign(fixed)
            if below < 0:
                return False
            if below == 0:
                branch = child
                break
            del order[depth:]
        else:
            return False
    return True


def _signature(n: int, rows: tuple[int, ...], cells: list[list[int]]) -> tuple[int, ...]:
    """``n`` and the quotient of the equitable partition ``cells``: each
    cell's neighbour count into each cell, in cell order.  Label-invariant,
    since refinement orders cells by invariants alone."""
    masks = [_mask(cell) for cell in cells]
    return (n, *[(rows[cell[0]] & mask).bit_count() for cell in cells for mask in masks])


def _orbit(vertices: int, generators: Sequence[Sequence[int]]) -> set[int]:
    """The images of the vertex set ``vertices`` (a mask) under the group
    the permutations generate, as masks."""
    orbit = {vertices}
    if not generators:
        return orbit
    frontier = [vertices]
    while frontier:
        mask = frontier.pop()
        for g in generators:
            image, rest = 0, mask
            while rest:
                low = rest & -rest
                image |= 1 << g[low.bit_length() - 1]
                rest ^= low
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
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
    """Whether each cell's internal adjacency and each pair of cells'
    adjacency is complete or empty.  ``cells`` is equitable (``_refine``
    stops only there): all vertices of a cell have the same number of
    neighbours in each cell, so the first vertex of cell ``i`` speaks for
    its cell, and the pair ``i <= j`` is complete or empty exactly when
    that vertex has 0 or ``len(cells[j]) - (i == j)`` neighbours in
    ``cells[j]``."""
    masks = [_mask(c) for c in cells]
    for i, cell in enumerate(cells):
        row = rows[cell[0]]
        for j in range(i, len(cells)):
            d = (row & masks[j]).bit_count()
            if d and d != len(cells[j]) - (i == j):
                return False
    return True


def _mask(cell: list[int]) -> int:
    mask = 0
    for v in cell:
        mask |= 1 << v
    return mask


class Classes:
    """One run's generated classes, each built once: all classes by order,
    the ear cells by ``(n, m)`` and each parent cell's ear-pair record."""

    def __init__(self) -> None:
        self.by_order: dict[int, tuple[Graph, ...]] = {1: (Graph.from_rows([0]),)}
        self.cells: dict[tuple[int, int], tuple[tuple[Graph, Generators, str], ...]] = {}
        self.pairs: dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], ...]] = {}


# -- by-order generation (all classes) --------------------------------------


def _all_classes(classes: Classes, n: int) -> tuple[Graph, ...]:
    """All isomorphism classes on ``n`` vertices, canonically labeled.

    A neighbourhood ``mask`` of size ``k`` is added to a parent only if the
    new vertex has minimum degree in the child: the parent's minimum degree
    ``low`` is at least ``k - 1``, and if it equals ``k - 1`` every vertex
    of degree ``low`` lies in ``mask``.  It is then skipped if a rival, an
    old vertex of degree ``k`` in the child (of degree ``k`` outside
    ``mask`` or ``k - 1`` inside it), has a larger neighbour-degree sum in
    the child than the new vertex.
    """
    if n in classes.by_order:
        return classes.by_order[n]
    seen: dict[str, Graph] = {}
    for parent in _all_classes(classes, n - 1):
        rows = parent.rows
        degrees = parent.degrees()
        sums = [sum(degrees[w] for w in iter_bits(row)) for row in rows]
        by_degree: dict[int, int] = {}
        for v, d in enumerate(degrees):
            by_degree[d] = by_degree.get(d, 0) | 1 << v
        low = min(degrees)
        lows = by_degree[low]
        for mask in range(1 << (n - 1)):
            k = mask.bit_count()
            if k > low + 1 or (k == low + 1 and lows & ~mask):
                continue
            rivals = (by_degree.get(k, 0) & ~mask) | (by_degree.get(k - 1, 0) & mask)
            if rivals:
                own = k + sum(degrees[v] for v in iter_bits(mask))
                if any(sums[w] + (rows[w] & mask).bit_count() + k * ((mask >> w) & 1) > own
                       for w in iter_bits(rivals)):
                    continue
            h, key, _, _ = _canonical(parent.add_vertex(mask))
            seen[key] = h
    return classes.by_order.setdefault(n, tuple(seen[key] for key in sorted(seen)))


def graphs_by_order(n: int, filter: str = "all", classes: Classes | None = None) -> list[Graph]:
    """One canonically labeled representative per class, sorted by form,
    built into ``classes`` (default: a fresh store).

    Minimally 2-connected classes come from the ear cells and reach
    ``MAX_MIN2C_ORDER``.  The other filters run over every class up to
    ``MAX_BUILTIN_ORDER`` (the augmentation sweep makes 442,352 canonical
    forms at n = 9; n = 10 would need millions more and several GB).
    """
    predicate = _predicate(filter)
    classes = Classes() if classes is None else classes
    if n < 1:
        raise EnumerationLimitError("order must be at least 1")
    if filter == "minimally_two_connected":
        if n > MAX_MIN2C_ORDER:
            raise EnumerationLimitError(
                f"minimally 2-connected generation stops at n = {MAX_MIN2C_ORDER}; "
                "supply a graph6 stream for larger orders"
            )
        return _union(_ear_classes(classes, n, m) for m in range(n, max(n, 2 * n - 4) + 1))
    if n > MAX_BUILTIN_ORDER:
        raise EnumerationLimitError(
            f"builtin by-order generation stops at n = {MAX_BUILTIN_ORDER}; "
            "supply a graph6 stream for larger orders"
        )
    return [g for g in _all_classes(classes, n) if predicate(g)]


# -- ear generation (minimally 2-connected, by order and size) ---------------


def _ear_classes(classes: Classes, n: int, m: int) -> tuple[tuple[Graph, Generators, str], ...]:
    """Minimally 2-connected classes of order ``n`` and size ``m``, sorted by
    canonical form, each with automorphisms of its canonical graph and its
    canonical form.

    Each ear of length L adds L - 1 vertices and L edges, so the parents of
    a cell all sit in cells ``(n - L + 1, m - L)``, one excess edge lower.
    A parent's ear pairs come from its cell's record (``_ear_pairs``).
    """
    if not 3 <= n <= m <= max(n, 2 * n - 4):
        return ()
    if (n, m) in classes.cells:
        return classes.cells[n, m]
    seen: dict[str, tuple[Graph, Generators, str]] = {}

    def add(child: Graph) -> None:
        h, key, _, generators = _canonical(child)
        if key not in seen:
            seen[key] = (h, generators, key)

    if n == m:
        add(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
    for length in range(2, n - 2):
        # A parent needs a non-adjacent pair, so at least 4 vertices.
        cell = (n - length + 1, m - length)
        for (g, _, _), pairs in zip(_ear_classes(classes, *cell), _ear_pairs(classes, *cell)):
            for u, v in pairs:
                child = _add_ear(g, u, v, length)
                if _largest_thread(child, u, v, length):
                    add(child)
    return classes.cells.setdefault((n, m), tuple(seen[key] for key in sorted(seen)))


def _ear_pairs(classes: Classes, n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each class of the cell ``(n, m)``, in the cell's order, the ear
    pairs ``(u, v)`` that keep it minimal, one per orbit of its generators,
    ``u`` then ``v`` ascending.  The record is built the first time the
    cell serves as a parent cell and read for every ear length after."""
    if (n, m) in classes.pairs:
        return classes.pairs[n, m]
    record = []
    for g, generators, _ in _ear_classes(classes, n, m):
        full = (1 << g.n) - 1
        expanded: set[int] = set()
        pairs = []
        for u, closing in enumerate(chording_ears(g)):
            # v > u, not adjacent to u, and every old edge stays essential.
            for v in iter_bits(full & ~((2 << u) - 1) & ~(closing | g.rows[u])):
                pair = (1 << u) | (1 << v)
                if pair not in expanded:
                    expanded |= _orbit(pair, generators)
                    pairs.append((u, v))
        record.append(tuple(pairs))
    return classes.pairs.setdefault((n, m), tuple(record))


def _largest_thread(child: Graph, u: int, v: int, length: int) -> bool:
    """Whether no removable thread of ``child`` has a larger key
    ``(length, deg(a) + deg(b))`` than its last ear, the u-v thread of
    ``length`` edges."""
    rows = child.rows
    key = (length, rows[u].bit_count() + rows[v].bit_count())
    return not any(
        (interior.bit_count() + 1, rows[a].bit_count() + rows[b].bit_count()) > key
        and is_removable(child, interior)
        for a, b, interior in threads(child)
    )


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


def _union(cells: Iterable[tuple[tuple[Graph, Generators, str], ...]]) -> list[Graph]:
    return [g for g, _, _ in sorted((e for cell in cells for e in cell), key=itemgetter(2))]


def graphs_by_size(m: int, classes: Classes | None = None) -> list[Graph]:
    """Minimally 2-connected classes of size ``m``, sorted by canonical form,
    built into ``classes`` (default: a fresh store).

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
    classes = Classes() if classes is None else classes
    return _union(_ear_classes(classes, n, m) for n in range(3, m + 1))


# -- graph6 stream ingestion -------------------------------------------------


def ingest_graph6(
    lines: Iterable[str], filter: str = "all"
) -> Iterator[tuple[Graph, str | None]]:
    """Parse, filter, and de-duplicate a graph6 stream.

    Yields each kept graph with its canonical form, the one de-duplication
    computed.  Past the canonical-order cap graphs pass through untouched
    with form ``None`` (the generator is trusted).  Parse errors carry the
    1-based line number.

    Only a new class pays for the full canonical search; a repeat matches
    its class's minimum bitstring (see the module docstring).
    """
    predicate = _predicate(filter)
    seen: set[str] = set()
    # Signature -> the minimum bitstring of the one stored class that has
    # it, or None once a second stored class has it too.
    owners: dict[tuple[int, ...], tuple[int, ...] | None] = {}
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
        form = None
        if g.n <= MAX_CANONICAL_ORDER:
            cells = _refine(g.n, g.rows, [list(range(g.n))])
            signature = _signature(g.n, g.rows, cells)
            target = owners.get(signature)
            if target is not None and _matches(g.n, g.rows, cells, target):
                continue
            _, form, cols, _ = _canonical(g, cells)
            if form in seen:
                continue
            seen.add(form)
            owners[signature] = None if signature in owners else cols
        yield g, form


__all__ = [
    "Classes",
    "EnumerationLimitError",
    "MAX_BUILTIN_ORDER",
    "MAX_CANONICAL_ORDER",
    "MAX_MIN2C_ORDER",
    "MAX_SIZE",
    "canonical_form",
    "graphs_by_order",
    "graphs_by_size",
    "ingest_graph6",
]
