"""Connectivity predicates and the structure of minimally 2-connected graphs.

Two independent recognizers are provided on purpose, and they share no
walk.  The deletion-based one is the definition: 2-connected (at least
three vertices, connected, and still connected after deleting any one
vertex), and removing any edge breaks that; it runs only on a
breadth-first reach.  The chord-based one rests on the classical
equivalence with "no cycle has a chord" (Dirac 1967, Plummer 1968): it
first rejects an edge whose ends have two common neighbours (the chord of
a 4-cycle), then runs only on the Tarjan block walk, which also decides
its 2-connectivity and serves :func:`chording_ears` (one walk per thread
and per edge between two vertices of degree >= 3) and
:func:`is_removable`, the ear generator's thread test.  Their agreement on
every small graph is a standing cross-check exercised by the test suite.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import Graph, iter_bits


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return _reach(g, 0, full) == full


def components(g: Graph) -> list[list[int]]:
    out: list[list[int]] = []
    unseen = (1 << g.n) - 1
    while unseen:
        seen = _reach(g, (unseen & -unseen).bit_length() - 1, unseen)
        out.append(list(iter_bits(seen)))
        unseen &= ~seen
    return out


def is_two_connected(g: Graph) -> bool:
    """At least three vertices, connected, and connected after deleting any
    one vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    full = (1 << g.n) - 1
    for v in range(g.n):
        rest = full & ~(1 << v)
        if _reach(g, 1 if v == 0 else 0, rest) != rest:
            return False
    return True


def is_minimally_two_connected_by_deletion(g: Graph) -> bool:
    if not is_two_connected(g):
        return False
    for u, v in g.edges():
        if is_two_connected(g.remove_edge(u, v)):
            return False
    return True


def has_chorded_cycle(g: Graph) -> bool:
    """Whether some cycle of ``g`` has a chord.

    An edge uv is a chord of some cycle exactly when g - uv still carries
    two internally disjoint u-v paths (the cycle through u and v that
    avoids the edge).  With the edge removed, both paths have length >= 2
    automatically, so the test reduces to u and v sharing a biconnected
    block of g - uv.  Each end of a chord also carries two edges of its
    cycle, so only edges inside the mask of vertices of degree >= 3 are
    tested.
    """
    rows = g.rows
    heavy = 0
    for v, row in enumerate(rows):
        if row.bit_count() >= 3:
            heavy |= 1 << v
    while heavy:
        low = heavy & -heavy
        heavy ^= low  # now the vertices of degree >= 3 above u
        u = low.bit_length() - 1
        higher = rows[u] & heavy
        while higher:
            bit = higher & -higher
            higher ^= bit
            v = bit.bit_length() - 1
            if _share_block(g.remove_edge(u, v), u, v):
                return True
    return False


def is_minimally_two_connected_by_chords(g: Graph) -> bool:
    """2-connected, read off the block walk, and no cycle has a chord.

    An edge uv whose ends have two common neighbours w, w' is the chord of
    the 4-cycle u w v w', which rejects most dense graphs before the walk.
    """
    rows = g.rows
    for u, row in enumerate(rows):
        higher = row >> (u + 1) << (u + 1)
        while higher:
            bit = higher & -higher
            higher ^= bit
            if (row & rows[bit.bit_length() - 1]).bit_count() >= 2:
                return False
    if g.n < 3 or next(_block_masks(g), 0) != (1 << g.n) - 1:
        return False
    return not has_chorded_cycle(g)


def chording_ears(g: Graph) -> tuple[int, ...]:
    """For a 2-connected ``g``: bit ``v`` of entry ``u`` is set when adding an
    open ear of length >= 2 between distinct vertices ``u`` and ``v`` gives a
    graph that is not minimally 2-connected.

    The ear's own edges are essential, since its inner vertices have degree
    2.  An old edge xy becomes inessential exactly when g - xy + ear is
    2-connected, i.e. when the ear closes the block chain of g - xy: one end
    in the interior of x's end block (the block minus its cut vertex) and
    the other in the interior of y's.  If g - xy is itself 2-connected (g
    not minimal), its one block has no cut vertex and every pair is set.

    The end blocks take one block walk of g - xy per edge whose ends both
    have degree >= 3, one walk per thread for the thread edges, and none
    for a cycle, where each edge closes only its own ends.  Let the thread
    ``a t1 ... tk b`` have interior T, and let R = g - T.  Deleting a
    thread edge xy leaves R with two pendant paths, a ... x and y ... b
    (one may be the lone vertex a or b).  The blocks of g - xy are R's
    blocks and the paths' bridges; its cut vertices are R's plus each path
    vertex but the free end, a or b included where a path hangs on it.  So
    an end x in T has the end block {x's path neighbour, x}, interior {x}.
    The end x = a lies in no bridge; g is 2-connected, so a lies in the
    interior of an end block of g - xy, which is then block_R(a), its only
    block in R.  Less the cut vertices that is
    A = block_R(a) - cuts(R) - {b}, b being the cut where the other path
    hangs.  Hence (a, t1) closes t1 with A, (tk, b) closes tk with
    B = block_R(b) - cuts(R) - {a}, and an edge inside the thread closes
    only its own ends.  The argument needs only 2-connectivity, so
    non-minimal ``g`` is covered too.
    """
    rows = g.rows
    heavy = 0
    for v, row in enumerate(rows):
        if row.bit_count() >= 3:
            heavy |= 1 << v
    if not heavy:
        return rows
    closing = [0] * g.n
    for a, b, interior in threads(g):
        end_a, end_b = _end_interiors(_without(g, interior), a, b)
        _close(closing, end_a & ~(1 << b), rows[a] & interior)
        _close(closing, end_b & ~(1 << a), rows[b] & interior)
        for t in iter_bits(interior):
            closing[t] |= rows[t] & interior
    while heavy:
        low = heavy & -heavy
        heavy ^= low  # now the vertices of degree >= 3 above x
        x = low.bit_length() - 1
        for y in iter_bits(rows[x] & heavy):
            _close(closing, *_end_interiors(g.remove_edge(x, y), x, y))
    return tuple(closing)


def _end_interiors(h: Graph, x: int, y: int) -> tuple[int, int]:
    """The blocks of ``h`` holding ``x`` and ``y`` (the last the walk yields),
    less every cut vertex of ``h``."""
    seen = cuts = end_x = end_y = 0
    for block in _block_masks(h):
        cuts |= seen & block
        seen |= block
        if (block >> x) & 1:
            end_x = block
        if (block >> y) & 1:
            end_y = block
    return end_x & ~cuts, end_y & ~cuts


def _close(closing: list[int], ends_x: int, ends_y: int) -> None:
    """Mark every pair between the vertex masks ``ends_x`` and ``ends_y``."""
    for u in iter_bits(ends_x):
        closing[u] |= ends_y
    for v in iter_bits(ends_y):
        closing[v] |= ends_x


def threads(g: Graph) -> Iterator[tuple[int, int, int]]:
    """The threads of ``g`` as ``(a, b, interior)`` with ``a < b``: maximal
    paths of length >= 2 whose inner vertices (the mask ``interior``) have
    degree 2 and whose ends ``a`` and ``b`` have degree >= 3.  A thread's
    length is ``interior.bit_count() + 1``.

    Each thread is walked from both ends and yielded from its lower one.
    An edge between two vertices of degree >= 3 has no interior and is no
    thread, and a path of degree-2 vertices that ends in a vertex of degree
    1 or returns to its start is none either.
    """
    rows = g.rows
    light = 0
    for v, row in enumerate(rows):
        if row.bit_count() == 2:
            light |= 1 << v
    for a, row in enumerate(rows):
        if row.bit_count() < 3:
            continue
        for first in iter_bits(row & light):
            prev, cur, interior = a, first, 0
            while (light >> cur) & 1:
                interior |= 1 << cur
                prev, cur = cur, (rows[cur] & ~(1 << prev)).bit_length() - 1
            if a < cur and rows[cur].bit_count() >= 3:
                yield a, cur, interior


def is_removable(g: Graph, interior: int) -> bool:
    """Whether ``g`` minus the inner vertices ``interior`` of one of its
    threads is 2-connected, read off the first block of the block walk: the
    deleted vertices are left isolated, and an isolated vertex closes no
    block.  The rest has at least three vertices, since an end of the
    thread has two neighbours outside it."""
    return next(_block_masks(_without(g, interior)), 0) == ((1 << g.n) - 1) & ~interior


def triangle_free(g: Graph) -> bool:
    for u, v in g.edges():
        if g.rows[u] & g.rows[v]:
            return False
    return True


def _without(g: Graph, interior: int) -> Graph:
    """``g`` less the edges at the inner vertices ``interior`` of one of its
    threads, which stay behind isolated."""
    rows = tuple(0 if (interior >> v) & 1 else row & ~interior for v, row in enumerate(g.rows))
    return Graph._trusted(g.n, rows, g.m - interior.bit_count() - 1)


def _reach(g: Graph, start: int, allowed: int) -> int:
    """Mask of the vertices reachable from ``start`` inside the mask ``allowed``."""
    seen = frontier = 1 << start
    while frontier:
        reach = seen
        for v in iter_bits(frontier):
            reach |= g.rows[v]
        reach &= allowed
        frontier = reach & ~seen
        seen = reach
    return seen


def _share_block(g: Graph, s: int, t: int) -> bool:
    """True when ``s`` and ``t`` lie on a common cycle of ``g``."""
    both = (1 << s) | (1 << t)
    return any(block & both == both for block in _block_masks(g))


def _block_masks(g: Graph) -> Iterator[int]:
    """Vertex masks of the blocks of ``g`` (bridges included), one at a time.

    Tarjan's block decomposition, so a caller that stops early skips the
    rest of the walk.  A DFS frame is its vertex ``v`` alone, with the mask
    ``rows[v] & ~found`` of the neighbours it may still descend into,
    lowest first.  A vertex's discovery time is the number of vertices
    found before it.  Its neighbours found before it are its ancestors, so
    its low point starts at their least discovery time; counting the
    parent among them changes no block test.  A child ``v`` of ``p`` with
    ``low[v] >= disc[p]`` closes a block: ``p`` plus the vertices found
    since ``v`` that no block has taken yet.  A block that spans all
    n >= 3 vertices is the only block, so the graph is 2-connected exactly
    when the first block yielded spans them all.
    """
    rows = g.rows
    disc = [0] * g.n
    low = [0] * g.n
    before = [0] * g.n  # before[v]: the vertices found before v
    found = untaken = 0
    for root in range(g.n):
        if (found >> root) & 1:
            continue
        disc[root] = low[root] = found.bit_count()
        found |= 1 << root
        path = [root]
        while path:
            v = path[-1]
            fresh = rows[v] & ~found
            if fresh:
                bit = fresh & -fresh
                u = bit.bit_length() - 1
                before[u] = found
                up = rows[u] & found
                least = disc[u] = found.bit_count()
                while up:
                    w = up & -up
                    up ^= w
                    d = disc[w.bit_length() - 1]
                    if d < least:
                        least = d
                low[u] = least
                found |= bit
                untaken |= bit
                path.append(u)
                continue
            path.pop()
            if path:
                p = path[-1]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    block = untaken & ~before[v]
                    untaken ^= block
                    yield block | (1 << p)
