"""Connectivity predicates and the structure of minimally 2-connected graphs.

Two independent recognizers are provided on purpose, and they share no
walk.  The deletion-based one is the definition: 2-connected (at least
three vertices, connected, and still connected after deleting any one
vertex), and removing any edge breaks that; it runs only on a
breadth-first reach.  The chord-based one rests on the classical
equivalence with "no cycle has a chord" (Dirac 1967, Plummer 1968) and
runs only on the Tarjan block walk, which also decides its
2-connectivity and serves :func:`chording_ears`.  Their agreement on
every small graph is a standing cross-check exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Graph, iter_bits


class LemmaViolationError(RuntimeError):
    """A structural implication that must hold was observed to fail.

    This signals an implementation bug, never bad input: the implications
    asserted by :func:`structural_report` are theorems about minimally
    2-connected graphs.
    """


@dataclass(frozen=True)
class StructuralReport:
    is_connected: bool
    is_two_connected: bool
    is_minimally_two_connected: bool
    min_degree_is_two: bool
    triangle_free: bool
    edge_bound_slack: int  # 2n - 4 - m
    has_chorded_cycle: bool


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
    cycle, so only edges whose ends both have degree >= 3 are tested.
    """
    for u, v in g.edges():
        if g.rows[u].bit_count() < 3 or g.rows[v].bit_count() < 3:
            continue
        if _share_block(g.remove_edge(u, v), u, v):
            return True
    return False


def is_minimally_two_connected_by_chords(g: Graph) -> bool:
    """2-connected, read off the block walk, and no cycle has a chord."""
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
    """
    rows = [0] * g.n
    for x, y in g.edges():
        seen = cuts = 0
        end_x = end_y = 0
        for block in _block_masks(g.remove_edge(x, y)):
            cuts |= seen & block
            seen |= block
            if (block >> x) & 1:
                end_x = block
            if (block >> y) & 1:
                end_y = block
        end_x &= ~cuts
        end_y &= ~cuts
        for u in iter_bits(end_x):
            rows[u] |= end_y
        for v in iter_bits(end_y):
            rows[v] |= end_x
    return tuple(rows)


def triangle_free(g: Graph) -> bool:
    for u, v in g.edges():
        if g.rows[u] & g.rows[v]:
            return False
    return True


def structural_report(g: Graph) -> StructuralReport:
    min2c = is_minimally_two_connected_by_deletion(g)
    report = StructuralReport(
        is_connected=is_connected(g),
        is_two_connected=is_two_connected(g),
        is_minimally_two_connected=min2c,
        min_degree_is_two=min(g.degrees()) == 2,
        triangle_free=triangle_free(g),
        edge_bound_slack=2 * g.n - 4 - g.m,
        has_chorded_cycle=has_chorded_cycle(g),
    )
    if report.is_minimally_two_connected and g.n >= 4:
        if not report.min_degree_is_two:
            raise LemmaViolationError("minimally 2-connected graph with min degree != 2")
        if not report.triangle_free:
            raise LemmaViolationError("minimally 2-connected graph with a triangle")
        if report.edge_bound_slack < 0:
            raise LemmaViolationError("minimally 2-connected graph with more than 2n-4 edges")
        if report.has_chorded_cycle:
            raise LemmaViolationError("minimally 2-connected graph with a chorded cycle")
    if report.is_minimally_two_connected and not report.is_two_connected:
        raise LemmaViolationError("minimal 2-connectivity without 2-connectivity")
    return report


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

    Tarjan block decomposition with an edge stack, so a caller that stops
    early skips the rest of the walk.  A block that spans all n >= 3
    vertices is the only block, so the graph is 2-connected exactly when
    the first block yielded spans them all.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    edge_stack: list[tuple[int, int]] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, iter_bits(g.rows[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if disc[u] == -1:
                    parent[u] = v
                    disc[u] = low[u] = timer
                    timer += 1
                    edge_stack.append((v, u))
                    stack.append((u, iter_bits(g.rows[u])))
                    advanced = True
                    break
                elif u != parent[v] and disc[u] < disc[v]:
                    edge_stack.append((v, u))
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            if not advanced:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        members = 0
                        while edge_stack:
                            a, b = edge_stack.pop()
                            members |= (1 << a) | (1 << b)
                            if (a, b) == (p, v):
                                break
                        yield members
