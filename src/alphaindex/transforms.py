"""Neighbour rotation: move a set of edges at v over to u.

Given N inside N(v) with N disjoint from N(u) and u itself, the rotation
replaces each edge vw (w in N) by uw.  Size is preserved edge-for-edge.
When the Perron coordinate of u is at least that of v, the spectral
radius strictly increases; the monotonicity check measures exactly that
and is exercised as a property over seeded corpora.  The per-graph check
runs on power iteration; the batched one solves a whole corpus by
certified ``eigh`` calls, stays cross-checked against it, and counts on
each check the solves that fell back to power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, GraphError, iter_bits
from .spectral import alpha_index, lambda_max, lambda_maxes, perron_pairs

PRECONDITION_TOL = 1e-12


class RotationError(GraphError):
    """Rotation invariants violated against the given graph."""


@dataclass(frozen=True)
class Rotation:
    u: int
    v: int
    moved: frozenset[int]


@dataclass(frozen=True)
class RotationCheck:
    increase: float
    perron_precondition: bool
    fallbacks: int = 0  # batched solves re-done by power iteration


def rotate(g: Graph, r: Rotation) -> Graph:
    """Apply the rotation, validating its invariants against ``g``."""
    if r.u == r.v:
        raise RotationError("rotation endpoints must differ")
    if not (0 <= r.u < g.n and 0 <= r.v < g.n):
        raise RotationError("rotation endpoints outside the vertex range")
    if not r.moved:
        raise RotationError("moved set must be nonempty")
    for w in r.moved:
        if not (0 <= w < g.n):
            raise RotationError(f"moved vertex {w} outside the vertex range")
        if w == r.u:
            raise RotationError("moved set may not contain u")
        if not g.adjacent(r.v, w):
            raise RotationError(f"moved vertex {w} is not a neighbour of v")
        if g.adjacent(r.u, w):
            raise RotationError(f"moved vertex {w} is already a neighbour of u")
    out = g
    for w in sorted(r.moved):
        out = out.remove_edge(r.v, w).add_edge(r.u, w)
    return out


def valid_moved_candidates(g: Graph, u: int, v: int) -> list[int]:
    """N(v) minus N(u) and u: the vertices a rotation at (u, v) may move."""
    return list(iter_bits(g.rows[v] & ~g.rows[u] & ~(1 << u)))


def rotation_monotonicity_check(g: Graph, r: Rotation, alpha: float) -> RotationCheck:
    """Perron precondition (x_u >= x_v up to 1e-12) and the rho change.

    The rotated graph may be disconnected, so its spectral radius is taken
    over components.
    """
    result = alpha_index(g, alpha)
    precondition = result.perron[r.u] >= result.perron[r.v] - PRECONDITION_TOL
    rotated = rotate(g, r)
    increase = lambda_max(rotated, alpha) - result.rho
    return RotationCheck(increase=increase, perron_precondition=bool(precondition))


def rotation_monotonicity_checks(
    cases: Sequence[tuple[Graph, Rotation, float]],
) -> list[RotationCheck]:
    """:func:`rotation_monotonicity_check` of many ``(g, rotation, alpha)``
    cases by certified batched solves: one solve of every ``g``, each at its
    case's alpha, and one of the rotated graphs.

    Only a case that meets the precondition has its rotated graph solved;
    the others come back with ``increase`` NaN (not measured).  The
    ``fallbacks`` of a check count its eigen-solves, of ``g`` and of each
    component of the rotated graph, that failed their certificate and ran
    power iteration.
    """
    out: list = [None] * len(cases)
    kept: list[tuple[int, float, bool]] = []  # (case, rho, fallback)
    rotated: list[tuple[Graph, float]] = []
    solved = perron_pairs([(g, alpha) for g, _, alpha in cases])
    for i, ((g, r, alpha), pair) in enumerate(zip(cases, solved)):
        if pair.x[r.u] >= pair.x[r.v] - PRECONDITION_TOL:
            kept.append((i, pair.rho, pair.fallback))
            rotated.append((rotate(g, r), alpha))
        else:
            out[i] = RotationCheck(math.nan, False, int(pair.fallback))
    del solved  # free the Perron vectors before the rotated graphs are solved
    for (i, rho, fallback), (value, fallbacks) in zip(kept, lambda_maxes(rotated)):
        out[i] = RotationCheck(value - rho, True, fallback + fallbacks)
    return out
