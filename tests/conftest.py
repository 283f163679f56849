import random

import pytest

from alphaindex.graphs import Graph


@pytest.fixture
def k23():
    return Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


@pytest.fixture
def c4():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


@pytest.fixture
def c5():
    return Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])


@pytest.fixture
def k4():
    return Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture
def sk24():
    edges = [(0, 2), (2, 3), (3, 1)] + [(0, c) for c in (4, 5, 6)] + [(1, c) for c in (4, 5, 6)]
    return Graph.from_edges(7, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    return Graph.from_edges(n, {tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})


def disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph.from_edges(offset, edges)
