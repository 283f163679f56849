import random

import numpy as np
import pytest

from alphaindex.graphs import Graph, iter_bits

JACOBI_OFFDIAG_NORM = 1e-13

# The minimally 2-connected classes of order 12 whose signatures (order and
# refined-partition quotient) collide, by signature.
SHARED_SIGNATURE_CLASSES_12 = [
    ["K????B_eAmDw", "K????B_eBMBw"],
    ["K????BobaYEW", "K????Bobba@w", "K????Bor@e@w"],
    ["K_????sIcqGw", "K_????wHcqGw"],
    ["K_???AoR@UAw", "K_???AoR@e@w"],
    ["K`???AKOpSAg", "K`???AKOpWAW", "K`???AKQ`IAW"],
    ["Ko???@WH_i@W", "Ko???@WH_q?w"],
]

# Relabellings of the class HC`Q`Wi whose match search misses: a branch it
# commits to holds no leaf equal to the class's minimum.
MISSED_MATCHES = ["H?kaf@S", "HS?JHpS"]


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


def without(g: Graph, removed: int) -> Graph:
    """``g`` minus the vertices of the mask ``removed``, relabelled in order."""
    keep = [v for v in range(g.n) if not (removed >> v) & 1]
    index = {v: i for i, v in enumerate(keep)}
    return Graph.from_edges(len(keep), [(index[u], index[v]) for u, v in g.edges()
                                        if u in index and v in index])


def ear_graph(rng: random.Random, n: int) -> Graph:
    """A cycle of 5 to ``n`` vertices plus open ears of 2 to 4 edges between
    random non-adjacent vertices, until the order is ``n``."""
    k = rng.randint(5, n)
    edges = {tuple(sorted((i, (i + 1) % k))) for i in range(k)}
    size = k
    while size < n:
        length = rng.randint(2, min(4, n - size + 1))
        u, v = rng.sample(range(size), 2)
        while tuple(sorted((u, v))) in edges:
            u, v = rng.sample(range(size), 2)
        chain = [u, *range(size, size + length - 1), v]
        edges.update(tuple(sorted(e)) for e in zip(chain, chain[1:]))
        size += length - 1
    return Graph.from_edges(n, edges)


def relabelled(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


def alpha_matrix_by_loop(g: Graph, alpha: float) -> np.ndarray:
    """alpha*D + (1-alpha)*A written entry by entry, one vertex at a time."""
    entries = np.zeros((g.n, g.n))
    for v in range(g.n):
        entries[v, v] = alpha * g.degree(v)
        for u in iter_bits(g.rows[v]):
            entries[v, u] = 1.0 - alpha
    return entries


def column_sums_by_loop(g: Graph, alpha: float, variant: str) -> tuple[float, ...]:
    """The proof matrix's column sums c_u by the closed expansion, one
    vertex at a time, each S(u) summed over the neighbours of u."""
    p, q, r = (1, g.n, g.n - 2) if variant == "order" else (2, g.m + 4, g.m)
    degs = g.degrees()
    shift = 2.0 * (2.0 * alpha - 1.0) * r
    return tuple(
        p * (alpha * degs[u] ** 2 + (1.0 - alpha) * sum(degs[v] for v in iter_bits(g.rows[u])))
        - q * alpha * degs[u]
        + shift
        for u in range(g.n)
    )


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm drops below
    ``JACOBI_OFFDIAG_NORM``.
    An oracle of a third algorithm class, independent of power iteration
    and of LAPACK ``eigh``.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy()
    for _ in range(100):
        offdiag = a - np.diag(np.diag(a))
        off = float(np.sqrt(np.sum(offdiag**2)))
        if off <= JACOBI_OFFDIAG_NORM:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 0.1 * JACOBI_OFFDIAG_NORM / (n * n):
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                rot = np.array([[c, s], [-s, c]])
                a[[p, q], :] = rot.T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
    else:
        raise RuntimeError("Jacobi sweep limit reached before convergence")
    return np.sort(np.diag(a))
