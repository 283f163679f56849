"""Seeded graph6 input for the `graph6-ingest` workload.

The stream mixes two kinds of graph of order 9 to 13, shuffled together:

* random relabelings of cycle-plus-random-ear graphs, drawn with repeats
  from a small pool, so that the filter accepts some of them (those whose
  ears leave no chorded cycle) and de-duplication by canonical form has
  isomorphic copies to remove;
* dense connected G(n, 0.4) graphs, which the filter rejects.

Only the standard library is used, including a graph6 encoder of its own,
so the program under test sees nothing but the finished file.
"""

from __future__ import annotations

import random

STREAM_LINES = 4000
EAR_SHARE = 0.5
POOL_SIZE = 240
ORDERS = (9, 13)
DENSE_P = 0.4


def encode_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """graph6 for n <= 62; bits in column order (0,1), (0,2), (1,2), ..."""
    bits = [1 if (u, v) in edges else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        value = 0
        for bit in bits[i:i + 6]:
            value = (value << 1) | bit
        chars.append(chr(63 + value))
    return "".join(chars)


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def ear_graph(rng: random.Random) -> tuple[int, set[tuple[int, int]]]:
    """A cycle plus open ears of length >= 2 between non-adjacent vertices."""
    n = rng.randint(*ORDERS)
    k = rng.randint(5, n)
    edges = {_edge(i, (i + 1) % k) for i in range(k)}
    size = k
    while size < n:
        length = rng.randint(2, min(4, n - size + 1))
        while True:
            u, v = rng.sample(range(size), 2)
            if _edge(u, v) not in edges:
                break
        chain = [u, *range(size, size + length - 1), v]
        edges.update(_edge(a, b) for a, b in zip(chain, chain[1:]))
        size += length - 1
    return n, edges


def dense_graph(rng: random.Random) -> tuple[int, set[tuple[int, int]]]:
    """Connected G(n, DENSE_P), redrawn until connected."""
    while True:
        n = rng.randint(*ORDERS)
        edges = {(u, v) for v in range(n) for u in range(v) if rng.random() < DENSE_P}
        neighbours: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            neighbours[u].add(v)
            neighbours[v].add(u)
        reached = {0}
        frontier = [0]
        while frontier:
            for w in neighbours[frontier.pop()] - reached:
                reached.add(w)
                frontier.append(w)
        if len(reached) == n:
            return n, edges


def relabel(rng: random.Random, n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return {_edge(perm[u], perm[v]) for u, v in edges}


def make_stream(seed: int, lines: int = STREAM_LINES) -> list[str]:
    """The graph6 lines of the workload input for ``seed``."""
    rng = random.Random(seed)
    pool = [ear_graph(rng) for _ in range(POOL_SIZE)]
    out = []
    for _ in range(lines):
        if rng.random() < EAR_SHARE:
            n, edges = rng.choice(pool)
            out.append(encode_graph6(n, relabel(rng, n, edges)))
        else:
            n, edges = dense_graph(rng)
            out.append(encode_graph6(n, edges))
    return out
