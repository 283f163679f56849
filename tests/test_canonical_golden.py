"""Golden canonical forms: ``canonical_form`` on a fixed corpus.

``tests/golden/canonical_forms.txt`` holds one line ``input form`` per graph
of the corpus below: seeded G(n, p) graphs, relabelled minimally
2-connected classes of size <= 14, every class of order <= 6 relabelled,
and highly symmetric graphs, where the canonical search meets the most
automorphisms.  Every cached class list, sorted class order and reported
``argmax_graph6`` is built from these forms, so a change to the search
must leave the file byte-identical.  The file is written by
``PYTHONPATH=src python tests/test_canonical_golden.py``.
"""

import random
from pathlib import Path

from alphaindex.enumeration import canonical_form, graphs_by_order, graphs_by_size
from alphaindex.families import complete_bipartite, cycle
from alphaindex.graphs import Graph, emit_graph6, parse_graph6

from conftest import circulant, disjoint_union, random_graph

GOLDEN = Path(__file__).parent / "golden" / "canonical_forms.txt"


def _relabel(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(tuple(perm))


def _symmetric() -> list[Graph]:
    petersen = Graph.from_edges(
        10, [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    q4 = Graph.from_edges(16, [(u, u ^ (1 << i)) for u in range(16) for i in range(4) if u < u ^ (1 << i)])
    return [
        q4,
        petersen,
        disjoint_union(*[cycle(4)] * 4),
        complete_bipartite(8, 8),
        disjoint_union(*[cycle(3)] * 5, Graph.from_rows([0])),
        disjoint_union(cycle(8), cycle(8)),
        disjoint_union(*[cycle(5)] * 3),
        cycle(16),
        circulant(16, (1, 3)),
        complete_bipartite(2, 14),
    ]


def corpus() -> list[Graph]:
    rng = random.Random(20260808)
    graphs = [random_graph(rng, rng.randint(2, 16), rng.uniform(0.1, 0.9)) for _ in range(2000)]
    graphs += [_relabel(rng, g) for m in range(3, 15) for g in graphs_by_size(m)]
    graphs += [_relabel(rng, g) for n in range(1, 7) for g in graphs_by_order(n)]
    graphs += [h for g in _symmetric() for h in (g, _relabel(rng, g), _relabel(rng, g))]
    return graphs


def test_golden_canonical_forms():
    lines = GOLDEN.read_text().splitlines()
    assert len(lines) > 2000
    for line in lines:
        given, form = line.split()
        assert canonical_form(parse_graph6(given)) == form, given


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{emit_graph6(g)} {canonical_form(g)}\n" for g in corpus()))
    print(f"wrote {GOLDEN}")
