import random

import pytest

from alphaindex import connectivity
from alphaindex.connectivity import (
    LemmaViolationError,
    has_chorded_cycle,
    is_connected,
    is_minimally_two_connected_by_chords,
    is_minimally_two_connected_by_deletion,
    is_two_connected,
    structural_report,
    triangle_free,
)
from alphaindex.enumeration import graphs_by_order
from alphaindex.families import complete_bipartite
from alphaindex.graphs import Graph

from conftest import random_graph


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_two_connected_cycle(c5):
    assert is_two_connected(c5)


def test_path_is_not_two_connected():
    p4 = path(4)
    assert not is_two_connected(p4)


def test_k23_two_connected(k23):
    assert is_two_connected(k23)


def test_small_orders_not_two_connected():
    assert not is_two_connected(Graph.from_rows([0]))
    assert not is_two_connected(Graph.from_edges(2, [(0, 1)]))


def test_minimal_by_deletion_cycle():
    assert is_minimally_two_connected_by_deletion(cycle(6))


def test_k4_not_minimal(k4):
    assert is_two_connected(k4)
    assert not is_minimally_two_connected_by_deletion(k4)
    assert not is_minimally_two_connected_by_chords(k4)
    assert has_chorded_cycle(k4)


def test_k24_minimal():
    k24 = Graph.from_edges(6, [(i, 2 + j) for i in range(2) for j in range(4)])
    assert is_minimally_two_connected_by_deletion(k24)


def test_sk24_minimal_by_chords(sk24):
    assert is_minimally_two_connected_by_chords(sk24)


def test_pendant_breaks_two_connectivity(c4):
    g = c4.add_vertex(0b0001)
    assert not is_two_connected(g)
    assert not is_minimally_two_connected_by_chords(g)


def test_structural_report_k23(k23):
    rep = structural_report(k23)
    assert rep.is_minimally_two_connected
    assert rep.min_degree_is_two
    assert rep.triangle_free
    assert rep.edge_bound_slack == 0
    assert not rep.has_chorded_cycle


def test_structural_report_c5(c5):
    rep = structural_report(c5)
    assert rep.is_minimally_two_connected
    assert rep.edge_bound_slack == 1


def test_structural_report_k4(k4):
    rep = structural_report(k4)
    assert not rep.is_minimally_two_connected
    assert not rep.triangle_free


def test_triangle_detection(k4, k23):
    assert not triangle_free(k4)
    assert triangle_free(k23)


def test_k3_is_minimal_triangle():
    # Order 3 sits outside the triangle-free implication; the report must
    # not raise on it.
    k3 = cycle(3)
    rep = structural_report(k3)
    assert rep.is_minimally_two_connected and not rep.triangle_free


def test_recognizers_agree_up_to_order_6():
    for n in range(1, 7):
        for g in graphs_by_order(n):
            assert is_minimally_two_connected_by_deletion(g) == \
                is_minimally_two_connected_by_chords(g), g


def test_recognizers_agree_random_order_8():
    rng = random.Random(31337)
    for _ in range(300):
        g = random_graph(rng, 8, rng.uniform(0.2, 0.7))
        assert is_minimally_two_connected_by_deletion(g) == \
            is_minimally_two_connected_by_chords(g), g


# Classes of 2-connected graphs by order, n = 1..8 (OEIS A002218).
_TWO_CONNECTED_CLASSES = [0, 0, 1, 3, 10, 56, 468, 7123]


def test_two_connected_class_counts():
    counts = [sum(map(is_two_connected, graphs_by_order(n))) for n in range(1, 9)]
    assert counts == _TWO_CONNECTED_CLASSES


def _refuse(*args, **kwargs):
    raise AssertionError("the recognizers share no walk")


def test_deletion_recognizer_runs_without_the_block_walk(monkeypatch):
    classes = [g for n in range(1, 8) for g in graphs_by_order(n)]
    expected = [is_minimally_two_connected_by_chords(g) for g in classes]
    monkeypatch.setattr(connectivity, "_block_masks", _refuse)
    assert [is_minimally_two_connected_by_deletion(g) for g in classes] == expected


def test_chord_recognizer_runs_without_the_reach(monkeypatch):
    classes = [g for n in range(1, 8) for g in graphs_by_order(n)]
    expected = [is_minimally_two_connected_by_deletion(g) for g in classes]
    for name in ("is_two_connected", "is_connected", "_reach"):
        monkeypatch.setattr(connectivity, name, _refuse)
    assert [is_minimally_two_connected_by_chords(g) for g in classes] == expected


def test_is_connected_components(c4):
    assert is_connected(c4)
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two)


def _chorded_cycle_brute_force(g):
    """Direct reading of the definition: some cycle plus an off-cycle edge
    between two of its vertices.  Exponential; oracle use only."""
    n = g.n

    def extend(start, current, visited, length):
        for nxt in g.neighbors(current):
            if nxt == start and length >= 3:
                cycle = list(visited)
                on_cycle = set(cycle)
                cycle_edges = set()
                for i, u in enumerate(cycle):
                    v = cycle[(i + 1) % len(cycle)]
                    cycle_edges.add((min(u, v), max(u, v)))
                for u in cycle:
                    for v in cycle:
                        if u < v and g.adjacent(u, v) and (u, v) not in cycle_edges:
                            return True
            elif nxt > start and nxt not in visited:
                if extend(start, nxt, visited + [nxt], length + 1):
                    return True
        return False

    return any(extend(s, s, [s], 1) for s in range(n))


def test_chord_detection_matches_brute_force():
    for n in range(3, 7):
        for g in graphs_by_order(n):
            assert has_chorded_cycle(g) == _chorded_cycle_brute_force(g), g


def test_chord_search_skips_edges_with_a_degree_2_end(monkeypatch):
    calls = []
    share_block = connectivity._share_block

    def counted(g, s, t):
        calls.append((s, t))
        return share_block(g, s, t)

    monkeypatch.setattr(connectivity, "_share_block", counted)
    # Every edge of K_{2,7} has an end of degree 2, so none can be a chord.
    assert not has_chorded_cycle(complete_bipartite(2, 7))
    assert calls == []
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert has_chorded_cycle(k4)
    assert calls
