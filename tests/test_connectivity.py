import random

import pytest

from alphaindex import connectivity
from alphaindex.connectivity import (
    chording_ears,
    has_chorded_cycle,
    is_connected,
    is_minimally_two_connected_by_chords,
    is_minimally_two_connected_by_deletion,
    is_removable,
    is_two_connected,
    threads,
    triangle_free,
)
from alphaindex.enumeration import _add_ear, graphs_by_order, graphs_by_size
from alphaindex.families import complete_bipartite
from alphaindex.graphs import Graph, iter_bits

from conftest import random_graph, without


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
    assert is_minimally_two_connected_by_deletion(k23)
    assert min(k23.degrees()) == 2
    assert triangle_free(k23)
    assert 2 * k23.n - 4 - k23.m == 0
    assert not has_chorded_cycle(k23)


def test_structural_report_c5(c5):
    assert is_minimally_two_connected_by_deletion(c5)
    assert 2 * c5.n - 4 - c5.m == 1


def test_structural_report_k4(k4):
    assert not is_minimally_two_connected_by_deletion(k4)
    assert not triangle_free(k4)


def test_triangle_detection(k4, k23):
    assert not triangle_free(k4)
    assert triangle_free(k23)


def test_k3_is_minimal_triangle():
    # Order 3 sits outside the triangle-free implication.
    k3 = cycle(3)
    assert is_minimally_two_connected_by_deletion(k3) and not triangle_free(k3)


def test_recognizers_agree_up_to_order_6(store):
    for n in range(1, 7):
        for g in graphs_by_order(n, classes=store):
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


def test_two_connected_class_counts(store):
    counts = [sum(map(is_two_connected, graphs_by_order(n, classes=store))) for n in range(1, 9)]
    assert counts == _TWO_CONNECTED_CLASSES


def _refuse(*args, **kwargs):
    raise AssertionError("the recognizers share no walk")


def test_deletion_recognizer_runs_without_the_block_walk(monkeypatch, store):
    classes = [g for n in range(1, 8) for g in graphs_by_order(n, classes=store)]
    expected = [is_minimally_two_connected_by_chords(g) for g in classes]
    monkeypatch.setattr(connectivity, "_block_masks", _refuse)
    assert [is_minimally_two_connected_by_deletion(g) for g in classes] == expected


def test_chord_recognizer_runs_without_the_reach(monkeypatch, store):
    classes = [g for n in range(1, 8) for g in graphs_by_order(n, classes=store)]
    expected = [is_minimally_two_connected_by_deletion(g) for g in classes]
    for name in ("is_two_connected", "is_connected", "_reach"):
        monkeypatch.setattr(connectivity, name, _refuse)
    assert [is_minimally_two_connected_by_chords(g) for g in classes] == expected


def test_diamond_rejects_before_the_block_walk(monkeypatch, k4, store):
    dense = random_graph(random.Random(12), 12, 0.4)
    assert any((dense.rows[u] & dense.rows[v]).bit_count() >= 2 for u, v in dense.edges())
    calls = []
    block_masks = connectivity._block_masks

    def counted(g):
        calls.append(g)
        return block_masks(g)

    monkeypatch.setattr(connectivity, "_block_masks", counted)
    assert not is_minimally_two_connected_by_chords(k4)
    assert not is_minimally_two_connected_by_chords(dense)
    diamonds = [g for n in range(4, 7) for g in graphs_by_order(n, classes=store)
                if any((g.rows[u] & g.rows[v]).bit_count() >= 2 for u, v in g.edges())]
    assert not any(map(is_minimally_two_connected_by_chords, diamonds))
    assert calls == []
    assert is_minimally_two_connected_by_chords(complete_bipartite(2, 5))
    assert calls


def _cycle_plus_ears(rng, n):
    g = cycle(rng.randint(5, n - 2))
    while g.n < n:
        u, v = rng.sample(range(g.n), 2)
        if not g.adjacent(u, v):
            g = _add_ear(g, u, v, rng.randint(2, min(4, n - g.n + 1)))
    return g


def test_recognizers_agree_on_seeded_graphs():
    rng = random.Random(1968)
    graphs = [random_graph(rng, rng.randint(9, 13), p)
              for _ in range(100) for p in (0.15, 0.25, 0.4)]
    # G(n, p) at these densities is never minimally 2-connected; ears often are.
    graphs += [_cycle_plus_ears(rng, rng.randint(9, 13)) for _ in range(100)]
    verdicts = [is_minimally_two_connected_by_deletion(g) for g in graphs]
    assert 20 <= sum(verdicts) <= 80
    for g, minimal in zip(graphs, verdicts):
        assert is_minimally_two_connected_by_chords(g) == minimal, g


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


def test_chord_detection_matches_brute_force(store):
    for n in range(3, 7):
        for g in graphs_by_order(n, classes=store):
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


def _block_masks_by_edge_stack(g):
    """The block walk as it was before it stepped through bit masks in
    place: Tarjan with an edge stack and one ``iter_bits`` generator per
    DFS frame.  Kept as the oracle for ``connectivity._block_masks``."""
    disc = [-1] * g.n
    low = [0] * g.n
    parent = [-1] * g.n
    edge_stack = []
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


def _ear_cells(m_max, store):
    return [g for m in range(3, m_max + 1) for g in graphs_by_size(m, store)]


def test_block_walk_matches_the_edge_stack_walk(store):
    rng = random.Random(1973)
    graphs = [g for n in range(1, 8) for g in graphs_by_order(n, classes=store)]
    graphs += [random_graph(rng, n, p) for n in range(1, 17)
               for p in (0.05, 0.1, 0.2, 0.35, 0.5, 0.8) for _ in range(6)]
    ears = _ear_cells(14, store)
    graphs += ears
    graphs += [g.remove_edge(u, v) for g in ears[::7] for u, v in g.edges()]
    assert any(not is_connected(g) for g in graphs)
    assert any(len(list(_block_masks_by_edge_stack(g))) > 2 for g in graphs)
    for g in graphs:
        assert list(connectivity._block_masks(g)) == list(_block_masks_by_edge_stack(g)), g


def test_chording_ears_unchanged_by_the_block_walk(monkeypatch, store):
    ears = _ear_cells(14, store)
    got = [chording_ears(g) for g in ears]
    monkeypatch.setattr(connectivity, "_block_masks", _block_masks_by_edge_stack)
    assert got == [chording_ears(g) for g in ears]


def _chording_ears_by_edge(g):
    """The closing rows from one block walk of ``g - xy`` per edge xy, each
    edge marking every pair between the interiors of x's and y's end
    blocks: the definition ``chording_ears`` rests on, read off directly."""
    rows = [0] * g.n
    for x, y in g.edges():
        seen = cuts = 0
        end_x = end_y = 0
        for block in connectivity._block_masks(g.remove_edge(x, y)):
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


def test_chording_ears_match_the_per_edge_walk(store):
    ears = _ear_cells(16, store)
    non_minimal = [g for n in range(3, 8) for g in graphs_by_order(n, "two_connected", store)]
    assert len(ears) == 1358 and len(non_minimal) == 538
    assert any(not is_minimally_two_connected_by_deletion(g) for g in non_minimal)
    for g in ears + non_minimal:
        closing = chording_ears(g)
        # Whole rows, so the bits of adjacent pairs are compared too: every
        # edge closes its own ends.
        assert closing == _chording_ears_by_edge(g), g
        assert all(row & ~c == 0 for row, c in zip(g.rows, closing)), g


def test_chording_ears_walk_once_per_thread(monkeypatch, k4, k23, store):
    walks = []
    walk = connectivity._block_masks
    monkeypatch.setattr(connectivity, "_block_masks", lambda h: walks.append(h) or walk(h))
    for g in [cycle(3), cycle(7), k4, k23] + _ear_cells(12, store):
        del walks[:]
        chording_ears(g)
        heavy = {v for v in range(g.n) if g.degree(v) >= 3}
        heavy_edges = sum(1 for u, v in g.edges() if u in heavy and v in heavy)
        assert len(walks) == len(list(threads(g))) + heavy_edges, g


def _threads_by_components(g):
    """Threads from the components of the subgraph on the degree-2
    vertices: a component is a thread's interior when its vertices have
    exactly two neighbours outside it, distinct and of degree >= 3."""
    light = {v for v in range(g.n) if g.degree(v) == 2}
    out, seen = [], set()
    for start in light:
        if start in seen:
            continue
        component, stack = {start}, [start]
        while stack:
            for w in g.neighbors(stack.pop()):
                if w in light and w not in component:
                    component.add(w)
                    stack.append(w)
        seen |= component
        ends = sorted(w for v in component for w in g.neighbors(v) if w not in component)
        if len(ends) == 2 and ends[0] != ends[1] and min(map(g.degree, ends)) >= 3:
            out.append((ends[0], ends[1], sum(1 << v for v in component)))
    return sorted(out)


def test_threads_match_degree_two_components(k4, k23, store):
    rng = random.Random(2611)
    graphs = [g for n in range(1, 8) for g in graphs_by_order(n, classes=store)]
    graphs += _ear_cells(13, store)
    graphs += [random_graph(rng, n, 0.3) for n in range(4, 14) for _ in range(20)]
    assert list(threads(k4)) == [] and len(list(threads(k23))) == 3
    assert sum(1 for g in graphs for _ in threads(g)) > 2000
    for g in graphs:
        assert sorted(threads(g)) == _threads_by_components(g), g


def test_removable_threads_match_deletion(store):
    graphs = _ear_cells(13, store) + [g for g in graphs_by_order(7, "two_connected", store)]
    removable = 0
    for g in graphs:
        for _, _, interior in threads(g):
            assert is_removable(g, interior) == is_two_connected(without(g, interior)), g
            removable += is_removable(g, interior)
    assert 0 < removable < sum(1 for g in graphs for _ in threads(g))
