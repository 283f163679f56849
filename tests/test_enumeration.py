import gc
import random
from functools import lru_cache

import pytest

from alphaindex import connectivity, enumeration
from alphaindex.connectivity import (
    chording_ears,
    is_minimally_two_connected_by_chords,
    is_minimally_two_connected_by_deletion,
)
from alphaindex.enumeration import (
    EnumerationLimitError,
    canonical_form,
    graphs_by_order,
    graphs_by_size,
    ingest_graph6,
)
from alphaindex.families import complete_bipartite, cycle, gab, subdivided_k2
from alphaindex.graphs import Graph, Graph6Error, emit_graph6, iter_bits, parse_graph6

from conftest import (
    MISSED_MATCHES,
    SHARED_SIGNATURE_CLASSES_12,
    circulant,
    disjoint_union,
    fresh_ear_caches,
    random_graph,
    relabelled,
    without,
)

# Isomorphism classes of simple graphs on n vertices (OEIS A000088).
KNOWN_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


@pytest.mark.parametrize("n,count", sorted(KNOWN_CLASS_COUNTS.items()))
def test_all_class_counts(n, count):
    assert len(graphs_by_order(n)) == count


def _every_neighbourhood_classes(n_max):
    """Classes of orders 1..n_max from every neighbourhood of a new vertex on
    every class one order lower, de-duplicated by canonical form: augmentation
    without the minimum-degree cut."""
    levels = [(Graph.from_rows([0]),)]
    for n in range(2, n_max + 1):
        seen = {}
        for parent in levels[-1]:
            for mask in range(1 << (n - 1)):
                key = canonical_form(parent.add_vertex(mask))
                if key not in seen:
                    seen[key] = parse_graph6(key)
        levels.append(tuple(seen[key] for key in sorted(seen)))
    return levels


def test_minimum_degree_augmentation_matches_every_neighbourhood():
    for n, classes in enumerate(_every_neighbourhood_classes(7), start=1):
        assert enumeration._all_classes(n) == classes, n


def test_minimum_degree_augmentation_form_count(monkeypatch):
    # A fresh cache makes the sweep cold and leaves the shared one as it was.
    monkeypatch.setattr(enumeration, "_all_classes",
                        lru_cache(maxsize=None)(enumeration._all_classes.__wrapped__))
    calls = []
    label = enumeration._canonical

    def counted(g):
        calls.append(None)
        return label(g)

    monkeypatch.setattr(enumeration, "_canonical", counted)
    assert len(enumeration._all_classes(7)) == 1044
    # 3,131 with the minimum-degree test alone, 11,290 with every neighbourhood
    assert len(calls) == 2490


def test_min2c_order4():
    classes = graphs_by_order(4, "minimally_two_connected")
    assert len(classes) == 1
    assert canonical_form(classes[0]) == canonical_form(cycle(4))


def test_min2c_order5():
    classes = graphs_by_order(5, "minimally_two_connected")
    forms = {emit_graph6(g) for g in classes}
    assert forms == {canonical_form(cycle(5)), canonical_form(complete_bipartite(2, 3))}


def test_enumeration_sorted_and_canonical():
    classes = graphs_by_order(5)
    forms = [emit_graph6(g) for g in classes]
    assert forms == sorted(forms)
    assert all(canonical_form(g) == emit_graph6(g) for g in classes)


def test_canonical_invariant_under_relabeling(k23):
    rng = random.Random(11)
    want = canonical_form(k23)
    for _ in range(20):
        perm = list(range(k23.n))
        rng.shuffle(perm)
        assert canonical_form(k23.relabel(tuple(perm))) == want


def test_canonical_random_relabel_property():
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g) == canonical_form(g.relabel(tuple(perm)))


@pytest.mark.parametrize("n", [14, 15, 16])
def test_canonical_invariant_past_order_13(n):
    rng = random.Random(1400 + n)
    graphs = [cycle(n), complete_bipartite(2, n - 2)]
    graphs += [random_graph(rng, n, p) for p in (0.2, 0.5)]
    for g in graphs:
        want = canonical_form(g)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(tuple(perm))) == want


@pytest.mark.parametrize("n", [17, 18, 19, 20])
def test_canonical_invariant_past_order_16(n):
    rng = random.Random(1700 + n)
    graphs = [cycle(n), complete_bipartite(2, n - 2), circulant(n, (1, 3))]
    c4s = disjoint_union(*[cycle(4)] * (n // 4))
    graphs.append(Graph.from_rows(c4s.rows + (0,) * (n % 4)))
    if n % 2 == 0:
        graphs.append(Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]))
    if n == 17:
        graphs.append(circulant(17, (1, 2, 4, 8)))  # Paley(17)
    graphs += [random_graph(rng, n, p) for p in (0.15, 0.3, 0.5)]
    for g in graphs:
        want = canonical_form(g)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(tuple(perm))) == want


@pytest.mark.parametrize("given,form", [
    # Nine isolated vertices and two disjoint edges.
    ("L??????C???@??", "L?????????_??@"),
    # The perfect matching 8K2.
    (emit_graph6(Graph.from_edges(16, [(2 * i, 2 * i + 1) for i in range(8)])),
     "O`?G?C??G??@????_???@"),
])
def test_canonical_search_prunes_automorphic_branches(monkeypatch, given, form):
    calls = []
    refine = enumeration._refine

    def counted(*args):
        calls.append(None)
        return refine(*args)

    monkeypatch.setattr(enumeration, "_refine", counted)
    assert canonical_form(parse_graph6(given)) == form
    assert len(calls) <= 200  # an unpruned search makes millions


def test_canonical_searches_leave_no_garbage_cycles():
    # A search's state is freed when it returns, not at the next cyclic
    # collection: with the collector off, nothing is left unreachable.
    graphs = [subdivided_k2(5), cycle(9)]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for g in graphs:
                enumeration._canonical(g)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_canonical_distinguishes(c5, k23):
    assert canonical_form(c5) != canonical_form(k23)


def test_gab_isomorphic_subdivided():
    assert canonical_form(gab(1, 3)) == canonical_form(subdivided_k2(4))


def test_canonical_graph_is_isomorphic(k23):
    h, form, _, _ = enumeration._canonical(k23)
    assert canonical_form(h) == canonical_form(k23)
    assert emit_graph6(h) == form == canonical_form(k23)


def test_canonical_order_cap():
    big = cycle(enumeration.MAX_CANONICAL_ORDER + 1)
    with pytest.raises(EnumerationLimitError):
        canonical_form(big)


def test_by_size_8_contents():
    classes = graphs_by_size(8)
    forms = {emit_graph6(g) for g in classes}
    assert canonical_form(complete_bipartite(2, 4)) in forms
    assert canonical_form(cycle(8)) in forms
    assert len(classes) == 4  # frozen from the by-order brute-force oracle


def test_by_size_9_contains_subdivided(sk24):
    classes = graphs_by_size(9)
    assert canonical_form(sk24) in {emit_graph6(g) for g in classes}
    assert len(classes) == 6


def test_by_size_all_minimal_and_degree_capped():
    for m in range(6, 14):
        for g in graphs_by_size(m):
            assert g.m == m
            assert is_minimally_two_connected_by_chords(g)
            assert is_minimally_two_connected_by_deletion(g)
            # d(v) < (m+1)/2 for every vertex of a size-m instance
            assert max(g.degrees()) < (m + 1) / 2
            # Lemma-5 window: (m+4)/2 <= n <= m
            assert (m + 4) / 2 <= g.n <= m or g.n == 3


@pytest.mark.parametrize("m,count", [(14, 154), (15, 320), (16, 729)])
def test_by_size_past_13(m, count):
    classes = graphs_by_size(m)
    assert len(classes) == count
    assert all(g.m == m and is_minimally_two_connected_by_deletion(g) for g in classes)
    assert len({canonical_form(g) for g in classes}) == count


def test_chording_ears_match_both_recognizers():
    # Every minimal parent of size <= 10, plus non-minimal 2-connected ones.
    parents = [g for m in range(3, 11) for g in graphs_by_size(m)]
    parents += [g for g in graphs_by_order(5, "two_connected")
                if not is_minimally_two_connected_by_deletion(g)]
    for g in parents:
        closing = chording_ears(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                minimal = not (closing[u] >> v) & 1
                assert minimal == (not (closing[v] >> u) & 1)
                for length in (2, 3):
                    child = enumeration._add_ear(g, u, v, length)
                    assert is_minimally_two_connected_by_chords(child) == minimal, (g, u, v)
                    assert is_minimally_two_connected_by_deletion(child) == minimal, (g, u, v)


def test_ear_generation_runs_no_chord_test(monkeypatch):
    def refuse(g):
        raise AssertionError("chord test called during ear generation")

    monkeypatch.setattr(enumeration, "is_minimally_two_connected_by_chords", refuse)
    monkeypatch.setattr(connectivity, "has_chorded_cycle", refuse)
    enumeration._ear_classes.cache_clear()
    enumeration._ear_pairs.cache_clear()
    assert len(graphs_by_size(13)) == 70
    assert len(graphs_by_order(10, "minimally_two_connected")) == 68


def _every_ear_pair_cells(m_max):
    """Ear cells ``(n, m)`` of sizes 3..m_max from every ear pair of every
    parent, de-duplicated by canonical form: ear generation without the
    pruning by the parent's automorphisms and without the largest-thread
    test."""
    cells = {}
    for m in range(3, m_max + 1):
        for n in range(3, m + 1):
            seen = {}
            if n == m:
                h, form, _, _ = enumeration._canonical(cycle(n))
                seen[form] = h
            for length in range(2, n - 2):
                for g in cells.get((n - length + 1, m - length), ()):
                    for u, closing in enumerate(chording_ears(g)):
                        for v in range(u + 1, g.n):
                            if not ((closing | g.rows[u]) >> v) & 1:
                                child = enumeration._add_ear(g, u, v, length)
                                h, form, _, _ = enumeration._canonical(child)
                                seen[form] = h
            cells[n, m] = tuple(seen[key] for key in sorted(seen))
    return cells


def test_ear_pair_pruning_matches_every_ear_pair():
    for (n, m), cell in _every_ear_pair_cells(13).items():
        assert tuple(h for h, _, _ in enumeration._ear_classes(n, m)) == cell, (n, m)


def test_largest_removable_thread_leaves_a_parent_class():
    # The argument that the largest-thread test loses no class: every
    # non-cycle class has a removable thread, and deleting the inside of the
    # one of largest key leaves a class one excess edge lower.
    for m in range(4, 14):
        for n in range(4, m + 1):
            for g, _, _ in enumeration._ear_classes(n, m):
                if g.n == g.m:
                    continue
                keyed = [(interior.bit_count() + 1, g.degree(a) + g.degree(b), interior)
                         for a, b, interior in connectivity.threads(g)
                         if connectivity.is_removable(g, interior)]
                length, _, interior = max(keyed)
                cell = {form for _, _, form in enumeration._ear_classes(n - length + 1, m - length)}
                assert canonical_form(without(g, interior)) in cell, emit_graph6(g)


def _is_automorphism(g, sigma):
    return sorted(sigma) == list(range(g.n)) and all(
        g.rows[sigma[v]] == sum(1 << sigma[w] for w in iter_bits(g.rows[v]))
        for v in range(g.n)
    )


def test_ear_cell_generators_are_automorphisms():
    entries = [e for m in range(3, 13) for n in range(3, m + 1)
               for e in enumeration._ear_classes(n, m)]
    assert sum(len(generators) for _, generators, _ in entries) > len(entries)
    for n in range(3, enumeration.MAX_SIZE + 1):
        (h, generators, form), = [e for e in enumeration._ear_classes(n, n)
                                  if max(e[0].degrees()) == 2]
        assert (h, form) == enumeration._canonical(cycle(n))[:2]
        entries.append((h, generators, form))
    for h, generators, _ in entries:
        for sigma in generators:
            assert _is_automorphism(h, sigma), (emit_graph6(h), sigma)


def _counted_ear_sweep(monkeypatch, m_max):
    """Class counts of sizes 3..m_max from a cold ear sweep, and the number
    of canonical searches it ran."""
    fresh_ear_caches(monkeypatch)
    calls = []
    search = enumeration._canonical_order

    def counted(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(enumeration, "_canonical_order", counted)
    return [len(graphs_by_size(m)) for m in range(3, m_max + 1)], len(calls)


def test_ear_pair_pruning_canonical_count(monkeypatch):
    counts, searches = _counted_ear_sweep(monkeypatch, 13)
    assert counts == [1, 1, 1, 2, 2, 4, 6, 11, 18, 39, 70]
    # 351 without the largest-thread test, 924 with every ear pair.
    assert searches == 162


def test_ear_sweep_canonical_count_to_size_16(monkeypatch):
    counts, searches = _counted_ear_sweep(monkeypatch, 16)
    assert counts[-3:] == [154, 320, 729] and sum(counts) == 1358
    assert searches == 1497  # 4,192 without the largest-thread test


def test_union_reuses_the_cell_forms(monkeypatch):
    expected = [emit_graph6(g) for g in graphs_by_size(12)]
    forms = [emit_graph6(g) for g in graphs_by_order(9, "minimally_two_connected")]

    def refuse(g):
        raise AssertionError("class re-encoded after its cell was built")

    monkeypatch.setattr(enumeration, "emit_graph6", refuse)
    assert graphs_by_size(12) == [parse_graph6(form) for form in expected]
    assert graphs_by_order(9, "minimally_two_connected") == [parse_graph6(f) for f in forms]


def _brute_force_min2c(n, recognizer):
    return [emit_graph6(g) for g in enumeration._all_classes(n) if recognizer(g)]


def test_by_size_matches_by_order_slice():
    for m in range(6, 11):
        via_orders = set()
        for n in range(4, 9):
            via_orders.update(
                form for form in _brute_force_min2c(n, is_minimally_two_connected_by_deletion)
                if parse_graph6(form).m == m
            )
        via_sizes = {emit_graph6(g) for g in graphs_by_size(m) if g.n <= 8}
        assert via_orders == via_sizes


@pytest.mark.parametrize("recognizer", [
    is_minimally_two_connected_by_chords, is_minimally_two_connected_by_deletion,
])
def test_min2c_by_order_matches_brute_force(recognizer):
    for n in range(1, 9):
        got = [emit_graph6(g) for g in graphs_by_order(n, "minimally_two_connected")]
        assert got == _brute_force_min2c(n, recognizer), n


@pytest.mark.parametrize("n,count", [(9, 28), (10, 68), (11, 184), (12, 526)])
def test_min2c_by_order_past_brute_force(n, count):
    classes = graphs_by_order(n, "minimally_two_connected")
    assert len(classes) == count
    assert all(g.n == n and is_minimally_two_connected_by_deletion(g) for g in classes)
    assert len({canonical_form(g) for g in classes}) == count


def test_order_limits():
    with pytest.raises(EnumerationLimitError, match="graph6 stream"):
        graphs_by_order(enumeration.MAX_BUILTIN_ORDER + 1)
    assert len(graphs_by_order(9, "minimally_two_connected")) == 28  # no flag
    with pytest.raises(EnumerationLimitError):
        graphs_by_order(14, "minimally_two_connected")
    with pytest.raises(EnumerationLimitError):
        graphs_by_size(enumeration.MAX_SIZE + 1)
    with pytest.raises(EnumerationLimitError):
        graphs_by_size(2)


def test_ingest_round_trip_matches_builtin():
    rng = random.Random(404)
    for n in (4, 5, 6, 7, 8):
        builtin = graphs_by_order(n, "minimally_two_connected")
        lines = []
        for g in builtin:
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                lines.append(emit_graph6(g.relabel(tuple(perm))))
        rng.shuffle(lines)
        got = list(ingest_graph6(lines, "minimally_two_connected"))
        assert all(form == canonical_form(g) for g, form in got)
        assert {form for _, form in got} == {emit_graph6(g) for g in builtin}
        assert len(got) == len(builtin)  # de-duplicated


def test_ingest_unknown_filter_is_a_value_error():
    with pytest.raises(ValueError, match="unknown filter 'bogus'"):
        next(ingest_graph6(["Bw"], "bogus"))
    with pytest.raises(ValueError, match="unknown filter 'bogus'"):
        graphs_by_order(3, "bogus")


def test_ingest_empty_stream():
    assert list(ingest_graph6([])) == []


def test_ingest_malformed_line_number():
    lines = ["Cl", "B~", "Cl"]
    out = []
    with pytest.raises(Graph6Error, match="line 2"):
        for g, _ in ingest_graph6(lines):
            out.append(g)
    assert len(out) == 1  # prior output preserved


def test_ingest_filter_applied(c4):
    lines = [emit_graph6(c4), "A_"]
    got = list(ingest_graph6(lines, "two_connected"))
    assert len(got) == 1 and got[0][0].n == 4


def _search(g):
    cells = enumeration._refine(g.n, g.rows, [list(range(g.n))])
    return cells, enumeration._canonical_order(g.n, g.rows, cells)


def test_match_never_accepts_a_class_sharing_the_signature():
    rng = random.Random(12)
    for bucket in SHARED_SIGNATURE_CLASSES_12:
        graphs = [parse_graph6(form) for form in bucket]
        targets = [_search(g)[1][2] for g in graphs]
        signatures = {enumeration._signature(g.n, g.rows, _search(g)[0]) for g in graphs}
        assert len(signatures) == 1
        for g in graphs:
            h = relabelled(rng, g)
            cells = _search(h)[0]
            for form, target in zip(bucket, targets):
                # True is exact; a False on the own class is a miss, which
                # costs a full search only.
                if enumeration._matches(h.n, h.rows, cells, target):
                    assert form == emit_graph6(g)


def test_minimum_leaf_is_the_canonical_form():
    rng = random.Random(5)
    for g in [random_graph(rng, n, 0.3) for n in range(1, 14)]:
        _, (order, _, cols) = _search(g)
        h, form, leaf, _ = enumeration._canonical(g)
        # Canonical label i is the leaf's i-th vertex.
        assert all((h.rows[i] >> j) & 1 == (g.rows[order[i]] >> order[j]) & 1
                   for i in range(g.n) for j in range(g.n))
        assert form == emit_graph6(h) and leaf == cols
        assert cols == tuple(enumeration._column(h.rows[v], list(range(v))) for v in range(g.n))


@pytest.mark.parametrize("n", range(1, 14))
def test_canonical_generators_are_automorphisms(n):
    rng = random.Random(2000 + n)
    graphs = [random_graph(rng, n, p) for p in (0.2, 0.5, 0.8)]
    graphs += [complete_bipartite(a, n - a) for a in range(1, n // 2 + 1)]
    if n >= 3:
        graphs.append(cycle(n))
    graphs += [circulant(n, jumps) for jumps in ((1, 2), (1, 3)) if n > 2 * jumps[1]]
    if n == 13:
        graphs.append(circulant(13, (1, 3, 4)))  # Paley(13)
    recorded = 0
    for g in graphs:
        h, _, _, generators = enumeration._canonical(relabelled(rng, g))
        recorded += len(generators)
        for sigma in generators:
            assert _is_automorphism(h, sigma), (emit_graph6(h), sigma)
    # Below four vertices every graph is a leaf at the root, as is K_{a,b}.
    assert recorded or n < 4


def test_missed_match_costs_one_full_search(monkeypatch):
    form = "HC`Q`Wi"
    _, (_, _, target) = _search(parse_graph6(form))
    for line in MISSED_MATCHES:
        g = parse_graph6(line)
        assert canonical_form(g) == form
        assert not enumeration._matches(g.n, g.rows, _search(g)[0], target)
    calls = []
    search = enumeration._canonical_order

    def counted(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(enumeration, "_canonical_order", counted)
    got = list(ingest_graph6([form, *MISSED_MATCHES]))
    assert [(emit_graph6(g), f) for g, f in got] == [(form, form)]
    assert len(calls) == 1 + len(MISSED_MATCHES)


def _homogeneous_by_vertex(rows, cells):
    """The homogeneity test before it read the equitable partition: every
    vertex's counts checked, within its cell and into each later cell.
    Oracle use only."""
    masks = [enumeration._mask(c) for c in cells]
    for cell, mask in zip(cells, masks):
        if len(cell) > 1:
            want = None
            for v in cell:
                d = (rows[v] & mask).bit_count()
                if d not in (0, len(cell) - 1):
                    return False
                if want is None:
                    want = d
                elif d != want:
                    return False
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            size = len(cells[j])
            want = None
            for v in cells[i]:
                d = (rows[v] & masks[j]).bit_count()
                if d not in (0, size):
                    return False
                if want is None:
                    want = d
                elif d != want:
                    return False
    return True


def test_homogeneity_reads_the_equitable_partition(monkeypatch):
    outcomes = []
    node = enumeration._node

    def checked(rows, cells):
        masks = [enumeration._mask(c) for c in cells]
        for cell in cells:
            for mask in masks:
                assert len({(rows[v] & mask).bit_count() for v in cell}) == 1, cells
        # The cells _node tests: those after the leading singletons.
        remaining = cells[next((i for i, c in enumerate(cells) if len(c) > 1), len(cells)):]
        got = enumeration._homogeneous(rows, remaining)
        assert got == _homogeneous_by_vertex(rows, remaining), cells
        outcomes.append(got)
        return node(rows, cells)

    monkeypatch.setattr(enumeration, "_node", checked)
    rng = random.Random(22)
    corpus = [g for n in range(1, 8) for g in graphs_by_order(n)]
    corpus += [random_graph(rng, n, p) for n in range(1, 17) for p in (0.1, 0.3, 0.5, 0.7)]
    corpus += [circulant(n, jumps) for n in range(5, 18) for jumps in ((1, 2), (1, 3))
               if n > 2 * jumps[1]]
    corpus += [circulant(13, (1, 3, 4)), circulant(17, (1, 2, 4, 8)), circulant(16, (1, 8))]
    corpus += [complete_bipartite(a, b) for a in range(1, 8) for b in range(a, 9)]
    for g in corpus:
        canonical_form(relabelled(rng, g))
    assert True in outcomes and False in outcomes
