import importlib.util
import random
from pathlib import Path

import pytest

from alphaindex.enumeration import _add_ear
from alphaindex.graphs import (
    Graph,
    Graph6Error,
    GraphError,
    NonEdgeError,
    emit_graph6,
    parse_graph6,
)

from conftest import random_graph


def test_parse_single_edge():
    g = parse_graph6("A_")
    assert g.n == 2 and g.m == 1 and g.adjacent(0, 1)
    assert emit_graph6(g) == "A_"


def test_emit_one_vertex():
    assert emit_graph6(Graph.from_rows([0])) == "@"


def test_cycle4_string(c4):
    assert emit_graph6(c4) == "Cl"
    assert parse_graph6("Cl") == c4


def test_k23_string_hubs_first(k23):
    # Hand-packed from the upper-triangle bit order with hubs labeled 0, 1.
    assert emit_graph6(k23) == "D]o"
    assert parse_graph6("D]o") == k23


def test_star_decode():
    # "D?{" packs exactly the four bits x(i,4): the star K_{1,4}.
    g = parse_graph6("D?{")
    assert sorted(g.degrees()) == [1, 1, 1, 1, 4]


def test_nonzero_padding_rejected():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("B~")
    assert err.value.offset == 1


def test_truncated_payload():
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("D?")


def test_trailing_bytes():
    with pytest.raises(Graph6Error, match="trailing"):
        parse_graph6("A_?")


def test_out_of_range_character():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("A" + chr(30))
    assert err.value.offset == 1


def test_long_form_round_trip():
    rng = random.Random(5)
    g = random_graph(rng, 63, 0.05)
    text = emit_graph6(g)
    assert text.startswith("~")
    assert parse_graph6(text) == g


def _parse_bit_by_bit(text):
    """The decoder ``parse_graph6`` replaced: one payload bit at a time, in
    stream order, with the counted construction.  Oracle use only."""
    data = [ord(c) - 63 for c in text]
    if data[0] == 63:
        n, i = (data[1] << 12) | (data[2] << 6) | data[3], 4
    else:
        n, i = data[0], 1
    rows = [0] * n
    acc = left = 0
    for v in range(1, n):
        for u in range(v):
            if not left:
                acc, i, left = data[i], i + 1, 6
            left -= 1
            if (acc >> left) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph.from_rows(rows)


def test_parse_matches_bit_by_bit_decoder():
    rng = random.Random(15)
    for n in range(1, 71):
        for p in (0.1, 0.5, 0.9):
            text = emit_graph6(random_graph(rng, n, p))
            assert text.startswith("~") == (n >= 63)
            g, oracle = parse_graph6(text), _parse_bit_by_bit(text)
            assert (g.rows, g.m) == (oracle.rows, oracle.m), text
            assert Graph.from_rows(g.rows) == g, text


def _emit_bit_by_bit(g):
    """The encoder ``emit_graph6`` replaced: one payload bit at a time into
    a six-bit accumulator, in stream order.  Oracle use only."""
    if g.n <= 62:
        header = chr(63 + g.n)
    else:
        header = "~" + "".join(chr(63 + ((g.n >> shift) & 0x3F)) for shift in (12, 6, 0))
    payload = []
    acc = nbits = 0
    for v in range(1, g.n):
        for u in range(v):
            acc = (acc << 1) | ((g.rows[v] >> u) & 1)
            nbits += 1
            if nbits == 6:
                payload.append(chr(63 + acc))
                acc = nbits = 0
    if nbits:
        payload.append(chr(63 + (acc << (6 - nbits))))
    return header + "".join(payload)


def test_emit_matches_bit_by_bit_encoder():
    rng = random.Random(16)
    for n in range(1, 71):
        for p in (0, 0.1, 0.5, 0.9, 1):
            g = random_graph(rng, n, p)
            text = emit_graph6(g)
            assert text.startswith("~") == (n >= 63)
            assert text == _emit_bit_by_bit(g), (n, p)


INGEST_STREAM = Path(__file__).resolve().parent.parent / "perfbench" / "ingest_stream.py"


def test_codec_matches_the_benchmark_stream_encoder():
    # The benchmark writes its stream with an encoder of its own and gates
    # the output with parse_graph6; this pins both codec directions to it.
    spec = importlib.util.spec_from_file_location("perfbench_ingest_stream", INGEST_STREAM)
    stream = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stream)
    rng = random.Random(62)
    for n in range(1, 63):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            edges = {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
            text = stream.encode_graph6(n, edges)
            g = parse_graph6(text)
            assert (g.n, set(g.edges())) == (n, edges), text
            assert emit_graph6(Graph.from_edges(n, edges)) == text


def test_long_form_nonzero_padding_offset():
    # 63 * 62 / 2 = 1953 payload bits fill 326 bytes, leaving 3 padding bits.
    text = emit_graph6(random_graph(random.Random(3), 63, 0.2))
    assert len(text) == 4 + 326
    bad = text[:-1] + chr(63 + ((ord(text[-1]) - 63) | 1))
    with pytest.raises(Graph6Error, match="nonzero padding") as err:
        parse_graph6(bad)
    assert err.value.offset == len(text) - 1


def test_header_optional_prefix(c4):
    assert parse_graph6(">>graph6<<Cl") == c4


def test_round_trip_random_order8():
    rng = random.Random(20240801)
    for _ in range(100):
        g = random_graph(rng, 8, rng.uniform(0.1, 0.9))
        assert parse_graph6(emit_graph6(g)) == g


def test_remove_edge_cycle_becomes_path(c4):
    g = c4.remove_edge(0, 1)
    assert g.m == 3
    assert sorted(g.degrees()) == [1, 1, 2, 2]
    assert c4.m == 4  # input untouched


def test_remove_edge_k23(k23):
    assert k23.remove_edge(0, 2).m == 5


def test_remove_nonedge_raises(c4):
    with pytest.raises(NonEdgeError):
        c4.remove_edge(0, 2)


def test_add_edge_value_semantics(c4):
    g = c4.add_edge(0, 2)
    assert g.m == 5 and not c4.adjacent(0, 2)
    with pytest.raises(NonEdgeError):
        g.add_edge(0, 2)
    with pytest.raises(GraphError):
        g.add_edge(1, 1)


def test_profile_k23(k23):
    degrees = k23.degrees()
    assert sorted(degrees) == [2, 2, 2, 3, 3]
    assert min(degrees) == 2 and max(degrees) == 3


def test_profile_cycle_regular():
    c7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    assert set(c7.degrees()) == {2}


def test_profile_sk24(sk24):
    assert sorted(sk24.degrees()) == [2, 2, 2, 2, 2, 4, 4]
    assert sk24.m == 9


def test_degree_sum_is_twice_edges():
    rng = random.Random(77)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        assert sum(g.degrees()) == 2 * g.m


def test_relabel_permutation_checked(c4):
    with pytest.raises(GraphError):
        c4.relabel((0, 0, 1, 2))
    h = c4.relabel((1, 2, 3, 0))
    assert h.m == c4.m and sorted(h.degrees()) == sorted(c4.degrees())


def test_structural_validation():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(2, (1, 2), 1)
    with pytest.raises(GraphError, match="asymmetric"):
        Graph(2, (2, 0), 1)
    with pytest.raises(GraphError, match="edge count"):
        Graph(2, (2, 1), 2)
    with pytest.raises(GraphError):
        Graph(0, (), 0)


def test_from_edges_equals_the_validated_graph():
    rng = random.Random(4096)
    for _ in range(300):
        n = rng.randint(1, 20)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        # Both orientations and repeats of each edge.
        edges = rng.sample(pairs, rng.randint(0, len(pairs))) if pairs else []
        edges += rng.sample(edges, len(edges) // 3)
        rows = [0] * n
        for u, v in edges:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        expected = Graph(n, tuple(rows), sum(r.bit_count() for r in rows) // 2)
        assert Graph.from_edges(n, edges) == expected
        assert Graph.from_edges(n, iter(edges)) == expected


@pytest.mark.parametrize("n, edges, message", [
    (0, [], "at least one vertex"),
    (-2, [], "at least one vertex"),
    (0, [(0, 1)], "out of range"),
    (3, [(0, 3)], "out of range"),
    (3, [(-1, 2)], "out of range"),
    (3, [(0, 1), (2, 2)], "self-loop"),
])
def test_from_edges_errors(n, edges, message):
    with pytest.raises(GraphError, match=message):
        Graph.from_edges(n, edges)


def test_edges_iteration(k23):
    edges = list(k23.edges())
    assert len(edges) == k23.m
    assert all(u < v for u, v in edges)
    assert all(k23.adjacent(u, v) for u, v in edges)


def test_edits_equal_validated_construction():
    rng = random.Random(606)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        results = [g.add_vertex(rng.getrandbits(g.n))]
        perm = list(range(g.n))
        rng.shuffle(perm)
        results.append(g.relabel(tuple(perm)))
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        u, v = rng.choice(pairs)
        results.append(g.remove_edge(u, v) if g.adjacent(u, v) else g.add_edge(u, v))
        results.append(_add_ear(g, u, v, rng.randint(2, 4)))
        for h in results:
            assert h == Graph.from_rows(h.rows), h
