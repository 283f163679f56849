import pytest

from alphaindex.connectivity import is_minimally_two_connected_by_deletion, triangle_free
from alphaindex.enumeration import canonical_form
from alphaindex.families import (
    MAX_FAMILY_ORDER,
    build,
    complete_bipartite,
    cycle,
    gab,
    subdivided_k2,
)
from alphaindex.graphs import Graph


def test_build_syntax():
    assert build("K2,3")[0] == Graph.from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert build("C7")[0] == Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    for text, order, size in (("SK2,4", 7, 9), ("G1,3", 7, 9)):
        g, _ = build(text)
        assert (g.n, g.m) == (order, size)
    for bad in ("K2", "SK2", "G4", "C", "Q5", "K2,3,4", "SK3,4", "C7,3", "SK2,3,4", ""):
        with pytest.raises(ValueError, match="unrecognized family syntax"):
            build(bad)


def test_build_ignores_spaces_and_leading_zeros():
    for text, plain in ((" K02,3", "K2,3"), ("SK2,04 ", "SK2,4"), ("G01,003", "G1,3"), ("\tC007", "C7")):
        assert build(text) == build(plain)


def test_parameter_validation():
    for text in ("K0,3", "SK2,1", "G2,1", "G0,2", "C2"):
        with pytest.raises(ValueError):
            build(text)


def test_build_refuses_orders_past_the_cap():
    cap = MAX_FAMILY_ORDER
    for text in (f"C{cap}", f"SK2,{cap - 3}", f"G1,{cap - 4}"):
        assert build(text)[0].n == cap
    for text in (f"C{cap + 1}", f"K{cap // 2 + 1},{cap // 2}", f"SK2,{cap - 2}",
                 f"G1,{cap - 3}", "C100000000", "K100000000,100000000"):
        with pytest.raises(ValueError, match=f"families stop at {cap}"):
            build(text)


def test_gab_isomorphic_to_subdivided_at_size_9():
    assert canonical_form(gab(1, 3)) == canonical_form(subdivided_k2(4))


def test_k22_is_c4():
    assert canonical_form(complete_bipartite(2, 2)) == canonical_form(cycle(4))


def test_c5_not_k23():
    assert canonical_form(cycle(5)) != canonical_form(complete_bipartite(2, 3))


def test_subdivided_counts():
    g = subdivided_k2(4)
    assert g.n == 7 and g.m == 9
    assert sorted(g.degrees()) == [2, 2, 2, 2, 2, 4, 4]


def test_gab_counts():
    for a, b in ((1, 1), (2, 3), (3, 3)):
        g = gab(a, b)
        assert g.n == a + b + 3 and g.m == 2 * (a + b) + 1


def test_orbit_blocks_cover(sk24):
    g, blocks = build("SK2,4")
    flattened = sorted(v for block in blocks for v in block)
    assert flattened == list(range(g.n))


def test_orbit_merges_when_sides_equal():
    _, blocks = build("K3,3")
    assert len(blocks) == 1
    _, blocks = build("K2,3")
    assert len(blocks) == 2


def _marked_form(g, u):
    """Canonical form of g with a new triangle hung on u.

    For a triangle-free g that triangle is the only one, so the forms of u
    and v agree exactly when some automorphism of g maps u to v.
    """
    x = g.n  # the first new vertex
    return canonical_form(g.add_vertex(1 << u).add_vertex((1 << u) | (1 << x)))


def test_orbit_blocks_lie_inside_one_orbit():
    fams = [f"K{a},{b}" for a in range(1, 5) for b in range(1, 5)]
    fams += [f"SK2,{k}" for k in range(2, 6)]
    fams += [f"G{a},{b}" for a in range(1, 4) for b in range(a, 5)]
    fams += [f"C{n}" for n in range(4, 9)]
    for fam in fams:
        g, blocks = build(fam)
        assert triangle_free(g), fam
        for block in blocks:
            assert len({_marked_form(g, u) for u in block}) == 1, (fam, block)


def test_marked_forms_separate_orbits():
    g, _ = build("SK2,4")
    assert _marked_form(g, 0) != _marked_form(g, 4)  # a hub and a common neighbour


def test_family_members_minimally_two_connected():
    members = [complete_bipartite(2, b) for b in range(2, 7)]
    members += [subdivided_k2(k) for k in range(2, 7)]
    members += [gab(a, b) for a in range(1, 4) for b in range(a, 5)]
    members += [cycle(n) for n in range(4, 9)]
    for g in members:
        assert is_minimally_two_connected_by_deletion(g)
