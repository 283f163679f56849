import math
import random

import pytest

from alphaindex.connectivity import is_connected
from alphaindex.enumeration import canonical_form
from alphaindex.families import cycle, gab, subdivided_k2
from alphaindex.graphs import Graph
from alphaindex.harness import CROSS_CHECK_TOL, ROTATION_SEED, sample_rotation_cases
from alphaindex.spectral import DisconnectedGraphError, alpha_index
from alphaindex.transforms import (
    Rotation,
    RotationError,
    rotate,
    rotation_monotonicity_check,
    rotation_monotonicity_checks,
    valid_moved_candidates,
)

from conftest import random_graph


def test_rotate_gab_to_subdivided():
    g = gab(2, 2)  # v1 = 5, v2 = 6
    rotated = rotate(g, Rotation(u=6, v=5, moved=frozenset({1})))
    assert rotated.m == g.m
    assert canonical_form(rotated) == canonical_form(subdivided_k2(4))


def test_rotate_degree_bookkeeping():
    g = gab(3, 3)  # v1 = 7, v2 = 8
    moved = frozenset({1, 2})
    rotated = rotate(g, Rotation(u=8, v=7, moved=moved))
    assert rotated.degree(7) == g.degree(7) - 2
    assert rotated.degree(8) == g.degree(8) + 2
    assert rotated.m == g.m


def test_rotation_invariants_enforced(c5):
    with pytest.raises(RotationError):
        rotate(c5, Rotation(u=0, v=0, moved=frozenset({1})))
    with pytest.raises(RotationError):
        rotate(c5, Rotation(u=2, v=0, moved=frozenset()))
    with pytest.raises(RotationError):
        rotate(c5, Rotation(u=2, v=0, moved=frozenset({3})))  # 3 not in N(0)
    with pytest.raises(RotationError):
        rotate(c5, Rotation(u=2, v=0, moved=frozenset({1})))  # 1 in N(2)
    with pytest.raises(RotationError):
        rotate(c5, Rotation(u=4, v=1, moved=frozenset({4})))  # moved contains u


def test_candidates_empty_when_neighbourhoods_nest():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert valid_moved_candidates(star, 0, 1) == []


def test_size_preserved_on_random_rotations():
    rng = random.Random(2024)
    done = 0
    while done < 100:
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.7))
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if u == v:
            continue
        candidates = valid_moved_candidates(g, u, v)
        if not candidates:
            continue
        moved = frozenset(rng.sample(candidates, rng.randint(1, len(candidates))))
        rotated = rotate(g, Rotation(u=u, v=v, moved=moved))
        assert rotated.m == g.m and rotated.n == g.n
        done += 1


def test_vertex_transitive_rotation_increases(c5):
    # Equal Perron coordinates satisfy the weak precondition; the increase
    # must still be strict.
    chk = rotation_monotonicity_check(c5, Rotation(u=2, v=0, moved=frozenset({4})), 0.5)
    assert chk.perron_precondition
    assert chk.increase > 0


def test_disconnecting_rotation_still_measured():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    chk = rotation_monotonicity_check(p4, Rotation(u=3, v=0, moved=frozenset({1})), 0.5)
    # The rotated graph is a triangle plus an isolated vertex.
    assert chk.perron_precondition
    assert chk.increase > 0


def test_disconnected_input_rejected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        rotation_monotonicity_check(g, Rotation(u=0, v=2, moved=frozenset({3})), 0.5)


def test_precondition_implies_increase_seeded():
    rng = random.Random(777)
    satisfied = 0
    while satisfied < 120:
        g = random_graph(rng, rng.randint(4, 8), rng.uniform(0.3, 0.7))
        if not is_connected(g):
            continue
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if u == v:
            continue
        candidates = valid_moved_candidates(g, u, v)
        if not candidates:
            continue
        moved = frozenset(rng.sample(candidates, rng.randint(1, len(candidates))))
        chk = rotation_monotonicity_check(g, Rotation(u=u, v=v, moved=moved), rng.choice((0.5, 0.75)))
        if chk.perron_precondition:
            satisfied += 1
            assert chk.increase > 0


def test_gab_family_rotations_increase():
    for a, b in ((2, 2), (2, 3), (3, 3)):
        g = gab(a, b)
        v1, v2 = a + b + 1, a + b + 2
        rot = Rotation(u=v2, v=v1, moved=frozenset(range(1, a)))
        for alpha in (0.5, 0.75, 0.9):
            perron = alpha_index(g, alpha).perron
            assert perron[v2] >= perron[v1] - 1e-12
            chk = rotation_monotonicity_check(g, rot, alpha)
            assert chk.perron_precondition and chk.increase > 0


def test_batched_checks_match_power_iteration_on_the_default_corpus():
    # Every candidate the default lemma7 corpus draws (seed, n <= 8) up to
    # its 1000th accepted case: the batched vectors must accept exactly
    # the cases power iteration accepts, with the same increase.
    cases = sample_rotation_cases(random.Random(ROTATION_SEED), 8, 2951)
    checks = rotation_monotonicity_checks(cases)
    assert not any(chk.fallbacks for chk in checks)
    satisfied = 0
    for (g, rot, alpha), chk in zip(cases, checks):
        ref = rotation_monotonicity_check(g, rot, alpha)
        assert chk.perron_precondition == ref.perron_precondition
        if ref.perron_precondition:
            satisfied += 1
            assert abs(chk.increase - ref.increase) <= CROSS_CHECK_TOL
        else:
            assert math.isnan(chk.increase)
    assert satisfied == 1000 and checks[-1].perron_precondition
    assert rotation_monotonicity_checks([]) == []
