import decimal
import math
import random

import numpy as np
import pytest

from alphaindex import harness, spectral
from alphaindex.connectivity import is_connected
from alphaindex.enumeration import MAX_SIZE, graphs_by_order, graphs_by_size
from alphaindex.families import build, complete_bipartite, cycle, subdivided_k2
from alphaindex.graphs import Graph, GraphError
from alphaindex.harness import (
    CROSS_CHECK_TOL,
    sample_rotation_cases,
    verify_lemma_suite,
    verify_theorem_order,
    verify_theorem_size,
)
from alphaindex.spectral import (
    POWER_MAX_ITERATIONS,
    ConvergenceError,
    DisconnectedGraphError,
    alpha_index,
    block_spread,
    closed_form_complete_bipartite,
    column_sums,
    components,
    degree_sums,
    induced_subgraph,
    lambda_max,
    lambda_maxes,
    lower_bounds_max_degree,
    perron_bounds,
    perron_pairs,
    perron_symmetry_check,
    upper_bounds_degree_average,
)
from alphaindex.transforms import rotate, rotation_monotonicity_check, rotation_monotonicity_checks

from conftest import alpha_matrix_by_loop, column_sums_by_loop, jacobi_eigenvalues, random_graph


def connected_sample(rng, n_lo=2, n_hi=10):
    while True:
        g = random_graph(rng, rng.randint(n_lo, n_hi), rng.uniform(0.25, 0.75))
        if is_connected(g):
            return g


def _stack_corpus(store):
    """Every class with n <= 7, a single vertex, K_{12,12} and C_1000 (rows
    wider than 64 bits), grouped by order."""
    groups = [graphs_by_order(n, classes=store) for n in range(1, 8)]
    return groups + [[Graph.from_rows([0])], [complete_bipartite(12, 12)], [cycle(1000)]]


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.9, 1.0])
def test_adjacency_stack_gives_the_loop_matrices_exactly(alpha, store):
    for graphs in _stack_corpus(store):
        adj = spectral.adjacency_stack(graphs)
        assert adj.shape == (len(graphs), graphs[0].n, graphs[0].n)
        stack = spectral._alpha_stack(adj, adj.sum(axis=2), alpha)
        for g, a in zip(graphs, stack):
            assert np.array_equal(a, alpha_matrix_by_loop(g, alpha))


def test_adjacency_stack_needs_one_order(c4, k23):
    with pytest.raises(ValueError, match="one order"):
        spectral.adjacency_stack([c4, k23])


def _degree_bounds_by_loop(g, alpha):
    """Lemma 1's and lemma 2's bounds, one vertex at a time."""
    degs = g.degrees()
    upper = max(
        alpha * degs[u] + (1.0 - alpha) * sum(degs[v] for v in g.neighbors(u)) / degs[u]
        for u in range(g.n)
    )
    delta = max(degs)
    lower = alpha * (delta + 1) if alpha < 0.5 else alpha * delta + (1.0 - alpha) ** 2 / alpha
    return upper, lower


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 0.9, 0.999])
def test_degree_bounds_from_the_stack_equal_the_vertex_loop(connected_classes, alpha):
    by_order = {}
    for g in connected_classes[1:] + [complete_bipartite(12, 12), cycle(1000)]:
        by_order.setdefault(g.n, []).append(g)
    for graphs in by_order.values():
        adj = spectral.adjacency_stack(graphs)
        upper = spectral.upper_bounds_degree_average(adj, alpha).tolist()
        lower = spectral.lower_bounds_max_degree(adj, alpha).tolist()
        assert list(zip(upper, lower)) == [_degree_bounds_by_loop(g, alpha) for g in graphs]


def test_column_sums_range_checked(c4):
    with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\], got 1.5"):
        column_sums(spectral.adjacency_stack([c4]), 1.5, "order")


def test_cycles_have_rho_two():
    for n in (3, 5, 8, 13):
        for a in (0.0, 0.25, 0.5, 0.9):
            assert abs(alpha_index(cycle(n), a).rho - 2.0) < 1e-11


def test_k23_half_exact(k23):
    result = alpha_index(k23, 0.5)
    assert abs(result.rho - 2.5) <= 1e-12
    assert abs(result.perron.sum() - 1.0) < 1e-12
    assert result.perron.min() > 0
    assert result.residual <= 1e-12 * max(result.rho, 1.0)


def test_sk24_half_value(sk24):
    assert abs(alpha_index(sk24, 0.5).rho - 2.9444847004446) < 1e-10


def test_single_vertex():
    one = Graph.from_rows([0])
    result = alpha_index(one, 0.5)
    assert result.rho == 0.0 and result.perron[0] == 1.0


def test_disconnected_rejected():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        alpha_index(g, 0.5)
    assert abs(lambda_max(g, 0.5) - 1.0) < 1e-12


@pytest.mark.parametrize("solve", [spectral.alpha_indices, perron_pairs])
def test_a_disconnected_graph_is_named_by_its_graph6(c4, solve):
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError) as err:
        solve([(c4, 0.5), (two_edges, 0.5)])
    assert str(err.value) == "C` is disconnected; the Perron pair needs a connected graph"


def test_alpha_one_rejected(c4):
    with pytest.raises(ValueError):
        alpha_index(c4, 1.0)


def test_convergence_error_carries_diagnostics(k23, monkeypatch):
    from alphaindex.spectral import ConvergenceError

    monkeypatch.setattr(spectral, "POWER_MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError) as err:
        alpha_index(k23, 0.5)
    assert err.value.iterations == 2
    assert err.value.residual > 0


def test_tolerance_override_changes_effort(k23, monkeypatch):
    monkeypatch.setattr(spectral, "POWER_TOL", 1e-6)
    loose = alpha_index(k23, 0.5)
    monkeypatch.setattr(spectral, "POWER_TOL", 1e-12)
    tight = alpha_index(k23, 0.5)
    assert loose.iterations <= tight.iterations
    assert abs(loose.rho - tight.rho) < 1e-5


def test_power_matches_jacobi_on_seeded_corpus():
    rng = random.Random(12345)
    worst = 0.0
    for _ in range(100):
        g = connected_sample(rng)
        for a in (0.5, 0.8):
            lam = jacobi_eigenvalues(alpha_matrix_by_loop(g, a))[-1]
            rho = alpha_index(g, a).rho
            worst = max(worst, abs(lam - rho))
    assert worst <= 1e-10


def test_jacobi_known_spectrum(c4):
    values = jacobi_eigenvalues(alpha_matrix_by_loop(c4, 0.0))
    assert np.allclose(values, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_near_degenerate_top_pair_converges():
    # Two far-apart degree-3 hubs: the top gap shrinks steeply as alpha -> 1.
    theta = Graph.from_edges(11, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                                  (7, 8), (8, 0), (0, 9), (9, 10), (10, 4)])
    result = alpha_index(theta, 0.999)
    lam = jacobi_eigenvalues(alpha_matrix_by_loop(theta, 0.999))[-1]
    assert abs(result.rho - lam) < 1e-10
    assert result.perron.min() > 0


def test_closed_form_reduction_to_order_form():
    for n in range(5, 12):
        for a in (0.5, 0.7, 0.9):
            direct = closed_form_complete_bipartite(n - 2, 2, a)
            reduced = 0.5 * (a * n + math.sqrt(a * a * n * n + 8 * (n - 2) * (1 - 2 * a)))
            assert abs(direct - reduced) < 1e-12


def test_closed_form_values():
    assert abs(closed_form_complete_bipartite(2, 2, 0.0) - 2.0) < 1e-14
    assert abs(closed_form_complete_bipartite(4, 2, 0.5) - 3.0) < 1e-14
    with pytest.raises(ValueError):
        closed_form_complete_bipartite(2, 4, 0.5)
    with pytest.raises(ValueError):
        closed_form_complete_bipartite(2, 2, 1.5)


def test_closed_form_matches_eigensolver_sample():
    for a, b in ((3, 2), (5, 5), (7, 1), (12, 12)):
        g = complete_bipartite(a, b)
        for alpha in (0.0, 0.25, 0.5, 0.75, 0.9):
            assert abs(closed_form_complete_bipartite(a, b, alpha)
                       - alpha_index(g, alpha).rho) <= 1e-10


def test_closed_form_matches_a_60_digit_reference():
    # The reference takes each float alpha exactly and evaluates the
    # discriminant in 60 digits.  The textbook (alpha s)^2 + 4ab(1 - 2 alpha)
    # cancels when a = b: 1.1e-14 off at 0.9 and 8.0e-10 at 0.999999.
    decimal.getcontext().prec = 60
    for alpha in (0.0, 0.25, 0.5, 0.9, 0.999, 0.999999, 0.99999999):
        x = decimal.Decimal(alpha)
        for a in range(1, 13):
            for b in range(1, a + 1):
                disc = (x * (a + b)) ** 2 + 4 * a * b * (1 - 2 * x)
                exact = (x * (a + b) + disc.sqrt()) / 2
                got = decimal.Decimal(closed_form_complete_bipartite(a, b, alpha))
                assert abs(got - exact) <= decimal.Decimal("4e-15"), (a, b, alpha)


def test_block_spread_is_the_widest_block():
    x = np.array([0.1, 0.4, 0.25, 0.2, 0.05])
    assert block_spread(x, ((0,), (1, 2), (3, 4))) == 0.4 - 0.25
    assert block_spread(x, ((0, 4), (2,))) == 0.1 - 0.05


def test_degree_sums_by_hand(k23):
    d, s = degree_sums(spectral.adjacency_stack([k23]))
    assert d.tolist() == [[3, 3, 2, 2, 2]]
    assert s.tolist() == [[6, 6, 6, 6, 6]]
    # A path 0-1-2-3 and a star on centre 0, stacked: each keeps its own rows.
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    d, s = degree_sums(spectral.adjacency_stack([path, star]))
    assert d.tolist() == [[1, 2, 2, 1], [3, 1, 1, 1]]
    assert s.tolist() == [[2, 3, 3, 2], [3, 3, 3, 3]]


def test_upper_bound_k23(k23):
    assert abs(upper_bounds_degree_average(spectral.adjacency_stack([k23]), 0.5)[0] - 2.5) < 1e-12


def test_upper_bound_regular_equality():
    for n in (5, 9):
        adj = spectral.adjacency_stack([cycle(n)])
        for a in (0.6, 0.75, 0.9):
            assert abs(upper_bounds_degree_average(adj, a)[0] - 2.0) < 1e-12


def test_upper_bound_star():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    upper = upper_bounds_degree_average(spectral.adjacency_stack([star]), 0.5)[0]
    assert abs(upper - 2.0) < 1e-12
    assert upper >= alpha_index(star, 0.5).rho - 1e-10


def test_upper_bound_isolated_vertex_rejected():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(GraphError):
        upper_bounds_degree_average(spectral.adjacency_stack([g]), 0.5)


def test_lower_bound_k23(k23):
    assert abs(lower_bounds_max_degree(spectral.adjacency_stack([k23]), 0.5)[0] - 2.0) < 1e-12


def test_lower_bound_branches_meet_at_half():
    for delta_graph in (cycle(6), complete_bipartite(3, 2)):
        delta = max(delta_graph.degrees())
        adj = spectral.adjacency_stack([delta_graph])
        below = lower_bounds_max_degree(adj, 0.5 - 1e-12)[0]
        above = lower_bounds_max_degree(adj, 0.5)[0]
        assert abs(below - above) < 1e-9
        assert abs(above - (delta / 2 + 0.5)) < 1e-12


def test_lower_bound_cycle_below_two():
    for a in (0.5, 0.7, 0.9):
        assert lower_bounds_max_degree(spectral.adjacency_stack([cycle(8)]), a)[0] <= 2.0 + 1e-12


def test_sandwich_on_random_graphs():
    rng = random.Random(999)
    for _ in range(80):
        g = connected_sample(rng, 2, 8)
        adj = spectral.adjacency_stack([g])
        for a in (0.5, 0.75, 0.9):
            rho = alpha_index(g, a).rho
            assert lower_bounds_max_degree(adj, a)[0] <= rho + 1e-10
            assert upper_bounds_degree_average(adj, a)[0] >= rho - 1e-10


def test_rho_between_degree_extremes():
    rng = random.Random(808)
    for _ in range(60):
        g = connected_sample(rng, 2, 9)
        for a in (0.0, 0.5, 0.9):
            rho = alpha_index(g, a).rho
            assert min(g.degrees()) - 1e-10 <= rho <= max(g.degrees()) + 1e-10


def test_edge_addition_strictly_increases_rho():
    rng = random.Random(55)
    for _ in range(30):
        g = connected_sample(rng, 3, 8)
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if not g.adjacent(u, v)]
        if not non_edges:
            continue
        u, v = rng.choice(non_edges)
        for a in (0.0, 0.5, 0.9):
            assert alpha_index(g.add_edge(u, v), a).rho > alpha_index(g, a).rho


def test_column_sums_vanish_on_k2b(k23):
    # K_{2,n-2} is the equality case: every column of B sums to zero.
    for a in (0.5, 0.6, 0.75, 0.9):
        sums = column_sums(spectral.adjacency_stack([k23]), a, "order")
        assert sums.shape == (1, 5)
        assert np.abs(sums).max() < 1e-12
    k24 = complete_bipartite(2, 4)
    for a in (0.5, 0.7):
        sums = column_sums(spectral.adjacency_stack([k24]), a, "size")
        assert sums.shape == (1, 6)
        assert np.abs(sums).max() < 1e-12


def test_column_sums_c5_strictly_negative(c5):
    sums = column_sums(spectral.adjacency_stack([c5]), 0.6, "order")
    assert np.all(np.abs(sums - (-0.8)) < 1e-12)


def test_column_sums_cross_checked_on_random_graphs():
    rng = random.Random(6060)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        for variant in ("order", "size"):
            column_sums(spectral.adjacency_stack([g]), rng.choice((0.5, 0.6, 0.75, 0.9)), variant)


def test_column_sums_equal_the_vertex_loop_bit_for_bit(store):
    # Every d and S is an exact integer in float64 and the stacked form
    # applies the loop's operations in the loop's order, on one stack per
    # order of graphs of mixed sizes.
    classes = [g for m in range(3, 13) for g in graphs_by_size(m, store) if g.n <= 9]
    assert len(classes) == 49
    by_order = {}
    for g in classes:
        by_order.setdefault(g.n, []).append(g)
    assert any(len({g.m for g in graphs}) > 1 for graphs in by_order.values())
    for alpha in [float(a) for a in harness.CERT_ALPHAS] + [0.999]:
        for variant in ("order", "size"):
            for graphs in by_order.values():
                sums = column_sums(spectral.adjacency_stack(graphs), alpha, variant).tolist()
                assert [list(map(float.hex, row)) for row in sums] == [
                    list(map(float.hex, column_sums_by_loop(g, alpha, variant))) for g in graphs
                ]


def test_column_sum_variant_checked(c4):
    # The variant is checked first, so it wins over a bad alpha too.
    for alpha in (0.5, 1.5):
        with pytest.raises(ValueError, match="unknown certificate variant 'girth'"):
            column_sums(spectral.adjacency_stack([c4]), alpha, "girth")


def test_perron_symmetry_families():
    for text, alphas in (("SK2,4", (0.7,)), ("K3,3", (0.5, 0.9)), ("C8", (0.5, 0.9))):
        g, blocks = build(text)
        for a in alphas:
            assert perron_symmetry_check(g, blocks, a)


def test_perron_symmetry_detects_asymmetry(c5):
    path4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert not perron_symmetry_check(path4, ((0, 1),), 0.5)
    assert perron_symmetry_check(c5, ((0, 1), (2, 3, 4)), 0.5)  # vertex-transitive: any blocks pass


def test_components_and_induced():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    comps = components(g)
    assert sorted(len(c) for c in comps) == [2, 3]
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.n == 3 and sub.m == 2


@pytest.fixture(scope="module")
def connected_classes(store):
    return [g for n in range(1, 8) for g in graphs_by_order(n, classes=store) if is_connected(g)]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.75, 0.999])
def test_alpha_indices_match_power_and_jacobi(connected_classes, alpha):
    pairs = perron_pairs([(g, alpha) for g in connected_classes])
    values = [p.rho for p in pairs]
    assert len(values) == len(connected_classes) == 996
    assert not any(p.fallback for p in pairs)
    for g, (rho, x, _) in zip(connected_classes, pairs):
        assert type(rho) is float
        tol = 1e-12 * max(rho, 1.0)
        power = alpha_index(g, alpha)
        spectrum = jacobi_eigenvalues(alpha_matrix_by_loop(g, alpha))
        assert abs(rho - power.rho) <= tol
        assert abs(rho - spectrum[-1]) <= tol
        # A unit-sum vector with residual r is within 2 n r / gap of the
        # Perron vector; for the power vector that exceeds 1e-9 only when the
        # top gap closes (alpha -> 1: 2.8e-7 at gap 6e-6 on order 7).
        gap = spectrum[-1] - spectrum[-2] if g.n > 1 else 1.0
        assert np.max(np.abs(x - power.perron)) <= 1e-9 + 2 * g.n * power.residual / gap
    # The P4 rotation of the transforms tests (K3 + K1) and a single vertex.
    extra = [Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)]), Graph.from_rows([0])]
    maxima, fallbacks = zip(*lambda_maxes([(g, alpha) for g in connected_classes + extra]))
    assert list(maxima[:-2]) == values and not any(fallbacks)
    assert maxima[-2:] == pytest.approx([lambda_max(g, alpha) for g in extra], abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 0.999])
def test_squared_power_iterate_matches_batched_on_ear_classes(alpha, store):
    graphs = [g for m in range(3, MAX_SIZE + 1) for g in graphs_by_size(m, store)]
    pairs = perron_pairs([(g, alpha) for g in graphs])
    for g, (rho, _, _) in zip(graphs, pairs):
        # A batched value that failed its certificate is itself power iteration,
        # so the eigvalsh top eigenvalue is the independent reference as well.
        top = np.linalg.eigvalsh(alpha_matrix_by_loop(g, alpha))[-1]
        result = alpha_index(g, alpha)
        assert abs(result.rho - rho) <= 1e-12 * max(rho, 1.0)
        assert abs(result.rho - top) <= 1e-12 * max(rho, 1.0)
        assert result.perron.min() > 0.0
        assert result.iterations <= POWER_MAX_ITERATIONS


def test_no_fallback_on_the_largest_ear_classes_near_alpha_one(store):
    # At alpha = 0.999 eigh returns Perron entries of 1e-19..3e-15 as small
    # negatives; positivity is certified to the residual's tolerance, so
    # these pairs stay batched instead of falling back to power iteration.
    graphs = graphs_by_size(15, store) + graphs_by_size(16, store)
    pairs = perron_pairs([(g, 0.999) for g in graphs])
    assert not any(p.fallback for p in pairs)


def test_alpha_indices_keep_input_order():
    rng = random.Random(2024)
    graphs = [connected_sample(rng, 1, 9) for _ in range(40)]
    assert len({g.n for g in graphs}) > 3
    pairs = perron_pairs([(g, 0.6) for g in graphs])
    values = [p.rho for p in pairs]
    assert values == pytest.approx([alpha_index(g, 0.6).rho for g in graphs], abs=1e-12)


def _alpha_major(graphs, alphas):
    """Every graph at every alpha, as ``perron_pairs`` cases listed alpha-major."""
    return [(g, alpha) for alpha in alphas for g in graphs]


def _same_pairs(pairs, alone):
    assert [p.rho for p in pairs] == [p.rho for p in alone]
    assert [p.fallback for p in pairs] == [p.fallback for p in alone]
    assert all(np.array_equal(p.x, q.x) for p, q in zip(pairs, alone))


def test_perron_pairs_of_many_alphas_equal_the_one_alpha_calls(monkeypatch, connected_classes):
    # The connected classes of order <= 7 at the theorem grid and with
    # K12,12 at three alphas, then the case lists of lemma8, lemma9 and
    # lemma10 at their own grids.
    theorem_alphas = [float(s) for s in harness.THEOREM_ALPHAS]
    sets = [
        _alpha_major(connected_classes, theorem_alphas),
        _alpha_major(connected_classes + [complete_bipartite(12, 12)], [0.0, 0.5, 0.999]),
    ]
    real = harness.perron_pairs
    with monkeypatch.context() as patch:
        patch.setattr(harness, "perron_pairs", lambda cases: sets.append(cases) or real(cases))
        verify_lemma_suite(["lemma8", "lemma9", "lemma10"])
    assert len(sets) == 5
    eigh = np.linalg.eigh
    stacks = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: stacks.append(a.shape) or eigh(a))
    for cases in sets:
        solved = perron_pairs(cases)
        assert len(solved) == len(cases)
        if cases is sets[0]:
            merged = stacks[:]
        for alpha in dict.fromkeys(alpha for _, alpha in cases):
            at = [i for i, (_, a) in enumerate(cases) if a == alpha]
            _same_pairs([solved[i] for i in at], perron_pairs([cases[i] for i in at]))
    # Both paths ran: the 853 classes of order 7 exceed the stack cap alone,
    # so each alpha has its own stack, while the 6 of order 4 take every
    # alpha in one stack.
    assert [s for s in merged if s[1] == 7] == [(853, 7, 7)] * 11
    assert 853 * 7 * 7 > spectral._STACK_ENTRIES
    assert [s for s in merged if s[1] == 4] == [(11 * 6, 4, 4)]


def test_a_case_in_a_mixed_list_equals_the_case_alone(monkeypatch, connected_classes):
    # Orders 1..7 at five alphas, shuffled, with repeated graphs and a
    # repeated case; every order-5 eigenpair is corrupted, so those cases
    # fall back to power iteration in the list and alone alike.
    rng = random.Random(30)
    alphas = [0.0, 0.5, 0.75, 0.9, 0.999]
    by_order = {}
    for g in connected_classes:
        by_order.setdefault(g.n, []).append(g)
    cases = [(rng.choice(by_order[rng.randint(1, 7)]), rng.choice(alphas)) for _ in range(300)]
    cases += cases[:5]
    rng.shuffle(cases)
    assert len({g.n for g, _ in cases}) == 7
    eigh = np.linalg.eigh

    def nudged(a):
        w, v = eigh(a)
        if a.shape[1] == 5:
            w = w.copy()
            w[:, -1] += 1e-6
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", nudged)
    solved = perron_pairs(cases)
    assert [p.fallback for p in solved] == [g.n == 5 for g, _ in cases]
    for case, pair in zip(cases, solved):
        _same_pairs([pair], perron_pairs([case]))


def test_perron_bounds_bracket_rho_and_start_from_lemma1(monkeypatch):
    rng = random.Random(30)
    # Mixed orders, and a disconnected graph without isolated vertices: the
    # Collatz-Wielandt bounds hold for any nonnegative matrix.
    two_triangles_and_an_edge = Graph.from_edges(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                                     (3, 5), (6, 7)])
    graphs = [connected_sample(rng) for _ in range(40)] + [two_triangles_and_an_edge]
    alphas = [0.0, 0.3, 0.5, 0.9, 0.999]
    lower, upper = perron_bounds(graphs, alphas)
    assert lower.shape == upper.shape == (len(alphas), len(graphs))
    for j, alpha in enumerate(alphas):
        for i, g in enumerate(graphs):
            rho = lambda_max(g, alpha)
            tol = 1e-12 * max(rho, 1.0)
            assert lower[j, i] - tol <= rho <= upper[j, i] + tol
    # With no power steps, x = d and the upper bound is Lemma 1's.
    monkeypatch.setattr(spectral, "BOUND_STEPS", 0)
    _, at_degrees = perron_bounds(graphs, alphas)
    for j, alpha in enumerate(alphas):
        for i, g in enumerate(graphs):
            lemma1 = upper_bounds_degree_average(spectral.adjacency_stack([g]), alpha)[0]
            assert at_degrees[j, i] == pytest.approx(lemma1, abs=1e-12)
    # The steps narrow the bracket.
    assert (upper <= at_degrees + 1e-12).all()
    with pytest.raises(GraphError, match="isolated"):
        perron_bounds([cycle(4), Graph.from_edges(3, [(0, 1)])], [0.5])


def test_perron_bounds_blocks_change_no_bit(monkeypatch, store):
    graphs = [g for m in range(3, 14) for g in graphs_by_size(m, store)]
    alphas = [0.0, 0.5, 0.75, 0.999999]
    lower, upper = perron_bounds(graphs, alphas)
    # One graph per block, small blocks, and one block per order.
    for entries in (1, 50, 10 ** 9):
        monkeypatch.setattr(spectral, "_BOUND_ENTRIES", entries)
        blocked = perron_bounds(graphs, alphas)
        assert np.array_equal(blocked[0], lower) and np.array_equal(blocked[1], upper)
    assert perron_bounds(graphs, [])[0].shape == (0, len(graphs))


def test_perron_pairs_of_no_graphs_or_no_alphas(c4):
    for graphs, alphas in [([], [0.5, 0.75]), ([], []), ([c4], [])]:
        assert perron_pairs(_alpha_major(graphs, alphas)) == []
    assert lambda_maxes([]) == []


@pytest.mark.parametrize("alphas", [[0.5, 0.75, 1.0], [-0.1, 0.5], [0.5, math.nan]])
def test_a_bad_alpha_anywhere_raises_before_any_solve(c4, k23, monkeypatch, alphas):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before every alpha was checked")

    monkeypatch.setattr(np.linalg, "eigh", no_solve)
    monkeypatch.setattr(spectral, "alpha_indices", no_solve)
    with pytest.raises(ValueError, match="alpha must lie in"):
        perron_pairs(_alpha_major([c4, k23], alphas))


def test_alpha_indices_reject_disconnected_and_bad_alpha(c4):
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraphError):
        perron_pairs([(c4, 0.5), (two_edges, 0.5)])
    with pytest.raises(ValueError):
        perron_pairs([(c4, 1.0)])


def _swap_top_and_bottom(w, v):
    """Report the bottom eigenpair as the top one: a true eigenpair, so the
    residual passes, but orthogonal to the Perron vector and so sign-mixed
    (on a bipartite graph at alpha = 1/2, eigenvalue 0 with the +-1
    bipartition vector)."""
    w, v = w.copy(), v.copy()
    w[:, [0, -1]] = w[:, [-1, 0]]
    v[:, :, [0, -1]] = v[:, :, [-1, 0]]
    return w, v


def _nudge_top_value(w, v):
    """Keep the Perron vector but shift its eigenvalue: positivity passes,
    the residual fails."""
    w = w.copy()
    w[:, -1] += 1e-6
    return w, v


@pytest.mark.parametrize("corrupt", [_swap_top_and_bottom, _nudge_top_value])
def test_alpha_indices_route_failed_certificates_to_power_iteration(monkeypatch, corrupt):
    graphs = [cycle(5), complete_bipartite(2, 3), complete_bipartite(1, 5), complete_bipartite(2, 4)]
    eigh = np.linalg.eigh

    def corrupt_where(hit):
        """Corrupt the eigenpairs of the matrices of a stack for which
        ``hit(matrix)`` holds, whatever else shares the stack."""
        def corrupted(a):
            w, v = eigh(a)
            bad = np.array([hit(matrix) for matrix in a], dtype=bool)
            bad_w, bad_v = corrupt(w, v)
            return np.where(bad[:, None], bad_w, w), np.where(bad[:, None, None], bad_v, v)
        return corrupted

    # Only the order-6 matrices at alpha 0.75, the ones whose edges weigh
    # 0.25; the alpha 0.5 matrices of their stack stay intact.
    only_one_block = corrupt_where(lambda a: len(a) == 6 and (a == 0.25).any())
    monkeypatch.setattr(np.linalg, "eigh", only_one_block)
    alphas = [0.5, 0.75]
    # The failed pairs of one run of alphas are re-solved in one call.
    redone = []
    with monkeypatch.context() as patch:
        real = spectral.alpha_indices
        patch.setattr(spectral, "alpha_indices", lambda cases: redone.append(cases) or real(cases))
        pairs = perron_pairs(_alpha_major(graphs, alphas))
    solved = [pairs[:4], pairs[4:]]
    assert redone == [[(graphs[2], 0.75), (graphs[3], 0.75)]]
    # K_{1,5} and K_{2,4} have order 6
    assert [[p.fallback for p in pairs] for pairs in solved] == [
        [False, False, False, False], [False, False, True, True],
    ]
    for alpha, pairs in zip(alphas, solved):
        for g, (rho, x, _) in zip(graphs, pairs):
            reference = alpha_index(g, alpha)
            assert abs(rho - reference.rho) <= 1e-12
            assert np.max(np.abs(x - reference.perron)) <= 1e-9

    monkeypatch.setattr(np.linalg, "eigh", corrupt_where(lambda a: len(a) == 6))

    # One corpus block of lemma7: every solve of order 6, of a drawn graph or
    # of a component of its rotation, falls back, and the checks still agree
    # with the per-graph power-iteration check.
    cases = sample_rotation_cases(random.Random(7), 6, 60)
    checks = rotation_monotonicity_checks(cases)
    expected_fallbacks = []
    for (g, rot, alpha), chk in zip(cases, checks):
        ref = rotation_monotonicity_check(g, rot, alpha)
        assert chk.perron_precondition == ref.perron_precondition
        expected = int(g.n == 6)
        if ref.perron_precondition:
            assert abs(chk.increase - ref.increase) <= CROSS_CHECK_TOL
            expected += sum(len(comp) == 6 for comp in components(rotate(g, rot)))
        expected_fallbacks.append(expected)
    assert any(expected_fallbacks)
    assert [chk.fallbacks for chk in checks] == expected_fallbacks

    # The campaign counts the fallbacks of the draws it consumed and flags
    # them in _run's wording from the corpus case's count.
    (report,) = verify_lemma_suite(["lemma7"], n_max=6, rotation_cases=15, seed=7)
    corpus = report.case_results[0]
    assert set(corpus) == {"case", "alpha", "attempted", "precondition_satisfied", "fallbacks", "ok"}
    consumed = sum(
        chk.fallbacks for chk in rotation_monotonicity_checks(
            sample_rotation_cases(random.Random(7), 6, corpus["attempted"]),
        )
    )
    assert consumed and corpus["fallbacks"] == consumed
    assert report.flags == [
        f"random-corpus, alpha=0.5|0.75: {consumed} batched eigen-solves failed "
        "the certificate and were re-solved by power iteration"
    ]


def test_stacked_power_iteration_equals_one_case_at_a_time(monkeypatch):
    # Every case the theorem campaigns confirm at n <= 10 and m <= 13.
    real = harness.alpha_indices
    cases = []

    def recorded(batch):
        cases.extend(batch)
        return real(batch)

    monkeypatch.setattr(harness, "alpha_indices", recorded)
    assert verify_theorem_order(range(5, 11)).passed
    assert verify_theorem_size(range(6, 14)).passed
    assert len(cases) == 2 * 11 * (6 + 8)
    stacked = spectral.alpha_indices(cases)
    # Cases leave their order's stack on different squarings.
    assert len({result.iterations for result in stacked}) > 3
    for (g, alpha), result in zip(cases, stacked):
        alone = alpha_index(g, alpha)
        assert result.rho == alone.rho
        assert result.residual == alone.residual
        assert result.iterations == alone.iterations
        assert np.array_equal(result.perron, alone.perron)


def test_a_stack_with_a_case_that_cannot_converge_raises(monkeypatch):
    # The theta graph needs 7 squarings at alpha 0.999; at a cap of 6, C11
    # leaves its stack at squaring 0 and K2,9 at squaring 5, and it stalls.
    theta = Graph.from_edges(11, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                                  (7, 8), (8, 0), (0, 9), (9, 10), (10, 4)])
    k29 = complete_bipartite(2, 9)
    assert alpha_index(theta, 0.999).iterations == 7
    monkeypatch.setattr(spectral, "POWER_MAX_ITERATIONS", 6)
    assert [r.iterations for r in spectral.alpha_indices([(cycle(11), 0.999), (k29, 0.999)])] == [0, 5]
    with pytest.raises(ConvergenceError) as err:
        spectral.alpha_indices([(cycle(11), 0.999), (theta, 0.999), (k29, 0.999), (cycle(5), 0.5)])
    assert err.value.iterations == 6
    assert err.value.residual > 0


@pytest.mark.parametrize("at", [0, 1, 3])
@pytest.mark.parametrize("bad, message", [
    (Graph.from_edges(4, [(0, 1), (2, 3)]), "needs a connected graph"),
    (1.0, "alpha must lie in"),
    (-0.1, "alpha must lie in"),
    (math.nan, "alpha must lie in"),
])
def test_a_bad_case_anywhere_raises_before_any_solve(monkeypatch, at, bad, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before every case was checked")

    cases = [(cycle(5), 0.5), (complete_bipartite(2, 4), 0.75), (cycle(4), 0.0)]
    cases.insert(at, (bad, 0.5) if isinstance(bad, Graph) else (cycle(6), bad))
    monkeypatch.setattr(spectral, "adjacency_stack", no_solve)
    for solve in (spectral.alpha_indices, perron_pairs):  # one case rule
        with pytest.raises(ValueError, match=message):
            solve(cases)


@pytest.mark.parametrize("solve", [spectral.alpha_indices, perron_pairs])
def test_both_solvers_check_every_alpha_before_any_graph(c4, solve):
    # One case rule: a disconnected graph ahead of an out-of-range alpha
    # still reports the alpha.
    two_edges = Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="alpha must lie in") as err:
        solve([(two_edges, 0.5), (c4, 1.5)])
    assert not isinstance(err.value, DisconnectedGraphError)


@pytest.mark.parametrize("solve", [spectral.alpha_indices, perron_pairs])
def test_each_graph_object_is_tested_for_connectivity_once(monkeypatch, solve):
    tested = []
    monkeypatch.setattr(spectral, "is_connected", lambda g: tested.append(g) or is_connected(g))
    c5, k24, another_c5 = cycle(5), complete_bipartite(2, 4), cycle(5)
    alphas = [i / 10 for i in range(10)]
    solve([(c5, alpha) for alpha in alphas])
    assert tested == [c5]
    tested.clear()
    # An equal graph passed as another object is tested again.
    solve([(g, alpha) for alpha in alphas for g in (k24, c5, another_c5)])
    assert [id(g) for g in tested] == [id(k24), id(c5), id(another_c5)]


def test_alpha_indices_of_no_cases():
    assert spectral.alpha_indices([]) == []
