import random
import re

import numpy as np
import pytest

from alphaindex import certificates as ct
from alphaindex import cli, enumeration, harness, spectral
from alphaindex.enumeration import canonical_form
from alphaindex.families import build, complete_bipartite, cycle, gab, subdivided_k2
from alphaindex.graphs import Graph, parse_graph6
from alphaindex.harness import (
    DEFAULT_ALPHAS,
    THEOREM_ALPHAS,
    VerificationReport,
    sample_connected_graph,
    sample_rotation,
    sample_rotation_cases,
    verify_lemma_suite,
    verify_theorem_order,
    verify_theorem_size,
)
from alphaindex.spectral import SpectralError, alpha_index, perron_symmetry_check

from conftest import fresh_ear_caches


def test_theorem_order_n5_anchor():
    report = verify_theorem_order((5,), ["0.50"])
    assert report.passed
    case = report.case_results[0]
    assert case["argmax_graph6"] == canonical_form(complete_bipartite(2, 3))
    assert case["classes"] == 2  # C_5 and K_{2,3}
    assert abs(case["gap"] - 0.5) < 1e-10  # runner-up C_5 at rho = 2
    assert report.argmax_graph6 == case["argmax_graph6"]


def test_theorem_order_rejects_small_n():
    with pytest.raises(ValueError):
        verify_theorem_order((4,), ["0.50"])
    with pytest.raises(ValueError):
        verify_theorem_order((5,), ["0.40"])


def test_theorem_size_even_anchor():
    report = verify_theorem_size((6, 8), ["0.50"])
    assert report.passed
    by_case = {c["case"]: c for c in report.case_results}
    assert by_case["m=8"]["argmax_graph6"] == canonical_form(complete_bipartite(2, 4))
    # rho(K_{2,4}) at alpha = 1/2 is exactly 3; gap recorded against runner-up
    assert by_case["m=8"]["gap"] > 0


def test_theorem_size_odd_anchor_and_root():
    report = verify_theorem_size((9,), ["0.50", "0.75"])
    assert report.passed
    for case in report.case_results:
        assert case["argmax_graph6"] == canonical_form(subdivided_k2(4))
        assert case["root_deviation"] <= 1e-9


def test_theorem_size_m7_informational():
    report = verify_theorem_size((7,), ["0.50"])
    assert report.passed
    case = report.case_results[0]
    assert case["informational"]
    assert report.flags


def test_theorem_size_below_hypotheses_is_informational():
    # m = 3..5 precede both size statements: the cases are computed and
    # reported, never asserted, so the report has no tightest gap.
    report = verify_theorem_size((3, 4, 5), ["0.50"])
    assert report.passed and report.gap is None and report.argmax_graph6 is None
    assert [
        (c["case"], c["classes"], c["argmax_graph6"], c["expected_graph6"], c["gap"])
        for c in report.case_results
    ] == [("m=3", 1, "Bw", None, None), ("m=4", 1, "Cr", "Cr", None), ("m=5", 1, "DqK", "DqK", None)]
    assert all(c["informational"] and c["root_deviation"] is None for c in report.case_results)
    assert report.flags == [
        f"m={m}, alpha=0.50: outside theorem hypotheses; reported without assertion"
        for m in (3, 4, 5)
    ]


def test_theorem_sub_margin_gap_is_flagged_not_violated(monkeypatch):
    monkeypatch.setattr(harness, "GAP_MARGIN", 10.0)
    order = verify_theorem_order((5,), ["0.50"])
    size = verify_theorem_size((8, 9), ["0.50"])
    assert order.passed and size.passed
    assert order.flags == ["n=5, alpha=0.50: gap below strictness margin"]
    assert size.flags == [f"m={m}, alpha=0.50: gap below strictness margin" for m in (8, 9)]
    assert all(c["note"] == "gap below strictness margin" for c in order.case_results + size.case_results)


def test_theorem_size_cubic_root_deviation_is_a_violation(monkeypatch):
    real = harness.ct.largest_real_root
    monkeypatch.setattr(harness.ct, "largest_real_root", lambda poly: real(poly) + 1e-6)
    report = verify_theorem_size((9,), ["0.50"])
    (case,) = report.case_results
    sk = canonical_form(subdivided_k2(4))
    assert not case["ok"] and case["argmax_graph6"] == sk
    assert report.violations == [
        f"m=9, alpha=0.50: argmax {sk} (expected {sk}), gap {case['gap']}, "
        "cubic root deviates from rho by 1.000e-06"
    ]
    assert report.flags == []


def test_theorem_wrong_argmax_is_a_violation(monkeypatch):
    # With K_{2,k} replaced by a cycle, every even target is missed; the
    # violation names the case, the argmax, the target and the gap, and
    # carries no note.
    monkeypatch.setattr(harness, "complete_bipartite", lambda a, b: cycle(a + b))
    order = verify_theorem_order((5,), ["0.50"])
    size = verify_theorem_size((6,), ["0.50"])
    k23, c5 = canonical_form(complete_bipartite(2, 3)), canonical_form(cycle(5))
    (case,) = order.case_results
    assert (case["ok"], case["note"], case["expected_graph6"]) == (False, "", c5)
    assert order.violations == [f"n=5, alpha=0.50: argmax {k23} (expected {c5}), gap {case['gap']}"]
    (case,) = size.case_results
    assert (case["ok"], case["note"]) == (False, "")
    assert size.violations == [f"m=6, alpha=0.50: argmax {k23} (expected {c5}), gap {case['gap']}"]
    assert order.flags == size.flags == []


def test_lemma_suite_structural_small():
    reports = verify_lemma_suite(["lemma3", "lemma4", "lemma5"], n_max=6)
    assert all(r.passed for r in reports)
    assert {r.target for r in reports} == {"lemma3", "lemma4", "lemma5"}


def _add_to_order_4(monkeypatch, g6):
    """Make the harness see one more minimally 2-connected class of order 4."""
    real = harness.graphs_by_order
    monkeypatch.setattr(
        harness, "graphs_by_order",
        lambda n, *rest: real(n, *rest) + ([parse_graph6(g6)] if n == 4 else []),
    )


def test_lemma4_notes_what_it_observed(monkeypatch):
    (report,) = verify_lemma_suite(["lemma4"], n_max=6)
    assert report.passed and {c["note"] for c in report.case_results} == {"triangle-free"}
    _add_to_order_4(monkeypatch, "C|")  # K4 minus an edge: two triangles
    (report,) = verify_lemma_suite(["lemma4"], n_max=4)
    assert [c["note"] for c in report.case_results] == ["triangle-free", "triangle found"]
    assert report.violations == ["n=4, C|: triangle found"]


def test_lemma5_over_bound_class_fails_its_case(monkeypatch):
    _add_to_order_4(monkeypatch, "C|")  # K4 minus an edge: m = 5 > 2n - 4
    (report,) = verify_lemma_suite(["lemma5"], n_max=5)
    assert not report.passed
    assert report.violations == ["n=4, C|: m=5 > 2n-4"]
    assert [c["ok"] for c in report.case_results] == [False, True]
    assert report.case_results[0]["at_bound"] == ["Cr"]


def test_lemma6_cross_oracle_small():
    (report,) = verify_lemma_suite(["lemma6"], n_max=6)
    assert report.passed
    total = sum(c["classes"] for c in report.case_results)
    assert total == 1 + 2 + 4 + 11 + 34 + 156


def test_lemma_sandwich_small():
    reports = verify_lemma_suite(["lemma1", "lemma2"], n_max=6)
    assert all(r.passed for r in reports)
    for r in reports:
        assert all(c["min_slack"] >= -1e-10 for c in r.case_results)


def test_lemma7_small_corpus():
    (report,) = verify_lemma_suite(["lemma7"], rotation_cases=40, alphas=["0.50", "0.75"])
    assert report.passed
    head = report.case_results[0]
    assert head["precondition_satisfied"] == 40


def test_lemma8_families():
    (report,) = verify_lemma_suite(["lemma8"], alphas=["0.50", "0.90"])
    assert report.passed


def test_lemma9_closed_form():
    (report,) = verify_lemma_suite(["lemma9"])
    assert report.passed
    assert report.alpha_grid == ["0", "0.25", "0.5", "0.75", "0.9"]
    for case in report.case_results:
        assert case["max_deviation"] <= 1e-10


def test_lemma10_roots():
    (report,) = verify_lemma_suite(["lemma10"], alphas=["0.50", "0.75", "0.95"])
    assert report.passed
    assert all(c["deviation"] <= 1e-9 for c in report.case_results)


def test_lemma11_sign_grids():
    (report,) = verify_lemma_suite(["lemma11"])
    assert report.passed


def test_claim_reports_small():
    reports = verify_lemma_suite(["claim-order", "claim-size"], n_max=6)
    assert all(r.passed for r in reports)


def test_claim_size_without_eligible_graphs_reports_none():
    # No class of size 6 has 3 <= Delta <= 2, so m = 6 checks no graph and
    # builds no adjacency stack.
    (report,) = verify_lemma_suite(["claim-size"], alphas=["0.5", "0.9"])
    empty = [c for c in report.case_results if c["case"] == "m=6"]
    assert [(c["graphs"], c["max_column_sum"], c["ok"]) for c in empty] == [(0, None, True)] * 2
    assert report.passed


def test_fact1_neighbour_degree_sums():
    (report,) = verify_lemma_suite(["fact1"])
    assert report.passed


def test_fact1_prints_integer_neighbour_degree_sums(monkeypatch):
    # K_{2,5} (every S = 10), C5 and K4 (every S = 9) in falling order: the
    # violations follow the class list, and each vertex in turn.
    k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    classes = [complete_bipartite(2, 5), cycle(5), k4]
    monkeypatch.setattr(harness, "graphs_by_size", lambda m: classes)
    (report,) = verify_lemma_suite(["fact1"])
    assert [c["ok"] for c in report.case_results] == [False, True, True]
    assert report.violations == [
        f"m=9, F]rE?, w={w}: neighbour degree sum 10 > m-1" for w in range(7)
    ] + [f"m=9, C~, w={w}: neighbour degree sum 9 > m-1" for w in range(4)]


def test_fact2_identity_passes():
    (report,) = verify_lemma_suite(["fact2"])
    assert report.passed
    assert report.case_results[0]["max_rel_error"] <= 1e-9


def test_fact3_identity_fails_but_bound_holds():
    # The printed g does not satisfy its own scaling identity; the report
    # must say so while confirming the inequality the proof needs.
    (report,) = verify_lemma_suite(["fact3"])
    assert not report.passed
    assert report.violations
    bound_case = next(c for c in report.case_results if c["case"].startswith("bound"))
    assert bound_case["ok"] and bound_case["max_value"] < 0
    assert report.flags


def test_fact3_bound_is_the_maximum_over_the_grid():
    (report,) = verify_lemma_suite(["fact3"])
    bound_case = next(c for c in report.case_results if c["case"].startswith("bound"))
    worst = max(
        ct.g_identity_lhs(float(alpha_str), m)
        for m in ct.odd_range(*ct.GRID_M)
        for alpha_str in ct.alpha_grid(*ct.GRID_ALPHA)
    )
    assert bound_case["max_value"] == worst


def test_fact3_reports_derived_identity():
    (report,) = verify_lemma_suite(["fact3"])
    cases = {c["case"]: c for c in report.case_results}
    assert not cases["identity grid"]["ok"]
    assert cases["derived identity grid"]["ok"]
    assert cases["derived identity grid"]["max_rel_error"] <= 1e-9
    assert report.cases == len(report.case_results) == 3
    assert len(report.violations) == 1


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        verify_lemma_suite(["lemma99"])
    # Only None means every target; an empty list names none.
    with pytest.raises(ValueError, match="no lemma targets"):
        verify_lemma_suite([])


def test_keyword_no_chosen_builder_reads_rejected():
    with pytest.raises(ValueError, match="do not take n_max"):
        verify_lemma_suite(["lemma9"], n_max=6)


@pytest.mark.parametrize("target", ["lemma1", "lemma2"])
def test_sandwich_honours_n_max(monkeypatch, target):
    # Two classes stand in for the 11,117 connected ones of order 8.
    real = harness.graphs_by_order
    order8 = [complete_bipartite(2, 6), cycle(8)]
    monkeypatch.setattr(
        harness, "graphs_by_order", lambda n, *rest: order8 if n == 8 else real(n, *rest),
    )
    (report,) = verify_lemma_suite([target], n_max=8)
    assert report.params["n"] == list(range(2, 9))
    assert [c["classes"] for c in report.case_results if c["case"] == "n=8"] == [2, 2, 2]
    assert report.passed


def test_rotation_corpus_honours_n_max():
    cases = sample_rotation_cases(random.Random(7), 10, 60)
    assert max(g.n for g, _, _ in cases) > 8


def test_report_serialization_shapes():
    report = verify_theorem_order((5,), ["0.50"])
    payload = report.to_json_dict()
    for key in ("target", "params", "alpha_grid", "cases", "argmax_graph6",
                "gap", "violations", "flags", "runtime_ms", "passed", "case_results"):
        assert key in payload
    rows = report.to_csv_rows()
    assert rows[0][0] == "target"
    assert len(rows) == 1 + report.cases


def test_default_grids():
    assert len(DEFAULT_ALPHAS) == 10
    assert DEFAULT_ALPHAS[0] == "0.50" and DEFAULT_ALPHAS[-1] == "0.95"
    assert THEOREM_ALPHAS[-1] == "0.999"


def test_samplers_deterministic():
    g1 = sample_connected_graph(random.Random(9), 4, 6)
    g2 = sample_connected_graph(random.Random(9), 4, 6)
    assert g1 == g2
    r1 = sample_rotation(random.Random(3), g1)
    r2 = sample_rotation(random.Random(3), g2)
    assert r1 == r2


@pytest.mark.parametrize("run", [
    lambda: verify_theorem_size(),
    lambda: verify_lemma_suite(["claim-size"]),
    lambda: verify_lemma_suite(["fact1"]),
    lambda: verify_lemma_suite(["claim-size", "fact1"]),
    lambda: verify_theorem_order((5, 6, 7, 8)),
])
def test_size_campaigns_sweep_once(run):
    enumeration._ear_classes.cache_clear()
    enumeration._ear_pairs.cache_clear()
    run()
    misses = enumeration._ear_classes.cache_info().misses
    records = enumeration._ear_pairs.cache_info().misses
    assert misses > 0
    run()
    assert enumeration._ear_classes.cache_info().misses == misses
    assert enumeration._ear_pairs.cache_info().misses == records


@pytest.mark.parametrize("run,calls", [
    (lambda: verify_theorem_size(), 45),  # the parents of sizes m <= 13
    (lambda: verify_theorem_order(tuple(range(5, 11))), 52),  # of orders n <= 10
])
def test_each_parent_is_expanded_once(monkeypatch, run, calls):
    fresh_ear_caches(monkeypatch)
    expanded = []
    chording_ears = enumeration.chording_ears
    monkeypatch.setattr(enumeration, "chording_ears",
                        lambda g: expanded.append(g.rows) or chording_ears(g))
    run()
    assert len(set(expanded)) == len(expanded) == calls


def test_theorem_order_skips_brute_force():
    # Neither a hit nor a miss: the campaign never asks for all classes.
    # The cache is left warm for the brute-force tests that follow.
    before = enumeration._all_classes.cache_info()
    verify_theorem_order((5, 6, 7, 8))
    assert enumeration._all_classes.cache_info() == before


def test_theorem_cases_count_fallbacks_and_flag_them(monkeypatch):
    clean = verify_theorem_size((6,), ["0.50"])
    assert clean.case_results[0]["fallbacks"] == 0
    eigh = np.linalg.eigh

    def sign_mixed(a):
        w, v = eigh(a)
        v = v.copy()
        v[:, 0, -1] *= -1.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", sign_mixed)
    report = verify_theorem_size((6,), ["0.50"])
    case = report.case_results[0]
    assert report.passed and case["fallbacks"] == case["classes"] == 2
    assert report.flags == clean.flags + [
        "m=6, alpha=0.50: 2 batched eigen-solves failed the certificate "
        "and were re-solved by power iteration"
    ]
    assert case["gap"] == pytest.approx(clean.case_results[0]["gap"], abs=1e-12)


def _shift_power_iteration(monkeypatch):
    """Make every power-iteration confirmation in the harness read 1e-6 high."""
    real = harness.alpha_indices

    def shifted(cases):
        return [
            type(result)(result.rho + 1e-6, result.perron, result.residual, result.iterations)
            for result in real(cases)
        ]

    monkeypatch.setattr(harness, "alpha_indices", shifted)


def _count_solved_cases(monkeypatch, *modules):
    """Record the graph of every case solved through ``alpha_indices`` in
    ``modules``, in solve order, and each call's number of cases."""
    real = spectral.alpha_indices
    graphs, calls = [], []

    def counted(cases):
        cases = list(cases)
        graphs.extend(g for g, _ in cases)
        calls.append(len(cases))
        return real(cases)

    for module in modules:
        assert module.alpha_indices is real
        monkeypatch.setattr(module, "alpha_indices", counted)
    return graphs, calls


def test_extremal_cross_check_disagreement_is_internal(monkeypatch):
    _shift_power_iteration(monkeypatch)
    with pytest.raises(SpectralError, match="power-iteration rho"):
        verify_theorem_order((5,), ["0.50"])


def test_size_cross_check_disagreement_is_internal(monkeypatch):
    # The odd-size argmax SK_{2,4} is confirmed against the cubic pin's rho.
    _shift_power_iteration(monkeypatch)
    with pytest.raises(SpectralError, match="power-iteration rho"):
        verify_theorem_size((9,), ["0.50"])


def test_size_campaign_power_iteration_count(monkeypatch):
    # Two confirmations per case (argmax and runner-up); an odd asserted
    # case's SK argmax reuses the cubic pin's solve instead of a third.
    # Every size's confirmations and pins are solved in one call.
    calls, per_call = _count_solved_cases(monkeypatch, harness)
    report = verify_theorem_size()
    assert report.passed and report.flags == []
    assert len(report.case_results) == 77
    assert len(calls) == 2 * 77
    assert per_call == [2 * 77]


def test_order_campaign_confirms_each_order_in_one_call(monkeypatch, capsys):
    # The order-campaign workload: 3 orders x 11 alphas x (argmax, runner-up),
    # every order's in the same call.
    calls, per_call = _count_solved_cases(monkeypatch, spectral, harness)
    assert cli.main(["verify", "theorem1.3", "--n", "5..7"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(calls) == 66
    assert per_call == [66]


def _count_eigh(monkeypatch):
    """Record the number of matrices of every ``eigh`` call."""
    eigh = np.linalg.eigh
    stacks = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: stacks.append(len(a)) or eigh(a))
    return stacks


@pytest.mark.parametrize("argv, calls, matrices", [
    # 1,650 matrices in 66 calls without the screen: 150 classes x 11 alphas.
    # Sizes that share an order share its stacks.
    (["verify", "theorem1.4"], 9, 303),
    # 121 matrices without the screen: 11 classes x 11 alphas.
    (["verify", "theorem1.3", "--n", "5..7"], 3, 72),
])
def test_theorem_campaigns_eigen_solve_only_the_screened_classes(monkeypatch, capsys, argv, calls, matrices):
    stacks = _count_eigh(monkeypatch)
    assert cli.main(argv) == 0
    assert "PASS" in capsys.readouterr().out
    assert (len(stacks), sum(stacks)) == (calls, matrices)


def test_size_campaign_screens_solves_and_confirms_in_one_call_each(monkeypatch, capsys):
    calls = {}
    for name in ("perron_bounds", "perron_pairs", "alpha_indices"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda *args, name=name, real=real: calls.setdefault(name, []).append(1) or real(*args))
    stacks = []
    adjacency_stack = spectral.adjacency_stack
    monkeypatch.setattr(spectral, "adjacency_stack", lambda graphs: stacks.append(1) or adjacency_stack(graphs))
    matrices = _count_eigh(monkeypatch)
    assert cli.main(["verify", "theorem1.4"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert {name: len(made) for name, made in calls.items()} == {
        "perron_bounds": 1, "perron_pairs": 1, "alpha_indices": 1,
    }
    # One stack per order in each call: 8 bounded, 6 solved, 5 confirmed.
    assert len(stacks) == 19
    assert (len(matrices), sum(matrices)) == (9, 303)


@pytest.mark.parametrize("alphas", [THEOREM_ALPHAS, ["0.5", "0.5", "0.75", "0.999999"]])
@pytest.mark.parametrize("verify, values", [
    (verify_theorem_order, range(5, 14)),
    (verify_theorem_size, range(3, 17)),
])
def test_a_campaign_equals_its_one_value_campaigns(verify, values, alphas):
    # Every value's bits are its own, whatever else shares its stacks.
    campaign = verify(values, alphas)
    singles = [verify([value], alphas) for value in values]
    assert campaign.case_results == [case for report in singles for case in report.case_results]
    assert campaign.violations == [v for report in singles for v in report.violations]
    # A report lists its fallback flags after its notes.
    flags = [flag for report in singles for flag in report.flags]
    assert campaign.flags == sorted(flags, key=lambda flag: flag.endswith("re-solved by power iteration"))


SCREEN_ALPHAS = ["0", "0.25", "0.5", "0.75", "0.9", "0.99", "0.999", "0.999999"]


@pytest.mark.parametrize("by, value", [("m", m) for m in range(3, 17)] + [("n", n) for n in range(5, 14)])
def test_the_screen_keeps_the_argmax_and_the_runner_up(monkeypatch, by, value):
    if by == "m":
        classes, verify = enumeration.graphs_by_size(value), verify_theorem_size
    else:
        classes, verify = enumeration.graphs_by_order(value, "minimally_two_connected"), verify_theorem_order
    values = [float(s) for s in SCREEN_ALPHAS]
    (kept_rows,) = harness._screen([classes], values)
    full = spectral.perron_pairs([(g, alpha) for alpha in values for g in classes])
    lower, upper = spectral.perron_bounds(classes, values)
    forms = [harness.emit_graph6(g) for g in classes]
    k = len(classes)
    ranked_at = {}
    for j, (alpha, kept) in enumerate(zip(values, kept_rows)):
        rhos = [p.rho for p in full[j * k:(j + 1) * k]]
        # The bounds bracket every class's rho, up to rounding.
        tol = 1e-12 * max(max(rhos), 1.0)
        assert all(lo - tol <= rho <= up + tol for lo, rho, up in zip(lower[j], rhos, upper[j]))
        ranked = ranked_at[alpha] = sorted(zip(rhos, forms, range(k)), reverse=True)
        assert {i for _, _, i in ranked[:2]} <= set(kept)
        if k <= 2:
            assert kept == list(range(k))
        # A dropped class ranks strictly below the runner-up.
        assert all(rhos[i] < ranked[1][0] for i in range(k) if i not in kept)

    # At the alphas the theorem takes, its cases read the full solve's
    # argmax and gap, and count the fallbacks of the classes they solved.
    real = harness.perron_pairs
    screened = []

    def recorded(cases):
        pairs = real(cases)
        screened.extend(zip(cases, pairs))
        return pairs

    monkeypatch.setattr(harness, "perron_pairs", recorded)
    report = verify([value], [s for s in SCREEN_ALPHAS if 0.5 <= float(s) < 1.0])
    assert len(report.case_results) == 6
    for case in report.case_results:
        alpha = float(case["alpha"])
        ranked = ranked_at[alpha]
        assert case["argmax_graph6"] == ranked[0][1]
        assert case["gap"] == (ranked[0][0] - ranked[1][0] if k > 1 else None)
        assert case["classes"] == k
        assert case["fallbacks"] == sum(pair.fallback for (_, a), pair in screened if a == alpha)


@pytest.mark.parametrize("target", ["lemma1", "lemma2"])
def test_sandwich_cross_check_disagreement_is_internal(monkeypatch, target):
    _shift_power_iteration(monkeypatch)
    with pytest.raises(SpectralError, match="power-iteration rho"):
        verify_lemma_suite([target], n_max=3)


def test_lemma9_passes_near_alpha_one():
    (report,) = verify_lemma_suite(["lemma9"], alphas=["0.999999"])
    assert report.passed
    assert report.case_results[0]["max_deviation"] <= 1e-13


def test_lemma8_batched_verdicts_equal_power_iteration():
    # No case is re-checked on the default grid, so every verdict below
    # comes from the batched vectors alone.
    (report,) = verify_lemma_suite(["lemma8"])
    assert report.passed and report.flags == []
    verdicts = {(c["case"], c["alpha"]): c["ok"] for c in report.case_results}
    assert len(report.params["families"]) == 32
    for fam in report.params["families"]:
        g, blocks = build(fam)
        for alpha_str in DEFAULT_ALPHAS:
            assert verdicts[fam, alpha_str] == perron_symmetry_check(g, blocks, float(alpha_str))


@pytest.mark.parametrize("alpha", ["0.999", "0.9999"])
def test_lemma8_near_alpha_one_rechecks_by_power_iteration(alpha):
    # The batched vectors of small-gap families spread past SYMMETRY_TOL
    # here; power iteration gives those verdicts, and one flag counts them.
    (report,) = verify_lemma_suite(["lemma8"], alphas=[alpha])
    assert report.passed
    (flag,) = report.flags
    assert re.fullmatch(
        r"[1-9]\d* of 32 cases spread past 1e-09 on the batched Perron vectors "
        r"and were re-checked by power iteration", flag,
    )


def test_lemma8_recheck_keeps_a_real_asymmetry(monkeypatch):
    # Blocks that straddle the two sides of K2,1 fail on the batched vector
    # and again on power iteration, so the case is a violation.
    real = harness.build
    monkeypatch.setattr(
        harness, "build", lambda text: (real(text)[0], ((0, 2),)) if text == "K2,1" else real(text),
    )
    (report,) = verify_lemma_suite(["lemma8"], alphas=["0.50", "0.90"])
    assert report.violations == [
        "K2,1, alpha=0.50: orbit coordinates differ", "K2,1, alpha=0.90: orbit coordinates differ",
    ]
    assert report.flags == [
        "2 of 64 cases spread past 1e-09 on the batched Perron vectors "
        "and were re-checked by power iteration"
    ]


def _corrupt_order(monkeypatch, n):
    """Make every batched eigen-solve of order ``n`` fail its certificate
    (its top eigenvector turns sign-mixed); returns the order of each
    ``eigh`` stack, in call order."""
    eigh = np.linalg.eigh
    orders = []

    def corrupted(a):
        orders.append(a.shape[-1])
        w, v = eigh(a)
        if a.shape[-1] == n:
            v = v.copy()
            v[:, 0, -1] *= -1.0
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    return orders


def test_chain_cases_count_fallbacks_and_flag_them(monkeypatch):
    # The chain of m = 9 (k = 4) is G(1,3), G(2,2) and SK_{2,4}, all of
    # order 7; the corpus at n_max = 6 has no graph of order 7.
    alphas = ["0.50", "0.75"]
    run = lambda: verify_lemma_suite(["lemma7"], n_max=6, rotation_cases=10, seed=7, alphas=alphas)
    (clean,) = run()
    orders = _corrupt_order(monkeypatch, 7)
    (report,) = run()
    assert report.passed
    assert all(type(c["fallbacks"]) is int for c in report.case_results)
    assert {(c["case"], c["alpha"]): c["fallbacks"] for c in report.case_results if c["fallbacks"]} == {
        ("chain m=9", "0.50"): 3, ("chain m=9", "0.75"): 3,
    }
    assert report.flags == clean.flags + [
        f"chain m=9, alpha={a}: 3 batched eigen-solves failed the certificate "
        "and were re-solved by power iteration"
        for a in alphas
    ]
    # One eigh stack per chain size, each holding every alpha of that size.
    assert [n for n in orders if n >= 7] == [7, 8, 9]


def test_lemma8_cases_count_fallbacks_and_flag_them(monkeypatch):
    _corrupt_order(monkeypatch, 5)
    (report,) = verify_lemma_suite(["lemma8"], alphas=["0.50", "0.90"])
    assert report.passed
    for case in report.case_results:
        assert case["fallbacks"] == int(build(case["case"])[0].n == 5)
    assert report.flags == [
        f"{fam}, alpha={a}: 1 batched eigen-solves failed the certificate "
        "and were re-solved by power iteration"
        for fam in ("K3,2", "K4,1", "SK2,2", "G1,1", "C5") for a in ("0.50", "0.90")
    ]


def test_lemma7_chain_values_equal_power_iteration():
    alphas = ["0.50", "0.75", "0.95", "0.999"]
    (report,) = verify_lemma_suite(["lemma7"], rotation_cases=5, alphas=alphas)
    chain = [c for c in report.case_results if c["case"].startswith("chain")]
    assert len(chain) == 3 * len(alphas)
    for case in chain:
        k = (int(case["case"].removeprefix("chain m=")) - 1) // 2
        alpha = float(case["alpha"])
        power = [alpha_index(gab(a, k - a), alpha).rho for a in range(1, k // 2 + 1)]
        assert len(case["rho_values"]) == len(power)
        for batched, rho in zip(case["rho_values"], power):
            assert abs(batched - rho) <= 1e-13


def test_chain_cross_check_disagreement_is_internal(monkeypatch):
    _shift_power_iteration(monkeypatch)
    with pytest.raises(SpectralError, match="power-iteration rho"):
        verify_lemma_suite(["lemma7"], rotation_cases=5)


def test_spectral_lemmas_power_iteration_count(monkeypatch):
    # The benchmark's spectral targets solve in batches; power iteration
    # runs only to confirm: the tightest slack of each sandwich case
    # (2 targets x 5 orders x 3 alphas) and the tightest step of each
    # G(a, b) chain (3 sizes x 2 graphs).  No solve falls back here.  Each
    # sandwich target confirms in one call, and the chain in one more.
    calls, per_call = _count_solved_cases(monkeypatch, spectral, harness)
    reports = verify_lemma_suite(
        ["lemma1", "lemma2", "lemma7", "lemma8", "lemma9", "lemma10"], n_max=6, rotation_cases=250,
    )
    assert all(r.passed and r.flags == [] for r in reports)
    assert len(calls) == 2 * 5 * 3 + 3 * 2
    assert per_call == [5 * 3, 5 * 3, 3 * 2]
    # The chain confirms the two graphs of each size's tightest step; at
    # m = 13 that is the step from G(2,4) to G(3,3).
    assert calls[30:] == [gab(1, 3), gab(2, 2), gab(1, 4), gab(2, 3), gab(2, 4), gab(3, 3)]
