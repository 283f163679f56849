import random

import numpy as np
import pytest

from alphaindex import enumeration, harness
from alphaindex.enumeration import canonical_form
from alphaindex.families import complete_bipartite, cycle, subdivided_k2
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
from alphaindex.spectral import SpectralError


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


def test_lemma_suite_structural_small():
    reports = verify_lemma_suite(["lemma3", "lemma4", "lemma5"], n_max=6)
    assert all(r.passed for r in reports)
    assert {r.target for r in reports} == {"lemma3", "lemma4", "lemma5"}


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


def test_fact1_neighbour_degree_sums():
    (report,) = verify_lemma_suite(["fact1"])
    assert report.passed


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
    run()
    misses = enumeration._ear_classes.cache_info().misses
    assert misses > 0
    run()
    assert enumeration._ear_classes.cache_info().misses == misses


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


def test_extremal_cross_check_disagreement_is_internal(monkeypatch):
    real = harness.alpha_index

    def shifted(g, alpha):
        result = real(g, alpha)
        return type(result)(alpha, result.rho + 1e-6, result.perron, result.residual,
                            result.iterations)

    monkeypatch.setattr(harness, "alpha_index", shifted)
    with pytest.raises(SpectralError, match="power-iteration rho"):
        verify_theorem_order((5,), ["0.50"])


@pytest.mark.parametrize("target", ["lemma1", "lemma2"])
def test_sandwich_cross_check_disagreement_is_internal(monkeypatch, target):
    real = harness.alpha_index

    def shifted(g, alpha):
        result = real(g, alpha)
        return type(result)(alpha, result.rho + 1e-6, result.perron, result.residual,
                            result.iterations)

    monkeypatch.setattr(harness, "alpha_index", shifted)
    with pytest.raises(SpectralError, match="power-iteration rho"):
        verify_lemma_suite([target], n_max=3)
