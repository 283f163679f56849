"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines.  Criterion 6 is split into its two identities, both to 1e-9 across
odd m in 9..99 and alpha in 0.50..0.99.  6a is the f identity
-8(m-3)^3 p(x0) = f.  6b is the g-side identity that exact expansion
gives, 4 p(x1) = -(1-a)^2 h(a, m) / 2 with
h = (2a-1)m^3 - (23a-12)m^2 + (82a-44)m - (96a-56).  The printed identity
4 p(x1) = g is an erratum: at (alpha, m) = (1/2, 9) its sides are -43/16
and -8083/8, and a cubic-in-alpha left side with a double root at
alpha = 1 cannot equal the quartic-in-alpha g (g(1, m) = -16(m+3)(m+8)).
The printed g is still checked as a sign certificate (criterion 5).  A
companion test pins the inequality the size-theorem proof needs,
4*p(x1) < 0.
"""

import random
import time

from alphaindex import certificates as ct
from alphaindex import harness as hz
from alphaindex.connectivity import (
    has_chorded_cycle,
    is_minimally_two_connected_by_chords,
    is_minimally_two_connected_by_deletion,
    triangle_free,
)
from alphaindex.enumeration import canonical_form, graphs_by_order, graphs_by_size
from alphaindex.families import complete_bipartite, subdivided_k2
from alphaindex.graphs import emit_graph6
from alphaindex.spectral import (
    alpha_index,
    closed_form_complete_bipartite,
)

from conftest import alpha_matrix_by_loop, jacobi_eigenvalues

ALPHAS_10 = hz.DEFAULT_ALPHAS  # 0.50, 0.55, ..., 0.95


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_theorem_order():
    start = time.monotonic()
    rep = hz.verify_theorem_order((5, 6, 7, 8), ALPHAS_10)
    elapsed = time.monotonic() - start
    ok = rep.passed and rep.gap is not None and rep.gap > 1e-10 and elapsed < 120
    report(
        "criterion 1 (order theorem, n=5..8)",
        ok,
        f"{rep.cases} cases, min gap {rep.gap:.3e}, {elapsed:.0f}s "
        f"({len(rep.violations)} violations)",
    )


def test_criterion_02_theorem_size_even():
    start = time.monotonic()
    rep = hz.verify_theorem_size((6, 8, 10, 12), ALPHAS_10)
    elapsed = time.monotonic() - start
    ok = rep.passed and rep.gap > 1e-10 and elapsed < 300
    report(
        "criterion 2 (size theorem, even m=6..12)",
        ok,
        f"{rep.cases} cases, min gap {rep.gap:.3e}, {elapsed:.0f}s",
    )


def test_criterion_03_theorem_size_odd():
    start = time.monotonic()
    rep = hz.verify_theorem_size((9, 11, 13), ALPHAS_10)
    elapsed = time.monotonic() - start
    worst_root = max(c["root_deviation"] for c in rep.case_results)
    ok = rep.passed and rep.gap > 1e-10 and worst_root <= 1e-9 and elapsed < 600
    report(
        "criterion 3 (size theorem, odd m=9,11,13)",
        ok,
        f"{rep.cases} cases, min gap {rep.gap:.3e}, "
        f"max cubic-root deviation {worst_root:.3e}, {elapsed:.0f}s",
    )


def test_criterion_04_closed_form_oracle():
    worst = 0.0
    for a in range(1, 13):
        for b in range(1, a + 1):
            g = complete_bipartite(a, b)
            for alpha in (0.0, 0.25, 0.5, 0.75, 0.9):
                dev = abs(
                    closed_form_complete_bipartite(a, b, alpha)
                    - alpha_index(g, alpha).rho
                )
                worst = max(worst, dev)
    anchor = abs(closed_form_complete_bipartite(3, 2, 0.5) - 2.5)
    ok = worst <= 1e-10 and anchor <= 1e-12
    report(
        "criterion 4 (closed form vs eigensolver, K_{a,b})",
        ok,
        f"390 pairs, max deviation {worst:.3e}, anchor |rho-2.5| = {anchor:.1e}",
    )


def test_criterion_05_sign_grids():
    ms = ct.odd_range(9, 99)
    grid = ct.alpha_grid("0.50", "0.99", "0.01")
    min_f, violations_f = ct.sign_grid("f", ms, grid)
    min_g, violations_g = ct.sign_grid("g", ms, grid)
    f_anchor = abs(ct.eval_f(0.5, 9) - 728.0) / 728.0
    g_anchor = abs(ct.eval_g(0.5, 9) - (-1010.375)) / 1010.375
    ok = (
        not violations_f and not violations_g
        and f_anchor <= 1e-9 and g_anchor <= 1e-9
    )
    report(
        "criterion 5 (sign grids f>0, g<0)",
        ok,
        f"{len(ms) * len(grid)} points each, min |f| = {min_f:.6g}, "
        f"min |g| = {min_g:.6g}, anchors f={f_anchor:.1e} g={g_anchor:.1e}",
    )


def test_criterion_06a_identity_f():
    worst = max(
        ct.identity_check_f(float(a), m)
        for m in ct.odd_range(9, 99)
        for a in ct.alpha_grid("0.50", "0.99", "0.01")
    )
    report(
        "criterion 6a (-8(m-3)^3 p(x0) = f)",
        worst <= 1e-9,
        f"max relative error {worst:.3e}",
    )


def test_criterion_06b_identity_g():
    # Two routes to the g side: the float cubic 4 p(x1) against the exact
    # integer table for -(1-a)^2 h / 2.  The printed g is not 4 p(x1) (at
    # alpha=1/2, m=9 the sides are -43/16 and -8083/8); that erratum stays
    # reported by fact3 and `certify identity --poly g`.
    worst = max(
        ct.identity_check_g_derived(float(a), m)
        for m in ct.odd_range(9, 99)
        for a in ct.alpha_grid("0.50", "0.99", "0.01")
    )
    report(
        "criterion 6b (4 p(x1) = -(1-a)^2 h / 2)",
        worst <= 1e-9,
        f"max relative error {worst:.3e}",
    )


def test_criterion_06b_companion_bound_negative():
    # What the size-theorem proof actually needs from this evaluation
    # point: p(x1) < 0 throughout the claimed region.
    worst = max(
        ct.g_identity_lhs(float(a), m)
        for m in ct.odd_range(9, 99)
        for a in ct.alpha_grid("0.50", "0.99", "0.01")
    )
    report(
        "criterion 6b companion (4 p(x1) < 0 on the grid)",
        worst < 0.0,
        f"max value {worst:.3e}",
    )


def test_criterion_07_recognizer_cross_oracle():
    start = time.monotonic()
    disagreements = 0
    total = 0
    for n in range(1, 9):
        for g in graphs_by_order(n):
            total += 1
            if is_minimally_two_connected_by_deletion(g) != \
                    is_minimally_two_connected_by_chords(g):
                disagreements += 1
    ok = disagreements == 0 and total == 13598
    report(
        "criterion 7 (recognizer cross-oracle, all classes n<=8)",
        ok,
        f"{total} classes, {disagreements} disagreements, "
        f"{time.monotonic() - start:.0f}s",
    )


def test_criterion_08_structural_lemmas():
    reports = hz.verify_lemma_suite(["lemma3", "lemma4", "lemma5"], n_max=8)
    ok = all(r.passed for r in reports)
    # Re-derive minimality from the deletion definition, then check each
    # implication on the same classes, chord-freeness included.
    swept = 0
    for n in range(4, 9):
        for g in graphs_by_order(n, "minimally_two_connected"):
            swept += 1
            ok = ok and is_minimally_two_connected_by_deletion(g) and not has_chorded_cycle(g)
            ok = ok and min(g.degrees()) == 2 and triangle_free(g)
            ok = ok and 2 * g.n - 4 - g.m >= 0
    counted = sum(r.cases for r in reports)
    report(
        "criterion 8 (structural lemmas 3-6 implications, min2c n=4..8)",
        ok,
        f"{counted} lemma checks + {swept} classes swept, violations: "
        + str(sum(len(r.violations) for r in reports)),
    )


def test_criterion_09_bound_sandwich():
    reports = hz.verify_lemma_suite(["lemma1", "lemma2"], n_max=7,
                                    alphas=["0.5", "0.75", "0.9"])
    worst = min(c["min_slack"] for r in reports for c in r.case_results)
    ok = all(r.passed for r in reports) and worst >= -1e-10
    report(
        "criterion 9 (bound sandwich, connected n<=7)",
        ok,
        f"min slack {worst:.3e}",
    )


def test_criterion_10_rotation_corpus_and_chain():
    (rep,) = hz.verify_lemma_suite(["lemma7"], rotation_cases=1000,
                                   alphas=ALPHAS_10)
    corpus = rep.case_results[0]
    ok = rep.passed and corpus["precondition_satisfied"] == 1000
    report(
        "criterion 10 (rotation corpus 1000 + G(a,b) chains)",
        ok,
        f"{corpus['precondition_satisfied']} precondition cases, "
        f"{len(rep.violations)} violations, {len(rep.flags)} flags",
    )


def test_criterion_11_column_sum_certificates():
    reports = hz.verify_lemma_suite(["claim-order", "claim-size"], n_max=8)
    ok = all(r.passed for r in reports)
    graphs = sum(c.get("graphs", 0) for r in reports for c in r.case_results)
    report(
        "criterion 11 (column-sum certificates, both variants)",
        ok,
        f"{graphs} graph evaluations, violations: "
        + str(sum(len(r.violations) for r in reports)),
    )


def test_criterion_12_eigensolver_self_consistency():
    rng = random.Random(424242)
    worst = 0.0
    for _ in range(500):
        g = hz.sample_connected_graph(rng, 3, 10)
        for alpha in (0.5, 0.8):
            lam = jacobi_eigenvalues(alpha_matrix_by_loop(g, alpha))[-1]
            rho = alpha_index(g, alpha).rho
            worst = max(worst, abs(lam - rho))
    report(
        "criterion 12 (power iteration vs Jacobi, 500 graphs)",
        worst <= 1e-10,
        f"max |rho - lambda_max| = {worst:.3e}",
    )


def test_acceptance_extras_extremal_anchors():
    # Small spot anchors stated alongside the criteria.
    rho = alpha_index(complete_bipartite(2, 3), 0.5).rho
    sk = alpha_index(subdivided_k2(4), 0.5).rho
    root = ct.largest_real_root(ct.sk_cubic(9, 0.5))
    ok = abs(rho - 2.5) < 1e-12 and abs(sk - root) < 1e-9 and abs(sk - 2.9444847) < 1e-6
    report(
        "anchors (rho(K_{2,3}) = 2.5, rho(SK_{2,4}) ~ 2.94448)",
        ok,
        f"rho23 = {rho:.12f}, rhoSK = {sk:.10f}",
    )
