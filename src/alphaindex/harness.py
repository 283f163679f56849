"""Theorem- and lemma-level verification campaigns.

Each target turns a quantified claim into an exhaustive (desk-scale) or
seeded-random pass/fail sweep and returns a :class:`VerificationReport`:
one case per parameter point, violations when an asserted case fails, and
flags for anomalies that are reported without being asserted (near-zero
gaps, out-of-hypothesis parameter points, known discrepancies).

Every target is built by one function that fills a report and run by
:func:`_run`, which times it, flags batched eigen-solves that fell back to
power iteration, and refuses a report with no cases.  Lemma targets
register themselves in ``_LEMMAS`` with :func:`_lemma`.

The signatures are the usage contract: a theorem entry point, and each
lemma builder after ``target``, names exactly the keywords it reads, with
its default.  A keyword (or flag) that no chosen target names is an error.

Alpha values travel as decimal strings and are echoed verbatim in
reports, so a grid reads back exactly as it was specified.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import certificates as ct
from .connectivity import (
    is_connected,
    is_minimally_two_connected_by_chords,
    is_minimally_two_connected_by_deletion,
    triangle_free,
)
from .enumeration import canonical_form, graphs_by_order, graphs_by_size
from .families import FamilyId, build
from .graphs import Graph, emit_graph6
from .spectral import (
    SpectralError,
    alpha_index,
    alpha_indices,
    column_sum_certificate,
    closed_form_complete_bipartite,
    lower_bound_max_degree,
    perron_symmetry_check,
    upper_bound_degree_average,
)
from .transforms import Rotation, rotation_monotonicity_checks, valid_moved_candidates

GAP_MARGIN = 1e-10
CROSS_CHECK_TOL = 1e-9
DEFAULT_ALPHAS = ["0.50", "0.55", "0.60", "0.65", "0.70", "0.75", "0.80", "0.85", "0.90", "0.95"]
PROBE_ALPHA = "0.999"
THEOREM_ALPHAS = DEFAULT_ALPHAS + [PROBE_ALPHA]
CERT_ALPHAS = ["0.5", "0.6", "0.75", "0.9"]
SANDWICH_ALPHAS = ["0.5", "0.75", "0.9"]
CLOSED_FORM_ALPHAS = ["0", "0.25", "0.5", "0.75", "0.9"]
THEOREM_ORDERS = (5, 6, 7, 8, 9, 10)
THEOREM_SIZES = (6, 8, 9, 10, 11, 12, 13)
LEMMA_N_MAX = 8
ROTATION_CASES = 1000
ROTATION_SEED = 20250808
ROTATION_BLOCK_FACTOR = 3  # corpus candidates drawn per rotation case still needed


@dataclass
class VerificationReport:
    """One target's cases, violations and flags.

    ``cases``, ``gap`` and ``argmax_graph6`` are derived from
    ``case_results``: the gap and argmax are those of the asserted
    (non-informational) case with the smallest gap.
    """

    target: str
    params: dict
    alpha_grid: list[str]
    case_results: list[dict] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    runtime_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def cases(self) -> int:
        return len(self.case_results)

    def _tightest(self) -> dict:
        asserted = [
            c for c in self.case_results
            if c.get("gap") is not None and not c.get("informational")
        ]
        return min(asserted, key=lambda c: c["gap"], default={})

    @property
    def gap(self) -> float | None:
        return self._tightest().get("gap")

    @property
    def argmax_graph6(self) -> str | None:
        return self._tightest().get("argmax_graph6")

    def add(self, case: dict, *violations: str) -> None:
        """Record a case and, when it failed, its violations."""
        self.case_results.append(case)
        if not case["ok"]:
            self.violations.extend(violations)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in _JSON_KEYS}

    def to_csv_rows(self) -> list[list]:
        return [["target", *_CSV_COLUMNS]] + [
            [self.target] + [case.get(column, "") for column in _CSV_COLUMNS]
            for case in self.case_results
        ]


_JSON_KEYS = (
    "target", "params", "alpha_grid", "cases", "argmax_graph6", "gap",
    "violations", "flags", "runtime_ms", "passed", "case_results",
)
_CSV_COLUMNS = ("case", "alpha", "argmax_graph6", "gap", "ok", "note")


def _run(build_report, *args, **kwargs) -> VerificationReport:
    """Build one target's report, flag its power-iteration fallbacks and
    time it.  A report with no cases checked nothing, so it is an error."""
    start = time.monotonic()
    report = build_report(*args, **kwargs)
    if not report.case_results:
        raise ValueError(f"{report.target} has no cases for {report.params}")
    for case in report.case_results:
        if case.get("fallbacks"):
            report.flags.append(_fallback_flag(case, case["fallbacks"]))
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report


def _fallback_flag(case: dict, count: int) -> str:
    return (
        f"{case['case']}, alpha={case['alpha']}: {count} batched "
        "eigen-solves failed the certificate and were re-solved by power iteration"
    )


def _confirm(g: Graph, alpha: float, rho: float) -> None:
    """Re-solve a batched alpha-index by power iteration, an independent
    algorithm; a disagreement is an internal failure, not a violation."""
    power = alpha_index(g, alpha).rho
    if abs(power - rho) > CROSS_CHECK_TOL:
        raise SpectralError(
            f"{emit_graph6(g)}, alpha={alpha}: batched rho {rho!r} != power-iteration rho {power!r}"
        )


# -- theorem campaigns -------------------------------------------------------


def _extremal_case(label: str, classes: list[Graph], target: str | None, alpha_str: str) -> dict:
    """A theorem case up to its verdict: the argmax canonical form, the gap
    to the runner-up, and the number of batched solves that failed their
    certificate.

    The argmax and the runner-up carry the verdict and the gap, so both are
    confirmed by power iteration.
    """
    alpha = float(alpha_str)
    fallbacks: list[int] = []
    rhos = alpha_indices(classes, alpha, fallbacks)
    scored = sorted(zip(rhos, map(emit_graph6, classes), range(len(classes))), reverse=True)
    for rho, _, i in scored[:2]:
        _confirm(classes[i], alpha, rho)
    return {
        "case": label,
        "alpha": alpha_str,
        "argmax_graph6": scored[0][1],
        "expected_graph6": target,
        "gap": scored[0][0] - scored[1][0] if len(scored) > 1 else None,
        "classes": len(classes),
        "fallbacks": len(fallbacks),
    }


def _sub_margin(case: dict) -> bool:
    # A correct argmax at sub-margin gap is an anomaly, not a failure.
    return case["gap"] is not None and case["gap"] <= GAP_MARGIN


def _order_case(n: int, alphas: list[str]) -> list[tuple[dict, str]]:
    classes = graphs_by_order(n, "minimally_two_connected")
    target = canonical_form(build(FamilyId("K", (2, n - 2)))[0])
    out = []
    for alpha_str in alphas:
        case = _extremal_case(f"n={n}", classes, target, alpha_str)
        ok = case["argmax_graph6"] == target
        case.update(ok=ok, note="gap below strictness margin" if ok and _sub_margin(case) else "")
        out.append((
            case,
            f"n={n}, alpha={alpha_str}: argmax {case['argmax_graph6']} (expected {target}), "
            f"gap {case['gap']}",
        ))
    return out


def _size_case(m: int, alphas: list[str]) -> list[tuple[dict, str]]:
    classes = graphs_by_size(m)
    even = m % 2 == 0
    asserted = (even and m >= 6) or (not even and m >= 9)
    if even:
        target = canonical_form(build(FamilyId("K", (2, m // 2)))[0])
    elif m >= 5:
        target = canonical_form(build(FamilyId("SK2", ((m - 1) // 2,)))[0])
    else:
        target = None
    out = []
    for alpha_str in alphas:
        alpha = float(alpha_str)
        case = _extremal_case(f"m={m}", classes, target, alpha_str)
        ok = True
        note = ""
        root_dev = None
        if asserted:
            ok = case["argmax_graph6"] == target
            if not even:
                rho = alpha_index(build(FamilyId("SK2", ((m - 1) // 2,)))[0], alpha).rho
                root = ct.largest_real_root(ct.sk_cubic(m, alpha))
                root_dev = abs(rho - root)
                if root_dev > 1e-9:
                    ok = False
                    note = f"cubic root deviates from rho by {root_dev:.3e}"
            if ok and _sub_margin(case):
                note = "gap below strictness margin"
        else:
            note = "outside theorem hypotheses; reported without assertion"
        case.update(root_deviation=root_dev, ok=ok, informational=not asserted, note=note)
        out.append((
            case,
            f"m={m}, alpha={alpha_str}: argmax {case['argmax_graph6']} (expected {target}), "
            f"gap {case['gap']}, {note}",
        ))
    return out


def _theorem(
    target: str, name: str, params: dict, alphas: Sequence[str], case_fn, values: list[int],
) -> VerificationReport:
    """Run ``case_fn(value, alphas)`` for each value; a case's note is
    flagged when the case holds."""
    alphas = list(alphas)
    for s in alphas:
        if not 0.5 <= float(s) < 1.0:
            raise ValueError(f"{name} alpha grid must sit in [1/2, 1), got {s}")
    report = VerificationReport(target, params, alphas)
    for value in values:
        for case, violation in case_fn(value, alphas):
            report.add(case, violation)
            if case["ok"] and case["note"]:
                report.flags.append(f"{case['case']}, alpha={case['alpha']}: {case['note']}")
    return report


def verify_theorem_order(
    n_values: Iterable[int] = THEOREM_ORDERS,
    alphas: Sequence[str] = THEOREM_ALPHAS,
) -> VerificationReport:
    """Order theorem: the unique alpha-index maximizer among minimally
    2-connected graphs of order n is K_{2,n-2}, for alpha in [1/2, 1)."""
    n_values = sorted(set(int(n) for n in n_values))
    for n in n_values:
        if n < 5:
            raise ValueError("the order theorem starts at n = 5")
    return _run(_theorem, "theorem1.3", "order theorem", {"n": n_values}, alphas,
                _order_case, n_values)


def verify_theorem_size(
    m_values: Iterable[int] = THEOREM_SIZES,
    alphas: Sequence[str] = THEOREM_ALPHAS,
) -> VerificationReport:
    """Size theorem: the unique maximizer of given size m is K_{2,m/2} for
    even m >= 6 and the subdivided K_{2,(m-1)/2} for odd m >= 9, whose
    alpha-index is pinned by the cubic.  Out-of-hypothesis sizes (such as
    m = 7) are computed and reported without assertion."""
    m_values = sorted(set(int(m) for m in m_values))
    return _run(_theorem, "theorem1.4", "size theorem", {"m": m_values}, alphas,
                _size_case, m_values)


# -- lemma suite -------------------------------------------------------------

# target -> builder, in suite order.
_LEMMAS: dict = {}


def _lemma(*targets: str):
    def register(build_report):
        for target in targets:
            _LEMMAS[target] = build_report
        return build_report
    return register


def _chosen(targets: Sequence[str] | None) -> list[str]:
    chosen = list(targets or LEMMA_TARGETS)
    for t in chosen:
        if t not in _LEMMAS:
            raise ValueError(f"unknown verification target {t!r}")
    return chosen


def _keywords(build_report) -> list[str]:
    """The keywords a lemma builder reads: its parameters after ``target``."""
    return list(inspect.signature(build_report).parameters)[1:]


def lemma_keywords(targets: Sequence[str] | None = None) -> set[str]:
    """The keywords :func:`verify_lemma_suite` reads for these targets
    (default: all): ``targets`` and those of the chosen builders."""
    return {"targets"}.union(*(_keywords(_LEMMAS[t]) for t in _chosen(targets)))


def verify_lemma_suite(targets: Sequence[str] | None = None, **given) -> list[VerificationReport]:
    """Run the chosen lemma targets (default: all) in suite order.  Each
    builder gets only the keywords of ``given`` that its signature names;
    a keyword that no chosen builder names is an error."""
    chosen = _chosen(targets)
    unread = given.keys() - lemma_keywords(chosen)
    if unread:
        raise ValueError(f"lemma targets {', '.join(chosen)} do not take {', '.join(sorted(unread))}")
    return [
        _run(_LEMMAS[t], t, **{k: given[k] for k in _keywords(_LEMMAS[t]) if k in given})
        for t in chosen
    ]


# Lemma 1 bounds rho above by the degree average, lemma 2 below by the
# maximum degree; each maps (graph, alpha, rho) to the bound's slack.
_SLACK = {
    "lemma1": lambda g, alpha, rho: upper_bound_degree_average(g, alpha) - rho,
    "lemma2": lambda g, alpha, rho: rho - lower_bound_max_degree(g, alpha),
}


@_lemma(*_SLACK)
def _sandwich(
    target: str, n_max: int = LEMMA_N_MAX, alphas: Sequence[str] = SANDWICH_ALPHAS,
) -> VerificationReport:
    alphas = list(alphas)
    report = VerificationReport(target, {"n": list(range(2, n_max + 1))}, alphas)
    slack_of = _SLACK[target]
    for n in range(2, n_max + 1):
        classes = [g for g in graphs_by_order(n) if is_connected(g)]
        for alpha_str in alphas:
            alpha = float(alpha_str)
            fallbacks: list[int] = []
            rhos = alpha_indices(classes, alpha, fallbacks)
            slacks = [slack_of(g, alpha, rho) for g, rho in zip(classes, rhos)]
            # The verdict rests on the tightest slack, so its rho is confirmed.
            tight = min(range(len(classes)), key=slacks.__getitem__)
            _confirm(classes[tight], alpha, rhos[tight])
            bad = [
                f"n={n}, alpha={alpha_str}, {emit_graph6(g)}: slack {slack:.3e}"
                for g, slack in zip(classes, slacks) if slack < -GAP_MARGIN
            ]
            report.add({
                "case": f"n={n}", "alpha": alpha_str, "classes": len(classes),
                "fallbacks": len(fallbacks), "min_slack": slacks[tight], "ok": not bad,
            }, *bad)
    return report


# Lemma 3: minimum degree 2; lemma 4: no triangle.  Each maps a graph to
# (holds, note).
_STRUCTURAL = {
    "lemma3": lambda g: (min(g.degrees()) == 2, f"min degree {min(g.degrees())}"),
    "lemma4": lambda g: (triangle_free(g), "triangle found"),
}


@_lemma(*_STRUCTURAL)
def _structural(target: str, n_max: int = LEMMA_N_MAX) -> VerificationReport:
    report = VerificationReport(target, {"n": list(range(4, n_max + 1))}, [])
    for n in range(4, n_max + 1):
        for g in graphs_by_order(n, "minimally_two_connected"):
            ok, note = _STRUCTURAL[target](g)
            g6 = emit_graph6(g)
            report.add({"case": f"n={n}", "graph6": g6, "ok": ok, "note": note}, f"n={n}, {g6}: {note}")
    return report


@_lemma("lemma5")
def _lemma5(target: str, n_max: int = LEMMA_N_MAX) -> VerificationReport:
    report = VerificationReport(target, {"n": list(range(4, n_max + 1))}, [])
    for n in range(4, n_max + 1):
        extremal_expected = canonical_form(build(FamilyId("K", (2, n - 2)))[0])
        at_bound = []
        for g in graphs_by_order(n, "minimally_two_connected"):
            if g.m > 2 * n - 4:
                report.violations.append(f"n={n}, {emit_graph6(g)}: m={g.m} > 2n-4")
            if g.m == 2 * n - 4:
                at_bound.append(emit_graph6(g))
        report.add(
            {"case": f"n={n}", "at_bound": at_bound, "expected": extremal_expected,
             "ok": at_bound == [extremal_expected]},
            f"n={n}: classes at m=2n-4 are {at_bound}, expected [{extremal_expected}]",
        )
    return report


@_lemma("lemma6")
def _lemma6(target: str, n_max: int = LEMMA_N_MAX) -> VerificationReport:
    report = VerificationReport(target, {"n": list(range(1, n_max + 1))}, [])
    for n in range(1, n_max + 1):
        classes = graphs_by_order(n)
        bad = [
            f"n={n}, {emit_graph6(g)}: recognizers disagree" for g in classes
            if is_minimally_two_connected_by_deletion(g) != is_minimally_two_connected_by_chords(g)
        ]
        report.add({
            "case": f"n={n}", "classes": len(classes), "disagreements": len(bad), "ok": not bad,
        }, *bad)
    return report


def sample_connected_graph(
    rng: random.Random, n_lo: int = 4, n_hi: int = 8,
    p_lo: float = 0.25, p_hi: float = 0.75,
) -> Graph:
    """Seeded Erdos-Renyi draw, redrawn until connected."""
    while True:
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(p_lo, p_hi)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g


def sample_rotation(rng: random.Random, g: Graph, tries: int = 20) -> Rotation | None:
    for _ in range(tries):
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        candidates = valid_moved_candidates(g, u, v)
        if not candidates:
            continue
        k = rng.randint(1, len(candidates))
        moved = frozenset(rng.sample(candidates, k))
        return Rotation(u=u, v=v, moved=moved)
    return None


def sample_rotation_cases(
    rng: random.Random, n_max: int, count: int,
) -> list[tuple[Graph, Rotation, float]]:
    """The next ``count`` candidates of lemma7's corpus, in draw order: a
    connected graph of order 4..n_max, a rotation of it and alpha."""
    cases = []
    while len(cases) < count:
        g = sample_connected_graph(rng, 4, max(4, n_max))
        rot = sample_rotation(rng, g)
        if rot is None:
            continue
        cases.append((g, rot, rng.choice((0.5, 0.75))))
    return cases


@_lemma("lemma7")
def _lemma7(
    target: str, n_max: int = LEMMA_N_MAX, alphas: Sequence[str] = DEFAULT_ALPHAS,
    rotation_cases: int = ROTATION_CASES, seed: int = ROTATION_SEED,
) -> VerificationReport:
    """The rotation corpus, then the G(a, b) chain.

    Candidates are drawn in blocks of ``ROTATION_BLOCK_FACTOR`` times the
    cases still needed and checked by one batched call per block.  They are
    consumed in draw order until ``rotation_cases`` meet the precondition,
    and the draws left over are discarded, so the corpus depends on the
    seed alone.
    """
    if rotation_cases < 1:
        raise ValueError(f"{target} needs at least one rotation case, got {rotation_cases}")
    alphas = list(alphas)
    report = VerificationReport(
        target, {"random_cases": rotation_cases, "seed": seed, "chain_m": [9, 11, 13]}, alphas,
    )
    rng = random.Random(seed)
    collected = 0
    satisfied = 0
    fallbacks = 0
    bad = []
    while satisfied < rotation_cases:
        block = ROTATION_BLOCK_FACTOR * (rotation_cases - satisfied)
        cases = sample_rotation_cases(rng, n_max, block)
        failed: list[int] = []
        checks = rotation_monotonicity_checks(cases, failed)
        used = 0
        for (g, rot, alpha), chk in zip(cases, checks):
            if satisfied == rotation_cases:
                break
            used += 1
            if not chk.perron_precondition:
                continue
            satisfied += 1
            if chk.increase <= 0:
                bad.append(
                    f"{emit_graph6(g)}, u={rot.u}, v={rot.v}, moved={sorted(rot.moved)}, "
                    f"alpha={alpha}: increase {chk.increase:.3e}"
                )
            elif chk.increase <= GAP_MARGIN:
                report.flags.append(
                    f"{emit_graph6(g)}, u={rot.u}, v={rot.v}, alpha={alpha}: "
                    f"near-zero increase {chk.increase:.3e}"
                )
        collected += used
        fallbacks += sum(i < used for i in failed)
    corpus = {
        "case": "random-corpus", "alpha": "0.5|0.75", "attempted": collected,
        "precondition_satisfied": satisfied, "ok": not bad,
    }
    report.add(corpus, *bad)
    if fallbacks:
        report.flags.append(_fallback_flag(corpus, fallbacks))
    # G(a, b) chain: rho increases strictly toward G(1, (m-3)/2).
    for m in (9, 11, 13):
        k = (m - 1) // 2
        for alpha_str in alphas:
            alpha = float(alpha_str)
            rhos = {}
            for a in range(1, k // 2 + 1):
                rhos[a] = alpha_index(build(FamilyId("G", (a, k - a)))[0], alpha).rho
            sk_rho = alpha_index(build(FamilyId("SK2", (k,)))[0], alpha).rho
            bad = []
            if abs(rhos[1] - sk_rho) > 1e-9:
                bad.append(f"m={m}, alpha={alpha_str}: G(1,{k-1}) rho {rhos[1]} != SK rho {sk_rho}")
            for a in range(2, k // 2 + 1):
                diff = rhos[a - 1] - rhos[a]
                if diff < -GAP_MARGIN:
                    bad.append(
                        f"m={m}, alpha={alpha_str}: rho(G({a-1},{k-a+1})) < rho(G({a},{k-a}))"
                    )
                elif diff <= GAP_MARGIN:
                    report.flags.append(
                        f"m={m}, alpha={alpha_str}: chain step a={a} margin {diff:.3e} "
                        "below strictness threshold"
                    )
            report.add({
                "case": f"chain m={m}", "alpha": alpha_str,
                "rho_values": [rhos[a] for a in sorted(rhos)], "ok": not bad,
            }, *bad)
    return report


@_lemma("lemma8")
def _lemma8(target: str, alphas: Sequence[str] = DEFAULT_ALPHAS) -> VerificationReport:
    alphas = list(alphas)
    fams = [FamilyId("K", (a, b)) for a in range(1, 5) for b in range(1, a + 1)]
    fams += [FamilyId("SK2", (k,)) for k in range(2, 7)]
    fams += [FamilyId("G", (a, b)) for a in range(1, 4) for b in range(a, 5)]
    fams += [FamilyId("C", (n,)) for n in range(3, 11)]
    report = VerificationReport(target, {"families": [str(f) for f in fams]}, alphas)
    for fid in fams:
        g, orbits = build(fid)
        for alpha_str in alphas:
            ok = perron_symmetry_check(g, orbits, float(alpha_str))
            report.add(
                {"case": str(fid), "alpha": alpha_str, "ok": ok},
                f"{fid}, alpha={alpha_str}: orbit coordinates differ",
            )
    return report


@_lemma("lemma9")
def _lemma9(target: str, alphas: Sequence[str] = CLOSED_FORM_ALPHAS) -> VerificationReport:
    alphas = list(alphas)
    report = VerificationReport(target, {"a_max": 12}, alphas)
    anchor = closed_form_complete_bipartite(3, 2, 0.5)
    if abs(anchor - 2.5) > 1e-12:
        report.violations.append(f"anchor rho_1/2(K_2,3) = {anchor!r}, expected 2.5")
    shapes = [(a, b) for a in range(1, 13) for b in range(1, a + 1)]
    graphs = [build(FamilyId("K", shape))[0] for shape in shapes]
    for alpha_str in alphas:
        alpha = float(alpha_str)
        fallbacks: list[int] = []
        rhos = alpha_indices(graphs, alpha, fallbacks)
        worst = max(
            abs(closed_form_complete_bipartite(a, b, alpha) - rho)
            for (a, b), rho in zip(shapes, rhos)
        )
        report.add({
            "case": "K_{a,b} 1<=b<=a<=12", "alpha": alpha_str, "max_deviation": worst,
            "fallbacks": len(fallbacks), "ok": worst <= 1e-10,
        }, f"alpha={alpha_str}: max deviation {worst:.3e}")
    return report


@_lemma("lemma10")
def _lemma10(target: str, alphas: Sequence[str] = DEFAULT_ALPHAS) -> VerificationReport:
    alphas = list(alphas)
    ms = ct.odd_range(9, 25)
    report = VerificationReport(target, {"m": ms}, alphas)
    graphs = [build(FamilyId("SK2", ((m - 1) // 2,)))[0] for m in ms]
    fallbacks: dict[str, list[int]] = {s: [] for s in alphas}
    rhos = {s: alpha_indices(graphs, float(s), fallbacks[s]) for s in alphas}
    for i, m in enumerate(ms):
        for alpha_str in alphas:
            root = ct.largest_real_root(ct.sk_cubic(m, float(alpha_str)))
            dev = abs(rhos[alpha_str][i] - root)
            report.add({
                "case": f"m={m}", "alpha": alpha_str, "deviation": dev,
                "fallbacks": int(i in fallbacks[alpha_str]), "ok": dev <= 1e-9,
            }, f"m={m}, alpha={alpha_str}: |rho - root| = {dev:.3e}")
    return report


@_lemma("lemma11")
def _lemma11(target: str) -> VerificationReport:
    ms = ct.odd_range(9, 99)
    grid = ct.alpha_grid("0.50", "0.99", "0.01")
    report = VerificationReport(target, {"m": [9, 99], "step": 2}, grid)
    for poly in ("f", "g"):
        cert = ct.sign_grid(poly, ms, grid)
        report.add({
            "case": f"sign {poly}", "alpha": "grid",
            "min_abs_value": cert.min_abs_value,
            "violations": len(cert.violations), "ok": cert.passed,
        }, *(f"{poly}(alpha={alpha_str}, m={m}) = {value}" for m, alpha_str, value in cert.violations))
    worst = 0.0
    for alpha_str in ("0.5", "0.7", "0.9"):
        alpha = float(alpha_str)
        dev = abs(ct.eval_f(alpha, 9) - ct.f_at_m9_factored(alpha)) / max(1.0, abs(ct.eval_f(alpha, 9)))
        worst = max(worst, dev)
    report.add(
        {"case": "f(alpha,9) factored endpoint", "alpha": "0.5|0.7|0.9", "max_rel_dev": worst,
         "ok": worst <= 1e-9},
        f"f(alpha,9) endpoint form deviates by {worst:.3e}",
    )
    # Increasing in m at fixed alpha (finite differences).
    for alpha_str in ("0.5", "0.75", "0.99"):
        alpha = float(alpha_str)
        monotone = all(ct.eval_f(alpha, m + 2) > ct.eval_f(alpha, m) for m in ms[:-1])
        report.add(
            {"case": "f increasing in m", "alpha": alpha_str, "ok": monotone},
            f"f not increasing in m at alpha={alpha_str}",
        )
    return report


def _column_sums(report: VerificationReport, variant: str, label: str, eligible: list[Graph]) -> None:
    """One case per alpha: every column sum of every eligible graph is <= 0."""
    for alpha_str in report.alpha_grid:
        alpha = float(alpha_str)
        tops = [max(column_sum_certificate(g, alpha, variant).column_sums) for g in eligible]
        bad = [
            f"{label}, alpha={alpha_str}, {emit_graph6(g)}: c_u = {top:.3e} > 0"
            for g, top in zip(eligible, tops) if top > 1e-12
        ]
        report.add({
            "case": label, "alpha": alpha_str, "graphs": len(eligible),
            "max_column_sum": max(tops, default=None), "ok": not bad,
        }, *bad)


@_lemma("claim-order")
def _claim_order(
    target: str, n_max: int = LEMMA_N_MAX, alphas: Sequence[str] = CERT_ALPHAS,
) -> VerificationReport:
    report = VerificationReport(
        target, {"n": list(range(5, n_max + 1)), "max_degree": "<= n-3"}, list(alphas),
    )
    for n in range(5, n_max + 1):
        eligible = [
            g for g in graphs_by_order(n, "minimally_two_connected")
            if max(g.degrees()) <= n - 3
        ]
        _column_sums(report, "order", f"n={n}", eligible)
    return report


@_lemma("claim-size")
def _claim_size(target: str, alphas: Sequence[str] = CERT_ALPHAS) -> VerificationReport:
    report = VerificationReport(
        target, {"m": list(range(6, 13)), "max_degree": "3 <= Delta <= (m-2)/2"}, list(alphas),
    )
    for m in range(6, 13):
        eligible = [g for g in graphs_by_size(m) if 3 <= max(g.degrees()) <= (m - 2) // 2]
        _column_sums(report, "size", f"m={m}", eligible)
    return report


@_lemma("fact1")
def _fact1(target: str) -> VerificationReport:
    report = VerificationReport(target, {"m": [9, 11, 13]}, [])
    for m in (9, 11, 13):
        classes = graphs_by_size(m)
        bad = []
        for g in classes:
            degs = g.degrees()
            for w in range(g.n):
                s = sum(degs[v] for v in g.neighbors(w))
                if s > m - 1:
                    bad.append(f"m={m}, {emit_graph6(g)}, w={w}: neighbour degree sum {s} > m-1")
        report.add({"case": f"m={m}", "classes": len(classes), "ok": not bad}, *bad)
    return report


def _identity_report(target: str) -> VerificationReport:
    return VerificationReport(
        target, {"m": [9, 99], "step": 2}, ct.alpha_grid("0.50", "0.99", "0.01"),
    )


def _identity_case(report: VerificationReport, case: str, check, lhs_name: str) -> bool:
    """Run one identity check over odd m in 9..99 and the report's alpha grid."""
    ms = ct.odd_range(9, 99)
    grid = report.alpha_grid
    worst = 0.0
    failing = 0
    exemplars: list[str] = []
    for m in ms:
        for alpha_str in grid:
            err = check(float(alpha_str), m)
            if err > worst:
                worst = err
            if err > ct.IDENTITY_RTOL:
                failing += 1
                if len(exemplars) < 5:
                    exemplars.append(
                        f"alpha={alpha_str}, m={m}: {lhs_name} relative error {err:.3e}"
                    )
    ok = worst <= ct.IDENTITY_RTOL
    report.add({
        "case": case, "alpha": "grid", "max_rel_error": worst,
        "grid_points": len(ms) * len(grid), "failing_points": failing,
        "ok": ok,
    }, (
        f"{lhs_name}: {failing} of {len(ms) * len(grid)} grid points exceed "
        f"{ct.IDENTITY_RTOL:g} (max relative error {worst:.3e}); "
        "examples: " + "; ".join(exemplars)
    ))
    return ok


@_lemma("fact2")
def _fact2(target: str) -> VerificationReport:
    report = _identity_report(target)
    _identity_case(report, "identity grid", ct.identity_check_f, "-8(m-3)^3 p(x0) vs f")
    return report


@_lemma("fact3")
def _fact3(target: str) -> VerificationReport:
    report = _identity_report(target)
    # The printed identity 4 p(x1) = g is false; it stays asserted, so
    # fact3 fails, next to the identity that exact expansion gives.
    _identity_case(report, "identity grid", ct.identity_check_g, "4 p(x1) vs g")
    derived_ok = _identity_case(
        report, "derived identity grid", ct.identity_check_g_derived,
        "4 p(x1) vs -(1-a)^2 h/2",
    )
    # The inequality the size-theorem proof actually rests on: p(x1) < 0.
    worst = max(
        ct.g_identity_lhs(float(alpha_str), m)
        for m in ct.odd_range(9, 99)
        for alpha_str in report.alpha_grid
    )
    report.add(
        {"case": "bound 4 p(x1) < 0", "alpha": "grid", "max_value": worst, "ok": worst < 0},
        f"4 p(x1) reaches {worst:.3e} >= 0 on the grid",
    )
    if worst < 0:
        report.flags.append(
            "4 p(x1) < 0 holds on the whole grid even where the printed g identity fails"
        )
    if derived_ok:
        report.flags.append(
            "4 p(x1) = -(1-a)^2 h/2 holds on the whole grid, "
            "h = (2a-1)m^3 - (23a-12)m^2 + (82a-44)m - (96a-56)"
        )
    return report


LEMMA_TARGETS = tuple(_LEMMAS)
