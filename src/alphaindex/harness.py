"""Theorem- and lemma-level verification campaigns.

Each target turns a quantified claim into an exhaustive (desk-scale) or
seeded-random pass/fail sweep and returns a :class:`VerificationReport`:
one case per parameter point, violations when an asserted case fails, and
flags for anomalies that are reported without being asserted (near-zero
gaps, out-of-hypothesis parameter points, known discrepancies).

Every target is built by one function that fills a report and run by
:func:`_run`, which times it, flags each case's ``fallbacks`` count of
batched eigen-solves that fell back to power iteration, and refuses a
report with no cases.  Lemma targets
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
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from . import certificates as ct
from .connectivity import (
    is_connected,
    is_minimally_two_connected_by_chords,
    is_minimally_two_connected_by_deletion,
    triangle_free,
)
from .enumeration import (
    MAX_BUILTIN_ORDER,
    MAX_MIN2C_ORDER,
    canonical_form,
    graphs_by_order,
    graphs_by_size,
)
from .families import build, complete_bipartite, gab, subdivided_k2
from .graphs import Graph, emit_graph6
from .spectral import (
    SYMMETRY_TOL,
    Perron,
    SpectralError,
    adjacency_stack,
    alpha_indices,
    block_spread,
    closed_form_complete_bipartite,
    column_sums,
    degree_sums,
    lower_bounds_max_degree,
    perron_bounds,
    perron_pairs,
    perron_symmetry_check,
    upper_bounds_degree_average,
)
from .transforms import Rotation, rotation_monotonicity_checks, valid_moved_candidates

GAP_MARGIN = 1e-10
SCREEN_MARGIN = 1e-9  # slack under the runner-up's floor before a theorem class goes unsolved
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
ROTATION_TRIES = 20  # (u, v) draws per graph before a rotation draw gives up
EDGE_P_RANGE = (0.25, 0.75)  # a sampled graph's edge probability is uniform on this
CHAIN_SIZES = (9, 11, 13)  # the sizes m of lemma7's G(a, b) chain


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
            report.flags.append(
                f"{case['case']}, alpha={case['alpha']}: {case['fallbacks']} batched "
                "eigen-solves failed the certificate and were re-solved by power iteration"
            )
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    return report


class _Confirmations:
    """Batched alpha-indices to re-solve by power iteration, an independent
    algorithm, all in one :func:`alpha_indices` call; a disagreement is an
    internal failure, not a violation."""

    def __init__(self) -> None:
        self.cases: list[tuple[Graph, float]] = []
        self.checks: list[tuple[Graph, float, int]] = []  # (graph, batched rho, solve position)

    def solve(self, g: Graph, alpha: float) -> int:
        """Queue a solve of ``g``; returns the position of its value in :meth:`run`."""
        self.cases.append((g, alpha))
        return len(self.cases) - 1

    def check(self, g: Graph, alpha: float, rho: float, at: int | None = None) -> None:
        """Queue the check of ``g``'s batched ``rho`` against the solve at
        position ``at`` (at the same alpha), by default a new solve of ``g``."""
        self.checks.append((g, rho, self.solve(g, alpha) if at is None else at))

    def run(self) -> list[float]:
        """Solve every queued case and check every batched value; returns
        the power-iteration values in queue order."""
        powers = [result.rho for result in alpha_indices(self.cases)]
        for g, rho, at in self.checks:
            if abs(powers[at] - rho) > CROSS_CHECK_TOL:
                raise SpectralError(
                    f"{emit_graph6(g)}, alpha={self.cases[at][1]}: batched rho {rho!r} "
                    f"!= power-iteration rho {powers[at]!r}"
                )
        return powers


def _pairs_by_alpha(graphs: list[Graph], alphas: list[str]) -> list[list[Perron]]:
    """Every graph at every alpha in one :func:`perron_pairs` call, its
    cases listed alpha-major; one list of pairs per alpha."""
    pairs = perron_pairs([(g, float(s)) for s in alphas for g in graphs])
    k = len(graphs)
    return [pairs[j * k:(j + 1) * k] for j in range(len(alphas))]


# -- theorem campaigns -------------------------------------------------------


def _screen(class_lists: Sequence[list[Graph]], values: list[float]) -> list[list[list[int]]]:
    """Per class list and alpha, the positions of the classes that can rank
    first or second in that case, from one :func:`perron_bounds` call over
    every list of more than two classes.

    Within each case of more than two classes it keeps the classes whose
    upper bound is at least t - ``SCREEN_MARGIN``, where t is the
    second-largest lower bound among the case's own classes; a case of at
    most two classes keeps them all, since there is nothing to drop.  No
    class that ranks in the case's top two is lost: two of its classes
    have rho >= t, so the runner-up's rho is at least t, and a dropped
    class has rho <= its upper bound < t - ``SCREEN_MARGIN``.  The margin
    also absorbs the bounds' rounding.  The bounds die with the call,
    before the solve.
    """
    lower, upper = perron_bounds([g for classes in class_lists if len(classes) > 2 for g in classes], values)
    lower, upper = lower.tolist(), upper.tolist()
    solving = []
    start = 0
    for classes in class_lists:
        if len(classes) <= 2:
            solving.append([list(range(len(classes)))] * len(values))
            continue
        end = start + len(classes)
        rows = []
        for low, up in zip(lower, upper):
            # Sorted in Python: numpy's sort would map code that no other
            # step of a campaign touches, about 0.2 MB of peak RSS.
            floor = sorted(low[start:end])[-2] - SCREEN_MARGIN
            rows.append([i for i, bound in enumerate(up[start:end]) if bound >= floor])
        solving.append(rows)
        start = end
    return solving


# Every asserted case has at least two classes, so its gap is a number; a
# correct argmax at a sub-margin gap is an anomaly, not a failure.
_SUB_MARGIN = "gap below strictness margin"


def _order_spec(n: int) -> tuple:
    """The order theorem's spec of order ``n``: its classes compete, and no pin."""
    classes = graphs_by_order(n, "minimally_two_connected")
    return f"n={n}", classes, canonical_form(complete_bipartite(2, n - 2)), None


def _order_verdict(n: int, case: dict, pin_rho: None) -> None:
    ok = case["argmax_graph6"] == case["expected_graph6"]
    case.update(ok=ok, note=_SUB_MARGIN if ok and case["gap"] <= GAP_MARGIN else "")


def _size_asserted(m: int) -> bool:
    """Whether the size theorem states the maximizer of size ``m``."""
    return m >= (6 if m % 2 == 0 else 9)


def _size_spec(m: int) -> tuple:
    """The size theorem's spec of size ``m``: K_{2,m/2} is the target for
    even m, SK_{2,(m-1)/2} for odd m >= 5, and an odd asserted size pins
    the target's alpha-index by the cubic's root."""
    classes = graphs_by_size(m)
    even = m % 2 == 0
    shape = complete_bipartite(2, m // 2) if even else subdivided_k2((m - 1) // 2) if m >= 5 else None
    target = None if shape is None else canonical_form(shape)
    return f"m={m}", classes, target, shape if _size_asserted(m) and not even else None


def _size_verdict(m: int, case: dict, pin_rho: float | None) -> None:
    asserted = _size_asserted(m)
    ok = not asserted or case["argmax_graph6"] == case["expected_graph6"]
    note = "" if asserted else "outside theorem hypotheses; reported without assertion"
    root_dev = None
    if pin_rho is not None:
        root_dev = abs(pin_rho - ct.largest_real_root(ct.sk_cubic(m, float(case["alpha"]))))
    if root_dev is not None and root_dev > 1e-9:
        ok, note = False, f"cubic root deviates from rho by {root_dev:.3e}"
    elif asserted and ok and case["gap"] <= GAP_MARGIN:
        note = _SUB_MARGIN
    case.update(root_deviation=root_dev, ok=ok, informational=not asserted, note=note)


def _theorem(
    target: str, name: str, params: dict, alphas: Sequence[str], spec_fn, verdict_fn, values: list[int],
) -> VerificationReport:
    """Record the cases of every value's spec ``(label, classes, form,
    pin) = spec_fn(value)``, one per alpha, in value order, each completed
    by ``verdict_fn(value, case, pin_rho)``.  A case names the argmax
    canonical form, the expected ``form`` (None if no form is expected to
    win), the gap to the runner-up and the number of solves that failed
    their certificate.  A failed case's violation ends with its note, if
    any; a held case's note is flagged.

    Every class that :func:`_screen` keeps in a case, of every value, is
    solved by one :func:`perron_pairs` call.  It solves each matrix of a
    stack on its own, so every solved rho, and with it the argmax,
    runner-up and gap, is the one a solve of the case's classes alone
    gives; ``fallbacks`` counts among the solved classes only.

    The argmax and the runner-up carry the verdict and the gap, so both are
    confirmed by power iteration, every case's in one call.  A spec's
    ``pin`` graph (or None), whose form is ``form``, is solved there too:
    its rho is the ``pin_rho`` of each of the value's cases (None without
    a pin) and confirms a class of that form.
    """
    alphas = list(alphas)
    for s in alphas:
        if not 0.5 <= float(s) < 1.0:
            raise ValueError(f"{name} alpha grid must sit in [1/2, 1), got {s}")
    grid = [float(s) for s in alphas]
    specs = [spec_fn(value) for value in values]
    solving = _screen([classes for _, classes, _, _ in specs], grid)
    pairs = iter(perron_pairs([
        (classes[i], alpha)
        for (_, classes, _, _), rows in zip(specs, solving) for alpha, row in zip(grid, rows) for i in row
    ]))
    confirm = _Confirmations()
    cases = []  # (value, case, position of its pin's solve)
    for value, (label, classes, form, pin), rows in zip(values, specs, solving):
        forms = [emit_graph6(g) for g in classes]
        for alpha_str, alpha, row in zip(alphas, grid, rows):
            solved = [next(pairs) for _ in row]
            pin_at = None if pin is None else confirm.solve(pin, alpha)
            scored = sorted(zip((pair.rho for pair in solved), (forms[i] for i in row), row), reverse=True)
            for rho, graph6, i in scored[:2]:
                confirm.check(classes[i], alpha, rho, pin_at if graph6 == form else None)
            cases.append((value, {
                "case": label,
                "alpha": alpha_str,
                "argmax_graph6": scored[0][1],
                "expected_graph6": form,
                "gap": scored[0][0] - scored[1][0] if len(scored) > 1 else None,
                "classes": len(classes),
                "fallbacks": sum(pair.fallback for pair in solved),
            }, pin_at))
    del pairs, solving  # the memory peak comes in the confirmations
    powers = confirm.run()
    report = VerificationReport(target, params, alphas)
    for value, case, pin_at in cases:
        verdict_fn(value, case, None if pin_at is None else powers[pin_at])
        where = f"{case['case']}, alpha={case['alpha']}"
        note = f", {case['note']}" if case["note"] else ""
        report.add(case, (
            f"{where}: argmax {case['argmax_graph6']} (expected {case['expected_graph6']}), "
            f"gap {case['gap']}{note}"
        ))
        if case["ok"] and case["note"]:
            report.flags.append(f"{where}: {case['note']}")
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
                _order_spec, _order_verdict, n_values)


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
                _size_spec, _size_verdict, m_values)


# -- lemma suite -------------------------------------------------------------

# target -> builder, in suite order; target -> the largest ``n_max`` it
# takes (the order cap of the generator or sampler behind its corpus).
_LEMMAS: dict = {}
_ORDER_CAPS: dict = {}


def _lemma(*targets: str, order_cap: int | None = None):
    def register(build_report):
        for target in targets:
            _LEMMAS[target] = build_report
            if order_cap is not None:
                _ORDER_CAPS[target] = order_cap
        return build_report
    return register


def _chosen(targets: Sequence[str] | None) -> list[str]:
    chosen = list(LEMMA_TARGETS if targets is None else targets)
    if not chosen:
        raise ValueError("no lemma targets given")
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
    n_max = given.get("n_max", LEMMA_N_MAX)
    for t in chosen:
        if n_max > _ORDER_CAPS.get(t, n_max):
            raise ValueError(f"{t} takes n_max up to {_ORDER_CAPS[t]}, got n_max {n_max}")
    return [
        _run(_LEMMAS[t], t, **{k: given[k] for k in _keywords(_LEMMAS[t]) if k in given})
        for t in chosen
    ]


# Lemma 1 bounds rho above by the degree average, lemma 2 below by the
# maximum degree; each maps (adjacency stack, alpha, rho of each graph) to
# the bounds' slacks.
_SLACK = {
    "lemma1": lambda adj, alpha, rho: upper_bounds_degree_average(adj, alpha) - rho,
    "lemma2": lambda adj, alpha, rho: rho - lower_bounds_max_degree(adj, alpha),
}


@_lemma(*_SLACK, order_cap=MAX_BUILTIN_ORDER)
def _sandwich(
    target: str, n_max: int = LEMMA_N_MAX, alphas: Sequence[str] = SANDWICH_ALPHAS,
) -> VerificationReport:
    alphas = list(alphas)
    report = VerificationReport(target, {"n": list(range(2, n_max + 1))}, alphas)
    slack_of = _SLACK[target]
    confirm = _Confirmations()
    for n in range(2, n_max + 1):
        classes = [g for g in graphs_by_order(n) if is_connected(g)]
        adj = adjacency_stack(classes)
        for alpha_str, pairs in zip(alphas, _pairs_by_alpha(classes, alphas)):
            alpha = float(alpha_str)
            slacks = slack_of(adj, alpha, np.array([p.rho for p in pairs])).tolist()
            # The verdict rests on the tightest slack, so its rho is confirmed.
            tight = min(range(len(classes)), key=slacks.__getitem__)
            confirm.check(classes[tight], alpha, pairs[tight].rho)
            bad = [
                f"n={n}, alpha={alpha_str}, {emit_graph6(g)}: slack {slack:.3e}"
                for g, slack in zip(classes, slacks) if slack < -GAP_MARGIN
            ]
            report.add({
                "case": f"n={n}", "alpha": alpha_str, "classes": len(classes),
                "fallbacks": sum(p.fallback for p in pairs), "min_slack": slacks[tight],
                "ok": not bad,
            }, *bad)
    confirm.run()
    return report


# Lemma 3: minimum degree 2; lemma 4: no triangle.  Each maps a graph to
# (holds, note).
_STRUCTURAL = {
    "lemma3": lambda g: (min(g.degrees()) == 2, f"min degree {min(g.degrees())}"),
    "lemma4": lambda g: (free := triangle_free(g), "triangle-free" if free else "triangle found"),
}


@_lemma(*_STRUCTURAL, order_cap=MAX_MIN2C_ORDER)
def _structural(target: str, n_max: int = LEMMA_N_MAX) -> VerificationReport:
    report = VerificationReport(target, {"n": list(range(4, n_max + 1))}, [])
    for n in range(4, n_max + 1):
        for g in graphs_by_order(n, "minimally_two_connected"):
            ok, note = _STRUCTURAL[target](g)
            g6 = emit_graph6(g)
            report.add({"case": f"n={n}", "graph6": g6, "ok": ok, "note": note}, f"n={n}, {g6}: {note}")
    return report


@_lemma("lemma5", order_cap=MAX_MIN2C_ORDER)
def _lemma5(target: str, n_max: int = LEMMA_N_MAX) -> VerificationReport:
    report = VerificationReport(target, {"n": list(range(4, n_max + 1))}, [])
    for n in range(4, n_max + 1):
        extremal_expected = canonical_form(complete_bipartite(2, n - 2))
        classes = graphs_by_order(n, "minimally_two_connected")
        bad = [f"n={n}, {emit_graph6(g)}: m={g.m} > 2n-4" for g in classes if g.m > 2 * n - 4]
        at_bound = [emit_graph6(g) for g in classes if g.m == 2 * n - 4]
        if at_bound != [extremal_expected]:
            bad.append(f"n={n}: classes at m=2n-4 are {at_bound}, expected [{extremal_expected}]")
        report.add(
            {"case": f"n={n}", "at_bound": at_bound, "expected": extremal_expected, "ok": not bad},
            *bad,
        )
    return report


@_lemma("lemma6", order_cap=MAX_BUILTIN_ORDER)
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


def sample_connected_graph(rng: random.Random, n_lo: int = 4, n_hi: int = 8) -> Graph:
    """Seeded Erdos-Renyi draw, redrawn until connected."""
    while True:
        n = rng.randint(n_lo, n_hi)
        p = rng.uniform(*EDGE_P_RANGE)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            return g


def sample_rotation(rng: random.Random, g: Graph) -> Rotation | None:
    for _ in range(ROTATION_TRIES):
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


@_lemma("lemma7", order_cap=MAX_BUILTIN_ORDER)
def _lemma7(
    target: str, n_max: int = LEMMA_N_MAX, alphas: Sequence[str] = DEFAULT_ALPHAS,
    rotation_cases: int = ROTATION_CASES, seed: int = ROTATION_SEED,
) -> VerificationReport:
    """The rotation corpus, then the G(a, b) chain of :func:`_gab_chain`.

    Candidates are drawn in blocks of ``ROTATION_BLOCK_FACTOR`` times the
    cases still needed and checked by one batched call per block.  They are
    consumed in draw order until ``rotation_cases`` meet the precondition,
    and the draws left over are discarded, so the corpus depends on the
    seed alone.  Both parts read the batched solve; power iteration runs
    only for fallbacks and for the two graphs of each chain's tightest step.
    """
    if rotation_cases < 1:
        raise ValueError(f"{target} needs at least one rotation case, got {rotation_cases}")
    alphas = list(alphas)
    report = VerificationReport(
        target, {"random_cases": rotation_cases, "seed": seed, "chain_m": list(CHAIN_SIZES)}, alphas,
    )
    rng = random.Random(seed)
    collected = 0
    satisfied = 0
    fallbacks = 0
    bad = []
    while satisfied < rotation_cases:
        block = ROTATION_BLOCK_FACTOR * (rotation_cases - satisfied)
        cases = sample_rotation_cases(rng, n_max, block)
        for (g, rot, alpha), chk in zip(cases, rotation_monotonicity_checks(cases)):
            if satisfied == rotation_cases:
                break
            collected += 1
            fallbacks += chk.fallbacks
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
    report.add({
        "case": "random-corpus", "alpha": "0.5|0.75", "attempted": collected,
        "precondition_satisfied": satisfied, "fallbacks": fallbacks, "ok": not bad,
    }, *bad)
    _gab_chain(report, alphas)
    return report


def _gab_chain(report: VerificationReport, alphas: list[str]) -> None:
    """The G(a, b) chain: for k = (m-1)/2, rho(G(a, k-a)) falls strictly as
    a grows to k/2, and G(1, k-1) is SK_{2,k}.

    Each m's chain is solved at every alpha in one batched call.  Each m's
    verdict rests on its tightest step, so the two graphs of that step are
    confirmed by power iteration, every m's in one call.
    """
    confirm = _Confirmations()
    for m in CHAIN_SIZES:
        k = (m - 1) // 2
        chain = [gab(a, k - a) for a in range(1, k // 2 + 1)] + [subdivided_k2(k)]
        solved = _pairs_by_alpha(chain, alphas)
        tightest = None  # (step margin, alpha position, position of the step's first graph)
        for j, (alpha_str, pairs) in enumerate(zip(alphas, solved)):
            *rhos, sk_rho = (p.rho for p in pairs)
            bad = []
            if abs(rhos[0] - sk_rho) > 1e-9:
                bad.append(f"m={m}, alpha={alpha_str}: G(1,{k-1}) rho {rhos[0]} != SK rho {sk_rho}")
            for a in range(2, k // 2 + 1):
                diff = rhos[a - 2] - rhos[a - 1]
                if tightest is None or diff < tightest[0]:
                    tightest = (diff, j, a - 2)
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
                "case": f"chain m={m}", "alpha": alpha_str, "rho_values": rhos,
                "fallbacks": sum(p.fallback for p in pairs), "ok": not bad,
            }, *bad)
        _, j, i = tightest
        for g, pair in zip(chain[i:i + 2], solved[j][i:i + 2]):
            confirm.check(g, float(alphas[j]), pair.rho)
    confirm.run()


@_lemma("lemma8")
def _lemma8(target: str, alphas: Sequence[str] = DEFAULT_ALPHAS) -> VerificationReport:
    """Perron coordinates agree on each block of 32 family graphs.

    The families are solved at every alpha in one batched call.  The batched
    vector is accurate only to about residual / spectral gap, so a case
    whose blocks spread past ``SYMMETRY_TOL`` on it is re-checked by power
    iteration, which gives the verdict; one flag counts the re-checks.
    """
    alphas = list(alphas)
    fams = [f"K{a},{b}" for a in range(1, 5) for b in range(1, a + 1)]
    fams += [f"SK2,{k}" for k in range(2, 7)]
    fams += [f"G{a},{b}" for a in range(1, 4) for b in range(a, 5)]
    fams += [f"C{n}" for n in range(3, 11)]
    report = VerificationReport(target, {"families": fams}, alphas)
    built = [build(fam) for fam in fams]
    solved = _pairs_by_alpha([g for g, _ in built], alphas)
    rechecks = 0
    for i, (fam, (g, blocks)) in enumerate(zip(fams, built)):
        for alpha_str, pairs in zip(alphas, solved):
            ok = block_spread(pairs[i].x, blocks) <= SYMMETRY_TOL
            if not ok:
                rechecks += 1
                ok = perron_symmetry_check(g, blocks, float(alpha_str))
            report.add(
                {"case": fam, "alpha": alpha_str, "fallbacks": int(pairs[i].fallback), "ok": ok},
                f"{fam}, alpha={alpha_str}: orbit coordinates differ",
            )
    if rechecks:
        report.flags.append(
            f"{rechecks} of {report.cases} cases spread past {SYMMETRY_TOL:g} on the batched "
            "Perron vectors and were re-checked by power iteration"
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
    graphs = [complete_bipartite(a, b) for a, b in shapes]
    for alpha_str, pairs in zip(alphas, _pairs_by_alpha(graphs, alphas)):
        alpha = float(alpha_str)
        worst = max(
            abs(closed_form_complete_bipartite(a, b, alpha) - p.rho)
            for (a, b), p in zip(shapes, pairs)
        )
        report.add({
            "case": "K_{a,b} 1<=b<=a<=12", "alpha": alpha_str, "max_deviation": worst,
            "fallbacks": sum(p.fallback for p in pairs), "ok": worst <= 1e-10,
        }, f"alpha={alpha_str}: max deviation {worst:.3e}")
    return report


@_lemma("lemma10")
def _lemma10(target: str, alphas: Sequence[str] = DEFAULT_ALPHAS) -> VerificationReport:
    alphas = list(alphas)
    ms = ct.odd_range(9, 25)
    report = VerificationReport(target, {"m": ms}, alphas)
    graphs = [subdivided_k2((m - 1) // 2) for m in ms]
    solved = _pairs_by_alpha(graphs, alphas)
    for i, m in enumerate(ms):
        for alpha_str, pairs in zip(alphas, solved):
            root = ct.largest_real_root(ct.sk_cubic(m, float(alpha_str)))
            rho, _, fallback = pairs[i]
            dev = abs(rho - root)
            report.add({
                "case": f"m={m}", "alpha": alpha_str, "deviation": dev,
                "fallbacks": int(fallback), "ok": dev <= 1e-9,
            }, f"m={m}, alpha={alpha_str}: |rho - root| = {dev:.3e}")
    return report


# The odd m of the f/g grid, shared by lemma11, fact2 and fact3.
_GRID_MS = ct.odd_range(*ct.GRID_M)


def _grid_report(target: str) -> VerificationReport:
    """An empty report over the f/g grid."""
    return VerificationReport(target, {"m": list(ct.GRID_M), "step": 2}, ct.alpha_grid(*ct.GRID_ALPHA))


@_lemma("lemma11")
def _lemma11(target: str) -> VerificationReport:
    report = _grid_report(target)
    for poly in ("f", "g"):
        min_abs, violations = ct.sign_grid(poly, _GRID_MS, report.alpha_grid)
        report.add({
            "case": f"sign {poly}", "alpha": "grid",
            "min_abs_value": min_abs,
            "violations": len(violations), "ok": not violations,
        }, *(f"{poly}(alpha={alpha_str}, m={m}) = {value}" for m, alpha_str, value in violations))
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
        monotone = all(ct.eval_f(alpha, m + 2) > ct.eval_f(alpha, m) for m in _GRID_MS[:-1])
        report.add(
            {"case": "f increasing in m", "alpha": alpha_str, "ok": monotone},
            f"f not increasing in m at alpha={alpha_str}",
        )
    return report


def _column_sums(report: VerificationReport, variant: str, label: str, eligible: list[Graph]) -> None:
    """One case per alpha: every column sum of every eligible graph is <= 0.
    One stack per run of one order keeps the violations in class order."""
    stacks = [adjacency_stack(list(run)) for _, run in groupby(eligible, attrgetter("n"))]
    for alpha_str in report.alpha_grid:
        alpha = float(alpha_str)
        tops = [max(row) for adj in stacks for row in column_sums(adj, alpha, variant).tolist()]
        bad = [
            f"{label}, alpha={alpha_str}, {emit_graph6(g)}: c_u = {top:.3e} > 0"
            for g, top in zip(eligible, tops) if top > 1e-12
        ]
        report.add({
            "case": label, "alpha": alpha_str, "graphs": len(eligible),
            "max_column_sum": max(tops, default=None), "ok": not bad,
        }, *bad)


@_lemma("claim-order", order_cap=MAX_MIN2C_ORDER)
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
        # One stack per run of classes of one order, so the violations keep
        # the class order.
        for _, run in groupby(classes, attrgetter("n")):
            run = list(run)
            _, sums = degree_sums(adjacency_stack(run))
            bad += [
                f"m={m}, {emit_graph6(run[k])}, w={w}: "
                f"neighbour degree sum {int(sums[k, w])} > m-1"
                for k, w in np.argwhere(sums > m - 1).tolist()
            ]
        report.add({"case": f"m={m}", "classes": len(classes), "ok": not bad}, *bad)
    return report


def _identity_case(report: VerificationReport, case: str, check, lhs_name: str) -> bool:
    """Run one identity check over the f/g grid."""
    points = len(_GRID_MS) * len(report.alpha_grid)
    worst, failures = ct.identity_grid(check, _GRID_MS, report.alpha_grid)
    report.add({
        "case": case, "alpha": "grid", "max_rel_error": worst,
        "grid_points": points, "failing_points": len(failures),
        "ok": not failures,
    }, (
        f"{lhs_name}: {len(failures)} of {points} grid points exceed "
        f"{ct.IDENTITY_RTOL:g} (max relative error {worst:.3e}); "
        "examples: " + "; ".join(
            f"alpha={alpha_str}, m={m}: {lhs_name} relative error {err:.3e}"
            for m, alpha_str, err in failures[:5]
        )
    ))
    return not failures


@_lemma("fact2")
def _fact2(target: str) -> VerificationReport:
    report = _grid_report(target)
    _identity_case(report, "identity grid", ct.identity_check_f, "-8(m-3)^3 p(x0) vs f")
    return report


@_lemma("fact3")
def _fact3(target: str) -> VerificationReport:
    report = _grid_report(target)
    # The printed identity 4 p(x1) = g is false; it stays asserted, so
    # fact3 fails, next to the identity that exact expansion gives.
    _identity_case(report, "identity grid", ct.identity_check_g, "4 p(x1) vs g")
    derived_ok = _identity_case(
        report, "derived identity grid", ct.identity_check_g_derived,
        "4 p(x1) vs -(1-a)^2 h/2",
    )
    # The inequality the size-theorem proof actually rests on: p(x1) < 0.
    worst = max(value for _, _, value in ct.grid_points(ct.g_identity_lhs, _GRID_MS, report.alpha_grid))
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
