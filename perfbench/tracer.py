"""Spans around the public functions of each alphaindex layer, installed
from outside the package.

`Tracer.install` wraps each function in `TARGETS` and rebinds the wrapper
in every place the package holds a reference to the original: module
attributes (including from-imports in `harness`, `transforms` and `cli`)
and module-level dicts such as `enumeration._FILTERS`.  No file of the
package changes.

Each call records one span (name, parent span, start, end) in flat arrays
kept in memory.  Self time is derived from the spans after the run: a
span's duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (module, function) under `alphaindex.`; the span name is "module.function".
TARGETS = (
    ("cli", "main"),
    ("harness", "verify_theorem_order"),
    ("harness", "verify_theorem_size"),
    ("harness", "verify_lemma_suite"),
    ("enumeration", "canonical_form"),
    ("enumeration", "graphs_by_order"),
    ("enumeration", "graphs_by_size"),
    ("enumeration", "ingest_graph6"),
    ("connectivity", "is_minimally_two_connected_by_chords"),
    ("connectivity", "is_two_connected"),
    ("spectral", "alpha_index"),
    ("spectral", "lambda_max"),
    ("transforms", "rotation_monotonicity_check"),
    ("certificates", "largest_real_root"),
    ("families", "build"),
    ("graphs", "parse_graph6"),
    ("graphs", "emit_graph6"),
)

# Generators get one span per next(), so their self time is the time spent
# producing items rather than the lifetime of the iterator.
GENERATORS = {"enumeration.ingest_graph6"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.distinct_forms: set[str] = set()
        self.accepted = 0
        self.iterations = array("i")

    # -- installation -------------------------------------------------------

    def install(self) -> int:
        """Wrap every target and rebind it everywhere; return the number of
        references replaced.  Raises if any reference to an original is left."""
        observers = {
            "enumeration.canonical_form": self.distinct_forms.add,
            "connectivity.is_minimally_two_connected_by_chords": self._count_accept,
            "spectral.alpha_index": self._record_iterations,
        }
        wrappers: dict[int, object] = {}
        for module, function in TARGETS:
            name = f"{module}.{function}"
            original = getattr(importlib.import_module(f"alphaindex.{module}"), function)
            if name in GENERATORS:
                wrappers[id(original)] = self._wrap_generator(name, original)
            else:
                wrappers[id(original)] = self._wrap(name, original, observers.get(name))
        replaced = _rebind(wrappers)
        left = _rebind(wrappers, dry_run=True)
        if left:
            raise RuntimeError(f"{left} references to traced functions were not rebound")
        return replaced

    def _count_accept(self, result: bool) -> None:
        self.accepted += bool(result)

    def _record_iterations(self, result) -> None:
        self.iterations.append(result.iterations)

    def _open(self, name_index: int) -> int:
        span = len(self.span_start)
        self.span_name.append(name_index)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, observe):
        index = len(self.names)
        self.names.append(name)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = open_span(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(span)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = open_span(index)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close_span(span)
                yield item

        return traced

    # -- results ------------------------------------------------------------

    def function_stats(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        count = len(self.span_start)
        durations = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child_time = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            entry = stats[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["total_s"] += durations[i]
            entry["self_s"] += durations[i] - child_time[i]
        return stats

    def observations(self) -> dict[str, float]:
        iterations = self.iterations
        return {
            "distinct_forms": len(self.distinct_forms),
            "accepted": self.accepted,
            "iterations_count": len(iterations),
            "iterations_sum": sum(iterations),
            "iterations_max": max(iterations, default=0),
        }


def _rebind(wrappers: dict[int, object], dry_run: bool = False) -> int:
    """Replace references to wrapped originals in every alphaindex module's
    namespace and in the dicts held at module level."""
    replaced = 0
    for name, module in list(sys.modules.items()):
        if name != "alphaindex" and not name.startswith("alphaindex."):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if id(value) in wrappers:
                replaced += 1
                if not dry_run:
                    namespace[attr] = wrappers[id(value)]
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        replaced += 1
                        if not dry_run:
                            value[key] = wrappers[id(item)]
    return replaced


def layer_metrics(stats: dict[str, dict], observed: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced invocation."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in (
        "enumeration.canonical_form", "enumeration.graphs_by_order",
        "enumeration.graphs_by_size", "connectivity.is_minimally_two_connected_by_chords",
        "connectivity.is_two_connected", "spectral.alpha_index", "spectral.lambda_max",
        "transforms.rotation_monotonicity_check", "certificates.largest_real_root",
        "families.build", "graphs.parse_graph6", "graphs.emit_graph6",
    ):
        out[f"{name}.calls"] = stats[name]["calls"]
        out[f"{name}.self_s"] = stats[name]["self_s"]
    out["enumeration.ingest_graph6.self_s"] = stats["enumeration.ingest_graph6"]["self_s"]
    forms = stats["enumeration.canonical_form"]["calls"]
    out["enumeration.canonical_form.distinct_ratio"] = ratio(observed["distinct_forms"], forms)
    chords = stats["connectivity.is_minimally_two_connected_by_chords"]["calls"]
    out["connectivity.is_minimally_two_connected_by_chords.accept_ratio"] = ratio(
        observed["accepted"], chords
    )
    alpha = stats["spectral.alpha_index"]
    out["spectral.alpha_index.ms_per_call"] = 1000.0 * ratio(alpha["total_s"], alpha["calls"])
    out["spectral.alpha_index.iterations_mean"] = ratio(
        observed["iterations_sum"], observed["iterations_count"]
    )
    out["spectral.alpha_index.iterations_max"] = observed["iterations_max"]
    out["harness.self_s"] = sum(
        entry["self_s"] for name, entry in stats.items() if name.startswith("harness.")
    )
    out["cli.self_s"] = stats["cli.main"]["self_s"]
    return out
