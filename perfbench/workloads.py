"""The four workloads: CLI arguments, inputs and the correctness gate.

Each workload is one `alphaindex` CLI invocation.  Its output is checked
item by item, where an item is a verify case or a `convert` output line,
and the check yields (items checked, items failed).  Verify outputs are
compared on semantic fields against `expected.json`, captured from the
outputs of the commit that introduced this benchmark; fields a report may
gain later are ignored.  The `convert` output is compared with a reference
computed through the package's other recognizer,
`is_minimally_two_connected_by_deletion`.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ingest_stream import make_stream

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
STREAM_NAME = "stream.g6"
OUTPUT_NAME = "out.txt"


@dataclass(frozen=True)
class Workload:
    """One CLI invocation; BENCHMARK.json gives the reason for each."""

    name: str
    # (seed, path of the generated stream) -> CLI arguments, output excluded
    argv: Callable[[int, Path], list[str]]
    uses_stream: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "order-campaign",
            lambda seed, stream: [
                "verify", "theorem1.3", "--n", "5..7", "--format", "json", "--jobs", "1",
            ],
        ),
        Workload(
            "size-campaign",
            lambda seed, stream: ["verify", "theorem1.4", "--format", "json", "--jobs", "1"],
        ),
        Workload(
            "spectral-lemmas",
            lambda seed, stream: [
                "verify", "lemmas", "--targets", "lemma1,lemma2,lemma7,lemma8,lemma9,lemma10",
                "--n-max", "6", "--rotation-cases", "250", "--seed", str(seed), "--format", "csv",
            ],
        ),
        Workload(
            "graph6-ingest",
            lambda seed, stream: [
                "convert", "--in", str(stream), "--filter", "min2c", "--canonical",
            ],
            uses_stream=True,
        ),
    )
}

# The expected.json section that holds each verify workload's items.
EXPECTED_KEY = {
    "order-campaign": "theorem1.3",
    "size-campaign": "theorem1.4",
    "spectral-lemmas": "lemmas",
}


# -- semantic items of a verify output ---------------------------------------


def theorem_items(text: str) -> dict[str, dict]:
    """case|alpha -> the fields a theorem verdict rests on."""
    report = json.loads(text)
    return {
        f"{case['case']}|{case['alpha']}": {
            "argmax_graph6": case["argmax_graph6"],
            "ok": case["ok"],
            "classes": case["classes"],
        }
        for case in report["case_results"]
    }


def lemma_items(text: str) -> dict[str, dict]:
    """target|case|alpha -> the case verdict, from the CSV report."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return {f"{r['target']}|{r['case']}|{r['alpha']}": {"ok": r["ok"]} for r in rows}


ITEMS = {
    "order-campaign": theorem_items,
    "size-campaign": theorem_items,
    "spectral-lemmas": lemma_items,
}


def compare_items(expected: dict, got: dict) -> tuple[int, int]:
    """(items checked, items failed): every expected item must be present and
    equal, and every item the output adds beyond them counts as failed."""
    keys = expected.keys() | got.keys()
    failed = sum(1 for k in keys if expected.get(k) != got.get(k))
    return len(keys), failed


def compare_lines(expected: list[str], got: list[str]) -> tuple[int, int]:
    """(lines checked, lines failed) for a line-per-graph output.  Missing
    and surplus lines fail; with the same lines, each misplaced one fails."""
    missing = Counter(expected) - Counter(got)
    extra = Counter(got) - Counter(expected)
    failed = sum(missing.values()) + sum(extra.values())
    if not failed:
        failed = sum(1 for a, b in zip(expected, got) if a != b)
    return len(expected) + sum(extra.values()), failed


# -- inputs and expectations --------------------------------------------------


def write_stream(seed: int, path: Path) -> list[str]:
    lines = make_stream(seed)
    path.write_text("".join(line + "\n" for line in lines))
    return lines


def ingest_reference(lines: list[str], src: Path) -> list[str]:
    """Canonical forms of the minimally 2-connected graphs of ``lines``, first
    occurrence of each class only, through the deletion-based recognizer."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from alphaindex import canonical_form, is_minimally_two_connected_by_deletion, parse_graph6

    seen: set[str] = set()
    out = []
    for line in lines:
        g = parse_graph6(line)
        if not is_minimally_two_connected_by_deletion(g):
            continue
        key = canonical_form(g)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


class Gate:
    """Checks every output of one workload for one seed."""

    def __init__(self, workload: Workload, reference: list[str] | None):
        self.workload = workload
        self.reference = reference
        if workload.name in EXPECTED_KEY:
            expected = json.loads(EXPECTED_PATH.read_text())
            self.expected = expected[EXPECTED_KEY[workload.name]]

    def expected_count(self) -> int:
        if self.reference is not None:
            return len(self.reference)
        return len(self.expected)

    def check(self, exit_code: int, output: str | None) -> tuple[int, int]:
        """(items checked, items failed).  A wrong exit code or an output
        that cannot be read fails every expected item."""
        if exit_code != 0 or output is None:
            count = self.expected_count()
            return count, count
        if self.reference is not None:
            return compare_lines(self.reference, output.split())
        try:
            got = ITEMS[self.workload.name](output)
        except (ValueError, KeyError, TypeError):
            count = self.expected_count()
            return count, count
        return compare_items(self.expected, got)
