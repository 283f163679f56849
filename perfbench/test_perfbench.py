"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import time
import unittest

import run
from ingest_stream import make_stream
from tracer import TARGETS, layer_metrics
from workloads import EXPECTED_PATH, WORKLOADS, Gate, compare_lines, ingest_reference

EXPECTED = json.loads(EXPECTED_PATH.read_text())


def theorem_report(items: dict) -> str:
    """A theorem1.3-shaped JSON report holding exactly ``items``."""
    cases = []
    for key, fields in items.items():
        case, alpha = key.split("|")
        cases.append({"case": case, "alpha": alpha, "gap": 0.1, "note": "", **fields})
    return json.dumps({"target": "theorem1.3", "passed": True, "case_results": cases})


def lemma_csv(items: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["target", "case", "alpha", "argmax_graph6", "gap", "ok", "note"])
    for key, fields in items.items():
        target, case, alpha = key.split("|", 2)
        writer.writerow([target, case, alpha, "", "", fields["ok"], ""])
    return buf.getvalue()


class StreamTests(unittest.TestCase):
    def test_same_seed_same_stream(self):
        self.assertEqual(make_stream(7, 500), make_stream(7, 500))

    def test_other_seed_other_stream(self):
        self.assertNotEqual(make_stream(7, 500), make_stream(8, 500))

    def test_lines_are_graph6_of_order_9_to_13(self):
        sys.path.insert(0, str(run.SRC))
        from alphaindex import emit_graph6, parse_graph6

        for line in make_stream(3, 500):
            g = parse_graph6(line)
            self.assertTrue(9 <= g.n <= 13)
            self.assertEqual(emit_graph6(g), line)

    def test_stream_feeds_the_filter_both_ways(self):
        lines = make_stream(5, 1000)
        kept = ingest_reference(lines, run.SRC)
        self.assertTrue(0 < len(kept) < len(lines))


class GateTests(unittest.TestCase):
    def test_theorem_gate_passes_expected_and_ignores_new_fields(self):
        gate = Gate(WORKLOADS["order-campaign"], None)
        report = json.loads(theorem_report(EXPECTED["theorem1.3"]))
        report["stats"] = {"canonical_forms": 1}
        self.assertEqual(gate.check(0, json.dumps(report)), (33, 0))

    def test_theorem_gate_flags_tampered_cases(self):
        gate = Gate(WORKLOADS["order-campaign"], None)
        items = json.loads(json.dumps(EXPECTED["theorem1.3"]))
        first, second, third = sorted(items)[:3]
        items[first]["argmax_graph6"] = "D~{"
        items[second]["classes"] -= 1
        del items[third]
        checked, failed = gate.check(0, theorem_report(items))
        self.assertEqual((checked, failed), (33, 3))

    def test_wrong_exit_code_fails_every_item(self):
        gate = Gate(WORKLOADS["size-campaign"], None)
        self.assertEqual(gate.check(1, theorem_report(EXPECTED["theorem1.4"])), (77, 77))

    def test_unreadable_output_fails_every_item(self):
        gate = Gate(WORKLOADS["size-campaign"], None)
        self.assertEqual(gate.check(0, "not json"), (77, 77))

    def test_lemma_gate_flags_a_failed_case(self):
        gate = Gate(WORKLOADS["spectral-lemmas"], None)
        items = json.loads(json.dumps(EXPECTED["lemmas"]))
        self.assertEqual(gate.check(0, lemma_csv(items))[1], 0)
        items[sorted(items)[0]]["ok"] = "False"
        self.assertEqual(gate.check(0, lemma_csv(items))[1], 1)

    def test_ingest_gate_flags_dropped_added_and_moved_lines(self):
        expected = ["A", "B", "C", "D"]
        self.assertEqual(compare_lines(expected, expected), (4, 0))
        self.assertEqual(compare_lines(expected, ["A", "B", "D"]), (4, 1))
        self.assertEqual(compare_lines(expected, expected + ["E"]), (5, 1))
        self.assertEqual(compare_lines(expected, ["B", "A", "C", "D"]), (4, 2))
        gate = Gate(WORKLOADS["graph6-ingest"], expected)
        self.assertEqual(gate.check(0, "A\nB\nD\n"), (4, 1))


class TracedRunTests(unittest.TestCase):
    """Tracing must not change the output, and its counts must agree with
    what the untraced output says was done and repeat exactly."""

    def setUp(self):
        context = run.work_dir("selftest-")
        self.work = context.__enter__()
        self.addCleanup(context.__exit__, None, None, None)
        self.deadline = time.monotonic() + run.DEADLINE_S

    def invoke(self, mode, argv):
        return run.invoke(mode, argv, self.work, self.deadline)

    def test_theorem_counts(self):
        argv = ["verify", "theorem1.3", "--n", "5..6", "--alpha", "0.5,0.75",
                "--format", "json", "--jobs", "1"]
        plain = self.invoke("run", argv)
        traced = self.invoke("trace", argv)
        again = self.invoke("trace", argv)
        self.assertEqual(plain.output, traced.output)
        cases = json.loads(plain.output)["case_results"]
        functions = traced.record["functions"]
        self.assertEqual(functions["spectral.alpha_index"]["calls"],
                         sum(case["classes"] for case in cases))
        self.assertEqual(functions["enumeration.graphs_by_order"]["calls"], 2)
        self.assertEqual(functions["families.build"]["calls"], 2)
        self.assertEqual(traced.record["observed"]["iterations_count"],
                         functions["spectral.alpha_index"]["calls"])
        counts = {name: entry["calls"] for name, entry in functions.items()}
        self.assertEqual(counts, {n: e["calls"] for n, e in again.record["functions"].items()})

    def test_convert_counts(self):
        lines = make_stream(11, 300)
        stream = self.work / "stream.g6"
        stream.write_text("".join(line + "\n" for line in lines))
        argv = ["convert", "--in", str(stream), "--filter", "min2c", "--canonical"]
        plain = self.invoke("run", argv)
        traced = self.invoke("trace", argv)
        self.assertEqual(plain.output, traced.output)
        out_lines = plain.output.split()
        self.assertEqual(out_lines, ingest_reference(lines, run.SRC))
        functions = traced.record["functions"]
        self.assertEqual(functions["graphs.parse_graph6"]["calls"], len(lines))
        chords = "connectivity.is_minimally_two_connected_by_chords"
        self.assertEqual(functions[chords]["calls"], len(lines))
        # one span per next(): each yielded graph plus the final StopIteration
        self.assertEqual(functions["enumeration.ingest_graph6"]["calls"], len(out_lines) + 1)
        # ingest de-duplicates each accepted graph, the CLI prints each kept one
        self.assertEqual(functions["enumeration.canonical_form"]["calls"],
                         traced.record["observed"]["accepted"] + len(out_lines))


class ContractTests(unittest.TestCase):
    def test_fails_without_the_program(self):
        """In a copy holding only BENCHMARK.json and perfbench/, run.py exits
        non-zero and prints no result."""
        with run.work_dir("bare-") as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "size-campaign",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)

    def test_benchmark_json_names_every_metric(self):
        bench = run.load_benchmark()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        stats = {f"{m}.{f}": {"calls": 0, "total_s": 0.0, "self_s": 0.0} for m, f in TARGETS}
        observed = {"distinct_forms": 0, "accepted": 0, "iterations_count": 0,
                    "iterations_sum": 0, "iterations_max": 0}
        names = set(layer_metrics(stats, observed)) | {"trace.overhead_s"}
        self.assertEqual(names, {m["name"] for m in bench["per_layer"]})


if __name__ == "__main__":
    unittest.main()
