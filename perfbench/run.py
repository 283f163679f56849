"""alphaindex benchmark: cold CLI invocations, verdict-checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every invocation runs `alphaindex.cli.main(argv)` in a fresh interpreter
(perfbench/child.py) inside a fresh temporary directory under
`.bench_work/`, one at a time and on one CPU, so the enumeration caches
start cold as they do for a user.  With `--trace 0` invocations repeat
while the next one is expected to end within `--seconds` (at least one
runs), each bracketed by a reference job, and give the end-to-end metrics.
With `--trace 1` one untraced and one traced invocation give the
per-layer metrics and the tracing overhead.  The last line of standard
output is the result as one JSON object; the lines before it give
provenance and the individual samples.  perfbench/README.md defines
every metric.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics
from workloads import OUTPUT_NAME, STREAM_NAME, WORKLOADS, Gate, ingest_reference, write_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_SAMPLES = 7  # import-only children per run, besides one per invocation
DEADLINE_S = 170.0  # a run stops its children and fails past this


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


@dataclass
class Invocation:
    setup_s: float | None
    wall_s: float | None
    exit_code: int | None
    peak_rss_kb: int
    output: str | None
    record: dict


def invoke(mode: str, cli_argv: list[str], work: Path, deadline: float) -> Invocation:
    """Run child.py once in a fresh directory under ``work`` and read back
    its record and the CLI output."""
    cwd = Path(tempfile.mkdtemp(dir=work))
    try:
        result_path = cwd / "child.json"
        argv = [sys.executable, str(HERE / "child.py"), mode, str(SRC), str(result_path)]
        if mode in ("run", "trace"):
            argv += [*cli_argv, "--out", OUTPUT_NAME]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} invocation passed the {DEADLINE_S:.0f} s deadline") from exc
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{mode} invocation failed:\n{proc.stderr[-2000:]}")
        record = json.loads(result_path.read_text())
        output_path = cwd / OUTPUT_NAME
        return Invocation(
            setup_s=record["imported_at"] - spawned if "imported_at" in record else None,
            wall_s=record.get("wall_s"),
            exit_code=record.get("exit_code"),
            peak_rss_kb=record["peak_rss_kb"],
            output=output_path.read_text() if output_path.exists() else None,
            record=record,
        )
    finally:
        shutil.rmtree(cwd, ignore_errors=True)


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under .bench_work/, removed with everything in it."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "platform": platform.platform(),
    }


def measure(args, work: Path, deadline: float) -> dict:
    workload = WORKLOADS[args.workload]
    stream = work / STREAM_NAME
    expected_lines = None
    if workload.uses_stream:
        expected_lines = ingest_reference(write_stream(args.seed, stream), SRC)
    gate = Gate(workload, expected_lines)
    cli_argv = workload.argv(args.seed, stream)

    attempted = failed = 0

    def run_once(mode: str) -> Invocation:
        nonlocal attempted, failed
        inv = invoke(mode, cli_argv, work, deadline)
        checked, bad = gate.check(inv.exit_code, inv.output)
        attempted += checked
        failed += bad
        print(json.dumps({
            "sample": mode, "wall_s": inv.wall_s, "setup_s": inv.setup_s,
            "peak_rss_kb": inv.peak_rss_kb, "exit_code": inv.exit_code,
            "items": checked, "failed": bad,
        }), flush=True)
        return inv

    if args.trace:
        plain = run_once("run")
        traced = run_once("trace")
        metrics = layer_metrics(traced.record["functions"], traced.record["observed"])
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        print(json.dumps({
            "functions": traced.record["functions"],
            "observed": traced.record["observed"],
            "rebound": traced.record["rebound"],
        }), flush=True)
        units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    else:
        setups = [invoke("import", [], work, deadline).setup_s for _ in range(SETUP_SAMPLES)]
        # Invocations repeat while the next one is expected to end within
        # --seconds; the first always runs, however long it takes.  The
        # reference job runs before the first and after every invocation.
        start = time.monotonic()
        reference = [invoke("reference", [], work, deadline).record["reference_s"]]
        runs: list[Invocation] = []
        while not runs or (elapsed := time.monotonic() - start) + elapsed / len(runs) <= args.seconds:
            runs.append(run_once("run"))
            reference.append(invoke("reference", [], work, deadline).record["reference_s"])
            print(json.dumps({"reference_s": reference[-2:]}), flush=True)
        setups += [inv.setup_s for inv in runs]
        # Total wall time over the total of the reference times bracketing
        # each invocation.  The host's slow spells come and go between
        # invocations, so a median of per-invocation ratios swings with the
        # share of slow invocations; the ratio of totals weighs each by its
        # length.
        bracket = sum((before + after) / 2 for before, after in zip(reference, reference[1:]))
        print(json.dumps({"wall_s": statistics.median(inv.wall_s for inv in runs)}), flush=True)
        metrics = {
            "wall_ref": sum(inv.wall_s for inv in runs) / bracket,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(inv.peak_rss_kb / 1024.0 for inv in runs),
            "pass_rate": 1.0 - failed / attempted if attempted else 0.0,
        }
        units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alphaindex" / "cli.py").is_file():
        print(f"error: no alphaindex sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # One CPU for this process and every child, so that the reference job
    # and the invocations it brackets run at the speed of the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps({"provenance": provenance(), "workload": args.workload, "seed": args.seed}))
    # Children then load the package from bytecode, as an installed copy does.
    compileall.compile_dir(str(SRC / "alphaindex"), quiet=1)
    try:
        with work_dir(f"{args.workload}-") as work:
            result = measure(args, work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
