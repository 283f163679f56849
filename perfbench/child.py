"""One cold alphaindex invocation in a fresh interpreter.

Usage: child.py MODE SRC RESULT [CLI ARG ...]

MODE is `import` (import the package and stop, a set-up sample), `run`
(call `alphaindex.cli.main` on the CLI arguments), `trace` (the same,
with spans recorded around every layer) or `reference` (time a fixed job
that does not touch the package).  The record written to RESULT
holds the monotonic time at which `import alphaindex, alphaindex.cli`
finished, the wall time of `cli.main`, its exit code, the child's own
peak resident set size and, when traced, the per-function span
statistics.
"""

import json
import random
import resource
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's peak resident set size.  VmHWM counts only memory
    mapped since exec; ru_maxrss would also count the benchmark process's
    own size at fork time."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def reference_job() -> float:
    """Seconds for a fixed job that shares no code with the package and
    does what it spends its time on: dict and string work in pure Python,
    and a power iteration with small numpy matrices.

    The host's speed drifts: on the shared 2-core VM this benchmark was
    built on, identical cold invocations ran up to 1.5x slower for
    stretches of seconds to minutes.  A fresh process running this job
    just before and just after each invocation pays what the invocation
    pays at that moment, including the faults on fresh memory.
    """
    import numpy

    start = time.perf_counter()
    rng = random.Random(20250808)
    counts: dict[str, int] = {}
    for i in range(80000):
        key = str((rng.getrandbits(16), i & 255))
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())
    matrix = numpy.array([[rng.random() for _ in range(9)] for _ in range(9)])
    for _ in range(600):
        x = numpy.full(9, 1.0 / 9)
        for _ in range(20):
            y = matrix @ x
            x = y / y.sum()
        float(x @ y)
    return time.perf_counter() - start


def main() -> int:
    mode, src, result_path, *cli_argv = sys.argv[1:]
    if mode == "reference":
        with open(result_path, "w") as fh:
            json.dump({"reference_s": reference_job(), "peak_rss_kb": peak_rss_kb()}, fh)
        return 0
    sys.path.insert(0, src)
    import alphaindex  # noqa: F401
    import alphaindex.cli

    record = {"imported_at": time.monotonic()}
    if mode != "import":
        tracer = None
        if mode == "trace":
            import tracer as tracing

            tracer = tracing.Tracer()
            record["rebound"] = tracer.install()
        start = time.perf_counter()
        try:
            code = alphaindex.cli.main(cli_argv)
        except SystemExit as exc:  # argparse and usage errors exit through here
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error exits 1, as the interpreter would
            traceback.print_exc()
            code = 1
        record["wall_s"] = time.perf_counter() - start
        record["exit_code"] = code
        if tracer is not None:
            record["functions"] = tracer.function_stats()
            record["observed"] = tracer.observations()
    record["peak_rss_kb"] = peak_rss_kb()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
