"""Write expected.json: the semantic items of each verify workload's output.

Usage: python3 perfbench/capture_expected.py  (from the repository root)

The committed file was captured once, from the commit that introduced this
benchmark, and is the reference every later commit is checked against.
Re-capturing it from a later commit would check that commit against itself,
so do it only when a change to the expected verdicts is intended and
reviewed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import EXPECTED_KEY, EXPECTED_PATH, ITEMS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CAPTURE_SEED = 20250808  # the CLI's default rotation seed


def main() -> int:
    expected = {}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, key in EXPECTED_KEY.items():
        argv = WORKLOADS[name].argv(CAPTURE_SEED, Path(os.devnull))
        with tempfile.TemporaryDirectory(dir=ROOT) as work:
            out = Path(work) / "out.txt"
            subprocess.run(
                [sys.executable, "-m", "alphaindex", *argv, "--out", str(out)],
                env=env, check=True,
            )
            expected[key] = ITEMS[name](out.read_text())
        print(f"{name}: {len(expected[key])} items")
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
