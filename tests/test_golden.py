"""Golden outputs: report bytes and exit codes of fixed CLI invocations.

The files under ``tests/golden/`` hold the stdout of each invocation below.
A change that alters report content on purpose regenerates them with
``PYTHONPATH=src python tests/test_golden.py`` and says so.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from alphaindex.cli import main

GOLDEN = Path(__file__).parent / "golden"

_CAMPAIGNS = {
    "theorem1.3": (["verify", "theorem1.3", "--n", "5..6", "--alpha", "0.5,0.75", "--jobs", "1"], 0),
    "theorem1.4": (["verify", "theorem1.4", "--m", "6..10", "--alpha", "0.5,0.999", "--jobs", "1"], 0),
    # fact3 reports the printed g identity as failing, so the suite exits 1.
    "lemmas": (["verify", "lemmas", "--n-max", "6", "--rotation-cases", "50", "--seed", "7"], 1),
}

# (golden file name, argv, exit code)
INVOCATIONS = [
    (f"{name}.{fmt}", argv + ["--format", fmt], code)
    for name, (argv, code) in _CAMPAIGNS.items()
    for fmt in ("json", "csv", "text")
] + [
    (f"identity.{fmt}", ["certify", "identity", "--poly", "f,g", "--format", fmt], 1)
    for fmt in ("json", "text")
]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "name,argv,code", INVOCATIONS, ids=[name for name, _, _ in INVOCATIONS]
)
def test_golden_output(name, argv, code):
    got_code, got = _run(argv)
    assert got_code == code
    assert got == (GOLDEN / name).read_bytes().decode()  # keeps csv "\r\n"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in INVOCATIONS:
        got_code, got = _run(argv)
        if got_code != code:
            sys.exit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / name).write_bytes(got.encode())
        print(f"wrote {name}")
