"""The benchmark's correctness gate, run on every workload's own argv.

``perfbench/workloads.py`` is loaded by path; it reads ``expected.json``
next to it and imports ``ingest_stream`` from its own directory.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from alphaindex.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"
VERIFY_WORKLOADS = ["order-campaign", "size-campaign", "spectral-lemmas"]


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up here
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", VERIFY_WORKLOADS)
def test_verify_workload_passes_its_gate(workloads, name):
    workload = workloads.WORKLOADS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(workload.argv(7, None))
    checked, failed = workloads.Gate(workload, None).check(code, out.getvalue())
    assert checked > 0
    assert failed == 0


def test_ingest_workload_passes_its_gate(workloads, tmp_path):
    # The reference decides minimality with the deletion recognizer, so this
    # checks the decoder and the chord recognizer end to end at n = 9..13.
    workload = workloads.WORKLOADS["graph6-ingest"]
    stream = tmp_path / workloads.STREAM_NAME
    lines = workloads.write_stream(7, stream)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(workload.argv(7, stream))
    checked, failed = workloads.Gate(workload, workloads.ingest_reference(lines, SRC)).check(
        code, out.getvalue(),
    )
    assert checked > 0
    assert failed == 0
