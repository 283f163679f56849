"""The benchmark tracer wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = [
        f"{module}.{function}" for module, function in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"alphaindex.{module}"), function, None))
    ]
    assert missing == []
