"""The functions perfbench traces stay plain functions.

``perfbench/tracer.py`` wraps every name in its ``TARGETS`` and checks its
call counts against cProfile, which keys each function by its code object.
A cache decorator placed directly on a target has no ``__code__``, so it
would only surface in the slow perfbench run; this catches it at once.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_has_code():
    tracer = _load_tracer()
    missing = []
    for module, path, *_ in tracer.TARGETS:
        target = tracer.resolve(importlib.import_module(module), path)[2]
        if not hasattr(target, "__code__"):
            missing.append(f"{module}.{path}")
    assert missing == []
