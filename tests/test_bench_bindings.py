"""The benchmark's tracer must find every entry point it wraps.

``bench/tracing.py`` wraps the functions named in ``TRACED`` by looking
them up with ``getattr`` on ``tracefill.<module>``. A rename or deletion
there breaks ``bench/run.py --trace 1`` without failing any unit test, so
this test loads the list (without changing the benchmark) and resolves
every name.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_binding_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    traced = module.TRACED
    assert traced
    unresolved = []
    for module_name, attr in traced:
        obj = importlib.import_module(f"tracefill.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            unresolved.append(f"{module_name}.{attr}")
    assert unresolved == []
