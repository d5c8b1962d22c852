"""The benchmark tracer looks rqc functions up by name; keep those names alive.

benchmark/tracer.py wraps every function its LAYERS table lists, found as
an attribute of rqc.<layer>. A name deleted or renamed in the package
breaks traced benchmark runs, so it fails here first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def load_tracer(monkeypatch):
    # executed from its path without a bytecode cache and without
    # registering it in sys.modules, so the benchmark tree is only read
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_layer(monkeypatch):
    layers = load_tracer(monkeypatch).LAYERS
    assert layers
    missing = [
        f"rqc.{layer}.{name}"
        for layer, names in layers.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"rqc.{layer}"), name, None))
    ]
    assert missing == []
