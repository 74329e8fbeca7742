"""Names looked up as strings must resolve: the benchmark's traced functions,
and every name a module exports in `__all__`."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import facepipe

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    missing = []
    for module, attr in names:
        target = importlib.import_module(f"facepipe.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"facepipe.{module}.{attr}")
    assert missing == []


def test_every_exported_name_resolves():
    modules = ["facepipe"] + [f"facepipe.{m.name}" for m in pkgutil.iter_modules(facepipe.__path__)]
    assert "facepipe.registration" in modules
    missing = []
    for name in modules:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
