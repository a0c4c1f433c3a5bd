"""Export lists: every name a module lists in ``__all__`` exists, and every
name the benchmark's tracer wraps still resolves."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import entrofuse


def test_every_exported_name_resolves():
    modules = [entrofuse] + [
        importlib.import_module(f"entrofuse.{info.name}")
        for info in pkgutil.iter_modules(entrofuse.__path__)]
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ())
             if not hasattr(module, name)]
    assert len(modules) == 14
    assert stale == []


def test_every_traced_name_resolves():
    # perfbench/tracing.py wraps these with getattr when --trace 1 runs, so
    # a deleted or renamed function breaks the traced benchmark
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, attr in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert tracing.TRACED
    assert missing == []
