"""Export lists: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

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
