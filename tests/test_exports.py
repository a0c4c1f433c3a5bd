"""Export lists: every name a module lists in ``__all__`` exists, every
name the benchmark's tracer wraps still resolves, and a traced training
run records no tape node and leaves the package as it found it."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import entrofuse
import entrofuse.trainer as trainer_module
from entrofuse.data import MultimodalBatch
from entrofuse.subsets import EXHAUSTIVE_MAX
from entrofuse.tensor import Tape
from entrofuse.uncertainty import LambdaConfig

from test_trainer import small_cfg, small_data


def _modules():
    return [entrofuse] + [
        importlib.import_module(f"entrofuse.{info.name}")
        for info in pkgutil.iter_modules(entrofuse.__path__)]


def _tracing():
    # perfbench/tracing.py wraps entrofuse names with getattr when --trace 1
    # runs; it is loaded from its file, as the benchmark is not a package
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_exported_name_resolves():
    modules = _modules()
    stale = [f"{module.__name__}.{name}" for module in modules
             for name in getattr(module, "__all__", ())
             if not hasattr(module, name)]
    assert len(modules) == 14
    assert stale == []


def test_the_cli_import_loads_no_process_pool():
    # every command imports entrofuse.cli; the pool's modules load only when
    # ablate --jobs > 1 builds a pool, so a fresh interpreter shows the rest
    src = str(Path(entrofuse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, entrofuse, entrofuse.cli; print(entrofuse.__file__); "
            "print(*sorted({'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == [entrofuse.__file__, ""]


def test_only_the_training_path_imports_the_tape():
    # the model pass's outputs are tensors; training records no node, so
    # the helpers that record one live in the tests
    importers, defined = [], set()
    for path in sorted(Path(entrofuse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            if isinstance(node, ast.ImportFrom) and (
                    node.module in ("tensor", "entrofuse.tensor")
                    or node.module in (None, "entrofuse")
                    and any(a.name == "tensor" for a in node.names)):
                importers.append(path.stem)
            if isinstance(node, ast.Import) and any(
                    a.name == "entrofuse.tensor" for a in node.names):
                importers.append(path.stem)
    assert sorted(set(importers)) == ["__init__", "model"]
    assert not defined & {"scalar_node", "_maybe_record", "_accum"}


def test_parameters_carry_no_gradient_flag():
    # parameters are plain arrays and one model attribute freezes the gate:
    # only tensor.py knows requires_grad, and no per-parameter gradient or
    # group helper is left
    mentions, defined = [], set()
    for path in sorted(Path(entrofuse.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if "requires_grad" in text and path.name != "tensor.py":
            mentions.append(path.stem)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
    assert mentions == []
    assert "zero_grad" in defined
    assert not defined & {"_add_grad", "gate_parameters", "base_parameters"}


def test_branch_variance_has_one_estimator():
    # instance lambda reads the closed-form dropout variance only: no
    # head-ensemble estimator, and no config key that would pick or size one
    src = Path(entrofuse.__file__).resolve().parent.parent
    mentions = [str(path.relative_to(src))
                for path in sorted(src.rglob("*.py"))
                if "ensemble" in path.read_text(encoding="utf-8").lower()]
    assert mentions == []
    assert [f.name for f in dataclasses.fields(LambdaConfig)] == [
        "lam_min", "rate"]


def test_the_labels_own_the_label_mode():
    # 2-D labels are multi-label: no function that reads labels is also
    # told the mode, and a batch derives it from its labels' rank
    told = []
    for path in sorted(Path(entrofuse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in (*args.posonlyargs, *args.args,
                                         *args.kwonlyargs)}
                if {"labels", "multilabel"} <= names:
                    told.append(f"{path.stem}.{node.name}")
    assert told == []
    assert "multilabel" not in {
        f.name for f in dataclasses.fields(MultimodalBatch)}


def test_settings_no_caller_varies_are_constants():
    # AdamW's moment rates and epsilon, the temperature search's interval
    # and step count, and the kept modality of the single_modality ablation
    # each have one owner
    assert list(inspect.signature(entrofuse.adamw_step).parameters) == [
        "params", "grads", "state", "lr", "weight_decay"]
    assert list(inspect.signature(entrofuse.fit_temperature).parameters) == [
        "logits", "labels"]
    assert not hasattr(trainer_module, "apply_ablation")


def test_the_exhaustive_lattice_limit_has_one_owner():
    # the audit, the CLI, the teacher family, the config and the penalty's
    # lattice compare a modality count with subsets.EXHAUSTIVE_MAX, never
    # with its value
    literal = []
    for path in sorted(Path(entrofuse.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(side, ast.Constant)
                    and side.value == EXHAUSTIVE_MAX
                    for side in (node.left, *node.comparators)):
                literal.append(f"{path.stem}:{node.lineno}")
    assert literal == []


def test_every_traced_name_resolves():
    # a deleted or renamed function breaks the traced benchmark
    tracing = _tracing()
    missing = []
    for module_name, attr in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert tracing.TRACED
    assert missing == []


def test_traced_training_records_no_tape_node_and_restores_names():
    # the --trace 1 path: a gamma > 0 run records no tape node, its
    # objective shows as a span, and every wrapped name is put back on
    # removal
    tracing = _tracing()
    namespaces = [vars(module) for module in _modules()] + [
        Tape.__dict__, MultimodalBatch.__dict__]
    before = [dict(space) for space in namespaces]
    data = small_data()
    cfg = small_cfg(gamma=2.0, epochs=1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        trainer_module.train(cfg, data)
    finally:
        tracer.remove()
    assert sum(tracer.tape_nodes.values()) == 0
    names = {span[0] for span in tracer.spans}
    assert "losses.composite_loss" in names and "tensor.backward" not in names
    assert patched
    for target, key, original in patched:
        assert vars(target)[key] is original, key
    for space, saved in zip(namespaces, before):
        assert all(space[key] is value for key, value in saved.items())


def test_every_private_function_is_referenced():
    # a refactor must not leave a dead helper behind: every _-prefixed
    # function or method defined in the package is named somewhere in it
    defined, named = set(), set()
    for path in Path(entrofuse.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert len(defined) > 10
    assert sorted(defined - named) == []
