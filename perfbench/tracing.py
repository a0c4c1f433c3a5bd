"""In-memory spans around calls into entrofuse, recorded from outside the package.

A ``Tracer`` wraps chosen functions and methods of the ``entrofuse`` modules
while it is installed, and restores the originals when it is removed, so
untraced iterations run the unmodified code. Every call becomes one span:
``(name, start, end, parent, run)``, where ``parent`` is the index of the
enclosing span (or -1) and ``run`` labels the iteration that caused it.
A layer's self time is its duration minus the durations of its direct
children; calls in this program are single-threaded and properly nested, so
direct children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import defaultdict

# (module, attribute) -> span name. Attributes with a dot are methods.
TRACED = {
    ("entrofuse.trainer", "train"): "trainer.train",
    ("entrofuse.trainer", "evaluate_under_dropout"): "trainer.evaluate_under_dropout",
    ("entrofuse.cli", "write_run_dir"): "cli.write_run_dir",
    ("entrofuse.metrics", "inversion_audit"): "metrics.inversion_audit",
    ("entrofuse.metrics", "ece"): "metrics.ece",
    ("entrofuse.model", "gate_rows"): "model.gate_rows",
    ("entrofuse.model", "forward"): "model.forward",
    ("entrofuse.model", "predict_subset"): "model.predict_subset",
    ("entrofuse.data", "apply_mask"): "data.apply_mask",
    ("entrofuse.data", "MultimodalBatch.take"): "data.take",
    ("entrofuse.data", "generate"): "data.generate",
    ("entrofuse.losses", "subset_confidences"): "losses.subset_confidences",
    ("entrofuse.losses", "cec_loss"): "losses.cec_loss",
    ("entrofuse.losses", "composite_loss"): "losses.composite_loss",
    ("entrofuse.tensor", "Tape.backward"): "tensor.backward",
    ("entrofuse.curriculum", "acm_distribution"): "curriculum.acm_distribution",
    ("entrofuse.curriculum", "sample_keep"): "curriculum.sample_keep",
    ("entrofuse.uncertainty", "lambda_of"): "uncertainty.lambda_of",
    ("entrofuse.optim", "adamw_step"): "optim.adamw_step",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.tape_nodes: dict[str, int] = defaultdict(int)  # run -> nodes
        self.run = "idle"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "tensor.backward":
                self.tape_nodes[self.run] += args[0].num_recorded
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.run])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
        return traced

    def install(self) -> None:
        """Replace every traced callable in every entrofuse namespace that
        holds it, including names bound by ``from .x import y``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("entrofuse")
        modules = [package] + [
            importlib.import_module(f"entrofuse.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        for (module_name, attr), name in TRACED.items():
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, target, key, original, wrapped) -> None:
        self._patches.append((target, key, original))
        setattr(target, key, wrapped)

    def remove(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def totals(self, run: str) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds in one run."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl": 0.0, "self": 0.0})
        for index, (name, start, end, _, span_run) in enumerate(self.spans):
            if span_run != run:
                continue
            row = out[name]
            row["calls"] += 1
            row["incl"] += end - start
            row["self"] += end - start - child[index]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": self.spans,
                       "tape_nodes": dict(self.tape_nodes)}, fh)
