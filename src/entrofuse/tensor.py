"""Dense float64 tensors and a reverse-mode gradient tape.

The model pass's outputs are ``Tensor``s; its parameters are plain arrays.
Training opens no tape, as the model pass and the objective derive their
gradients by hand; the tests' reference chain of generic ops records on it.

Finiteness is checked at the boundaries: ``Tensor(data)`` rejects
non-finite data, results built with ``_result`` skip that scan,
``load_checkpoint`` rejects non-finite parameters, and the model rejects
non-finite gate weights and logits on every read and train path. The
trainer's divergence guard and ``adamw_step``'s gradient check cover the
loss and the backward pass.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

__all__ = ["Tensor", "Tape"]


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor contains non-finite values")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.item())  # float() takes only 0-D arrays

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data) -> Tensor:
    """A computed result: a Tensor built without the finiteness scan."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    return out


_ACTIVE = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_ACTIVE, "tape", None)


class Tape:
    """Ordered record of nodes, which record themselves onto the active
    tape in execution order; ``backward`` replays it in reverse, once."""

    def __init__(self):
        self._nodes: list[Callable[[], None]] = []
        self._consumed = False

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise RuntimeError("another tape is already active on this thread")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.tape = None

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._nodes.append(backward_fn)

    @property
    def num_recorded(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> None:
        """Seed d(root)=1 and accumulate gradients into all recorded inputs."""
        if self._consumed:
            raise RuntimeError("tape has already been replayed")
        if root.data.ndim != 0:
            raise ValueError("backward root must be a scalar tensor")
        self._consumed = True
        root.grad = np.ones((), dtype=np.float64)
        for fn in reversed(self._nodes):
            fn()
