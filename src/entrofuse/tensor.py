"""Dense float64 tensors with a replayable reverse-mode gradient tape.

The op set is what the fusion model needs: ``matmul``, ``linear``
(``x @ w + b``, one node), ``relu``, ``masked_softmax``, ``gather`` (rows
copied out by index), ``put_rows`` (rows written by index into a copy) and
``blend`` (the gate-weighted sum of per-modality blocks for V views of n
shared rows, one batched matmul as one node). A loss whose gradient is
derived by hand joins the tape as one ``scalar_node``; the training
objective (``losses.composite_loss``) is one. No broadcasting beyond
those, no views, no GPU.

Finiteness is checked at the boundaries, not on every op result:
``Tensor(data)`` rejects non-finite data and parameters coming from
outside, op results skip that scan, and the model rejects non-finite gate
weights and logits on every read and train path (``forward`` and
``gate_rows``). The trainer's divergence guard and AdamW's gradient check
cover the loss and the backward pass.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "blend",
    "gather",
    "grad_check",
    "linear",
    "masked_softmax",
    "matmul",
    "put_rows",
    "relu",
    "scalar_node",
    "softplus",
]


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
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _result(data) -> Tensor:
    """An op result: a Tensor built without the finiteness scan."""
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = False
    return out


_ACTIVE = threading.local()


def _active_tape() -> "Tape | None":
    return getattr(_ACTIVE, "tape", None)


class Tape:
    """Ordered record of differentiable ops, replayable backward exactly once.

    Ops record themselves onto the active tape in execution (topological)
    order; ``backward`` walks the record in reverse, invoking every node's
    pullback exactly once.
    """

    def __init__(self):
        self._nodes: list[Callable[[], None]] = []
        self._consumed = False
        self.backward_calls = 0

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
            self.backward_calls += 1


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _maybe_record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(backward_fn)
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = _result(a.data @ b.data)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            _accum(a, out.grad @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ out.grad)

    return _maybe_record(out, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of the rows of x: [n, k] @ [k, d] + [d].

    One node; the bias is added in place to the product, so values and
    gradients equal those of a matmul followed by a separate bias add.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError("linear expects [n, k] rows, [k, d] weights, [d] bias")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ValueError(
            f"linear shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    y = x.data @ w.data
    y += b.data
    out = _result(y)

    def backward():
        if out.grad is None:
            return
        g = out.grad
        if b.requires_grad:
            _accum(b, g.sum(axis=0))
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)

    return _maybe_record(out, (x, w, b), backward)


def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.data, 0.0))

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad * (x.data > 0.0))

    return _maybe_record(out, (x,), backward)


def _softmax_rows(z: np.ndarray, keep: np.ndarray) -> np.ndarray:
    shifted = np.where(keep, z, -np.inf)
    m = shifted.max(axis=-1, keepdims=True)
    e = np.exp(np.where(keep, z - m, -np.inf))
    e = np.where(keep, e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def masked_softmax(logits: Tensor, keep: np.ndarray) -> Tensor:
    """Softmax per row restricted to ``keep`` entries; masked entries are exactly 0.

    Equivalent to forcing masked logits to -inf before a plain softmax, but
    with a backward pass that never touches the masked coordinates.
    """
    if logits.data.ndim != 2:
        raise ValueError("masked_softmax expects [n, m] logits")
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != logits.shape:
        raise ValueError(f"mask shape {keep.shape} != logits shape {logits.shape}")
    if not keep.any(axis=1).all():
        raise ValueError("every row must keep at least one entry")
    p = _softmax_rows(logits.data, keep)
    out = _result(p)

    def backward():
        if out.grad is None:
            return
        if logits.requires_grad:
            g = np.where(keep, out.grad, 0.0)
            inner = (g * p).sum(axis=1, keepdims=True)
            _accum(logits, p * (g - inner))

    return _maybe_record(out, (logits,), backward)


def _row_index(idx, n: int) -> np.ndarray:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("row index must be a nonempty vector")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"row index out of range for {n} rows")
    if np.bincount(idx).max() > 1:
        raise ValueError("row indices must be distinct")
    return idx


def gather(x: Tensor, idx: np.ndarray) -> Tensor:
    """Rows ``x[idx]`` for distinct indices idx; backward scatters into them."""
    if x.data.ndim not in (1, 2):
        raise ValueError("gather expects a vector or a matrix of rows")
    idx = _row_index(idx, x.shape[0])
    out = _result(x.data[idx])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[idx] = out.grad
            _accum(x, g)

    return _maybe_record(out, (x,), backward)


def put_rows(base: Tensor, idx: np.ndarray, x: Tensor) -> Tensor:
    """A copy of base whose rows ``idx`` (distinct) are the rows of x."""
    if base.data.ndim not in (1, 2):
        raise ValueError("put_rows expects a vector or a matrix of rows")
    idx = _row_index(idx, base.shape[0])
    if x.shape != (idx.size,) + base.shape[1:]:
        raise ValueError(f"put_rows needs {idx.size} rows like {base.shape}, "
                         f"got {x.shape}")
    y = base.data.copy()
    y[idx] = x.data
    out = _result(y)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad[idx])
        if base.requires_grad:
            g = out.grad.copy()
            g[idx] = 0.0
            _accum(base, g)

    return _maybe_record(out, (base, x), backward)


def blend(w: Tensor, blocks: Sequence[Tensor], b: Tensor | None = None) -> Tensor:
    """Per-row weighted sums of M shared blocks for V views of their n rows.

    Each block is [n, k] and w is [V * n, M]; row v * n + i of the [V * n, k]
    result is sum_m w[v * n + i, m] * blocks[m][i], plus b ([k]) if given.
    One node and one batched matmul, so the blocks are computed once for
    every view.
    """
    shape = blocks[0].shape if blocks else ()
    if len(shape) != 2 or shape[0] == 0 or any(
            blk.shape != shape for blk in blocks):
        raise ValueError("blend blocks must all be the same nonempty [n, k]")
    n, k = shape
    m_count = len(blocks)
    if (w.data.ndim != 2 or w.shape[1] != m_count or w.shape[0] == 0
            or w.shape[0] % n):
        raise ValueError(f"blend weights {w.shape} need [V * {n}, {m_count}]")
    if b is not None and b.shape != (k,):
        raise ValueError(f"blend bias {b.shape} needs [{k}]")
    views = w.shape[0] // n
    stacked = np.stack([blk.data for blk in blocks], axis=1)  # [n, M, k]
    wv = w.data.reshape(views, n, 1, m_count)
    y = np.matmul(wv, stacked).reshape(views * n, k)
    if b is not None:
        y += b.data
    out = _result(y)

    def backward():
        if out.grad is None:
            return
        g = out.grad.reshape(views, n, k).transpose(1, 0, 2)  # [n, V, k]
        if b is not None and b.requires_grad:
            _accum(b, out.grad.sum(axis=0))
        if w.requires_grad:
            gw = np.matmul(g, stacked.transpose(0, 2, 1))  # [n, V, M]
            _accum(w, gw.transpose(1, 0, 2).reshape(views * n, m_count))
        if any(blk.requires_grad for blk in blocks):
            gb = np.matmul(wv[:, :, 0, :].transpose(1, 2, 0), g)  # [n, M, k]
            for m, blk in enumerate(blocks):
                if blk.requires_grad:
                    _accum(blk, gb[:, m])

    inputs = (w, *blocks) if b is None else (w, *blocks, b)
    return _maybe_record(out, inputs, backward)


def scalar_node(value, inputs: Sequence[Tensor],
                grads: Sequence[np.ndarray]) -> Tensor:
    """A scalar whose gradients are derived by hand, as one node:
    ``grads[k]`` is d value / d ``inputs[k]``, and backward adds it, times
    the upstream gradient (1 at the root), into that input's gradient."""
    if any(g.shape != t.shape for t, g in zip(inputs, grads, strict=True)):
        raise ValueError("each gradient needs its input's shape")
    out = _result(value)
    if out.data.ndim != 0:
        raise ValueError("scalar_node value must be a scalar")

    def backward():
        if out.grad is None:
            return
        for t, g in zip(inputs, grads):
            if t.requires_grad:
                _accum(t, g * out.grad)

    return _maybe_record(out, inputs, backward)


# ---------------------------------------------------------------------------
# plain scalar/array helpers (no tape)
# ---------------------------------------------------------------------------

def softplus(x):
    """log(1 + e^x), overflow-safe for large |x|. Works on scalars and arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of f and central differences.

    f must map a single tensor to a scalar tensor. Error per coordinate is
    |analytic - numeric| / (|analytic| + |numeric| + 1e-12).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        y = f(probe)
    if y.data.ndim != 0:
        raise ValueError("grad_check target must return a scalar")
    tape.backward(y)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    numeric = np.zeros_like(probe.data)
    flat = probe.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(probe.data)).item()
        flat[i] = orig - eps
        lo = f(Tensor(probe.data)).item()
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * eps)

    denom = np.abs(analytic) + np.abs(numeric) + 1e-12
    return float(np.max(np.abs(analytic - numeric) / denom))
