"""Dense float64 tensors with a replayable reverse-mode gradient tape.

The op set is deliberately small: just enough for two-layer MLPs, softmax
heads, mixture gating and the fusion losses. No broadcasting beyond the
explicit bias/row-scale primitives, no views, no GPU.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "add",
    "add_bias",
    "bce_with_logits",
    "col",
    "dot_const",
    "dropout",
    "entropy",
    "entropy_rows",
    "grad_check",
    "log_softmax",
    "masked_softmax",
    "matmul",
    "mean_all",
    "mul",
    "mul_scalar",
    "pick",
    "relu",
    "row_max",
    "row_scale",
    "rows",
    "sigmoid",
    "softmax",
    "softplus",
    "sub",
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
    out = Tensor(a.data @ b.data)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            _accum(a, out.grad @ b.data.T)
        if b.requires_grad:
            _accum(b, a.data.T @ out.grad)

    return _maybe_record(out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            _accum(a, out.grad)
        if b.requires_grad:
            _accum(b, out.grad)

    return _maybe_record(out, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"sub shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data - b.data)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            _accum(a, out.grad)
        if b.requires_grad:
            _accum(b, -out.grad)

    return _maybe_record(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"mul shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            _accum(a, out.grad * b.data)
        if b.requires_grad:
            _accum(b, out.grad * a.data)

    return _maybe_record(out, (a, b), backward)


def mul_scalar(x: Tensor, c: float) -> Tensor:
    out = Tensor(x.data * c)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad * c)

    return _maybe_record(out, (x,), backward)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias add: [n, d] + [d]."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ValueError(f"add_bias shape mismatch: {x.shape} + {b.shape}")
    out = Tensor(x.data + b.data[None, :])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad)
        if b.requires_grad:
            _accum(b, out.grad.sum(axis=0))

    return _maybe_record(out, (x, b), backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad * (x.data > 0.0))

    return _maybe_record(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # stable two-branch form, exp only of non-positive arguments
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = Tensor(s)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad * s * (1.0 - s))

    return _maybe_record(out, (x,), backward)


def _softmax_rows(z: np.ndarray, keep: np.ndarray) -> np.ndarray:
    shifted = np.where(keep, z, -np.inf)
    m = shifted.max(axis=-1, keepdims=True)
    e = np.exp(np.where(keep, z - m, -np.inf))
    e = np.where(keep, e, 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x: Tensor) -> Tensor:
    """Numerically stabilized softmax over the last axis (1-D or row-wise 2-D)."""
    if x.data.ndim not in (1, 2):
        raise ValueError("softmax expects a vector or a matrix of rows")
    keep = np.ones_like(x.data, dtype=bool)
    p = _softmax_rows(x.data, keep)
    out = Tensor(p)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = out.grad
            inner = (g * p).sum(axis=-1, keepdims=True)
            _accum(x, p * (g - inner))

    return _maybe_record(out, (x,), backward)


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
    out = Tensor(p)

    def backward():
        if out.grad is None:
            return
        if logits.requires_grad:
            g = np.where(keep, out.grad, 0.0)
            inner = (g * p).sum(axis=1, keepdims=True)
            _accum(logits, p * (g - inner))

    return _maybe_record(out, (logits,), backward)


def log_softmax(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError("log_softmax expects [n, c] logits")
    m = x.data.max(axis=1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor(shifted - lse)
    p = np.exp(out.data)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad - p * out.grad.sum(axis=1, keepdims=True))

    return _maybe_record(out, (x,), backward)


def entropy_rows(p: Tensor) -> Tensor:
    """Shannon entropy (nats) of each row of a row-stochastic matrix.

    Uses the 0*log(0) = 0 convention; gradient at exact zeros is taken as 0,
    which is the correct one-sided limit through the masked-softmax path.
    """
    if p.data.ndim != 2:
        raise ValueError("entropy_rows expects [n, m] rows")
    pos = p.data > 0.0
    logp = np.where(pos, np.log(np.where(pos, p.data, 1.0)), 0.0)
    out = Tensor(-(p.data * logp).sum(axis=1))

    def backward():
        if out.grad is None:
            return
        if p.requires_grad:
            _accum(p, np.where(pos, -(logp + 1.0), 0.0) * out.grad[:, None])

    return _maybe_record(out, (p,), backward)


def row_max(x: Tensor) -> Tensor:
    """Max over each row; gradient flows to the argmax entry (ties: lowest index)."""
    if x.data.ndim != 2:
        raise ValueError("row_max expects [n, c]")
    idx = np.argmax(x.data, axis=1)
    rows = np.arange(x.shape[0])
    out = Tensor(x.data[rows, idx])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[rows, idx] = out.grad
            _accum(x, g)

    return _maybe_record(out, (x,), backward)


def col(x: Tensor, j: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= j < x.shape[1]):
        raise ValueError(f"col({j}) out of range for shape {x.shape}")
    out = Tensor(x.data[:, j].copy())

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[:, j] = out.grad
            _accum(x, g)

    return _maybe_record(out, (x,), backward)


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather x[i, idx[i]] into a vector; backward scatters."""
    if x.data.ndim != 2:
        raise ValueError("pick expects [n, c]")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.shape != (x.shape[0],):
        raise ValueError("index vector length must match row count")
    if idx.min() < 0 or idx.max() >= x.shape[1]:
        raise ValueError("pick index out of range")
    rows = np.arange(x.shape[0])
    out = Tensor(x.data[rows, idx])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[rows, idx] = out.grad
            _accum(x, g)

    return _maybe_record(out, (x,), backward)


def rows(x: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo:hi of a vector or matrix (a copy); backward scatters into them."""
    if x.data.ndim not in (1, 2):
        raise ValueError("rows expects a vector or a matrix of rows")
    if not 0 <= lo < hi <= x.shape[0]:
        raise ValueError(f"rows({lo}, {hi}) out of range for shape {x.shape}")
    out = Tensor(x.data[lo:hi].copy())

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[lo:hi] = out.grad
            _accum(x, g)

    return _maybe_record(out, (x,), backward)


def row_scale(x: Tensor, s: Tensor) -> Tensor:
    """Scale row i of x by s[i]: out[i, :] = s[i] * x[i, :]."""
    if x.data.ndim != 2 or s.data.ndim != 1 or s.shape[0] != x.shape[0]:
        raise ValueError(f"row_scale shape mismatch: {x.shape} by {s.shape}")
    out = Tensor(x.data * s.data[:, None])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad * s.data[:, None])
        if s.requires_grad:
            _accum(s, (out.grad * x.data).sum(axis=1))

    return _maybe_record(out, (x, s), backward)


def mean_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.mean())
    n = x.data.size

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, np.full_like(x.data, float(out.grad) / n))

    return _maybe_record(out, (x,), backward)


def dot_const(x: Tensor, w: np.ndarray) -> Tensor:
    """Weighted sum sum_i w[i] * x[i] with constant weights."""
    w = np.asarray(w, dtype=np.float64)
    if x.data.ndim != 1 or w.shape != x.shape:
        raise ValueError(f"dot_const shape mismatch: {x.shape} vs {w.shape}")
    out = Tensor(x.data @ w)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, w * float(out.grad))

    return _maybe_record(out, (x,), backward)


def bce_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over all entries, from raw logits.

    Stable form softplus(x) - x*t, so no clamping of probabilities is needed.
    """
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError(f"target shape {t.shape} != logits shape {logits.shape}")
    x = logits.data
    val = (np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))).mean()
    out = Tensor(val)
    n = x.size

    def backward():
        if out.grad is None:
            return
        if logits.requires_grad:
            s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                         np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
            _accum(logits, (s - t) * (float(out.grad) / n))

    return _maybe_record(out, (logits,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: kept entries scaled by 1/(1-rate). rate=0 is identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    scale = (rng.random(x.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * scale)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad * scale)

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# plain scalar/array helpers (no tape)
# ---------------------------------------------------------------------------

def softplus(x):
    """log(1 + e^x), overflow-safe for large |x|. Works on scalars and arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def entropy(p, tol: float = 1e-9) -> float:
    """Shannon entropy in nats of a probability vector; 0*log(0) = 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("entropy expects a 1-D vector")
    if p.min() < -tol or abs(p.sum() - 1.0) > tol:
        raise ValueError("input is not on the probability simplex")
    p = np.clip(p, 0.0, None)
    pos = p > 0.0
    return float(-(p[pos] * np.log(p[pos])).sum())


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
