"""The fusion model pass and the training objective as the chains of
generic tape ops they were built from, before ``model.forward_pullback``
and ``losses.composite_loss`` each derived their gradients by hand, kept as
the references those must equal bit for bit.

The ops are the package's former tape primitives, unchanged: the layer ops
``matmul``, ``linear``, ``relu``, ``masked_softmax``, ``gather``,
``put_rows`` and ``blend``, which ``gate_rows`` and ``forward`` compose,
and the loss ops, which ``composite_loss`` composes. Tests also use
``add``, ``mul``, ``mul_scalar`` and ``mean_all`` to weight the outputs of
the package's own ops in gradient checks, and ``row_max`` over ``softmax``
or ``sigmoid`` as a confidence that takes a gradient. ``grad_check``
compares tape gradients with central differences, and ``scalar_node``
puts a value with hand-derived gradients on the tape.

The adapters join the two sides: ``leaves`` gives the chains the
model's parameters as tape leaves, ``run_pullback`` feeds a package
pass's pullback the tape gradients of a loss on its outputs, and
``forward_pullback`` and ``objective`` give the chains the package's
tapeless call forms, so a training step can run on them.

The read path before ``model.forward_views`` became a table of passes
closes the file: ``lazy_forward_views`` runs the per-view kernel once per
view, lazily, and ``lazy_dropout_table`` and ``lazy_inversion_audit``
score its views one at a time, as ``trainer._dropout_table`` and
``metrics.inversion_audit`` did. The table must equal them bit for bit.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

import entrofuse.model as model_module
from entrofuse.data import bernoulli_mask, keep_observed
from entrofuse.losses import LossBreakdown
from entrofuse.metrics import (_count_inversions, confidence_correct, ece,
                               entropy_confidence_export, map_at_1)
from entrofuse.model import ForwardOutput
from entrofuse.rng import stream
from entrofuse.subsets import subset_lattice
from entrofuse.tensor import Tape, Tensor, _active_tape, _result


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add g into t's gradient in place, so a model parameter's gradient
    stays a view of its group buffer; a tensor without one gets a copy of
    g, as these pullbacks pass the same array on to several inputs."""
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _maybe_record(out: Tensor, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.record(backward_fn)
    return out


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


# ---------------------------------------------------------------------------
# the loss ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = _result(a.data + b.data)

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
    out = _result(a.data - b.data)

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
    out = _result(a.data * b.data)

    def backward():
        if out.grad is None:
            return
        if a.requires_grad:
            _accum(a, out.grad * b.data)
        if b.requires_grad:
            _accum(b, out.grad * a.data)

    return _maybe_record(out, (a, b), backward)


def mul_scalar(x: Tensor, c: float) -> Tensor:
    out = _result(x.data * c)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad * c)

    return _maybe_record(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    # stable two-branch form, exp only of non-positive arguments
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = _result(s)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, out.grad * s * (1.0 - s))

    return _maybe_record(out, (x,), backward)


def softmax(x: Tensor) -> Tensor:
    """Numerically stabilized softmax over the last axis (1-D or row-wise 2-D)."""
    if x.data.ndim not in (1, 2):
        raise ValueError("softmax expects a vector or a matrix of rows")
    p = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = _result(p)

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = out.grad
            inner = (g * p).sum(axis=-1, keepdims=True)
            _accum(x, p * (g - inner))

    return _maybe_record(out, (x,), backward)


def log_softmax(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise ValueError("log_softmax expects [n, c] logits")
    m = x.data.max(axis=1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = _result(shifted - lse)
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
    out = _result(-(p.data * logp).sum(axis=1))

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
    out = _result(x.data[rows, idx])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[rows, idx] = out.grad
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
    out = _result(x.data[rows, idx])

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            g = np.zeros_like(x.data)
            g[rows, idx] = out.grad
            _accum(x, g)

    return _maybe_record(out, (x,), backward)


def mean_all(x: Tensor) -> Tensor:
    out = _result(x.data.mean())
    n = x.data.size

    def backward():
        if out.grad is None:
            return
        if x.requires_grad:
            _accum(x, np.full_like(x.data, float(out.grad) / n))

    return _maybe_record(out, (x,), backward)


def hinge_pairs(xs: Sequence[Tensor], pairs: Sequence[tuple[int, int]],
                live=None) -> Tensor:
    """Mean over index pairs (i, j) of ``mean(relu(xs[i] - xs[j]) ** 2)``,
    with the gap held at 0 where ``live[i]`` (default: everywhere) is False.

    One node for any number of pairs, with the values and gradients of the
    composed ``sub``, ``relu``, ``mul``, ``mean_all``, ``add`` and
    ``mul_scalar`` chain: the pair terms are summed in pair order, and the
    backward accumulates into the inputs in reverse pair order.
    """
    if not pairs:
        raise ValueError("hinge_pairs needs at least one pair")
    if not xs or any(x.shape != xs[0].shape for x in xs):
        raise ValueError("hinge_pairs inputs must all have one shape")
    diff = (np.array([xs[i].data for i, _ in pairs])
            - np.array([xs[j].data for _, j in pairs]))
    if live is not None:
        diff = diff * np.array([live[i] for i, _ in pairs])
    gap = np.maximum(diff, 0.0)
    n = gap[0].size
    terms = np.add.reduce((gap * gap).reshape(len(pairs), n), axis=1) / n
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    scale = 1.0 / len(pairs)
    out = _result(total * scale)

    def backward():
        if out.grad is None:
            return
        g = float(out.grad * scale) / n * gap
        g += g
        g *= diff > 0.0
        for k in reversed(range(len(pairs))):
            i, j = pairs[k]
            if xs[i].requires_grad:
                _accum(xs[i], g[k])
            if xs[j].requires_grad:
                _accum(xs[j], -g[k])

    return _maybe_record(out, xs, backward)


def dot_const(x: Tensor, w: np.ndarray) -> Tensor:
    """Weighted sum sum_i w[i] * x[i] with constant weights."""
    w = np.asarray(w, dtype=np.float64)
    if x.data.ndim != 1 or w.shape != x.shape:
        raise ValueError(f"dot_const shape mismatch: {x.shape} vs {w.shape}")
    out = _result(x.data @ w)

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
    out = _result(val)
    n = x.size

    def backward():
        if out.grad is None:
            return
        if logits.requires_grad:
            s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                         np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
            _accum(logits, (s - t) * (float(out.grad) / n))

    return _maybe_record(out, (logits,), backward)


# ---------------------------------------------------------------------------
# the layer ops
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




# ---------------------------------------------------------------------------
# the model pass composed from the layer ops
# ---------------------------------------------------------------------------

def _gate_weights(leaf, pre: Tensor, keep: np.ndarray) -> Tensor:
    """ReLU, gate layer 2 and the softmax masked to ``keep``, from gate
    layer 1's pre-activation."""
    p = masked_softmax(linear(relu(pre), leaf["gate_w2"], leaf["gate_b2"]),
                       keep)
    if not np.isfinite(p.data).all():
        raise ValueError("gate weights are non-finite")
    return p


def gate_rows(model, batch, views=None) -> Tensor:
    """``model.gate_rows`` as the chain it replaced, on the tape: no gate
    for views whose rows each observe one modality, one ``linear`` for
    gate layer 1 of one view that needs it, per-modality ``gather`` and
    ``matmul`` products summed by ``blend`` for several, and ``put_rows``
    beside the one-hot weights of the views that do not."""
    leaf = leaves(model)
    views = np.asarray(batch.presence[None] if views is None else views,
                       dtype=bool)
    keep = views.reshape(-1, batch.num_modalities)
    gated = np.flatnonzero((views.sum(axis=2) > 1).any(axis=1))
    if gated.size == 0:
        return Tensor(keep.astype(np.float64))
    if gated.size == 1:
        pre = linear(Tensor(model.gate_input(batch, views[gated[0]])),
                     leaf["gate_w1"], leaf["gate_b1"])
    else:
        x = model.gate_input(batch)
        edges = np.cumsum((0,) + batch.dims)
        layer1 = []
        for m in range(batch.num_modalities):
            cols = np.append(np.arange(edges[m], edges[m + 1]), edges[-1] + m)
            layer1.append(matmul(Tensor(x[:, cols]),
                                 gather(leaf["gate_w1"], cols)))
        weights = views[gated].reshape(-1, batch.num_modalities)
        pre = blend(Tensor(weights.astype(np.float64)), layer1,
                    leaf["gate_b1"])
    if gated.size == len(views):
        return _gate_weights(leaf, pre, keep)
    rows = (gated[:, None] * batch.n + np.arange(batch.n)).ravel()
    return put_rows(Tensor(keep.astype(np.float64)), rows,
                    _gate_weights(leaf, pre, keep[rows]))


def forward(model, batch, views=None) -> ForwardOutput:
    """``model.forward`` as the chain it replaced: ``gate_rows`` above, a
    ``matmul`` per modality's projection summed by ``blend``, and the head
    as one ``linear``, recorded in that order."""
    leaf = leaves(model)
    p = gate_rows(model, batch, views)
    z = blend(p, [matmul(Tensor(f), leaf[f"proj_{m}"])
                  for m, f in enumerate(batch.features)])
    logits = linear(z, leaf["head_w"], leaf["head_b"])
    if not np.isfinite(logits.data).all():
        raise ValueError("logits are non-finite")
    return ForwardOutput(p=p, logits=logits, multilabel=model.cfg.multilabel)


# ---------------------------------------------------------------------------
# the objective composed from those ops
# ---------------------------------------------------------------------------

def task_loss(logits: Tensor, labels: np.ndarray, multilabel: bool = False) -> Tensor:
    """Mean cross-entropy (single-label) or mean BCE over all entries."""
    if multilabel:
        return bce_with_logits(logits, labels)
    idx = np.asarray(labels)
    if idx.ndim != 1 or idx.shape[0] != logits.shape[0]:
        raise ValueError("labels must be one class index per row")
    picked = pick(log_softmax(logits), idx.astype(np.int64))
    return mul_scalar(mean_all(picked), -1.0)


def entropy_penalty(p: Tensor) -> Tensor:
    """Mean over rows of sum_m p log p, i.e. negative mean gate entropy."""
    return mul_scalar(mean_all(entropy_rows(p)), -1.0)


def confidence(logits: Tensor, multilabel: bool = False) -> Tensor:
    """Max-class probability of each logit row, on the tape."""
    return row_max((sigmoid if multilabel else softmax)(logits))


def composite_loss(logits: Tensor, p: Tensor, labels: np.ndarray, *,
                   lam, gamma: float, rows=None, pairs=None, live=None,
                   multilabel: bool = False
                   ) -> tuple[Tensor, LossBreakdown]:
    """``losses.composite_loss`` as the chain it replaced: the confidences'
    softmax and row max, a ``gather`` per read (the task rows, their gate
    weights, each view's confidences), ``hinge_pairs`` and the task and
    entropy terms joined by ``add`` and ``mul_scalar``, recorded in the
    order the training step recorded them."""
    conf = None if pairs is None else confidence(logits, multilabel)
    if rows is not None:
        logits, p = gather(logits, rows), gather(p, rows)
    cec = None
    if pairs is not None:
        n = len(labels)
        pairs = [(int(a), int(b)) for a, b in pairs]
        views = max(max(pair) for pair in pairs) + 1
        cec = hinge_pairs([gather(conf, np.arange(v * n, (v + 1) * n))
                           for v in range(views)], pairs, live)
    task = task_loss(logits, labels, multilabel=multilabel)
    ent_rows = entropy_rows(p)
    n = ent_rows.shape[0]
    lam_arr = np.asarray(lam, dtype=np.float64)
    if lam_arr.ndim == 0:
        lam_value = float(lam_arr)
        assert lam_value >= 0.0
        ent_term = mul_scalar(mul_scalar(mean_all(ent_rows), -1.0), lam_value)
        lam_report = lam_value
    else:
        assert (lam_arr >= 0.0).all()
        ent_term = mul_scalar(dot_const(ent_rows, lam_arr / n), -1.0)
        lam_report = float(lam_arr.mean())
    ent_report = (ent_term.item() / lam_report if lam_report > 0.0
                  else -float(np.mean(ent_rows.data)))
    total = add(task, ent_term)
    if cec is not None:
        total = add(total, mul_scalar(cec, gamma))
    return total, LossBreakdown(
        total=total.item(), task=task.item(), ent=ent_report,
        cec=0.0 if cec is None else cec.item(), lam=lam_report,
        gamma=float(gamma))


# ---------------------------------------------------------------------------
# adapters between the package's tapeless gradients and the tape
# ---------------------------------------------------------------------------

def leaves(model) -> dict[str, Tensor]:
    """Each model parameter as a tape leaf, by checkpoint name: its
    ``.data`` and ``.grad`` are the model's own views, so the tape adds
    into the model's gradient buffers; with ``model.gate_frozen`` set the
    gate's leaves take no gradient."""
    out = {}
    for name, param in model.parameters():
        out[name] = leaf = _result(param)
        leaf.grad = model.grad[name]
        leaf.requires_grad = not (model.gate_frozen
                                  and name.startswith("gate_"))
    return out


def _grad_or_zeros(t: Tensor) -> np.ndarray:
    return np.zeros_like(t.data) if t.grad is None else t.grad


def run_pullback(out, pullback, loss) -> Tensor:
    """Take the scalar ``loss(logits, p)`` on the tape over leaves holding
    the package pass's outputs ``out`` and feed their gradients to the
    pass's ``pullback``; returns the loss."""
    logits = Tensor(out.logits.data, requires_grad=True)
    p = Tensor(out.p.data, requires_grad=True)
    with Tape() as tape:
        value = loss(logits, p)
    tape.backward(value)
    pullback(_grad_or_zeros(logits), _grad_or_zeros(p))
    return value


def forward_pullback(model, batch, views=None):
    """``model.forward_pullback`` from the chain ``forward``: the chain
    records on its own tape, and the pullback seeds the outputs' gradients
    with one ``scalar_node`` and replays that tape."""
    tape = Tape()
    with tape:
        out = forward(model, batch, views)

    def pullback(g_logits: np.ndarray, g_p: np.ndarray) -> None:
        with tape:
            root = scalar_node(0.0, (out.logits, out.p), (g_logits, g_p))
        tape.backward(root)

    return out, pullback


def objective(logits: np.ndarray, p: np.ndarray, labels: np.ndarray, **kw):
    """``losses.composite_loss``'s results from the chain ``composite_loss``
    on a tape over leaves holding ``logits`` and ``p``: the breakdown and
    the gradients with respect to both. 2-D labels are multi-label, as
    the package reads them."""
    leaves = [Tensor(a, requires_grad=True) for a in (logits, p)]
    with Tape() as tape:
        total, breakdown = composite_loss(*leaves, labels, **kw,
                                          multilabel=np.ndim(labels) == 2)
    tape.backward(total)
    return (breakdown, *map(_grad_or_zeros, leaves))


# ---------------------------------------------------------------------------
# the read path as one pass per view
# ---------------------------------------------------------------------------

def lazy_forward_views(model, batch, views):
    """Read-only ``forward`` over each [n, M] view, lazily: the split's
    ``_gate_products`` and projections are built when iteration starts,
    and each view then runs the gate on them (unless no row of it keeps
    two modalities) and the fusion. Raises ``ValueError`` at the view at
    fault."""
    M = model_module
    M._check_views(model, batch, batch.presence[None])  # the layout
    gate = None
    if (batch.presence.sum(axis=1) > 1).any():
        gate = M._gate_products(model, batch)[2]
    stacked = M._per_modality(batch.n, batch.features, model.proj)
    for view in views:
        one = M._check_views(model, batch, np.asarray(view)[None])[0]
        observed = one.sum(axis=1)
        if not observed.all():
            raise ValueError("a sample has no observed modality")
        p = (one.astype(np.float64) if (observed < 2).all()
             else M._gate(model, batch, one, gate)[0])
        yield ForwardOutput(p=_result(p), logits=_result(
            M._fuse(model, p, stacked)[0]), multilabel=model.cfg.multilabel)


def _metric_row(out, labels, temperature=1.0):
    logits = out.logits.data
    conf, correct = confidence_correct(logits, labels, temperature)
    score = (map_at_1(logits, labels) if out.multilabel
             else float(correct.mean()))
    return {"score": score, "ece": ece(conf, correct).ece,
            "gate_entropy": float(out.gate_entropy.mean())}


def lazy_dropout_table(model, batch, rates, seeds, seed, temperature=1.0):
    """``trainer._dropout_table`` scored view by view on
    ``lazy_forward_views``: the table and the clean pass's scatter."""
    maskable = (batch.presence.sum(axis=1) > 1).any()
    draws = {rate: seeds if rate > 0.0 and maskable else 0 for rate in rates}

    def views():
        for r_index, rate in enumerate(rates):
            if not draws[rate]:
                yield batch.presence
            for s in range(draws[rate]):
                rng = stream(seed, f"eval:{r_index}:{s}")
                yield keep_observed(batch.presence, bernoulli_mask(
                    batch.n, batch.num_modalities, rate, rng))[0]

    outs = lazy_forward_views(model, batch, views())
    table, scatter = {}, None
    for rate in rates:
        acc = {"score": 0.0, "ece": 0.0, "gate_entropy": 0.0}
        for _ in range(max(draws[rate], 1)):
            out = next(outs)
            if scatter is None and not draws[rate]:
                scatter = entropy_confidence_export(out)
            for k, v in _metric_row(out, batch.labels, temperature).items():
                acc[k] += v
        table[rate] = {k: v / max(draws[rate], 1) for k, v in acc.items()}
    return table, scatter


def lazy_inversion_audit(model, batch):
    """``metrics.inversion_audit`` on ``lazy_forward_views``."""
    lattice = subset_lattice(batch.num_modalities)
    views, live = keep_observed(batch.presence, lattice.subsets[:, None])
    conf = [out.confidence.data
            for out in lazy_forward_views(model, batch, views)]
    return _count_inversions(np.array(conf), lattice, live)
