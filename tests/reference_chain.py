"""The training objective as the chain of generic tape ops it was built
from before ``losses.composite_loss`` became one hand-derived node, kept as
the reference that node must equal bit for bit.

The ops are the package's former tape primitives, unchanged. Tests also use
``add``, ``mul``, ``mul_scalar`` and ``mean_all`` to weight the outputs of
the package's own ops in gradient checks, and ``row_max`` over ``softmax``
or ``sigmoid`` as a confidence that takes a gradient.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

import entrofuse.tensor as T
from entrofuse.losses import LossBreakdown
from entrofuse.tensor import Tensor, _accum, _maybe_record, _result


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


def hinge_pairs(xs: Sequence[Tensor], pairs: Sequence[tuple[int, int]]
                ) -> Tensor:
    """Mean over index pairs (i, j) of ``mean(relu(xs[i] - xs[j]) ** 2)``.

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
                   lam, gamma: float, rows=None, pairs=None,
                   multilabel: bool = False, lam_min: float = 0.0
                   ) -> tuple[Tensor, LossBreakdown]:
    """``losses.composite_loss`` as the chain it replaced: the confidences'
    softmax and row max, a ``gather`` per read (the task rows, their gate
    weights, each view's confidences), ``hinge_pairs`` and the task and
    entropy terms joined by ``add`` and ``mul_scalar``, recorded in the
    order the training step recorded them."""
    conf = None if pairs is None else confidence(logits, multilabel)
    if rows is not None:
        logits, p = T.gather(logits, rows), T.gather(p, rows)
    cec = None
    if pairs is not None:
        n = len(labels)
        pairs = [(int(a), int(b)) for a, b in pairs]
        views = max(max(pair) for pair in pairs) + 1
        cec = hinge_pairs([T.gather(conf, np.arange(v * n, (v + 1) * n))
                           for v in range(views)], pairs)
    task = task_loss(logits, labels, multilabel=multilabel)
    ent_rows = entropy_rows(p)
    n = ent_rows.shape[0]
    lam_arr = np.asarray(lam, dtype=np.float64)
    if lam_arr.ndim == 0:
        lam_value = float(lam_arr)
        assert lam_value >= lam_min
        ent_term = mul_scalar(mul_scalar(mean_all(ent_rows), -1.0), lam_value)
        lam_report = lam_value
    else:
        assert (lam_arr >= lam_min).all()
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
