"""AdamW with decoupled weight decay, plus the cosine learning-rate factor."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

__all__ = ["AdamWState", "adamw_step", "cosine_lr", "AdamW"]


@dataclass
class AdamWState:
    """First/second moment buffers, the shared step counter and, per
    parameter, two float scratch arrays and a bool one reused by every step."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    scratch: list = field(default_factory=list)


def adamw_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamWState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    weight_decay: float = 0.0,
    eps: float = 1e-8,
) -> tuple[list[np.ndarray], AdamWState]:
    """One decoupled-weight-decay Adam update. Params are updated in place.

    Moments are bias-corrected; weight decay multiplies the parameter
    directly (not the gradient), scaled by lr. Every operation writes into
    the state's buffers, which the first call allocates.
    """
    if lr <= 0.0:
        raise ValueError(f"lr must be positive, got {lr}")
    if len(params) != len(grads):
        raise ValueError("params and grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"shape mismatch: param {p.shape} vs grad {g.shape}")
    if not state.m:
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
        state.scratch = [(np.empty_like(p), np.empty_like(p),
                          np.empty(p.shape, dtype=bool)) for p in params]
    for g, (_, _, finite) in zip(grads, state.scratch):
        if not np.isfinite(g, out=finite).all():
            raise ValueError("non-finite gradient")

    state.step += 1
    b1, b2 = betas
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step

    # the operations and their order are those of the expressions
    # (1 - b1) * g, (1 - b2) * g * g, lr * wd * p and
    # (lr / bc1) * m / (sqrt(v / bc2) + eps), so the bits are too
    for p, g, m, v, (s, t, _) in zip(params, grads, state.m, state.v,
                                      state.scratch):
        m *= b1
        m += np.multiply(1.0 - b1, g, out=s)
        v *= b2
        v += np.multiply(np.multiply(1.0 - b2, g, out=s), g, out=s)
        if weight_decay != 0.0:
            p -= np.multiply(lr * weight_decay, p, out=s)
        np.sqrt(np.divide(v, bc2, out=s), out=s)
        s += eps
        p -= np.divide(np.multiply(lr / bc1, m, out=t), s, out=t)
    return params, state


def cosine_lr(lr0: float, t: int, t_total: int) -> float:
    """lr_t = lr0 * 0.5 * (1 + cos(pi * t / t_total))."""
    if t_total <= 0:
        return lr0
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * min(t, t_total) / t_total))


class AdamW:
    """Parameter-group wrapper over adamw_step for tensors on a tape.

    Each group is a dict with keys ``params`` (list of Tensor), ``lr`` and
    optionally ``weight_decay``. Construction copies each group's parameters
    into one flat buffer and rebinds every ``Tensor.data`` to a view of it,
    so ``step`` packs the gradients (``Tensor.grad``; a missing one counts as
    zero) into a flat gradient buffer and runs one ``adamw_step`` per group.
    Raises ``ValueError`` on an empty group or a tensor listed twice, and
    ``step`` raises ``RuntimeError`` if a parameter's ``.data`` was rebound
    since, which would leave it out of training.
    """

    def __init__(self, groups: list[dict], betas: tuple[float, float] = (0.9, 0.999),
                 weight_decay: float = 0.0):
        seen: set[int] = set()
        for group in groups:
            tensors = group["params"]
            if not tensors:
                raise ValueError("optimizer group has no parameters")
            for t in tensors:
                if id(t) in seen:
                    raise ValueError(f"{t} appears twice in the optimizer groups")
                seen.add(id(t))
        self.groups = groups
        self.betas = betas
        self.default_weight_decay = weight_decay
        self._flat = [_FlatGroup(group["params"]) for group in groups]

    def step(self, lr_scale: float = 1.0) -> None:
        for group, flat in zip(self.groups, self._flat):
            adamw_step(
                [flat.params],
                [flat.pack_grads()],
                flat.state,
                lr=group["lr"] * lr_scale,
                betas=self.betas,
                weight_decay=group.get("weight_decay", self.default_weight_decay),
            )

    def zero_grad(self) -> None:
        for group in self.groups:
            for t in group["params"]:
                t.zero_grad()


class _FlatGroup:
    """One group's parameters and gradients as flat buffers, with each
    parameter's ``.data`` rebound to a view of the parameter buffer, and
    the group's AdamW state."""

    def __init__(self, tensors: list[Tensor]):
        self.state = AdamWState()
        self.tensors = list(tensors)
        sizes = [t.data.size for t in tensors]
        edges = np.cumsum([0] + sizes)
        self.params = np.empty(edges[-1])
        self.grads = np.empty(edges[-1])
        self.views = []
        self.grad_views = []
        for t, lo, hi in zip(tensors, edges[:-1], edges[1:]):
            view = self.params[lo:hi].reshape(t.shape)
            view[...] = t.data
            t.data = view
            self.views.append(view)
            self.grad_views.append(self.grads[lo:hi].reshape(t.shape))

    def pack_grads(self) -> np.ndarray:
        for t, view, gview in zip(self.tensors, self.views, self.grad_views):
            if t.data is not view:
                raise RuntimeError(f"{t}'s data was rebound after the "
                                   "optimizer was built")
            if t.grad is None:
                gview.fill(0.0)
            elif t.grad.shape != view.shape:
                raise ValueError(f"shape mismatch: param {view.shape} vs "
                                 f"grad {t.grad.shape}")
            else:
                gview[...] = t.grad
        return self.grads
