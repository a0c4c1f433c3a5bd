"""AdamW with decoupled weight decay, plus the cosine learning-rate factor."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["adamw_step", "cosine_lr"]

BETAS = (0.9, 0.999)  # the moments' decay rates
EPS = 1e-8  # added to the second moment's root


def adamw_step(
    params: np.ndarray,
    grads: np.ndarray,
    state: dict,
    lr: float,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam update of ``params``, in place.

    Moments are bias-corrected; weight decay multiplies the parameter
    directly (not the gradient), scaled by lr. ``state`` starts as an empty
    dict, which the first call fills with the step counter, both moments
    and the scratch arrays every operation writes into.
    """
    if lr <= 0.0:
        raise ValueError(f"lr must be positive, got {lr}")
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch: param {params.shape} vs grad "
                         f"{grads.shape}")
    if not state:
        state.update(step=0, m=np.zeros_like(params), v=np.zeros_like(params),
                     s=np.empty_like(params), t=np.empty_like(params),
                     finite=np.empty(params.shape, dtype=bool))
    if not np.isfinite(grads, out=state["finite"]).all():
        raise ValueError("non-finite gradient")

    state["step"] += 1
    b1, b2 = BETAS
    bc1 = 1.0 - b1 ** state["step"]
    bc2 = 1.0 - b2 ** state["step"]
    m, v, s, t = (state[key] for key in "mvst")

    # the operations and their order are those of the expressions
    # (1 - b1) * g, (1 - b2) * g * g, lr * wd * p and
    # (lr / bc1) * m / (sqrt(v / bc2) + EPS), so the bits are too
    m *= b1
    m += np.multiply(1.0 - b1, grads, out=s)
    v *= b2
    v += np.multiply(np.multiply(1.0 - b2, grads, out=s), grads, out=s)
    if weight_decay != 0.0:
        params -= np.multiply(lr * weight_decay, params, out=s)
    np.sqrt(np.divide(v, bc2, out=s), out=s)
    s += EPS
    params -= np.divide(np.multiply(lr / bc1, m, out=t), s, out=t)


def cosine_lr(lr0: float, t: int, t_total: int) -> float:
    """lr_t = lr0 * 0.5 * (1 + cos(pi * t / t_total))."""
    if t_total <= 0:
        return lr0
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * min(t, t_total) / t_total))
