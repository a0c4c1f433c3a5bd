"""Composite training objective.

total = task + lam * ent + gamma * cec + beta * mask

where ``ent`` is the mean negative gate entropy (so positive ``lam`` pushes
the gate toward spread-out mixture weights), ``cec`` is the squared hinge on
confidence inversions between nested observed subsets, and ``mask`` is a
reserved slot that is identically zero in this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import MultimodalBatch
from .model import forward, lattice_forward
from .subsets import SubsetMask, subset_lattice

__all__ = [
    "LossBreakdown",
    "task_loss",
    "entropy_penalty",
    "cec_loss",
    "cec_pairs",
    "subset_confidences",
    "composite_loss",
    "step_loss",
]


@dataclass(frozen=True)
class LossBreakdown:
    """Scalar components of one objective evaluation.

    Invariant: total == task + lam * ent + gamma * cec + beta * mask
    (up to float round-off). ``lam`` is the mean coefficient when the
    entropy weight is per-sample.
    """

    total: float
    task: float
    ent: float
    cec: float
    mask: float
    lam: float
    gamma: float
    beta: float

    def composed(self) -> float:
        return (self.task + self.lam * self.ent + self.gamma * self.cec
                + self.beta * self.mask)


def task_loss(logits: T.Tensor, labels: np.ndarray, multilabel: bool = False) -> T.Tensor:
    """Mean cross-entropy (single-label) or mean BCE over all entries."""
    if multilabel:
        return T.bce_with_logits(logits, labels)
    idx = np.asarray(labels)
    if idx.ndim != 1 or idx.shape[0] != logits.shape[0]:
        raise ValueError("labels must be one class index per row")
    picked = T.pick(T.log_softmax(logits), idx.astype(np.int64))
    return T.mul_scalar(T.mean_all(picked), -1.0)


def entropy_penalty(p: T.Tensor) -> T.Tensor:
    """Mean over rows of sum_m p log p, i.e. negative mean gate entropy."""
    rows = p.data
    if rows.ndim != 2:
        raise ValueError("entropy_penalty expects [n, m] rows")
    if rows.min() < -1e-9 or np.abs(rows.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("rows are not on the probability simplex")
    return T.mul_scalar(T.mean_all(T.entropy_rows(p)), -1.0)


def cec_pairs(modalities: int, rng: np.random.Generator | None = None,
              limit: int = 8) -> list[tuple[SubsetMask, SubsetMask]]:
    """Strict-inclusion subset pairs used by the consistency penalty.

    Exhaustive up to 4 modalities; beyond that a fixed-size sample keeps the
    per-step cost bounded (requires an rng).
    """
    pairs = subset_lattice(modalities)
    if modalities <= 4 or len(pairs) <= limit:
        return pairs
    if rng is None:
        raise ValueError("rng required to sample pairs for modalities > 4")
    chosen = rng.choice(len(pairs), size=limit, replace=False)
    return [pairs[i] for i in sorted(chosen)]


def subset_confidences(model, batch: MultimodalBatch,
                       pairs: list[tuple[SubsetMask, SubsetMask]],
                       uniform_gate: bool = False) -> dict[SubsetMask, T.Tensor]:
    """Per-sample confidence for every subset a pair mentions, from one
    stacked forward over a view of the batch per subset."""
    return lattice_forward(model, batch, pairs, uniform_gate=uniform_gate)[1]


def cec_loss(conf_by_subset: dict[SubsetMask, T.Tensor],
             pairs: list[tuple[SubsetMask, SubsetMask]]) -> T.Tensor:
    """Mean over pairs and samples of relu(conf(A) - conf(B))^2 for A strictly
    inside B: seeing more modalities must not look less confident."""
    if not pairs:
        raise ValueError("need at least one subset pair")

    def conf(subset: SubsetMask) -> T.Tensor:
        if subset not in conf_by_subset:
            raise ValueError(f"no confidence entry for subset {subset}")
        return conf_by_subset[subset]

    total = None
    for small, big in pairs:
        if not small.is_strict_subset_of(big):
            raise ValueError(f"pair ({small}, {big}) is not strict inclusion")
        gap = T.relu(T.sub(conf(small), conf(big)))
        term = T.mean_all(T.mul(gap, gap))
        total = term if total is None else T.add(total, term)
    return T.mul_scalar(total, 1.0 / len(pairs))


def composite_loss(logits: T.Tensor, p: T.Tensor, labels: np.ndarray, *,
                   lam: float | np.ndarray, gamma: float, beta: float = 0.0,
                   cec: T.Tensor | None = None, multilabel: bool = False,
                   lam_min: float = 0.0) -> tuple[T.Tensor, LossBreakdown]:
    """Assemble the full objective on the active tape.

    ``lam`` may be a scalar or a per-sample vector (instance-adaptive mode);
    every entry must be >= ``lam_min``. The returned breakdown reports the
    mean coefficient and an effective entropy term that keeps the invariant
    total == task + lam * ent + gamma * cec + beta * mask.
    """
    if gamma < 0 or beta < 0:
        raise ValueError("gamma and beta must be nonnegative")
    if gamma > 0 and cec is None:
        raise ValueError("gamma > 0 needs a consistency term")
    task = task_loss(logits, labels, multilabel=multilabel)
    ent_rows = T.entropy_rows(p)
    n = ent_rows.shape[0]

    lam_arr = np.asarray(lam, dtype=np.float64)
    if lam_arr.ndim == 0:
        lam_value = float(lam_arr)
        if lam_value < lam_min:
            raise ValueError(f"lam={lam_value} below floor {lam_min}")
        ent_term = T.mul_scalar(T.mul_scalar(T.mean_all(ent_rows), -1.0), lam_value)
        lam_report = lam_value
    else:
        if lam_arr.shape != (n,):
            raise ValueError("per-sample lam must have one entry per row")
        if (lam_arr < lam_min).any():
            raise ValueError("per-sample lam entry below floor")
        ent_term = T.mul_scalar(T.dot_const(ent_rows, lam_arr / n), -1.0)
        lam_report = float(lam_arr.mean())

    ent_report = (ent_term.item() / lam_report if lam_report > 0.0
                  else -float(np.mean(ent_rows.data)))

    total = T.add(task, ent_term)
    if cec is not None:
        total = T.add(total, T.mul_scalar(cec, gamma))
        cec_report = cec.item()
    else:
        cec_report = 0.0
    mask_report = 0.0  # reserved component, identically zero

    breakdown = LossBreakdown(
        total=total.item(), task=task.item(), ent=ent_report,
        cec=cec_report, mask=mask_report,
        lam=lam_report, gamma=float(gamma), beta=float(beta),
    )
    return total, breakdown


def step_loss(model, batch: MultimodalBatch, clean: MultimodalBatch,
              pairs: list[tuple[SubsetMask, SubsetMask]] | None, *,
              lam: float | np.ndarray, gamma: float, beta: float = 0.0,
              multilabel: bool = False,
              uniform_gate: bool = False) -> tuple[T.Tensor, LossBreakdown]:
    """Objective of one training step on the active tape, from one forward.

    ``batch`` is the curriculum-masked minibatch and ``clean`` the same rows
    unmasked. Without pairs the forward covers ``batch`` alone and the
    consistency term is off. With pairs, ``batch`` is stacked above one view
    of ``clean`` per subset the pairs mention; the task and entropy terms
    read the first ``batch.n`` rows, the consistency term the views.
    """
    if pairs is None:
        out = forward(model, batch, uniform_gate=uniform_gate)
        return composite_loss(out.logits, out.p, batch.labels, lam=lam,
                              gamma=0.0, beta=beta, multilabel=multilabel)
    out, conf = lattice_forward(model, clean, pairs, head=batch,
                                uniform_gate=uniform_gate)
    n = batch.n
    return composite_loss(T.rows(out.logits, 0, n), T.rows(out.p, 0, n),
                          batch.labels, lam=lam, gamma=gamma, beta=beta,
                          cec=cec_loss(conf, pairs), multilabel=multilabel)
