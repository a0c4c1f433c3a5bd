"""Composite training objective.

total = task + lam * ent + gamma * cec

where ``ent`` is the mean negative gate entropy (so positive ``lam`` pushes
the gate toward spread-out mixture weights) and ``cec`` is the squared hinge
on confidence inversions between nested observed subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import MultimodalBatch
from .model import forward
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

    Invariant: total == task + lam * ent + gamma * cec
    (up to float round-off). ``lam`` is the mean coefficient when the
    entropy weight is per-sample.
    """

    total: float
    task: float
    ent: float
    cec: float
    lam: float
    gamma: float

    def composed(self) -> float:
        return self.task + self.lam * self.ent + self.gamma * self.cec


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


def _views(pairs: list[tuple[SubsetMask, SubsetMask]], presence: np.ndarray
           ) -> tuple[list[SubsetMask], np.ndarray]:
    """The subsets the pairs mention, in first-mention order, and their
    [V, n, M] views of rows with this presence: each subset's modalities
    that the row observes."""
    if not pairs:
        raise ValueError("need at least one subset pair")
    subsets = list(dict.fromkeys(s for pair in pairs for s in pair))
    bits = np.array([s.bits for s in subsets], dtype=bool)
    if bits.shape[1] != presence.shape[1]:
        raise ValueError("subset length does not match the modality count")
    return subsets, bits[:, None, :] & presence[None]


def _confidences(out, subsets: list[SubsetMask], n: int
                 ) -> dict[SubsetMask, T.Tensor]:
    return {s: T.gather(out.confidence, np.arange(v * n, (v + 1) * n))
            for v, s in enumerate(subsets)}


def subset_confidences(model, batch: MultimodalBatch,
                       pairs: list[tuple[SubsetMask, SubsetMask]]
                       ) -> dict[SubsetMask, T.Tensor]:
    """Per-sample confidence for every subset a pair mentions, each equal
    to ``predict_subset(model, batch, subset).confidence`` up to round-off:
    one ``forward`` over a view of the batch's rows per subset, read back
    in row blocks."""
    subsets, views = _views(pairs, batch.presence)
    return _confidences(forward(model, batch, views), subsets, batch.n)


def cec_loss(conf_by_subset: dict[SubsetMask, T.Tensor],
             pairs: list[tuple[SubsetMask, SubsetMask]]) -> T.Tensor:
    """Mean over pairs and samples of relu(conf(A) - conf(B))^2 for A strictly
    inside B: seeing more modalities must not look less confident. One tape
    node (``T.hinge_pairs``) for any number of pairs."""
    if not pairs:
        raise ValueError("need at least one subset pair")
    index: dict[SubsetMask, int] = {}
    for small, big in pairs:
        if not small.is_strict_subset_of(big):
            raise ValueError(f"pair ({small}, {big}) is not strict inclusion")
        for subset in (small, big):
            if subset not in conf_by_subset:
                raise ValueError(f"no confidence entry for subset {subset}")
            index.setdefault(subset, len(index))
    return T.hinge_pairs([conf_by_subset[s] for s in index],
                         [(index[small], index[big]) for small, big in pairs])


def composite_loss(logits: T.Tensor, p: T.Tensor, labels: np.ndarray, *,
                   lam: float | np.ndarray, gamma: float,
                   cec: T.Tensor | None = None, multilabel: bool = False,
                   lam_min: float = 0.0) -> tuple[T.Tensor, LossBreakdown]:
    """Assemble the full objective on the active tape.

    ``lam`` may be a scalar or a per-sample vector (instance-adaptive mode);
    every entry must be >= ``lam_min``. The returned breakdown reports the
    mean coefficient and an effective entropy term that keeps the invariant
    total == task + lam * ent + gamma * cec.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
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

    breakdown = LossBreakdown(
        total=total.item(), task=task.item(), ent=ent_report,
        cec=cec_report, lam=lam_report, gamma=float(gamma),
    )
    return total, breakdown


def step_loss(model, batch: MultimodalBatch, keep: np.ndarray,
              pairs: list[tuple[SubsetMask, SubsetMask]] | None, *,
              lam: float | np.ndarray, gamma: float,
              multilabel: bool = False) -> tuple[T.Tensor, LossBreakdown]:
    """Objective of one training step on the active tape.

    ``batch`` holds the minibatch rows and ``keep`` their [n, M]
    curriculum-masked presence, inside ``batch.presence``. Without pairs,
    one ``forward`` over the ``keep`` view feeds the task and entropy terms
    and the consistency term is off. With pairs, one ``forward`` holds a
    view per subset the pairs mention, which the consistency term reads;
    the task and entropy terms read each masked row from a view whose row
    has the same presence pattern. That is every row when all nonempty
    subsets are viewed (up to 4 modalities); rows no view holds get one
    extra view, ``keep`` itself.
    """
    keep = np.asarray(keep, dtype=bool)
    if pairs is None:
        out = forward(model, batch, keep[None])
        return composite_loss(out.logits, out.p, batch.labels, lam=lam,
                              gamma=0.0, multilabel=multilabel)
    n = batch.n
    if keep.shape != batch.presence.shape:
        raise ValueError(f"keep {keep.shape} needs {batch.presence.shape}")
    subsets, views = _views(pairs, batch.presence)
    held = (views == keep).all(axis=2)  # [V, n]
    if not held.any(axis=0).all():
        views = np.concatenate([views, keep[None]])
        held = np.concatenate([held, np.ones((1, n), dtype=bool)])
    out = forward(model, batch, views)
    idx = held.argmax(axis=0) * n + np.arange(n)
    return composite_loss(T.gather(out.logits, idx), T.gather(out.p, idx),
                          batch.labels, lam=lam, gamma=gamma,
                          cec=cec_loss(_confidences(out, subsets, n), pairs),
                          multilabel=multilabel)
