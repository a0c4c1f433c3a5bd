"""Composite training objective and one training step's gradients.

total = task + lam * ent + gamma * cec

where ``task`` is the mean cross-entropy (mean BCE over every entry when
the labels are 2-D 0/1 targets, the multi-label mode), ``ent`` the mean
negative gate entropy (so positive ``lam`` pushes the gate toward
spread-out mixture weights) and ``cec`` the squared hinge on confidence
inversions between nested observed subsets, on the rows where the smaller
one is live (``data.keep_observed``).
``composite_loss`` computes the objective and its gradients with respect to
the logits and the gate weights in plain NumPy, and ``step_loss`` chains
them through the model pass. ``task_term`` is the task term alone, which
``trainer.fit_temperature`` also minimises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MultimodalBatch, keep_observed, last_axis_first
from .model import class_probs, entropy_rows, forward, forward_pullback
from .subsets import EXHAUSTIVE_MAX, SubsetLattice, subset_lattice

__all__ = [
    "LossBreakdown",
    "cec_loss",
    "cec_pairs",
    "subset_confidences",
    "task_term",
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


def cec_pairs(modalities: int, rng: np.random.Generator | None = None,
              limit: int = 8) -> SubsetLattice:
    """The strict-inclusion lattice the consistency penalty runs over.

    Exhaustive up to ``EXHAUSTIVE_MAX`` modalities; beyond that a fixed-size
    sample keeps the per-step cost bounded (requires an rng).
    """
    lattice = subset_lattice(modalities)
    if modalities <= EXHAUSTIVE_MAX or len(lattice.pairs) <= limit:
        return lattice
    if rng is None:
        raise ValueError("rng required to sample pairs for modalities > "
                         f"{EXHAUSTIVE_MAX}")
    chosen = rng.choice(len(lattice.pairs), size=limit, replace=False)
    return lattice.select(np.sort(chosen))


def subset_confidences(model, batch: MultimodalBatch,
                       lattice: SubsetLattice) -> np.ndarray:
    """[S, n] per-sample confidence for each of the lattice's subsets, row s
    equal to the confidence of ``predict_subset(model, batch,
    lattice.subsets[s])`` up to round-off: one ``forward`` over a view of
    the batch's rows per subset, read back in row blocks."""
    views = keep_observed(batch.presence, lattice.subsets[:, None])[0]
    return forward(model, batch, views).confidence.data.reshape(-1, batch.n)


def cec_loss(conf: np.ndarray, pairs, weight: float = 1.0,
             live: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Mean over index pairs (a, b) and columns of relu(conf[a] - conf[b])^2
    for [V, n] confidences whose row a views a subset strictly inside row
    b's: seeing more modalities must not look less confident, where row a
    is ``live`` ([V, n] bool; elsewhere a term adds 0). Returns the value
    and the gradient of ``weight`` times it with respect to ``conf``.

    The pair terms are summed in pair order, and each row's gradient sums
    its terms in reverse pair order."""
    conf = np.asarray(conf, dtype=np.float64)
    pairs = np.asarray(pairs, dtype=np.int64)
    if conf.ndim != 2 or conf.shape[1] == 0:
        raise ValueError(f"confidences {conf.shape} need [V, n] with n > 0")
    if pairs.ndim != 2 or pairs.shape[1] != 2 or len(pairs) == 0:
        raise ValueError("need at least one (a, b) index pair")
    if pairs.min() < 0 or pairs.max() >= len(conf):
        raise ValueError(f"pair index out of range for {len(conf)} rows")
    small, big = pairs[:, 0], pairs[:, 1]
    diff = conf[small] - conf[big]
    if live is not None:
        diff = np.where(live[small], diff, 0.0)
    gap = np.maximum(diff, 0.0)
    n = conf.shape[1]
    scale = 1.0 / len(pairs)
    value = float(np.cumsum((gap * gap).sum(axis=1) / n)[-1] * scale)
    g = float(weight * scale) / n * gap
    g += g
    g *= diff > 0.0
    # one unbuffered add over the rows [small[K-1], big[K-1], small[K-2],
    # ...] with values [g, -g], so each row sums its terms in reverse pair
    # order; on flat indices, which np.add.at runs faster than row indices
    grad = np.zeros(conf.shape)  # C order, so the flat view is a view
    np.add.at(grad.reshape(-1),
              (pairs[::-1, :, None] * n + np.arange(n)).ravel(),
              (g[::-1, None] * np.array([[1.0], [-1.0]])).ravel())
    return value, grad


def task_term(z: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of the logit rows ``z`` against one class index
    per row (with 2-D ``labels``, mean BCE over every entry against 0/1
    targets of ``z``'s shape), and its gradient with respect to ``z``."""
    n = len(z)
    if np.ndim(labels) == 2:
        t = np.asarray(labels, dtype=np.float64)
        if t.shape != z.shape:
            raise ValueError(f"target shape {t.shape} != logits shape {z.shape}")
        value = (np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean()
        # d value / d z = (sigmoid(z) - t) / (n * C)
        return value, (class_probs(z, multilabel=True) - t) * (1.0 / z.size)
    idx = np.asarray(labels)
    if idx.ndim != 1 or idx.shape[0] != n:
        raise ValueError("labels must be one class index per row")
    idx = idx.astype(np.int64)
    if idx.min() < 0 or idx.max() >= z.shape[1]:
        raise ValueError("label out of range")
    # shift by each row's max, taken across rows, as class_probs
    shifted = z - last_axis_first(z).max(axis=0)[:, None]
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    at = (np.arange(n), idx)
    # d value / d z = (softmax(z) - onehot(labels)) / n
    grad = np.exp(log_probs) * (1.0 / n)
    grad[at] -= 1.0 / n
    return -log_probs[at].mean(), grad


def composite_loss(logits: np.ndarray, p: np.ndarray, labels: np.ndarray, *,
                   lam: float | np.ndarray, gamma: float,
                   rows: np.ndarray | None = None,
                   pairs: np.ndarray | None = None,
                   live: np.ndarray | None = None
                   ) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """The objective over V views of n labelled rows, and its gradients
    with respect to ``logits`` and ``p``.

    ``logits`` [V * n, C] and gate weights ``p`` [V * n, M] hold row i of
    view v at v * n + i. The task and entropy terms read the n distinct
    rows ``rows`` picks (default: every row, V = 1), scored against
    ``labels`` as ``task_term`` does. The consistency term, on when
    ``pairs`` is given, is ``cec_loss`` over every row's max-class
    confidence (sigmoid with 2-D labels) as a [V, n] array, the view index
    ``pairs`` and ``live``.

    ``lam`` may be a scalar or a per-sample vector (instance-adaptive mode);
    every entry must be nonnegative. The returned breakdown reports the
    mean coefficient and an effective entropy term that keeps the invariant
    total == task + lam * ent + gamma * cec.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma > 0 and pairs is None:
        raise ValueError("gamma > 0 needs subset pairs")
    if logits.ndim != 2 or p.ndim != 2 or len(p) != len(logits):
        raise ValueError(f"logits {logits.shape} and gate weights {p.shape} "
                         "need one row each per view row")
    z, w = logits, p
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if (rows.ndim != 1 or rows.size == 0 or rows.min() < 0
                or rows.max() >= len(z) or np.bincount(rows).max() > 1):
            raise ValueError("rows must be distinct indices of logit rows")
        z, w = z[rows], w[rows]
    n = len(z)

    task, g_task = task_term(z, labels)

    lam_arr = np.asarray(lam, dtype=np.float64)
    ent_rows = entropy_rows(w)
    if lam_arr.ndim == 0:
        lam_report = float(lam_arr)
        if lam_report < 0.0:
            raise ValueError(f"lam={lam_report} is negative")
        ent_term = -ent_rows.mean() * lam_report
    else:
        if lam_arr.shape != (n,):
            raise ValueError("per-sample lam must have one entry per row")
        if (lam_arr < 0.0).any():
            raise ValueError("per-sample lam entry is negative")
        ent_term = -(ent_rows @ (lam_arr / n))
        lam_report = float(lam_arr.mean())
    ent_report = (ent_term / lam_report if lam_report > 0.0
                  else -float(np.mean(ent_rows)))
    # d ent_term / d w = -(log w + 1) * coef where w > 0, else 0
    pos = w > 0.0
    coef = -lam_arr / n  # d ent_term / d ent_rows, per row or for all
    g_w = (np.where(pos, -(np.log(np.where(pos, w, 1.0)) + 1.0), 0.0)
           * (coef[:, None] if coef.ndim else coef))

    g_p = g_w
    if rows is not None:
        g_p = np.zeros_like(p)
        g_p[rows] = g_w
    total, cec = task + ent_term, 0.0
    if pairs is None:
        g_logits = g_task
        if rows is not None:
            g_logits = np.zeros_like(logits)
            g_logits[rows] = g_task
    else:
        if len(logits) % n:
            raise ValueError(f"{len(logits)} logit rows are not views of "
                             f"{n} rows")
        multilabel = np.ndim(labels) == 2
        probs = class_probs(logits, multilabel)
        top = (np.arange(len(probs)), probs.argmax(axis=1))
        p_top = probs[top]
        cec, g_conf = cec_loss(p_top.reshape(-1, n), pairs, gamma, live)
        # through each row's max into its softmax (or sigmoids) of the
        # logits: the probabilities' gradient is g_top at the top entry and
        # 0 elsewhere, so its row sum with them is s = g_top * p_top, and
        # 0 - s is its entry minus s off the top
        g_top = g_conf.ravel()
        if multilabel:
            g_logits = np.zeros_like(probs)
            g_logits[top] = g_top * p_top * (1.0 - p_top)
        else:
            s = g_top * p_top
            g_logits = probs * (0.0 - s)[:, None]
            g_logits[top] = p_top * (g_top - s)
        if rows is None:
            g_logits += g_task
        else:
            g_logits[rows] += g_task
        total = total + cec * gamma

    breakdown = LossBreakdown(
        total=float(total), task=float(task), ent=float(ent_report),
        cec=cec, lam=lam_report, gamma=float(gamma))
    return breakdown, g_logits, g_p


def step_loss(model, batch: MultimodalBatch, keep: np.ndarray,
              lattice: SubsetLattice | None, *, lam: float | np.ndarray,
              gamma: float) -> LossBreakdown:
    """Objective of one training step; its gradients are added into
    ``model.base.grads`` and ``model.gate.grads``.

    ``keep`` is the minibatch's [n, M] curriculum-masked presence, inside
    ``batch.presence``. Without a lattice, one pass over the ``keep`` view
    feeds the task and entropy terms and the consistency term is off. With
    one, the pass holds the lattice subsets' ``keep_observed`` views, which
    the consistency term reads over the lattice's pairs and live rows, and
    the task and entropy terms read each row from a view with its ``keep``
    pattern, or from ``keep`` itself as one extra view if none has it.
    """
    keep = np.asarray(keep, dtype=bool)
    views, rows, pairs, live = keep[None], None, None, None
    if lattice is None:
        gamma = 0.0
    else:
        n = batch.n
        if keep.shape != batch.presence.shape:
            raise ValueError(f"keep {keep.shape} needs {batch.presence.shape}")
        views, live = keep_observed(batch.presence, lattice.subsets[:, None])
        held = last_axis_first(views == keep).all(axis=0)  # [V, n]
        if not held.any(axis=0).all():
            views = np.concatenate([views, keep[None]])
            held = np.concatenate([held, np.ones((1, n), dtype=bool)])
        rows, pairs = held.argmax(axis=0) * n + np.arange(n), lattice.pairs
    out, pullback = forward_pullback(model, batch, views)
    breakdown, g_logits, g_p = composite_loss(
        out.logits.data, out.p.data, batch.labels, lam=lam, gamma=gamma,
        rows=rows, pairs=pairs, live=live)
    pullback(g_logits, g_p)
    return breakdown
