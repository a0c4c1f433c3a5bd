"""Evaluation metrics: calibration, accuracy, top-1 mean class precision,
subset-confidence inversion auditing, and the entropy/confidence export.

All functions are pure; file writers emit comma-separated text with floats
formatted as %.17g so identical runs produce byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import MultimodalBatch
from .model import class_probs, predict_subset
from .subsets import SubsetMask, subset_lattice

__all__ = [
    "CalibrationReport",
    "InversionAudit",
    "ece",
    "map_at_1",
    "top1_accuracy",
    "confidence_correct",
    "audit_confidences",
    "inversion_audit",
    "entropy_confidence_export",
    "format_value",
    "write_csv",
]


@dataclass(frozen=True)
class CalibrationReport:
    """Equal-width-bin calibration summary.

    ``bin_edges`` has bins+1 boundaries over [0, 1]; per-bin arrays use 0 for
    empty bins (their count is 0, so they contribute nothing to the score).
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray
    ece: float
    n: int


def ece(confidences: np.ndarray, correct: np.ndarray, bins: int = 15) -> CalibrationReport:
    """Expected calibration error over equal-width bins.

    Bin k covers [k/bins, (k+1)/bins), the last bin closed at 1. Empty bins
    are skipped; the score is sum_k (n_k/n) * |acc_k - conf_k|.
    """
    conf = np.asarray(confidences, dtype=np.float64).ravel()
    corr = np.asarray(correct, dtype=bool).ravel()
    if conf.size == 0:
        raise ValueError("need at least one prediction")
    if conf.shape != corr.shape:
        raise ValueError("confidences and correct must align")
    if not ((conf >= 0.0) & (conf <= 1.0)).all():  # NaN fails too
        raise ValueError("confidences must lie in [0, 1]")
    if bins < 1:
        raise ValueError("need at least one bin")

    idx = np.minimum((conf * bins).astype(np.int64), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=bins)
    acc_sum = np.bincount(idx, weights=corr.astype(np.float64), minlength=bins)

    nonempty = counts > 0
    mean_conf = np.zeros(bins)
    accuracy = np.zeros(bins)
    mean_conf[nonempty] = conf_sum[nonempty] / counts[nonempty]
    accuracy[nonempty] = acc_sum[nonempty] / counts[nonempty]

    n = conf.size
    score = float(np.sum(counts[nonempty] / n
                         * np.abs(accuracy[nonempty] - mean_conf[nonempty])))
    return CalibrationReport(
        bin_edges=np.linspace(0.0, 1.0, bins + 1), counts=counts,
        mean_confidence=mean_conf, accuracy=accuracy, ece=score, n=n)


def map_at_1(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean over classes of the precision of top-1 predictions.

    Per sample take the argmax class (ties to the lowest index); per class,
    precision = hits / times predicted; classes never predicted are skipped.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape:
        raise ValueError("need [n, classes] logits and binary labels")
    if logits.shape[0] == 0:
        raise ValueError("need at least one sample")
    top = logits.argmax(axis=1)
    precisions = []
    for c in range(logits.shape[1]):
        sel = top == c
        if sel.any():
            precisions.append(float(labels[sel, c].mean()))
    return float(np.mean(precisions))


def top1_accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose argmax class (ties to the lowest index)
    equals the integer label."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels).ravel()
    if logits.ndim != 2 or labels.shape[0] != logits.shape[0]:
        raise ValueError("need [n, classes] logits and one label per row")
    if logits.shape[0] == 0:
        raise ValueError("need at least one sample")
    return float((logits.argmax(axis=1) == labels.astype(np.int64)).mean())


def confidence_correct(logits: np.ndarray, labels: np.ndarray,
                       multilabel: bool, temperature: float = 1.0
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample max-class probability of ``logits / temperature`` (softmax,
    or per-class sigmoid when multi-label) and whether that class is a true
    label: the inputs of ``ece``."""
    probs = class_probs(logits / temperature, multilabel)
    pred = probs.argmax(axis=1)
    if multilabel:
        correct = labels[np.arange(len(pred)), pred].astype(bool)
    else:
        correct = pred == labels.astype(np.int64)
    return probs.max(axis=1), correct


@dataclass(frozen=True)
class InversionAudit:
    """Confidence monotonicity audit over the strict-inclusion lattice:
    observing strictly more modalities must not lower confidence."""

    pairs: tuple[tuple[SubsetMask, SubsetMask], ...]
    counts: np.ndarray          # inversions per pair
    mean_violation: np.ndarray  # mean positive confidence gap per pair
    n: int

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    @property
    def rate(self) -> float:
        return self.total_count / (self.n * len(self.pairs))


def audit_confidences(conf_by_subset, pairs) -> InversionAudit:
    """Count samples with conf(A) > conf(B) over precomputed subset confidences."""
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("need at least one subset pair")

    def conf(subset: SubsetMask) -> np.ndarray:
        if subset not in conf_by_subset:
            raise ValueError(f"no confidence entry for subset {subset}")
        return np.asarray(conf_by_subset[subset], dtype=np.float64)

    n = conf(pairs[0][0]).shape[0]
    for pair in pairs:
        for subset in pair:
            if conf(subset).shape != (n,):
                raise ValueError("subset confidence vectors differ in length")
    counts = np.zeros(len(pairs), dtype=np.int64)
    violation = np.zeros(len(pairs))
    for i, (small, big) in enumerate(pairs):
        gap = conf(small) - conf(big)
        counts[i] = int((gap > 0.0).sum())
        violation[i] = float(np.maximum(gap, 0.0).mean())
    return InversionAudit(pairs=pairs, counts=counts,
                          mean_violation=violation, n=n)


def inversion_audit(model, batch: MultimodalBatch) -> InversionAudit:
    """Count samples with conf(A) > conf(B) for every strict pair A in B."""
    modalities = batch.num_modalities
    if modalities > 4:
        raise ValueError("full lattice audit is limited to 4 modalities")
    pairs = subset_lattice(modalities)
    conf_by_subset: dict[SubsetMask, np.ndarray] = {}
    for pair in pairs:
        for subset in pair:
            if subset not in conf_by_subset:
                conf_by_subset[subset] = predict_subset(model, batch, subset).confidence.data
    return audit_confidences(conf_by_subset, pairs)


def entropy_confidence_export(out) -> np.ndarray:
    """Per-sample (gate entropy, confidence) rows of a ``ForwardOutput``,
    for external plotting."""
    return np.column_stack([out.gate_entropy, out.confidence.data])


def format_value(value) -> str:
    """Stable text for CSV cells; floats use %.17g (round-trip exact)."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path, header: list[str], rows) -> None:
    """Comma-separated text with a header row and %.17g float formatting."""
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
