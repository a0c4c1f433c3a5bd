"""Evaluation metrics: calibration, accuracy, top-1 mean class precision,
subset-confidence inversion auditing, and the entropy/confidence export.

All functions are pure; file writers emit comma-separated text with floats
formatted as %.17g so identical runs produce byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import MultimodalBatch, keep_observed
from .model import class_probs, forward_views, top_class, top_class_prob
from .subsets import EXHAUSTIVE_MAX, SubsetLattice, subset_lattice

__all__ = [
    "CalibrationReport",
    "InversionAudit",
    "ece",
    "ece_rows",
    "map_at_1",
    "top1_accuracy",
    "confidence_correct",
    "audit_confidences",
    "check_audit",
    "audit_block",
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
    are skipped; the score is sum_k (n_k/n) * |acc_k - conf_k|. The one-view
    case of ``ece_rows``.
    """
    conf = np.asarray(confidences, dtype=np.float64).ravel()
    corr = np.asarray(correct, dtype=bool).ravel()
    return ece_rows(conf[None], corr[None], bins)[0]


def ece_rows(conf: np.ndarray, correct: np.ndarray,
             bins: int = 15) -> list[CalibrationReport]:
    """``ece`` of each row of the [V, n] confidences and bool ``correct``,
    binned for every row in one pass: row v's rows fill bins
    v * bins ... v * bins + bins - 1 of one ``np.bincount``, in their order,
    so each report is bit for bit that of ``ece`` on its row alone. The
    reports share one read-only ``bin_edges`` array."""
    conf = np.asarray(conf, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    if conf.shape[1:] == (0,):
        raise ValueError("need at least one prediction")
    if conf.ndim != 2 or conf.shape != correct.shape:
        raise ValueError("confidences and correct must align")
    if not ((conf >= 0.0) & (conf <= 1.0)).all():  # NaN fails too
        raise ValueError("confidences must lie in [0, 1]")
    if bins < 1:
        raise ValueError("need at least one bin")

    views, n = conf.shape
    idx = (conf * bins).astype(np.int64)
    np.minimum(idx, bins - 1, out=idx)
    idx += np.arange(0, views * bins, bins)[:, None]
    size = views * bins
    counts = np.bincount(idx.ravel(), minlength=size).reshape(views, bins)
    conf_sum = np.bincount(idx.ravel(), weights=conf.ravel(),
                           minlength=size).reshape(views, bins)
    # a sum of ones is exact, so the correct rows' count is their sum
    acc_sum = np.bincount(idx[correct], minlength=size).reshape(views, bins)

    nonempty = counts > 0
    mean_conf = np.zeros((views, bins))
    accuracy = np.zeros((views, bins))
    mean_conf[nonempty] = conf_sum[nonempty] / counts[nonempty]
    accuracy[nonempty] = acc_sum[nonempty] / counts[nonempty]
    gaps = np.zeros((views, bins))
    gaps[nonempty] = counts[nonempty] / n * np.abs(accuracy[nonempty]
                                                  - mean_conf[nonempty])
    edges = np.linspace(0.0, 1.0, bins + 1)
    edges.flags.writeable = False
    # each score sums its nonempty bins alone: NumPy's sum rounds by count
    return [CalibrationReport(
        bin_edges=edges, counts=counts[v], mean_confidence=mean_conf[v],
        accuracy=accuracy[v], ece=float(np.sum(gaps[v][nonempty[v]])), n=n)
        for v in range(views)]


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
    """Fraction of rows whose logit argmax (ties to the lowest index) is the
    label: the single-label score metric rows take from ``confidence_correct``
    (tests hold that score to this function)."""
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
    """Per-sample probability under ``logits / temperature`` (softmax, or
    per-class sigmoid when multi-label) of the logits' argmax class, which no
    temperature moves, and whether it is a true label: ``ece``'s inputs.
    The class and the softmax's row max come from one ``top_class`` pass."""
    peak, top = top_class(logits)
    if multilabel:
        rows = np.arange(len(logits))
        return (class_probs(logits[rows, top] / temperature, True),
                labels[rows, top].astype(bool))
    if temperature != 1.0:
        # dividing by T > 0 rounds monotonically, so each row's max of
        # logits / T is its max divided by T
        logits, peak = logits / temperature, peak / temperature
    return (top_class_prob(logits, False, peak),
            top == labels.astype(np.int64))


@dataclass(frozen=True)
class InversionAudit:
    """Confidence monotonicity audit over the strict-inclusion lattice:
    observing strictly more modalities must not lower confidence. A pair
    counts where its small subset is live (``keep_observed``), as in cec."""

    subsets: np.ndarray         # [S, M] bool subset rows
    pairs: np.ndarray           # [P, 2] (small, big) rows of ``subsets``
    counts: np.ndarray          # inversions per pair
    mean_violation: np.ndarray  # mean positive confidence gap per pair
    n: int
    rows: np.ndarray            # rows each pair counts on

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    @property
    def rate(self) -> float:
        return self.total_count / max(int(self.rows.sum()), 1)


def audit_confidences(conf: np.ndarray, lattice: SubsetLattice,
                      presence: np.ndarray | None = None) -> InversionAudit:
    """Count, per lattice pair (A, B), the samples with conf(A) > conf(B),
    given [S, n] confidences whose row s is the lattice's subset s, over
    the rows where A is live in [n, M] ``presence`` (default: every row)."""
    conf = np.asarray(conf, dtype=np.float64)
    s = len(lattice.subsets)
    if conf.ndim != 2 or conf.shape[0] != s or conf.shape[1] == 0:
        raise ValueError(f"confidences {conf.shape} need [{s}, n] with n > 0")
    live = (np.ones(conf.shape, bool) if presence is None  # no subset is empty
            else keep_observed(presence, lattice.subsets[:, None])[1])
    return _count_inversions(conf, lattice, live)


def _count_inversions(conf: np.ndarray, lattice: SubsetLattice,
                      live: np.ndarray) -> InversionAudit:
    """``audit_confidences`` of checked confidences and [S, n] live rows."""
    small, big = lattice.pairs.T
    live = live[small]
    gap, rows = np.where(live, conf[small] - conf[big], 0.0), live.sum(axis=1)
    return InversionAudit(subsets=lattice.subsets, pairs=lattice.pairs,
                          counts=(gap > 0.0).sum(axis=1),
                          mean_violation=(np.maximum(gap, 0.0).sum(axis=1)
                                          / np.maximum(rows, 1)),
                          n=conf.shape[1], rows=rows)


def check_audit(modalities: int) -> None:
    """Raise ``ValueError`` past the audit's ``EXHAUSTIVE_MAX`` modalities."""
    if modalities > EXHAUSTIVE_MAX:
        raise ValueError("full lattice audit is limited to "
                         f"{EXHAUSTIVE_MAX} modalities")


def audit_block(batch: MultimodalBatch):
    """``check_audit``, then the lattice block of a ``forward_views`` table:
    the batch's [S, n, M] subset views, and ``read(passes, index)``, their
    audit from the pass rows of their [S, n] ``index``."""
    check_audit(batch.num_modalities)
    lattice = subset_lattice(batch.num_modalities)
    views, live = keep_observed(batch.presence, lattice.subsets[:, None])
    return views, lambda passes, index: _count_inversions(
        passes.confidence.data[index], lattice, live)


def inversion_audit(model, batch: MultimodalBatch) -> InversionAudit:
    """Count samples with conf(A) > conf(B) for every strict pair A in B,
    with one ``forward_views`` table of the batch's ``audit_block``."""
    views, read = audit_block(batch)
    return read(*forward_views(model, batch, views))


def entropy_confidence_export(out) -> np.ndarray:
    """Per-sample (gate entropy, confidence) rows of a ``ForwardOutput``,
    for external plotting. A one-hot gate row's entropy reads 0, not -0."""
    return np.column_stack([out.gate_entropy + 0.0, out.confidence.data])


def format_value(value) -> str:
    """Stable text for CSV cells; floats use %.17g (round-trip exact)."""
    if type(value) is float:  # most cells: no isinstance chain
        return "%.17g" % value
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
