"""Synthetic multimodal datasets and modality-masking utilities.

Features play the role of frozen encoder outputs: each class has a Gaussian
prototype per modality and samples observe prototype + noise at a
per-modality signal-to-noise ratio. Every train and eval path masks a
modality by clearing its presence flag in a ``keep_observed`` view; no
package path calls ``apply_mask``, which zero-fills a masked copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import stream

__all__ = [
    "SyntheticSpec",
    "MultimodalBatch",
    "generate",
    "apply_mask",
    "bernoulli_mask",
    "keep_observed",
    "last_axis_first",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and noise profile of a generated dataset."""

    modalities: int = 2
    classes: int = 10
    dims: tuple[int, ...] = (32, 32)
    snr: tuple[float, ...] = (1e6, 1e6)
    n_train: int = 6000
    n_val: int = 1000
    n_test: int = 1000
    seed: int = 0
    multilabel: bool = False
    extra_label_rate: float = 0.1

    def __post_init__(self):
        if self.modalities < 2:
            raise ValueError("need at least 2 modalities")
        if len(self.dims) != self.modalities or any(d < 1 for d in self.dims):
            raise ValueError("dims must list one dimension >= 1 per modality")
        if (len(self.snr) != self.modalities
                or any(not 0 < s < np.inf for s in self.snr)):
            raise ValueError("snr must list one positive finite ratio "
                             "per modality")
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        for name, n in (("n_train", self.n_train), ("n_val", self.n_val),
                        ("n_test", self.n_test)):
            if n < self.classes:
                raise ValueError(f"{name}={n} too small to cover {self.classes} classes")
        if not 0.0 <= self.extra_label_rate < 1.0:
            raise ValueError("extra_label_rate must be in [0, 1)")


@dataclass
class MultimodalBatch:
    """Per-modality feature matrices, presence mask and labels.

    features[m] is [n, d_m]; presence is [n, M] bool; labels is [n] int64
    class indices, or [n, C] float64 {0,1} targets in multi-label mode,
    which the labels' rank alone sets (checked: a bool presence with a
    modality in every row, and 1-D or 2-D labels). A model pass weighs the
    features of a modality a row does not observe by exactly 0, so they may
    hold any finite values (``apply_mask`` zeroes them).
    """

    features: list = field(default_factory=list)
    presence: np.ndarray = None
    labels: np.ndarray = None

    def __post_init__(self):
        n = self.n
        for m, f in enumerate(self.features):
            if f.shape[0] != n:
                raise ValueError(f"modality {m} row count {f.shape[0]} != {n}")
        if self.presence.shape != (n, self.num_modalities):
            raise ValueError("presence shape mismatch")
        if self.presence.dtype != bool:  # an int 0/1 matrix would index rows
            raise ValueError(f"presence is {self.presence.dtype}, not bool")
        empty = n - int(last_axis_first(self.presence).any(axis=0).sum())
        if empty:
            raise ValueError(f"{empty} of {n} rows observe no modality")
        if self.labels.ndim not in (1, 2):
            raise ValueError("labels must be 1-D class indices or 2-D 0/1 "
                             "targets")
        if self.labels.shape[0] != n:
            raise ValueError("label count mismatch")

    @property
    def multilabel(self) -> bool:
        return self.labels.ndim == 2

    @property
    def n(self) -> int:
        return self.features[0].shape[0]

    @property
    def num_modalities(self) -> int:
        return len(self.features)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.features)

    def take(self, idx: np.ndarray) -> "MultimodalBatch":
        """Row subset for an integer index array, e.g. for minibatching.
        Fancy indexing already returns copies."""
        return MultimodalBatch(
            features=[f[idx] for f in self.features],
            presence=self.presence[idx],
            labels=self.labels[idx],
        )

    def copy(self) -> "MultimodalBatch":
        return self.take(np.arange(self.n))


def _make_labels(n: int, classes: int, rng: np.random.Generator) -> np.ndarray:
    # tiled round-robin then shuffled: every class guaranteed present
    reps = -(-n // classes)
    labels = np.tile(np.arange(classes, dtype=np.int64), reps)[:n]
    rng.shuffle(labels)
    return labels


def generate(spec: SyntheticSpec) -> tuple[MultimodalBatch, MultimodalBatch, MultimodalBatch]:
    """Generate disjoint train/val/test batches, deterministic per SyntheticSpec."""
    proto_rng = stream(spec.seed, "data:prototypes")
    label_rng = stream(spec.seed, "data:labels")
    noise_rng = stream(spec.seed, "data:noise")

    prototypes = [proto_rng.standard_normal((spec.classes, d)) for d in spec.dims]

    total = spec.n_train + spec.n_val + spec.n_test
    labels = _make_labels(total, spec.classes, label_rng)

    features = []
    for m in range(spec.modalities):  # prototype + sigma * noise, no temporary
        sigma = 1.0 / np.sqrt(spec.snr[m])
        noise = noise_rng.standard_normal((total, spec.dims[m]))
        noise *= sigma
        noise += prototypes[m][labels]
        features.append(noise)

    if spec.multilabel:
        y = np.zeros((total, spec.classes), dtype=np.float64)
        y[np.arange(total), labels] = 1.0
        extras = label_rng.random((total, spec.classes)) < spec.extra_label_rate
        labels = np.maximum(y, extras.astype(np.float64))

    presence = np.ones((total, spec.modalities), dtype=bool)
    a, b = spec.n_train, spec.n_train + spec.n_val
    # disjoint row slices: no split shares memory with another
    return tuple(MultimodalBatch(features=[f[rows] for f in features],
                                 presence=presence[rows],
                                 labels=labels[rows])
                 for rows in (slice(0, a), slice(a, b), slice(b, total)))


def apply_mask(batch: MultimodalBatch,
               per_sample: np.ndarray) -> MultimodalBatch:
    """Return a copy of the batch with modalities masked out.

    ``per_sample`` is an [n, M] boolean keep-matrix applied on top of the
    presence. Masked features become the zero fill vector and presence
    flags are cleared. Raises if any sample would end up with no observed
    modality.
    """
    per_sample = np.asarray(per_sample, dtype=bool)
    if per_sample.shape != batch.presence.shape:
        raise ValueError(f"per_sample mask shape {per_sample.shape} != "
                         f"{batch.presence.shape}")
    keep = batch.presence & per_sample
    if not keep.any(axis=1).all():
        raise ValueError("masking would leave a sample with no observed modality")
    out = batch.copy()
    out.presence = keep
    for m in range(out.num_modalities):
        out.features[m][~keep[:, m]] = 0.0
    return out


def bernoulli_mask(n: int, modalities: int, pi: float,
                   rng: np.random.Generator) -> np.ndarray:
    """IID keep-mask: each (sample, modality) kept with probability 1 - pi.

    Rows that drop every modality are redrawn, so the result never leaves a
    sample empty.
    """
    if not 0.0 <= pi < 1.0:
        raise ValueError(f"drop rate must be in [0, 1), got {pi}")
    keep = rng.random((n, modalities)) >= pi
    empty = np.flatnonzero(~last_axis_first(keep).any(axis=0))
    for _ in range(10_000):
        if not empty.size:
            return keep
        keep[empty] = rng.random((empty.size, modalities)) >= pi
        empty = empty[~keep[empty].any(axis=1)]  # only redrawn rows change
    raise RuntimeError("resampling failed to produce non-empty rows")


def keep_observed(presence: np.ndarray, keep: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """What a mask draw or subset leaves each row: the [..., n, M] views
    ``presence & keep`` (``keep`` broadcasts: an [n, M] draw, an [M] subset
    or [S, 1, M] subsets) and the [..., n] mask ``live`` of the rows they
    leave a modality. A row that is not live keeps its presence, a filler."""
    if np.shape(keep)[-1] != presence.shape[-1]:
        raise ValueError("subset length does not match the modality count")
    view = presence & keep
    live = last_axis_first(view).any(axis=0)
    if not live.all():  # the skipped no-op write was 4% of train-instance-m2
        view[~live] = np.broadcast_to(presence, view.shape)[~live]
    return view, live


def last_axis_first(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``a`` with its last axis first, so that a
    reduction over a short modality or class axis runs across rows, where
    NumPy is far faster (README, library map)."""
    return a.transpose(-1, *range(a.ndim - 1)).copy()
