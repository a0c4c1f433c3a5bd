"""Synthetic multimodal datasets and modality-masking utilities.

Features play the role of frozen encoder outputs: each class has a Gaussian
prototype per modality and samples observe prototype + noise at a
per-modality signal-to-noise ratio. A masked modality is replaced by the
zero fill vector and its presence flag is cleared.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .rng import stream
from .subsets import SubsetMask

__all__ = [
    "SyntheticSpec",
    "MultimodalBatch",
    "generate",
    "apply_mask",
    "stack_views",
    "bernoulli_mask",
    "save_dataset",
    "load_dataset",
]

_MAGIC = b"EFDS"
_FORMAT_VERSION = 1


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
        if len(self.snr) != self.modalities or any(s <= 0 for s in self.snr):
            raise ValueError("snr must list one positive ratio per modality")
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

    features[m] is [n, d_m]; presence is [n, M] bool; labels is [n] int64 in
    single-label mode or [n, C] float64 {0,1} in multi-label mode. Absent
    modalities hold the zero fill vector.
    """

    features: list = field(default_factory=list)
    presence: np.ndarray = None
    labels: np.ndarray = None
    multilabel: bool = False

    def __post_init__(self):
        n = self.n
        for m, f in enumerate(self.features):
            if f.shape[0] != n:
                raise ValueError(f"modality {m} row count {f.shape[0]} != {n}")
        if self.presence.shape != (n, self.num_modalities):
            raise ValueError("presence shape mismatch")
        if self.labels.shape[0] != n:
            raise ValueError("label count mismatch")

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
        """Row subset (copy), e.g. for minibatching."""
        return MultimodalBatch(
            features=[f[idx].copy() for f in self.features],
            presence=self.presence[idx].copy(),
            labels=self.labels[idx].copy(),
            multilabel=self.multilabel,
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
    for m in range(spec.modalities):
        sigma = 1.0 / np.sqrt(spec.snr[m])
        noise = noise_rng.standard_normal((total, spec.dims[m]))
        features.append(prototypes[m][labels] + sigma * noise)

    if spec.multilabel:
        y = np.zeros((total, spec.classes), dtype=np.float64)
        y[np.arange(total), labels] = 1.0
        extras = label_rng.random((total, spec.classes)) < spec.extra_label_rate
        y = np.maximum(y, extras.astype(np.float64))
        labels_out = y
    else:
        labels_out = labels

    presence = np.ones((total, spec.modalities), dtype=bool)
    full = MultimodalBatch(features=features, presence=presence,
                           labels=labels_out, multilabel=spec.multilabel)
    a, b = spec.n_train, spec.n_train + spec.n_val
    return (full.take(np.arange(0, a)),
            full.take(np.arange(a, b)),
            full.take(np.arange(b, full.n)))


def apply_mask(
    batch: MultimodalBatch,
    drop: SubsetMask | None = None,
    per_sample: np.ndarray | None = None,
) -> MultimodalBatch:
    """Return a copy of the batch with modalities masked out.

    ``drop`` marks modalities removed for every sample; ``per_sample`` is an
    [n, M] boolean keep-matrix applied on top. Masked features become the
    zero fill vector and presence flags are cleared. Raises if any sample
    would end up with no observed modality.
    """
    out = batch.copy()
    keep = out.presence
    if drop is not None:
        if len(drop.bits) != batch.num_modalities:
            raise ValueError("drop mask length != modality count")
        if all(drop.bits):
            raise ValueError("cannot drop all modalities")
        keep = keep & ~np.asarray(drop.bits, dtype=bool)[None, :]
    if per_sample is not None:
        per_sample = np.asarray(per_sample, dtype=bool)
        if per_sample.shape != keep.shape:
            raise ValueError(f"per_sample mask shape {per_sample.shape} != {keep.shape}")
        keep = keep & per_sample
    if not keep.any(axis=1).all():
        raise ValueError("masking would leave a sample with no observed modality")
    out.presence = keep
    for m in range(out.num_modalities):
        out.features[m][~keep[:, m]] = 0.0
    return out


def stack_views(batch: MultimodalBatch, observed: Sequence[SubsetMask],
                head: MultimodalBatch | None = None) -> MultimodalBatch:
    """Row-stack ``head`` (if given) above one view of ``batch`` per subset.

    The view for subset S keeps modality m of a row where m is in S and
    observed in that row; elsewhere it holds the zero fill vector with the
    presence flag cleared. Block for block this equals
    ``apply_mask(batch, drop=S.complement())``, built into one preallocated
    array per modality instead of a masked copy per subset. Rows left with
    no observed modality are not rejected here; the gate rejects them.
    """
    if not observed:
        raise ValueError("need at least one observed subset")
    if any(len(s.bits) != batch.num_modalities or s.count == 0
           for s in observed):
        raise ValueError("observed subsets must be nonempty and match the "
                         "modality count")
    if head is not None and (head.dims != batch.dims
                             or head.multilabel != batch.multilabel):
        raise ValueError("head batch layout does not match the viewed batch")
    n, k = batch.n, len(observed)
    n0 = head.n if head is not None else 0
    bits = np.array([s.bits for s in observed], dtype=bool)  # [k, M]
    view_presence = (bits[:, None, :] & batch.presence[None]).reshape(k * n, -1)
    features = []
    for m, f in enumerate(batch.features):
        stacked = np.zeros((n0 + k * n, f.shape[1]))
        if head is not None:
            stacked[:n0] = head.features[m]
        views = stacked[n0:].reshape(k, n, f.shape[1])
        views[bits[:, m]] = np.where(batch.presence[:, m:m + 1], f, 0.0)
        features.append(stacked)
    heads = [head] if head is not None else []
    return MultimodalBatch(
        features=features,
        presence=np.concatenate([h.presence for h in heads] + [view_presence]),
        labels=np.concatenate([h.labels for h in heads] + [batch.labels] * k),
        multilabel=batch.multilabel,
    )


def bernoulli_mask(n: int, modalities: int, pi: float,
                   rng: np.random.Generator) -> np.ndarray:
    """IID keep-mask: each (sample, modality) kept with probability 1 - pi.

    Rows that drop every modality are redrawn, so the result never leaves a
    sample empty.
    """
    if not 0.0 <= pi < 1.0:
        raise ValueError(f"drop rate must be in [0, 1), got {pi}")
    keep = rng.random((n, modalities)) >= pi
    for _ in range(10_000):
        empty = ~keep.any(axis=1)
        if not empty.any():
            return keep
        keep[empty] = rng.random((int(empty.sum()), modalities)) >= pi
    raise RuntimeError("resampling failed to produce non-empty rows")


# ---------------------------------------------------------------------------
# flat binary dump/load
# ---------------------------------------------------------------------------
# Layout (all integers int64 LE, all payload float64 LE):
#   magic "EFDS" | version | M | C | multilabel | n_train | n_val | n_test
#   | d_1 .. d_M | then per split (train, val, test):
#   features modality 1..M row-major, presence as 0.0/1.0, labels
#   (class indices as float64, or the [n, C] multi-hot matrix).

def _write_split(fh, batch: MultimodalBatch) -> None:
    for f in batch.features:
        fh.write(np.ascontiguousarray(f, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(batch.presence, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(batch.labels, dtype="<f8").tobytes())


def _read_split(fh, n: int, dims: tuple[int, ...], classes: int,
                multilabel: bool) -> MultimodalBatch:
    def read(count):
        buf = fh.read(count * 8)
        if len(buf) != count * 8:
            raise ValueError("truncated dataset file")
        return np.frombuffer(buf, dtype="<f8")

    features = [read(n * d).reshape(n, d).copy() for d in dims]
    presence = read(n * len(dims)).reshape(n, len(dims)) != 0.0
    if multilabel:
        labels = read(n * classes).reshape(n, classes).copy()
    else:
        labels = read(n).astype(np.int64)
    return MultimodalBatch(features=features, presence=presence,
                           labels=labels, multilabel=multilabel)


def save_dataset(path, train: MultimodalBatch, val: MultimodalBatch,
                 test: MultimodalBatch, classes: int) -> None:
    dims = train.dims
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        header = [_FORMAT_VERSION, train.num_modalities, classes,
                  int(train.multilabel), train.n, val.n, test.n, *dims]
        fh.write(struct.pack(f"<{len(header)}q", *header))
        for split in (train, val, test):
            _write_split(fh, split)


def load_dataset(path) -> tuple[MultimodalBatch, MultimodalBatch, MultimodalBatch, int]:
    """Returns (train, val, test, classes)."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a dataset file (bad magic)")
        version, m, classes, multilabel, n_train, n_val, n_test = struct.unpack(
            "<7q", fh.read(56))
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported dataset format version {version}")
        dims = struct.unpack(f"<{m}q", fh.read(8 * m))
        ml = bool(multilabel)
        train = _read_split(fh, n_train, dims, classes, ml)
        val = _read_split(fh, n_val, dims, classes, ml)
        test = _read_split(fh, n_test, dims, classes, ml)
    return train, val, test, classes
