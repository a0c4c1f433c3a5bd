"""Entropy-gated mixture fusion: gate MLP, weighted fusion, task head.

The gate sees standardized features of every modality plus presence flags
and emits mixture weights on the probability simplex. Logits of absent
modalities are masked before the softmax, so weights renormalize over the
observed set only. Fusion is the gate-weighted sum of per-modality linear
projections, followed by a linear classification head.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .data import MultimodalBatch, apply_mask, stack_views
from .rng import stream
from .subsets import SubsetMask, subset_lattice, nonempty_subsets  # noqa: F401

__all__ = [
    "FusionConfig",
    "GateState",
    "FusionModel",
    "ForwardOutput",
    "gate_rows",
    "forward",
    "predict_subset",
    "lattice_forward",
    "subset_lattice",
    "SubsetMask",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class FusionConfig:
    modalities: int
    dims: tuple[int, ...]
    classes: int
    fused_dim: int = 32
    gate_hidden: int | None = None  # default 2 * sum(dims)
    multilabel: bool = False
    dropout_rate: float = 0.1

    def __post_init__(self):
        if len(self.dims) != self.modalities:
            raise ValueError("dims length must equal modality count")
        if self.classes < 1 or self.fused_dim < 1:
            raise ValueError("classes and fused_dim must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def gate_input_dim(self) -> int:
        return sum(self.dims) + self.modalities

    @property
    def gate_hidden_dim(self) -> int:
        return self.gate_hidden if self.gate_hidden is not None else 2 * sum(self.dims)


def config_hash(cfg: FusionConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class GateState:
    """Two-layer MLP over concat(features, presence flags) -> M logits."""

    w1: T.Tensor
    b1: T.Tensor
    w2: T.Tensor
    b2: T.Tensor

    def parameters(self) -> list[tuple[str, T.Tensor]]:
        return [("gate.w1", self.w1), ("gate.b1", self.b1),
                ("gate.w2", self.w2), ("gate.b2", self.b2)]


def _fan_in_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    bound = 1.0 / np.sqrt(shape[0])
    return rng.uniform(-bound, bound, size=shape)


class FusionModel:
    """Gate + per-modality projections + linear head, with train-set norm stats."""

    def __init__(self, cfg: FusionConfig, gate: GateState, proj: list[T.Tensor],
                 head_w: T.Tensor, head_b: T.Tensor,
                 norm_mean: list[np.ndarray], norm_std: list[np.ndarray]):
        self.cfg = cfg
        self.gate = gate
        self.proj = proj
        self.head_w = head_w
        self.head_b = head_b
        self.norm_mean = norm_mean
        self.norm_std = norm_std

    @classmethod
    def init(cls, cfg: FusionConfig, rng: np.random.Generator) -> "FusionModel":
        """Fan-in-uniform weights, zero biases; the gate output layer starts at
        zero so training begins from the equal-weight mixture."""
        hid = cfg.gate_hidden_dim
        gate = GateState(
            w1=T.Tensor(_fan_in_uniform(rng, (cfg.gate_input_dim, hid)), requires_grad=True),
            b1=T.Tensor(np.zeros(hid), requires_grad=True),
            w2=T.Tensor(np.zeros((hid, cfg.modalities)), requires_grad=True),
            b2=T.Tensor(np.zeros(cfg.modalities), requires_grad=True),
        )
        proj = [T.Tensor(_fan_in_uniform(rng, (d, cfg.fused_dim)), requires_grad=True)
                for d in cfg.dims]
        head_w = T.Tensor(_fan_in_uniform(rng, (cfg.fused_dim, cfg.classes)),
                          requires_grad=True)
        head_b = T.Tensor(np.zeros(cfg.classes), requires_grad=True)
        norm_mean = [np.zeros(d) for d in cfg.dims]
        norm_std = [np.ones(d) for d in cfg.dims]
        return cls(cfg, gate, proj, head_w, head_b, norm_mean, norm_std)

    @classmethod
    def from_seed(cls, cfg: FusionConfig, seed: int) -> "FusionModel":
        return cls.init(cfg, stream(seed, "init"))

    def fit_norm(self, train: MultimodalBatch) -> None:
        """Per-feature standardization statistics from observed train rows."""
        for m in range(self.cfg.modalities):
            rows = train.features[m][train.presence[:, m]]
            if rows.shape[0] == 0:
                continue
            self.norm_mean[m] = rows.mean(axis=0)
            self.norm_std[m] = np.maximum(rows.std(axis=0), 1e-8)

    def parameters(self) -> list[tuple[str, T.Tensor]]:
        params = self.gate.parameters()
        params += [(f"proj.{m}", w) for m, w in enumerate(self.proj)]
        params += [("head.w", self.head_w), ("head.b", self.head_b)]
        return params

    def gate_parameters(self) -> list[T.Tensor]:
        return [t for _, t in self.gate.parameters()]

    def base_parameters(self) -> list[T.Tensor]:
        return list(self.proj) + [self.head_w, self.head_b]

    def gate_input(self, batch: MultimodalBatch) -> np.ndarray:
        """Standardized features zeroed where absent, then presence flags."""
        cols = []
        for m in range(self.cfg.modalities):
            z = (batch.features[m] - self.norm_mean[m]) / self.norm_std[m]
            cols.append(z * batch.presence[:, m:m + 1])
        cols.append(batch.presence.astype(np.float64))
        return np.concatenate(cols, axis=1)


@dataclass
class ForwardOutput:
    """Per-sample gate weights, gate entropy (nats), fused features, logits
    and max-class confidence. Fields are tape tensors; use ``.data``."""

    p: T.Tensor
    gate_entropy: T.Tensor
    z: T.Tensor
    logits: T.Tensor
    confidence: T.Tensor


def gate_rows(model: FusionModel, batch: MultimodalBatch,
              uniform_gate: bool = False) -> T.Tensor:
    """Mixture weights over observed modalities, one simplex row per sample.

    With ``uniform_gate`` the weights are frozen at uniform over the observed
    modalities (no gradient to the gate).
    """
    cfg = model.cfg
    if batch.num_modalities != cfg.modalities or batch.dims != tuple(cfg.dims):
        raise ValueError(
            f"batch layout {batch.dims} does not match model {tuple(cfg.dims)}")
    presence = batch.presence
    if not presence.any(axis=1).all():
        raise ValueError("every sample needs at least one observed modality")

    if uniform_gate:
        weights = presence / presence.sum(axis=1, keepdims=True)
        return T.Tensor(weights)
    x_gate = T.Tensor(model.gate_input(batch))
    h1 = T.relu(T.add_bias(T.matmul(x_gate, model.gate.w1), model.gate.b1))
    gate_logits = T.add_bias(T.matmul(h1, model.gate.w2), model.gate.b2)
    return T.masked_softmax(gate_logits, presence)


def forward(model: FusionModel, batch: MultimodalBatch,
            uniform_gate: bool = False) -> ForwardOutput:
    """Full fusion pass. With ``uniform_gate`` the mixture weights are frozen
    at uniform over the observed modalities (no gradient to the gate)."""
    cfg = model.cfg
    p = gate_rows(model, batch, uniform_gate=uniform_gate)
    gate_entropy = T.entropy_rows(p)

    z = None
    for m in range(cfg.modalities):
        proj_m = T.matmul(T.Tensor(batch.features[m]), model.proj[m])
        term = T.row_scale(proj_m, T.col(p, m))
        z = term if z is None else T.add(z, term)

    logits = T.add_bias(T.matmul(z, model.head_w), model.head_b)
    if cfg.multilabel:
        confidence = T.row_max(T.sigmoid(logits))
    else:
        confidence = T.row_max(T.softmax(logits))
    return ForwardOutput(p=p, gate_entropy=gate_entropy, z=z,
                         logits=logits, confidence=confidence)


def predict_subset(model: FusionModel, batch: MultimodalBatch,
                   observed: SubsetMask, uniform_gate: bool = False) -> ForwardOutput:
    """Evaluate the predictor defined by an observed-modality subset.

    Identical to masking the complement of ``observed`` and running forward.
    """
    if observed.count == 0:
        raise ValueError("observed subset must be nonempty")
    masked = apply_mask(batch, drop=observed.complement())
    return forward(model, masked, uniform_gate=uniform_gate)


def lattice_forward(model: FusionModel, clean: MultimodalBatch,
                    pairs: list[tuple[SubsetMask, SubsetMask]],
                    head: MultimodalBatch | None = None,
                    uniform_gate: bool = False,
                    ) -> tuple[ForwardOutput, dict[SubsetMask, T.Tensor]]:
    """One forward over ``head`` (if given) stacked above one view of
    ``clean`` per subset the pairs mention (see ``stack_views``).

    Returns the stacked output, whose first ``head.n`` rows belong to
    ``head``, and each subset's confidence rows. Each subset's rows equal
    ``predict_subset(model, clean, subset)`` row for row, and gradients
    through them reach the parameters as they would through that call.
    """
    subsets = list(dict.fromkeys(s for pair in pairs for s in pair))
    out = forward(model, stack_views(clean, subsets, head=head),
                  uniform_gate=uniform_gate)
    lo = head.n if head is not None else 0
    conf = {}
    for subset in subsets:
        conf[subset] = T.rows(out.confidence, lo, lo + clean.n)
        lo += clean.n
    return out, conf


# ---------------------------------------------------------------------------
# checkpointing (.npz with a JSON config entry; layout documented in README)
# ---------------------------------------------------------------------------

def save_checkpoint(model: FusionModel, path) -> None:
    arrays = {name.replace(".", "_"): t.data for name, t in model.parameters()}
    for m in range(model.cfg.modalities):
        arrays[f"norm_mean_{m}"] = model.norm_mean[m]
        arrays[f"norm_std_{m}"] = model.norm_std[m]
    cfg_dict = asdict(model.cfg)
    cfg_dict["dims"] = list(cfg_dict["dims"])
    arrays["config_json"] = np.frombuffer(
        json.dumps(cfg_dict, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> FusionModel:
    with np.load(path) as z:
        cfg_dict = json.loads(bytes(z["config_json"].tobytes()).decode("utf-8"))
        cfg_dict["dims"] = tuple(cfg_dict["dims"])
        cfg = FusionConfig(**cfg_dict)
        model = FusionModel.from_seed(cfg, seed=0)
        for name, t in model.parameters():
            t.data = z[name.replace(".", "_")].astype(np.float64)
        model.norm_mean = [z[f"norm_mean_{m}"].astype(np.float64)
                           for m in range(cfg.modalities)]
        model.norm_std = [z[f"norm_std_{m}"].astype(np.float64)
                          for m in range(cfg.modalities)]
    return model
