"""End-to-end training loop with ablation switches and dropout evaluation.

One epoch: refresh the mask teacher, advance the warm-up schedules, then for
each shuffled minibatch sample a modality mask, run the gated forward pass
(with the consistency penalty on, one pass over the masked batch stacked
above the clean batch's subset views), assemble task + entropy +
consistency losses on the tape, and take one
decoupled-weight-decay Adam step (gate parameters at their own learning
rate, cosine decay on both groups).

Named RNG streams keyed by the run seed keep the data order identical
across ablations of the same seed, so switched-off components are the only
difference between runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .curriculum import (Schedules, acm_distribution, sample_keep,
                         schedule_lambda, schedule_pi)
from .data import MultimodalBatch, apply_mask, bernoulli_mask
from .losses import LossBreakdown, cec_pairs, step_loss
from .metrics import ece, map_at_1, top1_accuracy
from .model import FusionConfig, FusionModel, forward
from .optim import AdamW, cosine_lr
from .rng import stream
from .uncertainty import LambdaConfig, calibrate_vmax, lambda_of, with_vmax

__all__ = [
    "TrainConfig",
    "Switches",
    "RunResult",
    "DivergenceError",
    "apply_ablation",
    "train",
    "evaluate_under_dropout",
    "fit_temperature",
]

ABLATIONS = ("full", "no_entropy", "no_curmask", "no_gate", "single_modality")


class DivergenceError(RuntimeError):
    """Training loss went non-finite or blew past the divergence guard."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 128
    lr_base: float = 5e-3
    lr_gate: float = 5e-2  # gate group keeps the 10x ratio over base
    weight_decay: float = 0.01
    schedules: Schedules = field(default_factory=lambda: Schedules(mode="acm"))
    lam_mode: str = "scheduled"  # "scheduled" or "instance"
    gamma: float = 0.1
    beta: float = 0.0
    ablation: str = "full"
    single_modality_index: int = 0
    seed: int = 0
    temp_scaling: bool = False
    fused_dim: int = 32
    gate_hidden: int | None = None
    lambda_cfg: LambdaConfig = field(default_factory=LambdaConfig)
    acm_family: str = "single_drops"
    probe_size: int = 512
    cec_pair_limit: int = 8
    eval_rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.5)
    eval_seeds: int = 5
    divergence_factor: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.lr_base <= self.lr_gate:
            raise ValueError("need lr_gate >= lr_base > 0")
        if self.gamma < 0.0 or self.beta < 0.0:
            raise ValueError("gamma and beta must be nonnegative")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.lam_mode not in ("scheduled", "instance"):
            raise ValueError(f"unknown lam_mode {self.lam_mode!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        if any(not 0.0 <= r < 1.0 for r in self.eval_rates):
            raise ValueError("eval rates must be in [0, 1)")
        if self.eval_seeds < 1 or self.probe_size < 1:
            raise ValueError("eval_seeds and probe_size must be positive")
        if self.divergence_factor <= 1.0:
            raise ValueError("divergence_factor must exceed 1")


@dataclass(frozen=True)
class Switches:
    """Effective component toggles after resolving the ablation tag."""

    lam_on: bool = True
    mask_on: bool = True
    gate_on: bool = True
    cec_on: bool = True
    keep_only: int | None = None


def apply_ablation(cfg: TrainConfig) -> Switches:
    tag = cfg.ablation
    if tag == "full":
        return Switches()
    if tag == "no_entropy":
        return Switches(lam_on=False)
    if tag == "no_curmask":
        return Switches(mask_on=False)
    if tag == "no_gate":
        return Switches(gate_on=False)
    if tag == "single_modality":
        # one observed modality: subset consistency is vacuous, masking
        # would empty samples, so both are off
        return Switches(mask_on=False, cec_on=False,
                        keep_only=cfg.single_modality_index)
    raise ValueError(f"unknown ablation {tag!r}")


@dataclass
class RunResult:
    history: list[LossBreakdown]
    metric_history: list[dict]
    eval_table: dict[float, dict[str, float]]
    model: FusionModel
    config_hash: str
    wall_clock: float
    temperature: float | None
    v_max: float | None


def run_config_hash(cfg: TrainConfig, fcfg: FusionConfig) -> str:
    blob = json.dumps({"train": asdict(cfg), "model": asdict(fcfg)},
                      sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _infer_classes(*batches: MultimodalBatch) -> int:
    first = batches[0]
    if first.multilabel:
        return first.labels.shape[1]
    return int(max(b.labels.max() for b in batches)) + 1


def _keep_single(batch: MultimodalBatch, index: int) -> MultimodalBatch:
    keep = np.zeros_like(batch.presence)
    keep[:, index] = True
    return apply_mask(batch, per_sample=keep)


def _scaled_scores(logits: np.ndarray, multilabel: bool,
                   temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """(confidence, predicted class) after temperature scaling."""
    z = logits / temperature
    if multilabel:
        probs = 1.0 / (1.0 + np.exp(-np.abs(z)))
        probs = np.where(z >= 0, probs, 1.0 - probs)
    else:
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
    return probs.max(axis=1), probs.argmax(axis=1)


def _metric_row(logits: np.ndarray, labels: np.ndarray, multilabel: bool,
                temperature: float = 1.0) -> dict[str, float]:
    conf, pred = _scaled_scores(logits, multilabel, temperature)
    if multilabel:
        score = map_at_1(logits, labels)
        correct = labels[np.arange(len(pred)), pred].astype(bool)
    else:
        score = top1_accuracy(logits, labels)
        correct = pred == labels.astype(np.int64)
    return {"score": score, "ece": ece(conf, correct).ece}


def train(cfg: TrainConfig, data: tuple[MultimodalBatch, MultimodalBatch, MultimodalBatch]) -> RunResult:
    """Run the full curriculum-masked training recipe on (train, val, test)."""
    t_start = time.perf_counter()
    train_b, val_b, test_b = data
    sw = apply_ablation(cfg)
    modalities = train_b.num_modalities
    classes = _infer_classes(train_b, val_b, test_b)
    multilabel = train_b.multilabel

    if sw.keep_only is not None:
        if not 0 <= sw.keep_only < modalities:
            raise ValueError("single_modality_index out of range")
        train_b = _keep_single(train_b, sw.keep_only)
        val_b = _keep_single(val_b, sw.keep_only)
        test_b = _keep_single(test_b, sw.keep_only)

    fcfg = FusionConfig(
        modalities=modalities, dims=train_b.dims, classes=classes,
        fused_dim=cfg.fused_dim, gate_hidden=cfg.gate_hidden,
        multilabel=multilabel, dropout_rate=cfg.lambda_cfg.rate)
    model = FusionModel.init(fcfg, stream(cfg.seed, "init"))
    model.fit_norm(train_b)

    opt = AdamW(groups=[
        {"params": model.gate_parameters(), "lr": cfg.lr_gate},
        {"params": model.base_parameters(), "lr": cfg.lr_base},
    ], weight_decay=cfg.weight_decay)

    data_rng = stream(cfg.seed, "data")
    mask_rng = stream(cfg.seed, "masking")
    drop_rng = stream(cfg.seed, "dropout")

    lam_cfg = cfg.lambda_cfg
    v_max = None
    if cfg.lam_mode == "instance" and sw.lam_on:
        v_max = calibrate_vmax(model, val_b, lam_cfg, drop_rng)
        lam_cfg = with_vmax(lam_cfg, v_max)

    pairs = None
    if cfg.gamma > 0.0 and sw.cec_on:
        pairs = cec_pairs(modalities, rng=stream(cfg.seed, "pairs"),
                          limit=cfg.cec_pair_limit)

    probe = train_b.take(np.arange(min(cfg.probe_size, train_b.n)))
    sched = cfg.schedules
    n = train_b.n
    steps = max(1, (n + cfg.batch_size - 1) // cfg.batch_size)
    history: list[LossBreakdown] = []
    metric_history: list[dict] = []
    ref_total = None

    for epoch in range(1, cfg.epochs + 1):
        pi_t = schedule_pi(epoch, sched) if sw.mask_on else 0.0
        lam_t = 0.0
        if sw.lam_on and cfg.lam_mode == "scheduled":
            lam_t = schedule_lambda(epoch, sched)
        dist = None
        if sw.mask_on and sched.mode == "acm":
            dist = acm_distribution(model, probe, sched.eta, cfg.acm_family)
        lr_scale = cosine_lr(1.0, epoch - 1, max(cfg.epochs, 1))

        perm = data_rng.permutation(n)
        sums = np.zeros(5)  # total, task, ent, cec, lam
        for step in range(steps):
            idx = perm[step * cfg.batch_size:(step + 1) * cfg.batch_size]
            if idx.size == 0:
                continue
            clean = train_b.take(idx)
            if sw.mask_on and pi_t > 0.0:
                if sched.mode == "acm":
                    keep = sample_keep(dist, pi_t, idx.size, mask_rng)
                else:
                    keep = bernoulli_mask(idx.size, modalities, pi_t, mask_rng)
                batch = apply_mask(clean, per_sample=keep)
            else:
                batch = clean

            if sw.lam_on and cfg.lam_mode == "instance":
                lam = lambda_of(model, batch, lam_cfg, drop_rng)
            else:
                lam = lam_t

            with T.Tape() as tape:
                total, bd = step_loss(
                    model, batch, clean, pairs, lam=lam, gamma=cfg.gamma,
                    beta=cfg.beta, multilabel=multilabel,
                    uniform_gate=not sw.gate_on)
                if ref_total is None:
                    ref_total = bd.total
                guard = cfg.divergence_factor * max(abs(ref_total), 1e-3)
                if not np.isfinite(bd.total) or bd.total > guard:
                    raise DivergenceError(
                        f"loss {bd.total} at epoch {epoch} step {step} "
                        f"exceeds guard {guard} (reference {ref_total})")
                tape.backward(total)
            opt.step(lr_scale=lr_scale)
            opt.zero_grad()
            sums += (bd.total, bd.task, bd.ent, bd.cec, bd.lam)

        mean = sums / steps
        history.append(LossBreakdown(
            total=float(mean[0]), task=float(mean[1]), ent=float(mean[2]),
            cec=float(mean[3]), mask=0.0, lam=float(mean[4]),
            gamma=cfg.gamma, beta=cfg.beta))
        val_out = forward(model, val_b, uniform_gate=not sw.gate_on)
        row = _metric_row(val_out.logits.data, val_b.labels, multilabel)
        row["epoch"] = epoch
        row["gate_entropy"] = float(val_out.gate_entropy.data.mean())
        metric_history.append(row)

    temperature = None
    if cfg.temp_scaling:
        val_out = forward(model, val_b, uniform_gate=not sw.gate_on)
        temperature = fit_temperature(val_out.logits.data, val_b.labels,
                                      multilabel=multilabel)

    eval_table = evaluate_under_dropout(
        model, test_b, rates=cfg.eval_rates, seeds=cfg.eval_seeds,
        seed=cfg.seed, temperature=temperature or 1.0,
        uniform_gate=not sw.gate_on, frozen_mask=sw.keep_only is not None)

    return RunResult(
        history=history, metric_history=metric_history, eval_table=eval_table,
        model=model, config_hash=run_config_hash(cfg, fcfg),
        wall_clock=time.perf_counter() - t_start,
        temperature=temperature, v_max=v_max)


def evaluate_under_dropout(model: FusionModel, batch: MultimodalBatch,
                           rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.5),
                           seeds: int = 5, seed: int = 0,
                           temperature: float = 1.0,
                           uniform_gate: bool = False,
                           frozen_mask: bool = False) -> dict[float, dict[str, float]]:
    """Metrics under test-time modality dropout.

    For each rate, metrics are averaged over ``seeds`` independent mask
    draws; rate 0 is the unmasked column. ``frozen_mask`` skips masking
    entirely (single-modality runs: the input interface is fixed).
    """
    if any(not 0.0 <= r < 1.0 for r in rates):
        raise ValueError("rates must be in [0, 1)")
    multilabel = model.cfg.multilabel
    table: dict[float, dict[str, float]] = {}
    for r_index, rate in enumerate(rates):
        draws = 1 if rate == 0.0 or frozen_mask else seeds
        acc = {"score": 0.0, "ece": 0.0, "gate_entropy": 0.0}
        for s in range(draws):
            if rate > 0.0 and not frozen_mask:
                rng = stream(seed, f"eval:{r_index}:{s}")
                keep = bernoulli_mask(batch.n, batch.num_modalities, rate, rng)
                masked = apply_mask(batch, per_sample=keep)
            else:
                masked = batch
            out = forward(model, masked, uniform_gate=uniform_gate)
            row = _metric_row(out.logits.data, masked.labels, multilabel,
                              temperature=temperature)
            acc["score"] += row["score"]
            acc["ece"] += row["ece"]
            acc["gate_entropy"] += float(out.gate_entropy.data.mean())
        table[rate] = {k: v / draws for k, v in acc.items()}
    return table


def fit_temperature(logits: np.ndarray, labels: np.ndarray,
                    multilabel: bool = False,
                    bounds: tuple[float, float] = (0.05, 20.0),
                    iters: int = 200) -> float:
    """Golden-section search for the temperature minimizing validation loss
    of logits / T. Applied at evaluation only."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("need a nonempty validation set")
    if float(np.ptp(logits)) == 0.0:
        raise ValueError("degenerate logits: all entries identical")

    if multilabel:
        targets = np.asarray(labels, dtype=np.float64)

        def nll(t: float) -> float:
            z = logits / t
            return float(np.mean(np.maximum(z, 0.0) - z * targets
                                 + np.log1p(np.exp(-np.abs(z)))))
    else:
        idx = np.asarray(labels).astype(np.int64)
        rows = np.arange(logits.shape[0])

        def nll(t: float) -> float:
            z = logits / t
            z = z - z.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(z).sum(axis=1))
            return float(np.mean(log_norm - z[rows, idx]))

    lo, hi = bounds
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = nll(c), nll(d)
    for _ in range(iters):
        if b - a < 1e-10:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = nll(d)
    return float((a + b) / 2.0)
