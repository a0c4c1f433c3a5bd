"""End-to-end training loop with ablation switches and dropout evaluation.

One epoch: refresh the mask teacher, advance the warm-up ramps, then for
each shuffled minibatch draw a modality mask inside each row's observed set,
run the gated forward pass over presence views of the minibatch rows (the
masked pattern, and with the consistency penalty on, one view per lattice
subset) and the task + entropy + consistency objective, whose gradients
``losses.step_loss`` adds into the model's flat buffers, and take one
decoupled-weight-decay Adam step per parameter group on them (gate
parameters at their own learning rate, cosine decay on both groups).
Every draw and subset view is ``data.keep_observed``'s, so any presence
that leaves each row a modality trains. Instance lambda reads the masked
pattern as presence too, and the single_modality ablation restricts each
split's presence to the kept modality: no path builds a zero-filled
masked copy.

Named RNG streams keyed by the run seed keep the data order identical
across ablations of the same seed, so switched-off components are the only
difference between runs.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .curriculum import (FAMILIES, Schedules, acm_distribution, ramp,
                         sample_keep)
from .data import MultimodalBatch, bernoulli_mask, keep_observed
from .losses import LossBreakdown, cec_pairs, step_loss, task_term
from .metrics import (confidence_correct, ece_rows,
                      entropy_confidence_export, map_at_1)
from .model import (ForwardOutput, FusionConfig, FusionModel, forward,
                    forward_views)
from .optim import adamw_step, cosine_lr
from .rng import stream
from .uncertainty import LambdaConfig, calibrate_vmax, lambda_of

__all__ = [
    "TrainConfig",
    "Switches",
    "RunResult",
    "DivergenceError",
    "apply_ablation",
    "check_rates",
    "train",
    "evaluate_under_dropout",
    "fit_temperature",
]


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
        if not 0.0 < self.lr_base <= self.lr_gate < np.inf:
            raise ValueError("need lr_gate >= lr_base > 0, both finite")
        if not (0.0 <= self.gamma < np.inf
                and 0.0 <= self.weight_decay < np.inf):
            raise ValueError("gamma and weight_decay must be finite and "
                             "nonnegative")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.lam_mode not in ("scheduled", "instance"):
            raise ValueError(f"unknown lam_mode {self.lam_mode!r}")
        if self.ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {self.ablation!r}")
        if self.acm_family not in FAMILIES:
            raise ValueError(f"unknown acm_family {self.acm_family!r}")
        check_rates(self.eval_rates)
        hidden = () if self.gate_hidden is None else (self.gate_hidden,)
        if min(self.eval_seeds, self.probe_size, self.cec_pair_limit,
               self.fused_dim, *hidden) < 1:
            raise ValueError("eval_seeds, probe_size, cec_pair_limit, "
                             "fused_dim and gate_hidden must be positive")
        if not 1.0 < self.divergence_factor < np.inf:
            raise ValueError("divergence_factor must be finite and exceed 1")


def check_rates(rates) -> None:
    """Raise ``ValueError`` unless the dropout rates are distinct and each
    lies in [0, 1): a rate keys its column of the evaluation table."""
    rates = tuple(rates)
    if not all(0.0 <= r < 1.0 for r in rates):  # NaN fails too
        raise ValueError(f"rates must be in [0, 1): {rates}")
    if len(set(rates)) != len(rates):
        raise ValueError(f"rates must be distinct: {rates}")


@dataclass(frozen=True)
class Switches:
    """Effective component toggles after resolving the ablation tag."""

    lam_on: bool = True
    mask_on: bool = True
    gate_on: bool = True
    cec_on: bool = True
    keep_only: int | None = None


# ablation tag -> its switches, in ablate.csv's row order; apply_ablation
# sets single_modality's kept index from the config
ABLATIONS = {
    "full": Switches(),
    "no_entropy": Switches(lam_on=False),
    "no_curmask": Switches(mask_on=False),
    "no_gate": Switches(gate_on=False),
    # one observed modality: subset consistency is vacuous, masking would
    # empty samples, so both are off
    "single_modality": Switches(mask_on=False, cec_on=False, keep_only=0),
}


def apply_ablation(cfg: TrainConfig) -> Switches:
    sw = ABLATIONS[cfg.ablation]
    if sw.keep_only is None:
        return sw
    return replace(sw, keep_only=cfg.single_modality_index)


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
    # the [n, 2] (gate entropy, confidence) rows of the test split's clean pass
    test_scatter: np.ndarray
    # seconds spent in the final dropout table on the test split
    eval_s: float = 0.0


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
    """The batch with presence restricted to modality ``index``. Raises
    ``ValueError`` if a row does not observe it."""
    if not batch.presence[:, index].all():
        raise ValueError("masking would leave a sample with no observed "
                         "modality")
    only = np.arange(batch.num_modalities) == index
    return replace(batch, presence=np.tile(only, (batch.n, 1)))


def _metric_rows(out: ForwardOutput, labels: np.ndarray, index: np.ndarray,
                 temperature: float = 1.0) -> list[dict[str, float]]:
    """Score, ECE at ``temperature`` and mean gate entropy of each view that
    a row of the [V, n] ``index`` gathers from ``out``'s rows, row k * n + i
    of ``out`` being a row with label ``labels[i]``. Each row's confidence,
    correctness and gate entropy are computed once, however many views
    read it, and all views are binned in one ``ece_rows`` pass."""
    logits = out.logits.data
    entropy = out.gate_entropy[index].mean(axis=1)
    passes = len(logits) // max(len(labels), 1)
    conf, correct = confidence_correct(
        logits, np.tile(labels, (passes, 1)[:labels.ndim]), out.multilabel,
        temperature)
    correct = correct[index]
    reports = ece_rows(conf[index], correct)
    scores = ([map_at_1(logits[rows], labels) for rows in index]
              if out.multilabel else correct.mean(axis=1))
    return [{"score": float(score), "ece": report.ece,
             "gate_entropy": float(h)}
            for score, report, h in zip(scores, reports, entropy)]


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
        multilabel=multilabel)
    model = FusionModel.from_seed(fcfg, cfg.seed)
    model.fit_norm(train_b)
    groups = [(model.base, cfg.lr_base, {})]
    if sw.gate_on:
        groups.append((model.gate, cfg.lr_gate, {}))
    else:
        # frozen at its zero-output initialisation, and out of the optimizer
        # so weight decay leaves it there, the gate weights every observed
        # modality equally (see gate_rows)
        model.gate_frozen = True

    data_rng = stream(cfg.seed, "data")
    mask_rng = stream(cfg.seed, "masking")

    v_max = None
    instance_lam = sw.lam_on and cfg.lam_mode == "instance"
    if instance_lam:
        v_max = calibrate_vmax(model, val_b, cfg.lambda_cfg)

    lattice = None
    if cfg.gamma > 0.0 and sw.cec_on:
        lattice = cec_pairs(modalities, rng=stream(cfg.seed, "pairs"),
                            limit=cfg.cec_pair_limit)

    probe = train_b.take(np.arange(min(cfg.probe_size, train_b.n)))
    sched = cfg.schedules
    n = train_b.n
    steps = max(1, (n + cfg.batch_size - 1) // cfg.batch_size)
    history: list[LossBreakdown] = []
    metric_history: list[dict] = []
    ref_total = None
    val_out = None

    for epoch in range(1, cfg.epochs + 1):
        pi_t = ramp(epoch, sched.t_warm, sched.pi_max) if sw.mask_on else 0.0
        lam_t = 0.0
        if sw.lam_on and cfg.lam_mode == "scheduled":
            lam_t = ramp(epoch, sched.t_lam, sched.lam_max)
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
            batch = train_b.take(idx)
            keep = batch.presence
            if sw.mask_on and pi_t > 0.0:
                if sched.mode == "acm":
                    draw = sample_keep(dist, pi_t, idx.size, mask_rng)
                else:
                    draw = bernoulli_mask(idx.size, modalities, pi_t, mask_rng)
                keep = keep_observed(keep, draw)[0]

            lam = lam_t
            if instance_lam:
                lam = lambda_of(model, replace(batch, presence=keep),
                                cfg.lambda_cfg, v_max)

            bd = step_loss(model, batch, keep, lattice, lam=lam,
                           gamma=cfg.gamma, multilabel=multilabel)
            if ref_total is None:
                ref_total = bd.total
            guard = cfg.divergence_factor * max(abs(ref_total), 1e-3)
            if not np.isfinite(bd.total) or bd.total > guard:
                raise DivergenceError(
                    f"loss {bd.total} at epoch {epoch} step {step} "
                    f"exceeds guard {guard} (reference {ref_total})")
            for group, lr, state in groups:
                adamw_step(group.params, group.grads, state, lr * lr_scale,
                           weight_decay=cfg.weight_decay)
            model.zero_grad()
            sums += (bd.total, bd.task, bd.ent, bd.cec, bd.lam)

        mean = sums / steps
        history.append(LossBreakdown(
            total=float(mean[0]), task=float(mean[1]), ent=float(mean[2]),
            cec=float(mean[3]), lam=float(mean[4]), gamma=cfg.gamma))
        val_out = forward(model, val_b)
        metric_history.append({"epoch": epoch, **_metric_rows(
            val_out, val_b.labels, np.arange(val_b.n)[None])[0]})

    temperature = None
    if cfg.temp_scaling:
        if val_out is None:  # no epoch ran, so no validation pass either
            val_out = forward(model, val_b)
        temperature = fit_temperature(val_out.logits.data, val_b.labels,
                                      multilabel=multilabel)
    val_out = None  # free the last validation pass before the test passes

    t_eval = time.perf_counter()
    eval_table, test_scatter = _dropout_table(
        model, test_b, rates=cfg.eval_rates, seeds=cfg.eval_seeds,
        seed=cfg.seed, temperature=temperature or 1.0)
    t_end = time.perf_counter()

    return RunResult(
        history=history, metric_history=metric_history, eval_table=eval_table,
        model=model, config_hash=run_config_hash(cfg, fcfg),
        wall_clock=t_end - t_start, temperature=temperature, v_max=v_max,
        test_scatter=test_scatter, eval_s=t_end - t_eval)


def evaluate_under_dropout(model: FusionModel, batch: MultimodalBatch,
                           rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.5),
                           seeds: int = 5, seed: int = 0,
                           temperature: float = 1.0) -> dict[float, dict[str, float]]:
    """Metrics under test-time modality dropout.

    For each rate, metrics are averaged over ``seeds`` independent mask
    draws, each intersected with the batch's presence; a row the draw would
    empty is read as observed. Rate 0 is the unmasked column, and so is
    every rate, evaluated once, when no row observes two modalities (e.g.
    single-modality runs): no draw can change such a batch.
    """
    views, read = dropout_block(batch, rates, seeds, seed, temperature)
    return read(*forward_views(model, batch, views))


def dropout_block(batch: MultimodalBatch, rates: tuple[float, ...],
                  seeds: int, seed: int, temperature: float):
    """The dropout block of a ``forward_views`` table: the batch's [V, n, M]
    views, view 0 its presence (the clean view, which a rate without draws
    reads) and then each drawn rate's, and ``read(passes, index)``, their
    table from the pass rows of their [V, n] ``index``."""
    check_rates(rates)
    if seeds < 1:
        raise ValueError("seeds must be positive")
    maskable = (batch.presence.sum(axis=1) > 1).any()
    views, spans = [batch.presence], []  # spans: the views each rate reads
    for r_index, rate in enumerate(rates):
        count = seeds if rate > 0.0 and maskable else 0
        spans.append(range(len(views), len(views) + count) or range(1))
        views += [keep_observed(batch.presence, bernoulli_mask(
            batch.n, batch.num_modalities, rate,
            stream(seed, f"eval:{r_index}:{s}")))[0] for s in range(count)]

    def read(passes: ForwardOutput, index: np.ndarray):
        rows = _metric_rows(passes, batch.labels, index, temperature)
        return {rate: {k: sum(rows[v][k] for v in span) / len(span)
                       for k in rows[0]} for rate, span in zip(rates, spans)}

    return np.array(views), read


def _dropout_table(model: FusionModel, batch: MultimodalBatch,
                   rates: tuple[float, ...], seeds: int, seed: int,
                   temperature: float):
    """``evaluate_under_dropout``'s table and its clean view's scatter rows."""
    views, read = dropout_block(batch, rates, seeds, seed, temperature)
    passes, index = forward_views(model, batch, views)
    return (read(passes, index),
            entropy_confidence_export(passes.take(index[0])))


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

    def nll(t: float) -> float:
        return float(task_term(logits / t, labels, multilabel)[0])

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
