"""Instance-adaptive entropy weight from predictive variance.

Each modality branch is scored by the variance of its max class logit under
Monte-Carlo feature dropout (``mc_variance``). The per-sample weight is

    lam(x) = lam_min + softplus(min(v(x), v_max)),
    v(x) = sum over observed m of var_m(x) / |observed(x)|,

the mean over the branches of the modalities the row observes, so it is
bounded in (lam_min, lam_min + softplus(v_max)]; the cap v_max is measured,
the largest v(x) on a validation batch (``calibrate_vmax``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MultimodalBatch

__all__ = [
    "LambdaConfig",
    "mc_variance",
    "mean_branch_variance",
    "lambda_of",
    "calibrate_vmax",
    "lambda_upper",
    "softplus",
]


@dataclass(frozen=True)
class LambdaConfig:
    lam_min: float = 0.01
    draws: int = 20
    rate: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.lam_min < np.inf:
            raise ValueError("lam_min must be finite and positive")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        if self.draws < 2:
            raise ValueError("variance needs at least two draws")


# Entries drawn per dropout block: enough draws per block to amortize the
# per-op overhead on these small arrays, few enough that the block stays in
# cache and the working set does not grow with the draw count. On a 2-core
# Xeon (AVX-512, 4 MiB L2) 2**15 beat 2**14 and 2**16 on 128 x 32 batches.
BLOCK = 1 << 15


def mc_variance(model, batch: MultimodalBatch, rng: np.random.Generator,
                draws: int = 20, rate: float = 0.1) -> np.ndarray:
    """Per-sample, per-branch variance (ddof=1) of the max class logit when
    the branch input is hit with inverted dropout. Shape [n, modalities].
    A modality a row does not observe (``batch.presence``) is no branch of
    that row: it takes no draws and its entry is 0.

    The masks come from one stream of 16-bit lanes. For modality m, observed
    by r rows (in row order) with d features, each draw reads
    ceil(r * d / 4) words of ``rng.bit_generator.random_raw`` as
    little-endian uint16 lanes, and its first r * d lanes are the draw's
    [r, d] entries in row-major order. An entry drops when its lane is
    below cut = round(rate * 2**16), so the realised drop probability is
    cut / 2**16; a kept entry is scaled by 1 / (1 - rate). Draws are taken
    modality by modality and draw-major within a modality, in blocks of
    max(1, BLOCK // (r * d)) draws with one ``random_raw`` call each, so
    the estimate does not depend on the blocking, and the dropout working
    set is BLOCK entries or one draw, whichever is larger, whatever
    ``draws`` is; only the [draws, n] max logits grow with ``draws``.
    ``rate == 0`` draws nothing.
    """
    if draws < 2:
        raise ValueError("variance needs at least two draws")
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    n = batch.n
    var = np.zeros((n, batch.num_modalities))
    head_w, head_b = model.head_w, model.head_b
    # a Python int, compared by value: at 2**16 (rates within 2**-17 of 1)
    # every lane drops rather than the threshold wrapping to 0 in uint16
    cut = round(rate * 2**16)
    samples = np.empty(draws * n)  # each modality's [draws, r] max logits
    for m in range(batch.num_modalities):
        rows = np.flatnonzero(batch.presence[:, m])
        r = rows.size
        if r == 0:
            continue
        h = batch.features[m][rows]
        d = h.shape[1]
        vw = model.proj[m] @ head_w  # combined [d_m, classes]
        ys = samples[:draws * r].reshape(draws, r)
        if rate == 0.0:
            ys[:] = (h @ vw + head_b).max(axis=1)
        else:
            scaled = h / (1.0 - rate)
            words = -(-r * d // 4)
            block = np.empty((min(draws, max(1, BLOCK // (r * d))), r, d))
            for lo in range(0, draws, len(block)):
                u = block[:draws - lo]
                raw = rng.bit_generator.random_raw(len(u) * words)
                lanes = raw.astype("<u8", copy=False).view("<u2")
                np.greater_equal(
                    lanes.reshape(len(u), -1)[:, :r * d].reshape(u.shape),
                    cut, out=u)
                u *= scaled
                # the stacked matmul makes the same BLAS call per draw as a
                # single [r, d_m] @ [d_m, classes] product, so each draw's
                # logits are bit-identical to it; the class axis goes first
                # so the max runs over a few long rows
                logits = np.empty((vw.shape[1], len(u), r))
                np.add((u @ vw).transpose(2, 0, 1), head_b[:, None, None],
                       out=logits)
                logits.max(axis=0, out=ys[lo:lo + len(u)])
        # ys.var(axis=0, ddof=1) step for step, but in place: the samples
        # are the one array here that grows with draws
        mean = ys.sum(axis=0) / draws
        ys -= mean
        ys *= ys
        var[rows, m] = ys.sum(axis=0) / (draws - 1)
    return var


def mean_branch_variance(model, batch: MultimodalBatch, cfg: LambdaConfig,
                         rng: np.random.Generator) -> np.ndarray:
    """v(x): each row's ``mc_variance`` branch variances averaged over the
    modalities it observes (a batch row observes at least one)."""
    var = mc_variance(model, batch, rng, draws=cfg.draws, rate=cfg.rate)
    return var.sum(axis=1) / batch.presence.sum(axis=1)


def softplus(x):
    """log(1 + e^x), overflow-safe for large |x|. Works on scalars and arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def lambda_of(model, batch: MultimodalBatch, cfg: LambdaConfig,
              rng: np.random.Generator, v_max: float) -> np.ndarray:
    """Per-sample entropy weight, capped at ``v_max`` (``np.inf``: no cap)
    before the softplus. Raises ``ValueError`` unless v_max >= 0."""
    if not v_max >= 0.0:
        raise ValueError("v_max must be nonnegative")
    vbar = np.minimum(mean_branch_variance(model, batch, cfg, rng), v_max)
    return cfg.lam_min + softplus(vbar)


def calibrate_vmax(model, batch: MultimodalBatch, cfg: LambdaConfig,
                   rng: np.random.Generator) -> float:
    """Largest uncapped mean branch variance on the given batch."""
    return float(mean_branch_variance(model, batch, cfg, rng).max())


def lambda_upper(cfg: LambdaConfig, v_max: float) -> float:
    """Supremum of lambda_of under this config and cap (attained at it)."""
    return cfg.lam_min + float(softplus(v_max))
