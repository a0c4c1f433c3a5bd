"""Instance-adaptive entropy weight from predictive variance.

Each modality branch is scored by the variance of its predicted class logit
under inverted feature dropout at ``rate``, in closed form
(``dropout_variance``). The per-sample weight is

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
    "dropout_variance",
    "mean_branch_variance",
    "lambda_of",
    "calibrate_vmax",
    "softplus",
]


@dataclass(frozen=True)
class LambdaConfig:
    lam_min: float = 0.01
    rate: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.lam_min < np.inf:
            raise ValueError("lam_min must be finite and positive")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("rate must be in [0, 1)")


def dropout_variance(model, batch: MultimodalBatch,
                     rate: float = 0.1) -> np.ndarray:
    """Per-sample, per-branch variance of the predicted class logit when the
    branch input is hit with inverted dropout at ``rate``. Shape
    [n, modalities].

    Branch m's logits are h @ vw + head_b with vw = proj[m] @ head_w. Each
    feature h_j is kept with probability 1 - rate and then scaled by
    1 / (1 - rate), independently, so logit c has variance

        rate / (1 - rate) * sum_j h_j**2 * vw[j, c]**2

    exactly. It is read at the class k the undropped logits predict: the
    delta-method reading of the variance of the max logit (fast dropout).
    A modality a row does not observe (``batch.presence``) is no branch of
    that row, and its entry is 0; every entry is 0 when ``rate == 0``.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must be in [0, 1)")
    var = np.zeros((batch.n, batch.num_modalities))
    for m in range(batch.num_modalities):
        rows = np.flatnonzero(batch.presence[:, m])
        if rows.size == 0:
            continue
        h = batch.features[m][rows]
        vw = model.proj[m] @ model.head_w  # combined [d_m, classes]
        k = (h @ vw + model.head_b).argmax(axis=1)
        per_logit = (h * h) @ (vw * vw)
        var[rows, m] = rate / (1.0 - rate) * per_logit[np.arange(rows.size), k]
    return var


def mean_branch_variance(model, batch: MultimodalBatch,
                         cfg: LambdaConfig) -> np.ndarray:
    """v(x): each row's ``dropout_variance`` branch variances,

        rate / (1 - rate) * sum_j h_j**2 * vw_m[j, k_m]**2

    for the row's features h of modality m and its predicted class k_m on
    that branch, averaged over the modalities it observes (a batch row
    observes at least one)."""
    var = dropout_variance(model, batch, rate=cfg.rate)
    return var.sum(axis=1) / batch.presence.sum(axis=1)


def softplus(x):
    """log(1 + e^x), overflow-safe for large |x|. Works on scalars and arrays."""
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return float(out) if out.ndim == 0 else out


def lambda_of(model, batch: MultimodalBatch, cfg: LambdaConfig,
              v_max: float) -> np.ndarray:
    """Per-sample entropy weight, capped at ``v_max`` (``np.inf``: no cap)
    before the softplus. Raises ``ValueError`` unless v_max >= 0."""
    if not v_max >= 0.0:
        raise ValueError("v_max must be nonnegative")
    vbar = np.minimum(mean_branch_variance(model, batch, cfg), v_max)
    return cfg.lam_min + softplus(vbar)


def calibrate_vmax(model, batch: MultimodalBatch, cfg: LambdaConfig) -> float:
    """Largest uncapped mean branch variance on the given batch."""
    return float(mean_branch_variance(model, batch, cfg).max())
