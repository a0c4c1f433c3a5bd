"""Curriculum masking: the warm-up ramp and the adaptive mask teacher.

One deterministic linear ramp sets training difficulty, for the mask rate
(saturating at pi_max) and the scheduled entropy weight (at lam_max). Mask
shape comes either from plain Bernoulli draws or from an adaptive teacher
that prefers drop subsets that leave the gate undecided: candidate subset S
gets probability proportional to exp(mean_entropy_after_dropping_S / eta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MultimodalBatch, keep_observed
from .model import entropy_rows, gate_rows
from .subsets import EXHAUSTIVE_MAX, nonempty_subsets

__all__ = [
    "FAMILIES",
    "Schedules",
    "MaskDistribution",
    "ramp",
    "candidate_family",
    "acm_distribution",
    "sample_keep",
]


# the candidate families of the mask teacher (``candidate_family``)
FAMILIES = ("single_drops", "all_subsets")


@dataclass(frozen=True)
class Schedules:
    t_warm: int = 10
    pi_max: float = 0.40
    t_lam: int = 10
    lam_max: float = 0.08
    eta: float = 1.0
    mode: str = "bernoulli"  # "bernoulli" or "acm"

    def __post_init__(self):
        if self.t_warm < 1 or self.t_lam < 1:
            raise ValueError("warm-up horizons must be at least one epoch")
        if not 0.0 < self.pi_max < 1.0:
            raise ValueError("pi_max must be in (0, 1)")
        if not 0.0 <= self.lam_max < np.inf:
            raise ValueError("lam_max must be finite and nonnegative")
        if not 0.0 < self.eta < np.inf:
            raise ValueError("eta must be finite and positive")
        if self.mode not in ("bernoulli", "acm"):
            raise ValueError(f"unknown mask mode {self.mode!r}")


def ramp(t: int, horizon: int, peak: float) -> float:
    """peak * min(1, t / horizon), the warm-up at epoch t: pi_t runs it over
    (t_warm, pi_max) and lam_t over (t_lam, lam_max)."""
    if t < 0:
        raise ValueError("epoch index must be nonnegative")
    return peak * min(1.0, t / horizon)


@dataclass(frozen=True)
class MaskDistribution:
    """Categorical distribution over candidate drop subsets, the [K, M]
    bool rows of ``support``, with the CDF of ``probs`` that ``sample_keep``
    draws from: their cumsum, normalized to end at exactly 1.

    The support never contains the full drop (some modality always stays).
    """

    support: np.ndarray
    probs: np.ndarray
    mean_entropies: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.support.dtype != bool or self.support.ndim != 2
                or len(self.support) == 0):
            raise ValueError("support must be nonempty [K, M] bool rows")
        if self.support.all(axis=1).any():
            raise ValueError("support must exclude the full drop subset")
        if self.probs.shape != (len(self.support),):
            raise ValueError("probs length must match support")
        # written so that NaN fails: every comparison with NaN is False
        if not ((self.probs >= 0).all() and abs(self.probs.sum() - 1.0) <= 1e-9):
            raise ValueError("probs must lie on the simplex")
        if self.mean_entropies.shape != self.probs.shape:
            raise ValueError("mean_entropies length must match support")
        cdf = np.cumsum(self.probs)
        object.__setattr__(self, "cdf", cdf / cdf[-1])


def candidate_family(modalities: int, family: str) -> np.ndarray:
    """Candidate drop subsets as [K, M] bool rows: exhaustive nonempty
    proper subsets for small modality counts, or just the M singletons
    (linear cost), by name in ``FAMILIES``."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family == "single_drops":
        return np.eye(modalities, dtype=bool)
    if modalities > EXHAUSTIVE_MAX:
        raise ValueError("all_subsets family is limited to "
                         f"{EXHAUSTIVE_MAX} modalities")
    return nonempty_subsets(modalities)[:-1]


def acm_distribution(model, batch: MultimodalBatch, eta: float,
                     family: str = "single_drops") -> MaskDistribution:
    """Softmax over per-candidate probe entropies: drop subsets after which
    the gate stays most undecided are sampled most often. Each candidate is
    one ``gate_rows`` view of the probe rows, and its entropy the mean over
    the rows it leaves live (``keep_observed``). A candidate that leaves no
    live row more than one modality scores 0 with no gate pass: one-hot
    weights have entropy 0, and so does a candidate with no live row."""
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    candidates = candidate_family(batch.num_modalities, family)
    entropies = np.zeros(len(candidates))
    for i, drop in enumerate(candidates):
        view, live = keep_observed(batch.presence, ~drop)
        if (live & (view.sum(axis=1) > 1)).any():
            entropies[i] = float(entropy_rows(
                gate_rows(model, batch, view[None]).data)[live].mean())
    scaled = entropies / eta
    scaled = scaled - scaled.max()  # softmax shift, exact distribution unchanged
    weights = np.exp(scaled)
    probs = weights / weights.sum()
    return MaskDistribution(support=candidates, probs=probs,
                            mean_entropies=entropies)


def sample_keep(dist: MaskDistribution, pi_t: float, n: int,
                rng: np.random.Generator) -> np.ndarray:
    """Per-sample keep matrix [n, M]: with probability pi_t a row drops the
    subset it draws from the teacher, otherwise it drops nothing. Always
    consumes the same rng amount for a given n, so downstream draws do not
    shift with pi_t."""
    if not 0.0 <= pi_t <= 1.0:
        raise ValueError("pi_t must be in [0, 1]")
    if n < 1:
        raise ValueError("need at least one sample")
    gate = rng.random(n) < pi_t
    # inverse-CDF draws from the teacher, one uniform per sample, matching
    # rng.choice(len(support), size=n, p=probs) draw for draw: the CDF ends
    # at exactly 1, so every draw picks a candidate
    picks = np.searchsorted(dist.cdf, rng.random(n), side="right")
    drop = np.where(gate[:, None], dist.support[picks], False)
    return ~drop
