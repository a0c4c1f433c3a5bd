"""Curriculum masking: warm-up schedules and the adaptive mask teacher.

Two deterministic linear ramps control training difficulty, saturating at
pi_max and lam_max. Mask shape comes either from plain Bernoulli draws or
from an adaptive teacher that prefers drop subsets that leave the gate
undecided: candidate subset S gets probability proportional to
exp(mean_entropy_after_dropping_S / eta).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import MultimodalBatch, apply_mask
from .subsets import SubsetMask, nonempty_subsets

__all__ = [
    "Schedules",
    "MaskDistribution",
    "schedule_pi",
    "schedule_lambda",
    "candidate_family",
    "acm_distribution",
    "sample_mask",
    "sample_keep",
    "masks_to_keep",
]


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
        if self.lam_max < 0.0:
            raise ValueError("lam_max must be nonnegative")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.mode not in ("bernoulli", "acm"):
            raise ValueError(f"unknown mask mode {self.mode!r}")


def schedule_pi(t: int, s: Schedules) -> float:
    """pi_t = pi_max * min(1, t / t_warm); saturates at pi_max."""
    if t < 0:
        raise ValueError("epoch index must be nonnegative")
    return s.pi_max * min(1.0, t / s.t_warm)


def schedule_lambda(t: int, s: Schedules) -> float:
    """lam_t = lam_max * min(1, t / t_lam); saturates at lam_max."""
    if t < 0:
        raise ValueError("epoch index must be nonnegative")
    return s.lam_max * min(1.0, t / s.t_lam)


@dataclass(frozen=True)
class MaskDistribution:
    """Categorical distribution over candidate drop subsets.

    The support never contains the full drop (some modality always stays).
    """

    support: tuple[SubsetMask, ...]
    probs: np.ndarray
    mean_entropies: np.ndarray
    # derived once here rather than on every sampling call
    drop_table: np.ndarray = field(init=False, repr=False, compare=False)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.support) == 0:
            raise ValueError("support must be nonempty")
        widths = {len(s.bits) for s in self.support}
        if len(widths) != 1:
            raise ValueError("support subsets must share one modality count")
        if any(s.count == len(s.bits) for s in self.support):
            raise ValueError("support must exclude the full drop subset")
        if self.probs.shape != (len(self.support),):
            raise ValueError("probs length must match support")
        if (self.probs < 0).any() or abs(self.probs.sum() - 1.0) > 1e-9:
            raise ValueError("probs must lie on the simplex")
        if self.mean_entropies.shape != self.probs.shape:
            raise ValueError("mean_entropies length must match support")
        object.__setattr__(self, "drop_table", np.array(
            [s.bits for s in self.support], dtype=bool))
        object.__setattr__(self, "cdf", np.cumsum(self.probs))


def candidate_family(modalities: int, family: str) -> list[SubsetMask]:
    """Candidate drop subsets: exhaustive nonempty proper subsets for small
    modality counts, or just the M singletons (linear cost)."""
    if family == "all_subsets":
        if modalities > 4:
            raise ValueError("all_subsets family is limited to 4 modalities")
        return [s for s in nonempty_subsets(modalities) if s.count < modalities]
    if family == "single_drops":
        return [SubsetMask.from_indices(modalities, [m]) for m in range(modalities)]
    raise ValueError(f"unknown family {family!r}")


def acm_distribution(model, batch: MultimodalBatch, eta: float,
                     family: str = "single_drops") -> MaskDistribution:
    """Softmax over per-candidate probe entropies: drop subsets after which
    the gate stays most undecided are sampled most often."""
    from .model import gate_rows  # deferred to avoid an import cycle

    from .tensor import entropy_rows

    if eta <= 0.0:
        raise ValueError("eta must be positive")
    candidates = candidate_family(batch.num_modalities, family)
    entropies = np.empty(len(candidates))
    for i, drop in enumerate(candidates):
        p = gate_rows(model, apply_mask(batch, drop=drop))
        entropies[i] = float(entropy_rows(p).data.mean())
    scaled = entropies / eta
    scaled = scaled - scaled.max()  # softmax shift, exact distribution unchanged
    weights = np.exp(scaled)
    probs = weights / weights.sum()
    return MaskDistribution(support=tuple(candidates), probs=probs,
                            mean_entropies=entropies)


def sample_mask(dist: MaskDistribution, pi_t: float, n: int,
                rng: np.random.Generator) -> list[SubsetMask]:
    """Per-sample drop subsets: with probability pi_t draw from the teacher,
    otherwise drop nothing. Always consumes the same rng amount for a given
    n, so downstream draws do not shift with pi_t."""
    if not 0.0 <= pi_t <= 1.0:
        raise ValueError("pi_t must be in [0, 1]")
    if n < 1:
        raise ValueError("need at least one sample")
    modalities = len(dist.support[0].bits)
    gate = rng.random(n) < pi_t
    picks = _pick_support(dist, n, rng)
    empty = SubsetMask.empty(modalities)
    return [dist.support[picks[i]] if gate[i] else empty for i in range(n)]


def _pick_support(dist: MaskDistribution, n: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF draws from the teacher; one uniform per sample, matching
    rng.choice(len(support), size=n, p=probs) draw for draw."""
    return np.searchsorted(dist.cdf, rng.random(n), side="right")


def masks_to_keep(masks: list[SubsetMask]) -> np.ndarray:
    """Convert per-sample drop subsets to a boolean keep matrix [n, M]."""
    if not masks:
        raise ValueError("need at least one mask")
    drop = np.array([m.bits for m in masks], dtype=bool)
    return ~drop


def sample_keep(dist: MaskDistribution, pi_t: float, n: int,
                rng: np.random.Generator) -> np.ndarray:
    """Keep matrix equal to masks_to_keep(sample_mask(...)) without building
    the subset list; consumes the rng identically."""
    if not 0.0 <= pi_t <= 1.0:
        raise ValueError("pi_t must be in [0, 1]")
    if n < 1:
        raise ValueError("need at least one sample")
    gate = rng.random(n) < pi_t
    picks = _pick_support(dist, n, rng)
    drop = np.where(gate[:, None], dist.drop_table[picks], False)
    return ~drop
