"""Modality subsets and the strict-inclusion lattice over them."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

__all__ = ["SubsetMask", "subset_lattice", "nonempty_subsets"]


@dataclass(frozen=True)
class SubsetMask:
    """Bitmask over the M modalities. True marks a member of the subset.

    The same type denotes observed sets (fusion) and drop sets (masking);
    callers validate emptiness per use.
    """

    bits: tuple[bool, ...]

    @classmethod
    def from_indices(cls, modalities: int, indices) -> "SubsetMask":
        idx = set(int(i) for i in indices)
        if any(i < 0 or i >= modalities for i in idx):
            raise ValueError(f"index out of range for {modalities} modalities")
        return cls(tuple(i in idx for i in range(modalities)))

    @classmethod
    def full(cls, modalities: int) -> "SubsetMask":
        return cls((True,) * modalities)

    @classmethod
    def empty(cls, modalities: int) -> "SubsetMask":
        return cls((False,) * modalities)

    @property
    def count(self) -> int:
        return sum(self.bits)

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    def is_strict_subset_of(self, other: "SubsetMask") -> bool:
        if len(self.bits) != len(other.bits):
            raise ValueError("subset masks have different lengths")
        contained = all(not a or b for a, b in zip(self.bits, other.bits))
        return contained and self.bits != other.bits

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices()) + "}"


def nonempty_subsets(modalities: int) -> list[SubsetMask]:
    """All 2^M - 1 nonempty subsets, ordered by size then lexicographically."""
    out = []
    for k in range(1, modalities + 1):
        for combo in combinations(range(modalities), k):
            out.append(SubsetMask.from_indices(modalities, combo))
    return out


def subset_lattice(modalities: int) -> list[tuple[SubsetMask, SubsetMask]]:
    """All ordered pairs (A, B) of nonempty subsets with A strictly inside B."""
    if not 2 <= modalities <= 10:
        raise ValueError(f"modality count must be in [2, 10], got {modalities}")
    subsets = nonempty_subsets(modalities)
    return [(a, b) for a in subsets for b in subsets if a.is_strict_subset_of(b)]
