"""Modality subsets as [M] bool rows, True marking a member, and the
strict-inclusion lattice over them. The same row denotes an observed set
(fusion) or a drop set (masking)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = ["EXHAUSTIVE_MAX", "LATTICE_MAX", "SubsetLattice",
           "subset_lattice", "nonempty_subsets"]

# the most modalities for which every subset is enumerated: the audit, the
# all_subsets teacher family and the consistency penalty's unsampled lattice
EXHAUSTIVE_MAX = 4
# the most modalities for which the lattice is built at all, from which the
# consistency penalty samples its pairs beyond EXHAUSTIVE_MAX
LATTICE_MAX = 10


def nonempty_subsets(modalities: int) -> np.ndarray:
    """All 2^M - 1 nonempty subsets as [2^M - 1, M] bool rows, ordered by
    size then lexicographically."""
    return np.array([[m in combo for m in range(modalities)]
                     for k in range(1, modalities + 1)
                     for combo in combinations(range(modalities), k)],
                    dtype=bool).reshape(-1, modalities)


@dataclass(frozen=True, eq=False)
class SubsetLattice:
    """[S, M] bool ``subsets`` and [P, 2] (small, big) index ``pairs`` into
    them, subset ``small`` strictly inside subset ``big``. Validated once,
    here; both arrays are read-only copies."""

    subsets: np.ndarray
    pairs: np.ndarray

    def __post_init__(self):
        subsets = np.array(self.subsets, dtype=bool)
        pairs = np.array(self.pairs, dtype=np.int64)
        if subsets.ndim != 2 or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("need [S, M] subset rows and [P, 2] index pairs")
        if len(pairs) == 0 or pairs.min() < 0 or pairs.max() >= len(subsets):
            raise ValueError(f"need pairs of indices into {len(subsets)} "
                             "subsets, at least one")
        small, big = subsets[pairs[:, 0]], subsets[pairs[:, 1]]
        loose = (small > big).any(axis=1) | (small == big).all(axis=1)
        if loose.any():
            a, b = pairs[int(loose.argmax())]
            raise ValueError(f"pair ({a}, {b}) is not strict inclusion")
        for name, value in (("subsets", subsets), ("pairs", pairs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def select(self, rows) -> "SubsetLattice":
        """The lattice of the pairs ``rows`` picks, in that order, keeping
        only the subsets they mention, renumbered in order of first
        mention."""
        pairs = self.pairs[rows]
        order = np.array(list(dict.fromkeys(pairs.ravel().tolist())),
                         dtype=np.int64)
        renumber = np.empty(len(self.subsets), dtype=np.int64)
        renumber[order] = np.arange(len(order))
        return SubsetLattice(self.subsets[order], renumber[pairs])


def subset_lattice(modalities: int) -> SubsetLattice:
    """All pairs (A, B) of nonempty subsets with A strictly inside B, in
    nested ``nonempty_subsets`` order, A outer; the lattice's subsets are
    numbered in order of first mention."""
    if not 2 <= modalities <= LATTICE_MAX:
        raise ValueError(f"modality count must be in [2, {LATTICE_MAX}], "
                         f"got {modalities}")
    rows = nonempty_subsets(modalities)
    inside = (rows[:, None] <= rows[None]).all(axis=2)
    np.fill_diagonal(inside, False)
    return SubsetLattice(rows, np.argwhere(inside)).select(slice(None))
