"""Contiguous z-order partitioning into simulated ranks, ghosts and metrics.

Ranks are index ranges over the global leaf array.  A rank's ghost layer
holds the leaves it does not own that share a face with one it does.  What
is simulated is the decomposition: the ranges, the ghost sets and the load
and frontier metrics.  The solver itself makes one pass over all leaves, so
no result depends on the rank count; the test suite checks that every face
row a rank would flux reads only its owned cells and its ghost layer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from amrfv.errors import ConfigError
from amrfv.forest import Forest

__all__ = ["PartitionMap", "GhostLayer", "partition", "adjacency", "ghost_layer", "balance_metrics", "RankMetrics",
           "metrics_csv"]


@dataclass(frozen=True)
class PartitionMap:
    """P+1 ascending offsets; rank r owns leaves [offsets[r], offsets[r+1])."""

    offsets: tuple[int, ...]

    @property
    def P(self) -> int:
        return len(self.offsets) - 1

    def range(self, rank: int) -> tuple[int, int]:
        return self.offsets[rank], self.offsets[rank + 1]

    def owner_of(self, leaves: np.ndarray) -> np.ndarray:
        return np.searchsorted(np.asarray(self.offsets), leaves, side="right") - 1


@dataclass(frozen=True)
class GhostLayer:
    """Sorted indices of non-owned leaves face-adjacent to a rank's cells."""

    indices: np.ndarray


def partition(f: Forest, P: int) -> PartitionMap:
    """Equal split of the leaf array; range sizes differ by at most one."""
    n = f.nleaves
    if P < 1:
        raise ConfigError(f"rank count must be >= 1, got {P}")
    if P > n:
        raise ConfigError(f"cannot split {n} leaves over {P} ranks")
    base, extra = divmod(n, P)  # the first ``extra`` ranks own one leaf more
    return PartitionMap(tuple(r * base + min(r, extra) for r in range(P + 1)))


def adjacency(f: Forest) -> tuple[np.ndarray, np.ndarray]:
    """All face-adjacent leaf pairs (lo, hi), one entry per face row (a wall pairs a leaf with itself)."""
    rows = [f.face_list(axis) for axis in range(f.dim)]
    return np.concatenate([fl.lo for fl in rows]), np.concatenate([fl.hi for fl in rows])


def ghost_layer(f: Forest, pm: PartitionMap, rank: int, pairs=None) -> GhostLayer:
    """Leaves outside the rank's range that neighbor an owned leaf; ``pairs`` may hand in ``adjacency(f)``."""
    lo_idx, hi_idx = pm.range(rank)
    a, b = adjacency(f) if pairs is None else pairs
    own_a = (a >= lo_idx) & (a < hi_idx)
    own_b = (b >= lo_idx) & (b < hi_idx)
    ghosts = np.concatenate([b[own_a & ~own_b], a[own_b & ~own_a]])
    return GhostLayer(np.unique(ghosts))


@dataclass(frozen=True)
class RankMetrics:
    rank: int
    leaves: int
    frontier: int
    ratio: float
    components: int


def _component_counts(pm: PartitionMap, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected components of each rank's region under the face pairs (a, b) within one rank.

    Every leaf starts as its own label; each round both ends of every pair
    take the smaller of their labels, and each label jumps to its own
    label, until nothing moves.  Labels only fall and stay in a component,
    so each component ends with one leaf that is its own label.
    """
    label = np.arange(pm.offsets[-1])
    while True:
        last = label.copy()
        least = np.minimum(label.take(a), label.take(b))
        np.minimum.at(label, a, least)
        np.minimum.at(label, b, least)
        label = label.take(label)
        if np.array_equal(label, last):
            return np.bincount(pm.owner_of(np.flatnonzero(label == np.arange(len(label)))), minlength=pm.P)


def balance_metrics(f: Forest, pm: PartitionMap) -> list[RankMetrics]:
    """Per-rank load, frontier-cell count and ratio, component count."""
    a, b = adjacency(f)
    inner = pm.owner_of(a) == pm.owner_of(b)
    comps = _component_counts(pm, a[inner], b[inner])
    # a frontier cell is an end of a pair that joins two ranks, counted once for its owner
    frontier = np.bincount(pm.owner_of(np.unique(np.concatenate([a[~inner], b[~inner]]))), minlength=pm.P)
    return [
        RankMetrics(r, n, k, k / n if n else 0.0, c)
        for r, (n, k, c) in enumerate(zip(np.diff(pm.offsets).tolist(), frontier.tolist(), comps.tolist()))
    ]


def metrics_csv(metrics: list[RankMetrics], ghosts: list[int]) -> str:
    lines = ["rank,leaves,frontier,ratio,components,ghosts"]
    for m, g in zip(metrics, ghosts, strict=True):
        lines.append(f"{m.rank},{m.leaves},{m.frontier},{m.ratio!r},{m.components},{g}")
    return "\n".join(lines) + "\n"
