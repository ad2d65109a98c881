"""Toroidal square-lattice geometry: Moore offsets, wrapping, distances, disk counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: The 8 single-step displacements of the Moore neighbourhood, row-major.
#: The offset at index k is the negation of the offset at index 7 - k;
#: the stepping kernel relies on that pairing to read opposite probes.
MOORE_OFFSETS: tuple[tuple[int, int], ...] = (
    (-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1),
)

OFFSET_ARRAY = np.array(MOORE_OFFSETS, dtype=np.int64)
OFFSET_ARRAY.setflags(write=False)

#: Euclidean length of each offset: 1 for axis moves, sqrt(2) for diagonals.
OFFSET_LENGTHS = np.hypot(OFFSET_ARRAY[:, 0], OFFSET_ARRAY[:, 1])
OFFSET_LENGTHS.setflags(write=False)


@dataclass(frozen=True)
class Lattice:
    """Square world of ``side`` x ``side`` unit patches with wrapped edges.

    Sides below 3 are rejected: there the 8-neighbourhood would overlap
    itself and single steps would not be well defined.
    """

    side: int

    def __post_init__(self) -> None:
        if self.side < 3:
            raise ValueError(f"lattice side must be >= 3, got {self.side}")

    @property
    def patch_count(self) -> int:
        return self.side * self.side


def wrap(pos, lattice: Lattice) -> tuple[int, int]:
    """Reduce an integer coordinate pair into [0, side) on both axes."""
    x, y = pos
    return int(x) % lattice.side, int(y) % lattice.side


def wrapped_delta(a: int, b: int, side: int) -> int:
    """Shortest separation of two coordinates on a ring of length ``side``."""
    d = abs(int(a) - int(b)) % side
    return min(d, side - d)


def toroidal_distance(a, b, lattice: Lattice) -> float:
    """Euclidean distance between two patches using wrapped per-axis deltas."""
    dx = wrapped_delta(a[0], b[0], lattice.side)
    dy = wrapped_delta(a[1], b[1], lattice.side)
    return math.hypot(dx, dy)


def within_distance(a, b, side: int, radius: float) -> bool:
    """Inclusion test dist(a, b) <= radius.

    Compared as integer squared distance against radius**2 so that every
    caller (field kernels, neighbourhood reports, oracles) agrees on
    boundary patches regardless of sqrt rounding.
    """
    dx = wrapped_delta(a[0], b[0], side)
    dy = wrapped_delta(a[1], b[1], side)
    return dx * dx + dy * dy <= radius * radius


@lru_cache(maxsize=None)
def disk_offsets(side: int, radius: float) -> np.ndarray:
    """Patch offsets within toroidal distance ``radius`` of a patch.

    Returned as an (k, 2) array of roll shifts in [0, side); each reachable
    patch appears exactly once even when the disk wraps around the world.
    """
    ring = np.arange(side, dtype=np.int64)
    sq = np.minimum(ring, side - ring) ** 2
    out = np.argwhere(sq[:, None] + sq[None, :] <= radius * radius)
    out.setflags(write=False)
    return out


#: Cells of one stamp grid and keys of one stamp chunk: the memory bounds
#: of :func:`disk_counts`, whatever the number of groups, points or radius.
_GRID_CELLS = 1 << 20
_CHUNK_KEYS = 1 << 20


def disk_counts(side: int, radii, point_group, point_xy, query_group, query_xy) -> np.ndarray:
    """Per query, the points of the query's group within the group's radius.

    Group g has radius ``radii[g]``; points and queries each carry an int64
    group index and (x, y) patch. Every point stamps its ``disk_offsets`` once
    onto a flat grid keyed ``(group * side + x) * side + y``, and each query
    reads its own key. A grid holds a batch of groups of one radius, at most
    ``_GRID_CELLS`` cells, and stamps are added ``_CHUNK_KEYS`` keys at a
    time, so memory stays bounded. Counts are exact int64.
    """
    counts = np.zeros(len(query_group), dtype=np.int64)
    cells = side * side
    per_batch = max(1, _GRID_CELLS // cells)
    grid = np.zeros(min(len(radii), per_batch) * cells, dtype=np.int64)
    for radius in sorted(set(radii)):
        offs = disk_offsets(side, radius)
        chunk = max(1, _CHUNK_KEYS // len(offs))
        groups = [g for g, r in enumerate(radii) if r == radius]
        for b in range(0, len(groups), per_batch):
            slot = np.full(len(radii), -1, dtype=np.int64)  # place in the grid
            slot[groups[b:b + per_batch]] = np.arange(len(groups[b:b + per_batch]))
            pts = np.flatnonzero(slot[point_group] >= 0)
            qs = np.flatnonzero(slot[query_group] >= 0)
            for lo in range(0, len(pts), chunk):
                sel = pts[lo:lo + chunk]
                xy = np.take(point_xy, sel, axis=0)
                x = (xy[:, 0:1] + offs[:, 0]) % side
                y = (xy[:, 1:2] + offs[:, 1]) % side
                np.add.at(grid, ((slot[point_group[sel], None] * side + x) * side + y).ravel(), 1)
            counts[qs] = grid[(slot[query_group[qs]] * side + query_xy[qs, 0]) * side + query_xy[qs, 1]]
            grid.fill(0)
    return counts


def disk_sum(grid: np.ndarray, side: int, radius: float) -> np.ndarray:
    """out[p] = sum of ``grid`` over the toroidal disk of ``radius`` at p.

    The disk is symmetric, so the roll direction does not matter.
    """
    out = np.zeros_like(grid)
    for dx, dy in disk_offsets(side, radius):
        out += np.roll(grid, (dx, dy), axis=(0, 1))
    return out
