"""Toroidal square-lattice geometry: Moore offsets, wrapping, distances, disk counts."""

from __future__ import annotations

import math
import mmap
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

    Returned as an (k, 2) array of signed shifts of at most ``side // 2``
    per axis; each reachable patch appears exactly once even when the disk
    wraps around the world.
    """
    ring = np.arange(side, dtype=np.int64) - side // 2  # every shift once, toroidal length |shift|
    out = np.argwhere(ring[:, None] ** 2 + ring ** 2 <= radius * radius) - side // 2
    out.setflags(write=False)
    return out


#: Cells of one stamp grid and keys of one stamp chunk: the memory bounds
#: of :func:`disk_counts`, whatever the number of groups, points or radius.
_GRID_CELLS = 1 << 20
_CHUNK_KEYS = 1 << 20


def disk_counts(side: int, radii, point_group, point_xy, query_group, query_xy,
                probes=None) -> np.ndarray:
    """Per query, the points of the query's group within the group's radius.

    Group g has radius ``radii[g]``; points and queries each carry an int64
    group index and (x, y) patch. With a (J, 2) array of ``probes`` the result
    is (Q, J), a transposed view of probe-major counts: the count around each
    query's patch moved by each probe offset. Without, it is 1-D, per query.

    Patches are keyed ``(group * side + x) * side + y`` on one flat grid,
    reused for each batch of groups of one radius (at most ``_GRID_CELLS``
    cells). A batch of P points, Q·J probed patches and k-patch disks pays
    for its smaller side: stamping every point's disk and reading one cell
    per probe costs P·k + Q·J, stamping each point once and summing each
    probe's disk costs P + Q·J·k, and the first is cheaper exactly when
    P <= Q·J. Keys are built ``_CHUNK_KEYS`` at a time on both sides and
    only stamped cells are zeroed again, so memory stays bounded. Counts
    are exact int64.
    """
    flat = probes is None
    cells, half = side * side, side // 2  # shifts are signed, as from ``disk_offsets``
    probes = _ORIGIN if flat else (np.asarray(probes, dtype=np.int64) + half) % side - half
    if probes.ndim != 2 or probes.shape[1] != 2 or not len(probes):
        raise ValueError(f"probes must be a (J, 2) array with J >= 1, got shape {probes.shape}")
    counts = np.zeros((len(probes), len(query_group)), dtype=np.int64)  # probe-major
    per_batch = max(1, _GRID_CELLS // cells)
    grid = np.zeros(min(len(radii), per_batch) * cells, dtype=np.int64)
    for radius in sorted(set(radii)):
        disk = disk_offsets(side, radius)
        groups = [g for g, r in enumerate(radii) if r == radius]
        for b in range(0, len(groups), per_batch):
            slot = np.full(len(radii), -1, dtype=np.int64)  # place in the grid
            slot[groups[b:b + per_batch]] = np.arange(len(groups[b:b + per_batch]))
            pts = np.flatnonzero(slot[point_group] >= 0)
            qs = np.flatnonzero(slot[query_group] >= 0)
            if len(pts) <= len(qs) * len(probes):
                stamp, read = disk, probes
            else:
                stamp, read = _ORIGIN, (probes[:, None] + disk + half).reshape(-1, 2) % side - half
            # Each chunk of points is stamped, read by every query and
            # unstamped; counts add up over the chunks.
            point_chunk, query_chunk = _CHUNK_KEYS // len(stamp) or 1, _CHUNK_KEYS // len(read) or 1
            for lo in range(0, len(pts), point_chunk):
                sel = pts[lo:lo + point_chunk]
                keys = _keys(side, slot[point_group[sel]], np.take(point_xy, sel, axis=0), stamp)
                np.add.at(grid, keys, 1)
                for qlo in range(0, len(qs), query_chunk):
                    q = qs[qlo:qlo + query_chunk]
                    at = _keys(side, slot[query_group[q]], np.take(query_xy, q, axis=0), read)
                    got = grid[at] if len(read) == len(probes) else (  # a cell or a disk per probe
                        grid[at].reshape(len(probes), -1, len(q)).sum(axis=1))
                    rows = q if len(q) < counts.shape[1] else slice(None)  # all queries: in place
                    counts[:, rows] += got
                grid[keys] = 0
    return counts[0] if flat else counts.T


_ORIGIN = np.zeros((1, 2), dtype=np.int64)
_ORIGIN.setflags(write=False)


@lru_cache(maxsize=16)
def _wrap_table(side: int, pad: int) -> np.ndarray:
    """Grid key of each patch of the world padded by ``pad`` on every side, in mapped
    memory: a long-lived table in the heap splits the space big temporaries reuse."""
    ring = np.arange(-pad, side + pad, dtype=np.int64) % side
    table = np.frombuffer(mmap.mmap(-1, 8 * len(ring) ** 2), dtype=np.int64)
    np.add(ring[:, None] * side, ring, out=table.reshape(len(ring), -1))
    table.setflags(write=False)
    return table


def _keys(side: int, slot, xy, shift) -> np.ndarray:
    """Grid keys of the patches ``xy + shift`` in grid slot ``slot``, one row
    per shift: shape (len(shift), len(xy)). Signed shifts index one wrap
    table padded by the largest: one add and one take per key."""
    pad = int(np.abs(shift).max())
    width = side + 2 * pad
    at = (shift[:, :1] * width + (shift[:, 1:] + pad * (width + 1))) + (xy[:, 0] * width + xy[:, 1])
    keys = np.take(_wrap_table(side, pad), at)
    keys += slot * (side * side)
    return keys


def disk_sum(grid: np.ndarray, side: int, radius: float) -> np.ndarray:
    """out[p] = sum of ``grid`` over the toroidal disk of ``radius`` at p.

    The disk is symmetric, so the roll direction does not matter.
    """
    out = np.zeros_like(grid)
    for dx, dy in disk_offsets(side, radius):
        out += np.roll(grid, (dx, dy), axis=(0, 1))
    return out
